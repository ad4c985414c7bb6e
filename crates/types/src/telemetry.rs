//! Interval telemetry: time-resolved metrics for the trained filter.
//!
//! End-of-run aggregates in [`SimStats`] hide exactly the
//! transient the paper's mechanism lives or dies by — the §4 history table
//! starts weakly-good and converges only after PIB/RIB evictions feed back,
//! so the interesting signal (how fast `fraction_good` leaves its init, how
//! large the bad-prefetch burst is before the counters train) is a *curve*,
//! not a number. This module provides the zero-dependency plumbing for that
//! curve:
//!
//! * [`IntervalSampler`] — closes an interval every `interval_cycles`
//!   cycles and differences the cumulative [`SimStats`] it is handed
//!   against the previous sample into an [`IntervalRecord`] (IPC, L1 miss
//!   rate, per-source prefetch issued/filtered/dropped, bus occupancy, …),
//!   plus three instantaneous gauges the simulator reads at the sample
//!   cycle because no cumulative counter yields them (filter
//!   `fraction_good`, lines still in flight, prefetch-queue backlog).
//! * [`to_jsonl`] / [`parse_jsonl`] — one compact record per line. Streams
//!   are written with [`write_atomic`](crate::write_atomic), like every
//!   file the harness writes, so a telemetry directory can sit next to a
//!   checkpoint directory and a crash never leaves a half-written file.
//!
//! Telemetry is an interval a run either has or does not have: the
//! simulator holds an `Option<IntervalSampler>` that is `None` unless a run
//! asks for an interval, its per-cycle hook is one branch on that option,
//! and nothing here ever writes to `SimStats` — so a telemetry-off run is
//! cycle-for-cycle identical to a pre-telemetry build, and any sampling
//! interval leaves the statistics unchanged (asserted by
//! `tests/telemetry.rs`).

use crate::json_struct;
use crate::stats::{PerSource, SimStats};
use crate::{Cycle, PpfError};

/// Default sampling interval: long enough that a 1M-instruction run emits
/// a few hundred records, short enough to resolve the filter's warm-up.
pub const DEFAULT_INTERVAL_CYCLES: u64 = 10_000;

/// One sampled interval: deltas of the cumulative funnel counters plus the
/// instantaneous gauges, in measurement-relative cycles (cycle 0 is the
/// last statistics reset, i.e. the warm-up boundary).
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalRecord {
    /// Interval index (0-based).
    pub interval: u64,
    /// First cycle of the interval, relative to the measurement origin.
    pub start_cycle: u64,
    /// One past the last cycle of the interval.
    pub end_cycle: u64,
    /// Instructions retired during the interval.
    pub instructions: u64,
    /// Instructions per cycle over the interval.
    pub ipc: f64,
    /// L1 demand miss rate over the interval (0 when no demand accesses).
    pub l1_miss_rate: f64,
    /// Prefetches issued to the L1 this interval, per source.
    pub prefetch_issued: PerSource,
    /// Prefetches rejected by the pollution filter this interval.
    pub prefetch_filtered: PerSource,
    /// Prefetches dropped on queue overflow this interval.
    pub prefetch_dropped: PerSource,
    /// Prefetched lines classified good (referenced) this interval.
    pub prefetch_good: u64,
    /// Prefetched lines classified bad (evicted unreferenced) this interval.
    pub prefetch_bad: u64,
    /// Filter history-table fraction predicting "good" at sample time — the
    /// convergence gauge (starts at 1.0 under the weakly-good init).
    pub fraction_good: f64,
    /// Fraction of interval cycles the memory bus was busy.
    pub bus_occupancy: f64,
    /// L1D, prefetch-buffer and victim-cache lines whose fill-ready cycle
    /// is after the sample cycle: the fills still in flight. The key keeps
    /// its name so the JSONL schema stays stable.
    pub mshr_live: u64,
    /// Prefetch-queue backlog at sample time.
    pub queue_backlog: u64,
}

json_struct!(IntervalRecord {
    interval,
    start_cycle,
    end_cycle,
    instructions,
    ipc,
    l1_miss_rate,
    prefetch_issued,
    prefetch_filtered,
    prefetch_dropped,
    prefetch_good,
    prefetch_bad,
    fraction_good,
    bus_occupancy,
    mshr_live,
    queue_backlog,
});

/// The interval sampler the simulator ticks from its per-cycle loop.
///
/// Read-only with respect to the machine: it observes the `SimStats` and
/// gauges each [`sample`](IntervalSampler::sample) is handed, and never
/// feeds anything back — the structural argument for "telemetry cannot
/// change simulation results".
#[derive(Debug, Clone)]
pub struct IntervalSampler {
    interval: u64,
    /// Cycle of the current measurement origin (last statistics reset).
    origin: Cycle,
    /// Absolute cycle at which the next sample is due.
    next_due: Cycle,
    /// Cumulative counters at the previous sample (zero at the origin).
    prev: SimStats,
    prev_instructions: u64,
    records: Vec<IntervalRecord>,
}

impl IntervalSampler {
    /// A sampler closing an interval every `interval_cycles` cycles. Fails
    /// on a zero interval, which would sample forever without advancing.
    pub fn new(interval_cycles: u64) -> Result<Self, PpfError> {
        if interval_cycles == 0 {
            return Err(PpfError::config_invalid(
                "telemetry interval_cycles must be nonzero",
            ));
        }
        Ok(IntervalSampler {
            interval: interval_cycles,
            origin: 0,
            next_due: interval_cycles,
            prev: SimStats::default(),
            prev_instructions: 0,
            records: Vec::new(),
        })
    }

    /// Absolute cycle at which the next sample is due — the simulator's
    /// cheap per-cycle guard (`now < next_due()` skips everything else).
    #[inline]
    pub fn next_due(&self) -> Cycle {
        self.next_due
    }

    /// Restart sampling at `origin` (the warm-up/measurement boundary):
    /// drops warm-up records so intervals line up with the measured
    /// `SimStats`, whose counters were just reset to zero.
    pub fn reset(&mut self, origin: Cycle) {
        self.origin = origin;
        self.next_due = origin + self.interval;
        self.prev = SimStats::default();
        self.prev_instructions = 0;
        self.records.clear();
    }

    /// Close the interval ending at `now` and append its record.
    /// `instructions` is the cumulative retired-instruction count since the
    /// measurement origin (it lives in the driving core's stats struct,
    /// separate from the memory-side `stats`). The three gauges are the
    /// machine's state at `now`, which no cumulative counter yields.
    pub fn sample(
        &mut self,
        now: Cycle,
        instructions: u64,
        stats: &SimStats,
        fraction_good: f64,
        mshr_live: u64,
        queue_backlog: u64,
    ) {
        let prev = &self.prev;
        let d_insts = instructions - self.prev_instructions;
        let d_acc = stats.l1.demand_accesses - prev.l1.demand_accesses;
        let d_miss = stats.l1.demand_misses - prev.l1.demand_misses;
        let d_bus = stats.bus_busy_cycles.saturating_sub(prev.bus_busy_cycles);
        self.records.push(IntervalRecord {
            interval: (now - self.origin) / self.interval - 1,
            start_cycle: now - self.origin - self.interval,
            end_cycle: now - self.origin,
            instructions: d_insts,
            ipc: d_insts as f64 / self.interval as f64,
            l1_miss_rate: if d_acc == 0 {
                0.0
            } else {
                d_miss as f64 / d_acc as f64
            },
            prefetch_issued: stats.prefetches_issued.delta(&prev.prefetches_issued),
            prefetch_filtered: stats.prefetches_filtered.delta(&prev.prefetches_filtered),
            prefetch_dropped: stats
                .prefetches_queue_overflow
                .delta(&prev.prefetches_queue_overflow),
            prefetch_good: stats.prefetch_good.total() - prev.prefetch_good.total(),
            prefetch_bad: stats.prefetch_bad.total() - prev.prefetch_bad.total(),
            fraction_good,
            bus_occupancy: (d_bus.min(self.interval)) as f64 / self.interval as f64,
            mshr_live,
            queue_backlog,
        });
        self.prev.clone_from(stats);
        self.prev_instructions = instructions;
        self.next_due += self.interval;
    }

    /// Take ownership of the collected records.
    pub fn take_records(&mut self) -> Vec<IntervalRecord> {
        std::mem::take(&mut self.records)
    }
}

/// Serialize records as JSON lines (one compact record per line).
pub fn to_jsonl(records: &[IntervalRecord]) -> String {
    use crate::json::ToJson;
    let mut out = String::new();
    for r in records {
        out.push_str(&r.to_json_string());
        out.push('\n');
    }
    out
}

/// Parse a JSON-lines stream produced by [`to_jsonl`]. Blank lines are
/// ignored; any malformed line fails the whole parse with the line number.
pub fn parse_jsonl(text: &str) -> Result<Vec<IntervalRecord>, PpfError> {
    use crate::json::FromJson;
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rec = IntervalRecord::from_json_str(line).map_err(|e| {
            PpfError::checkpoint_corrupt(e).context(format!("telemetry JSONL line {}", i + 1))
        })?;
        out.push(rec);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(i: u64) -> IntervalRecord {
        let mut issued = PerSource::default();
        issued.by_source[0] = 10 + i;
        IntervalRecord {
            interval: i,
            start_cycle: i * 1000,
            end_cycle: (i + 1) * 1000,
            instructions: 1500,
            ipc: 1.5,
            l1_miss_rate: 0.125,
            prefetch_issued: issued,
            prefetch_filtered: PerSource::default(),
            prefetch_dropped: PerSource::default(),
            prefetch_good: 7,
            prefetch_bad: 3,
            fraction_good: 0.875,
            bus_occupancy: 0.25,
            mshr_live: 4,
            queue_backlog: 2,
        }
    }

    #[test]
    fn enabled_zero_interval_is_invalid() {
        assert!(IntervalSampler::new(0).is_err());
    }

    #[test]
    fn sampler_differences_cumulative_counters() {
        let mut s = IntervalSampler::new(100).unwrap();
        let mut stats = SimStats::default();
        stats.l1.demand_accesses = 80;
        stats.l1.demand_misses = 8;
        stats.bus_busy_cycles = 40;
        s.sample(100, 150, &stats, 1.0, 2, 1);
        stats.l1.demand_accesses = 200;
        stats.l1.demand_misses = 38;
        stats.bus_busy_cycles = 90;
        s.sample(200, 260, &stats, 0.75, 5, 0);
        let r = s.take_records();
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].interval, 0);
        assert_eq!(r[0].instructions, 150);
        assert_eq!(r[0].ipc, 1.5);
        assert_eq!(r[0].l1_miss_rate, 0.1);
        assert_eq!(r[1].interval, 1);
        assert_eq!((r[1].start_cycle, r[1].end_cycle), (100, 200));
        assert_eq!(r[1].instructions, 110);
        assert_eq!(r[1].l1_miss_rate, 0.25);
        assert_eq!(r[1].bus_occupancy, 0.5);
        assert_eq!(r[1].fraction_good, 0.75);
        assert_eq!(r[1].mshr_live, 5);
    }

    #[test]
    fn sampler_reset_drops_warmup_records() {
        let mut s = IntervalSampler::new(50).unwrap();
        let stats = SimStats::default();
        s.sample(50, 10, &stats, 0.0, 0, 0);
        assert_eq!(s.clone().take_records().len(), 1);
        s.reset(75);
        assert!(s.clone().take_records().is_empty());
        assert_eq!(s.next_due(), 125);
        s.sample(125, 5, &stats, 0.0, 0, 0);
        let r = s.take_records();
        assert_eq!(r[0].interval, 0);
        assert_eq!(r[0].start_cycle, 0);
        assert_eq!(r[0].end_cycle, 50);
    }

    #[test]
    fn jsonl_round_trips() {
        let records: Vec<IntervalRecord> = (0..5).map(record).collect();
        let text = to_jsonl(&records);
        assert_eq!(text.lines().count(), 5);
        let back = parse_jsonl(&text).unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn jsonl_rejects_malformed_lines() {
        let mut text = to_jsonl(&[record(0)]);
        text.push_str("{not json\n");
        let err = parse_jsonl(&text).unwrap_err();
        assert_eq!(err.kind(), crate::PpfErrorKind::CheckpointCorrupt);
        assert!(err.to_string().contains("line 2"), "{err}");
    }
}
