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
//! * [`TelemetryConfig`] — off by default; when enabled the simulator ticks
//!   an [`IntervalSampler`] every `interval_cycles` cycles.
//! * [`IntervalSampler`] — differences successive `SimStats` snapshots into
//!   per-interval [`IntervalRecord`]s (IPC, L1 miss rate, per-source
//!   prefetch issued/filtered/dropped, bus occupancy, …), plus three
//!   instantaneous gauges the simulator pushes because they cannot be
//!   derived from the cumulative [`SimStats`] counters (filter
//!   `fraction_good`, lines still in flight, prefetch-queue backlog).
//! * [`JsonlSink`] — writes records as JSON lines with the same atomic
//!   write discipline (`.tmp` sibling + rename) as the checkpoint layer, so
//!   telemetry streams can live alongside checkpoint directories without a
//!   crash ever leaving a half-written file.
//!
//! The subsystem is free when disabled by construction: the simulator holds
//! an `Option<IntervalSampler>` that is `None` unless telemetry was
//! explicitly enabled, every hook is a read-only observer behind one
//! predictable `is_some()` branch, and nothing here ever writes to
//! `SimStats` — so a telemetry-off run is cycle-for-cycle identical to a
//! pre-telemetry build (asserted by `tests/telemetry.rs`).

use crate::json_struct;
use crate::stats::{PerSource, SimStats};
use crate::{Cycle, PpfError};
use std::path::{Path, PathBuf};

/// Default sampling interval: long enough that a 1M-instruction run emits
/// a few hundred records, short enough to resolve the filter's warm-up.
pub const DEFAULT_INTERVAL_CYCLES: u64 = 10_000;

/// Interval-telemetry configuration. Disabled by default; a disabled config
/// constructs no sampler at all, so the simulator's per-cycle cost is one
/// `Option::is_some` branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Collect interval records?
    pub enabled: bool,
    /// Cycles per sampling interval (must be nonzero when enabled).
    pub interval_cycles: u64,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            enabled: false,
            interval_cycles: DEFAULT_INTERVAL_CYCLES,
        }
    }
}

impl TelemetryConfig {
    /// An enabled config sampling every `interval_cycles` cycles.
    pub fn every(interval_cycles: u64) -> Self {
        TelemetryConfig {
            enabled: true,
            interval_cycles,
        }
    }

    /// Structural validation (an enabled zero-cycle interval would sample
    /// forever without advancing).
    pub fn validate(&self) -> Result<(), PpfError> {
        if self.enabled && self.interval_cycles == 0 {
            return Err(PpfError::config_invalid(
                "telemetry interval_cycles must be nonzero when enabled",
            ));
        }
        Ok(())
    }
}

json_struct!(TelemetryConfig {
    enabled,
    interval_cycles,
});

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

/// Cumulative-counter snapshot differencing successive samples.
#[derive(Debug, Clone, Copy, Default)]
struct Snapshot {
    instructions: u64,
    l1_accesses: u64,
    l1_misses: u64,
    issued: PerSource,
    filtered: PerSource,
    dropped: PerSource,
    good: u64,
    bad: u64,
    bus_busy: u64,
}

impl Snapshot {
    fn take(instructions: u64, stats: &SimStats) -> Self {
        Snapshot {
            instructions,
            l1_accesses: stats.l1.demand_accesses,
            l1_misses: stats.l1.demand_misses,
            issued: stats.prefetches_issued,
            filtered: stats.prefetches_filtered,
            dropped: stats.prefetches_queue_overflow,
            good: stats.prefetch_good.total(),
            bad: stats.prefetch_bad.total(),
            bus_busy: stats.bus_busy_cycles,
        }
    }
}

/// The interval sampler the simulator ticks from its per-cycle loop.
///
/// Read-only with respect to the machine: it observes `SimStats` and the
/// gauges the simulator pushes, and never feeds anything back — the
/// structural argument for "telemetry cannot change simulation results".
#[derive(Debug, Clone)]
pub struct IntervalSampler {
    interval: u64,
    /// Cycle of the current measurement origin (last statistics reset).
    origin: Cycle,
    /// Absolute cycle at which the next sample is due.
    next_due: Cycle,
    prev: Snapshot,
    /// The gauges last pushed by [`IntervalSampler::set_gauges`].
    fraction_good: f64,
    mshr_live: u64,
    queue_backlog: u64,
    records: Vec<IntervalRecord>,
}

impl IntervalSampler {
    /// A sampler for `cfg`, or `None` when telemetry is disabled (the
    /// provably-free-when-off representation: no sampler, no work).
    pub fn new(cfg: &TelemetryConfig) -> Option<Self> {
        if !cfg.enabled {
            return None;
        }
        assert!(cfg.interval_cycles > 0, "telemetry interval must be > 0");
        Some(IntervalSampler {
            interval: cfg.interval_cycles,
            origin: 0,
            next_due: cfg.interval_cycles,
            prev: Snapshot::default(),
            fraction_good: 0.0,
            mshr_live: 0,
            queue_backlog: 0,
            records: Vec::new(),
        })
    }

    /// Cycles per interval.
    pub fn interval_cycles(&self) -> u64 {
        self.interval
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
        self.prev = Snapshot::default();
        self.records.clear();
    }

    /// Push the instantaneous gauges for the upcoming sample.
    #[inline]
    pub fn set_gauges(&mut self, fraction_good: f64, mshr_live: u64, queue_backlog: u64) {
        self.fraction_good = fraction_good;
        self.mshr_live = mshr_live;
        self.queue_backlog = queue_backlog;
    }

    /// Close the interval ending at `now` and append its record.
    /// `instructions` is the cumulative retired-instruction count since the
    /// measurement origin (it lives in the driving core's stats struct,
    /// separate from the memory-side `stats`).
    pub fn sample(&mut self, now: Cycle, instructions: u64, stats: &SimStats) {
        let cur = Snapshot::take(instructions, stats);
        let interval = (now - self.origin) / self.interval - 1;
        let d_insts = cur.instructions - self.prev.instructions;
        let d_acc = cur.l1_accesses - self.prev.l1_accesses;
        let d_miss = cur.l1_misses - self.prev.l1_misses;
        let d_bus = cur.bus_busy.saturating_sub(self.prev.bus_busy);
        self.records.push(IntervalRecord {
            interval,
            start_cycle: now - self.origin - self.interval,
            end_cycle: now - self.origin,
            instructions: d_insts,
            ipc: d_insts as f64 / self.interval as f64,
            l1_miss_rate: if d_acc == 0 {
                0.0
            } else {
                d_miss as f64 / d_acc as f64
            },
            prefetch_issued: cur.issued.delta(&self.prev.issued),
            prefetch_filtered: cur.filtered.delta(&self.prev.filtered),
            prefetch_dropped: cur.dropped.delta(&self.prev.dropped),
            prefetch_good: cur.good - self.prev.good,
            prefetch_bad: cur.bad - self.prev.bad,
            fraction_good: self.fraction_good,
            bus_occupancy: (d_bus.min(self.interval)) as f64 / self.interval as f64,
            mshr_live: self.mshr_live,
            queue_backlog: self.queue_backlog,
        });
        self.prev = cur;
        self.next_due += self.interval;
    }

    /// Records collected since the last reset.
    pub fn records(&self) -> &[IntervalRecord] {
        &self.records
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

/// An atomic-write JSON-lines sink: the whole stream is written to a
/// `.tmp` sibling and renamed into place, the same crash-safety discipline
/// as the checkpoint layer (a reader never observes a torn file, and a
/// telemetry directory can sit next to — or inside — a checkpoint
/// directory without interference).
#[derive(Debug, Clone)]
pub struct JsonlSink {
    path: PathBuf,
}

impl JsonlSink {
    /// A sink writing to `path` (conventionally `<dir>/<cell>.jsonl`).
    pub fn new(path: impl Into<PathBuf>) -> Self {
        JsonlSink { path: path.into() }
    }

    /// Destination path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Atomically replace the file at the sink's path with `records`.
    pub fn write(&self, records: &[IntervalRecord]) -> Result<(), PpfError> {
        let tmp = self.path.with_extension("jsonl.tmp");
        std::fs::write(&tmp, to_jsonl(records))
            .and_then(|()| std::fs::rename(&tmp, &self.path))
            .map_err(|e| {
                PpfError::io(e.to_string()).context(format!("writing {}", self.path.display()))
            })
    }

    /// Read the stream back (for `bench timeline --json` and tests).
    pub fn read(&self) -> Result<Vec<IntervalRecord>, PpfError> {
        let text = std::fs::read_to_string(&self.path).map_err(|e| {
            PpfError::io(e.to_string()).context(format!("reading {}", self.path.display()))
        })?;
        parse_jsonl(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{FromJson, ToJson};

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
    fn config_is_off_by_default_and_builds_no_sampler() {
        let cfg = TelemetryConfig::default();
        assert!(!cfg.enabled);
        assert!(IntervalSampler::new(&cfg).is_none());
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn enabled_zero_interval_is_invalid() {
        let cfg = TelemetryConfig {
            enabled: true,
            interval_cycles: 0,
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn config_json_round_trips() {
        let cfg = TelemetryConfig::every(2500);
        let back = TelemetryConfig::from_json_str(&cfg.to_json_string()).unwrap();
        assert_eq!(back, cfg);
    }

    #[test]
    fn sampler_differences_cumulative_counters() {
        let mut s = IntervalSampler::new(&TelemetryConfig::every(100)).unwrap();
        let mut stats = SimStats::default();
        stats.l1.demand_accesses = 80;
        stats.l1.demand_misses = 8;
        stats.bus_busy_cycles = 40;
        s.set_gauges(1.0, 2, 1);
        s.sample(100, 150, &stats);
        stats.l1.demand_accesses = 200;
        stats.l1.demand_misses = 38;
        stats.bus_busy_cycles = 90;
        s.set_gauges(0.75, 5, 0);
        s.sample(200, 260, &stats);
        let r = s.records();
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
        let mut s = IntervalSampler::new(&TelemetryConfig::every(50)).unwrap();
        let stats = SimStats::default();
        s.sample(50, 10, &stats);
        assert_eq!(s.records().len(), 1);
        s.reset(75);
        assert!(s.records().is_empty());
        assert_eq!(s.next_due(), 125);
        s.sample(125, 5, &stats);
        assert_eq!(s.records()[0].interval, 0);
        assert_eq!(s.records()[0].start_cycle, 0);
        assert_eq!(s.records()[0].end_cycle, 50);
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

    #[test]
    fn sink_writes_atomically_and_reads_back() {
        let dir = std::env::temp_dir().join("ppf-telemetry-sink-test");
        std::fs::create_dir_all(&dir).unwrap();
        let sink = JsonlSink::new(dir.join("cell.jsonl"));
        let records: Vec<IntervalRecord> = (0..3).map(record).collect();
        sink.write(&records).unwrap();
        assert!(!sink.path().with_extension("jsonl.tmp").exists());
        assert_eq!(sink.read().unwrap(), records);
        std::fs::remove_dir_all(&dir).ok();
    }
}
