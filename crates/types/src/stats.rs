//! Simulation statistics.
//!
//! A single flat [`SimStats`] struct is threaded through the simulator; every
//! component increments plain `u64` counters (no locks, no maps — the
//! hot-path hygiene rule from the workspace design notes). Derived metrics
//! (IPC, miss rates, the paper's good/bad prefetch census) are computed on
//! demand by accessor methods so the raw counters stay unambiguous.

use crate::error::PpfError;
use crate::json_struct;
use crate::prefetch::PrefetchSource;

/// Per-prefetch-source counters, indexed by [`PrefetchSource::index`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PerSource {
    /// Counter array, one slot per [`PrefetchSource`].
    pub by_source: [u64; PrefetchSource::COUNT],
}

impl PerSource {
    /// Increment the counter for `source`.
    #[inline]
    pub fn bump(&mut self, source: PrefetchSource) {
        self.by_source[source.index()] += 1;
    }

    /// Counter value for `source`.
    #[inline]
    pub fn get(&self, source: PrefetchSource) -> u64 {
        self.by_source[source.index()]
    }

    /// Sum over all sources.
    #[inline]
    pub fn total(&self) -> u64 {
        self.by_source.iter().sum()
    }

    /// Element-wise accumulate.
    pub fn merge(&mut self, other: &PerSource) {
        for (a, b) in self.by_source.iter_mut().zip(other.by_source.iter()) {
            *a += b;
        }
    }

    /// Element-wise difference against an `earlier` snapshot of the same
    /// monotonic counters (interval telemetry's per-sample delta).
    pub fn delta(&self, earlier: &PerSource) -> PerSource {
        let mut out = PerSource::default();
        for (slot, (now, then)) in out
            .by_source
            .iter_mut()
            .zip(self.by_source.iter().zip(earlier.by_source.iter()))
        {
            *slot = now - then;
        }
        out
    }
}

json_struct!(PerSource { by_source });

/// Demand misses of one cache level split by cause — the classic "three Cs"
/// taxonomy (Hill). Populated only when
/// [`DiagnosticsConfig::classify_misses`](crate::config::DiagnosticsConfig)
/// is on; all-zero otherwise.
///
/// * **compulsory** — the line was never referenced before (an infinite
///   cache would still miss).
/// * **capacity** — a fully-associative cache of the same capacity would
///   also miss (the working set simply does not fit).
/// * **conflict** — only the real set-indexed cache misses (set conflicts
///   under limited associativity).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MissClass {
    /// First-ever reference to the line (cold miss).
    pub compulsory: u64,
    /// Miss that a fully-associative same-size cache would share.
    pub capacity: u64,
    /// Miss caused purely by set conflicts.
    pub conflict: u64,
}

impl MissClass {
    /// Total classified misses.
    #[inline]
    pub fn total(&self) -> u64 {
        self.compulsory + self.capacity + self.conflict
    }

    /// Fraction of classified misses that are compulsory; 0 when empty.
    pub fn compulsory_frac(&self) -> f64 {
        self.frac(self.compulsory)
    }

    /// Fraction of classified misses that are capacity; 0 when empty.
    pub fn capacity_frac(&self) -> f64 {
        self.frac(self.capacity)
    }

    /// Fraction of classified misses that are conflict; 0 when empty.
    pub fn conflict_frac(&self) -> f64 {
        self.frac(self.conflict)
    }

    fn frac(&self, part: u64) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            part as f64 / total as f64
        }
    }

    /// Element-wise accumulate.
    pub fn merge(&mut self, o: &MissClass) {
        self.compulsory += o.compulsory;
        self.capacity += o.capacity;
        self.conflict += o.conflict;
    }
}

json_struct!(MissClass {
    compulsory,
    capacity,
    conflict,
});

/// Counters for one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand (load/store) accesses.
    pub demand_accesses: u64,
    /// Demand accesses that hit.
    pub demand_hits: u64,
    /// Demand accesses that missed.
    pub demand_misses: u64,
    /// Lines filled by prefetches (prefetch traffic into this level).
    pub prefetch_fills: u64,
    /// Demand hits that landed on a still-unreferenced prefetched line
    /// (the moment RIB transitions 0 -> 1).
    pub prefetch_first_use: u64,
    /// Evictions of any line.
    pub evictions: u64,
    /// Evictions of dirty lines (writebacks).
    pub writebacks: u64,
    /// Demand misses split compulsory/capacity/conflict (diagnostics pass;
    /// all-zero unless miss classification is enabled in the config).
    pub miss_class: MissClass,
}

impl CacheStats {
    /// Demand miss rate in \[0,1\]; 0 when no accesses.
    pub fn miss_rate(&self) -> f64 {
        if self.demand_accesses == 0 {
            0.0
        } else {
            self.demand_misses as f64 / self.demand_accesses as f64
        }
    }

    /// Element-wise accumulate.
    pub fn merge(&mut self, o: &CacheStats) {
        self.demand_accesses += o.demand_accesses;
        self.demand_hits += o.demand_hits;
        self.demand_misses += o.demand_misses;
        self.prefetch_fills += o.prefetch_fills;
        self.prefetch_first_use += o.prefetch_first_use;
        self.evictions += o.evictions;
        self.writebacks += o.writebacks;
        self.miss_class.merge(&o.miss_class);
    }
}

json_struct!(CacheStats {
    demand_accesses,
    demand_hits,
    demand_misses,
    prefetch_fills,
    prefetch_first_use,
    evictions,
    writebacks,
    miss_class,
});

/// All counters for one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    /// Retired instructions.
    pub instructions: u64,
    /// Elapsed core cycles.
    pub cycles: u64,
    /// Retired loads.
    pub loads: u64,
    /// Retired stores.
    pub stores: u64,
    /// Retired branches.
    pub branches: u64,
    /// Mispredicted branches.
    pub branch_mispredicts: u64,

    /// L1 data cache counters.
    pub l1: CacheStats,
    /// L1 instruction cache counters (demand = fetch-group lookups).
    pub l1i: CacheStats,
    /// L2 unified cache counters.
    pub l2: CacheStats,

    /// Prefetches proposed by each generator (before duplicate squash and
    /// before the pollution filter).
    pub prefetches_proposed: PerSource,
    /// Duplicates squashed (target already in cache / queue / in flight).
    pub prefetches_duplicate: PerSource,
    /// Prefetches rejected by the pollution filter.
    pub prefetches_filtered: PerSource,
    /// Prefetches dropped because the prefetch queue was full.
    pub prefetches_queue_overflow: PerSource,
    /// Prefetches actually issued to the L1 (or prefetch buffer).
    pub prefetches_issued: PerSource,
    /// Issued prefetches whose line actually filled the L1 (or the
    /// dedicated prefetch buffer). A resident target is squashed before it
    /// issues, so this equals `prefetches_issued`.
    pub prefetches_filled: PerSource,

    /// Good prefetches: prefetched lines referenced before eviction
    /// (RIB = 1 at replacement, or referenced lines drained at end of run).
    pub prefetch_good: PerSource,
    /// Bad prefetches: prefetched lines evicted without any reference.
    pub prefetch_bad: PerSource,

    /// Cycles on which at least one demand access had to wait because all L1
    /// ports were taken.
    pub l1_port_conflict_cycles: u64,
    /// Demand accesses delayed by port contention (each retry counts once).
    pub demand_port_retries: u64,
    /// Prefetch-queue pops delayed by port contention.
    pub prefetch_port_retries: u64,

    /// Bytes moved over the L2<->memory bus.
    pub bus_bytes: u64,
    /// Core cycles the bus spent busy.
    pub bus_busy_cycles: u64,

    /// Prefetch-buffer hits (only with the §5.5 dedicated buffer).
    pub buffer_hits: u64,
    /// Prefetch-buffer evictions of never-referenced lines.
    pub buffer_bad_evictions: u64,
}

impl SimStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Total good prefetches over all sources.
    pub fn good_total(&self) -> u64 {
        self.prefetch_good.total()
    }

    /// Total bad prefetches over all sources.
    pub fn bad_total(&self) -> u64 {
        self.prefetch_bad.total()
    }

    /// The paper's bad/good prefetch ratio (Figures 5, 8, 13, 15).
    /// Returns 0 when there are no good prefetches and no bad ones; returns
    /// `f64::INFINITY` when good = 0 but bad > 0.
    pub fn bad_good_ratio(&self) -> f64 {
        let good = self.good_total();
        let bad = self.bad_total();
        if bad == 0 {
            0.0
        } else if good == 0 {
            f64::INFINITY
        } else {
            bad as f64 / good as f64
        }
    }

    /// The prefetch-funnel conservation invariant: every generated candidate
    /// is accounted for by exactly one downstream outcome —
    ///
    /// ```text
    /// proposed = duplicate-squashed + filter-rejected + overflow-dropped
    ///          + port-issued + still-queued
    /// ```
    ///
    /// `queue_backlog` is the number of candidates sitting in the prefetch
    /// queue at the moment of the check (0 after a final drain). Returns
    /// `Ok(())` or a [`PpfError::funnel_violation`] describing the imbalance.
    pub fn check_funnel_conservation(&self, queue_backlog: u64) -> Result<(), PpfError> {
        let proposed = self.prefetches_proposed.total();
        let accounted = self.prefetches_duplicate.total()
            + self.prefetches_filtered.total()
            + self.prefetches_queue_overflow.total()
            + self.prefetches_issued.total()
            + queue_backlog;
        if proposed == accounted {
            Ok(())
        } else {
            Err(PpfError::funnel_violation(format!(
                "prefetch funnel leak: proposed {} != accounted {} \
                 (duplicate {} + filtered {} + overflow {} + issued {} + queued {})",
                proposed,
                accounted,
                self.prefetches_duplicate.total(),
                self.prefetches_filtered.total(),
                self.prefetches_queue_overflow.total(),
                self.prefetches_issued.total(),
                queue_backlog,
            )))
        }
    }

    /// Element-wise accumulate (used when aggregating sweep shards).
    pub fn merge(&mut self, o: &SimStats) {
        self.instructions += o.instructions;
        self.cycles += o.cycles;
        self.loads += o.loads;
        self.stores += o.stores;
        self.branches += o.branches;
        self.branch_mispredicts += o.branch_mispredicts;
        self.l1.merge(&o.l1);
        self.l1i.merge(&o.l1i);
        self.l2.merge(&o.l2);
        self.prefetches_proposed.merge(&o.prefetches_proposed);
        self.prefetches_duplicate.merge(&o.prefetches_duplicate);
        self.prefetches_filtered.merge(&o.prefetches_filtered);
        self.prefetches_queue_overflow
            .merge(&o.prefetches_queue_overflow);
        self.prefetches_issued.merge(&o.prefetches_issued);
        self.prefetches_filled.merge(&o.prefetches_filled);
        self.prefetch_good.merge(&o.prefetch_good);
        self.prefetch_bad.merge(&o.prefetch_bad);
        self.l1_port_conflict_cycles += o.l1_port_conflict_cycles;
        self.demand_port_retries += o.demand_port_retries;
        self.prefetch_port_retries += o.prefetch_port_retries;
        self.bus_bytes += o.bus_bytes;
        self.bus_busy_cycles += o.bus_busy_cycles;
        self.buffer_hits += o.buffer_hits;
        self.buffer_bad_evictions += o.buffer_bad_evictions;
    }
}

json_struct!(SimStats {
    instructions,
    cycles,
    loads,
    stores,
    branches,
    branch_mispredicts,
    l1,
    l1i,
    l2,
    prefetches_proposed,
    prefetches_duplicate,
    prefetches_filtered,
    prefetches_queue_overflow,
    prefetches_issued,
    prefetches_filled,
    prefetch_good,
    prefetch_bad,
    l1_port_conflict_cycles,
    demand_port_retries,
    prefetch_port_retries,
    bus_bytes,
    bus_busy_cycles,
    buffer_hits,
    buffer_bad_evictions,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_source_bump_and_total() {
        let mut p = PerSource::default();
        p.bump(PrefetchSource::Nsp);
        p.bump(PrefetchSource::Nsp);
        p.bump(PrefetchSource::Software);
        assert_eq!(p.get(PrefetchSource::Nsp), 2);
        assert_eq!(p.get(PrefetchSource::Sdp), 0);
        assert_eq!(p.get(PrefetchSource::Software), 1);
        assert_eq!(p.total(), 3);
    }

    #[test]
    fn per_source_merge() {
        let mut a = PerSource::default();
        let mut b = PerSource::default();
        a.bump(PrefetchSource::Nsp);
        b.bump(PrefetchSource::Nsp);
        b.bump(PrefetchSource::Sdp);
        a.merge(&b);
        assert_eq!(a.get(PrefetchSource::Nsp), 2);
        assert_eq!(a.get(PrefetchSource::Sdp), 1);
    }

    #[test]
    fn miss_rate_handles_zero() {
        let c = CacheStats::default();
        assert_eq!(c.miss_rate(), 0.0);
        let c = CacheStats {
            demand_accesses: 100,
            demand_misses: 25,
            ..Default::default()
        };
        assert!((c.miss_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn ipc() {
        let s = SimStats {
            instructions: 300,
            cycles: 100,
            ..Default::default()
        };
        assert!((s.ipc() - 3.0).abs() < 1e-12);
        assert_eq!(SimStats::default().ipc(), 0.0);
    }

    #[test]
    fn bad_good_ratio_edge_cases() {
        let mut s = SimStats::default();
        assert_eq!(s.bad_good_ratio(), 0.0);
        s.prefetch_bad.bump(PrefetchSource::Nsp);
        assert!(s.bad_good_ratio().is_infinite());
        s.prefetch_good.bump(PrefetchSource::Nsp);
        s.prefetch_good.bump(PrefetchSource::Nsp);
        assert!((s.bad_good_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = SimStats {
            instructions: 10,
            cycles: 5,
            ..Default::default()
        };
        let b = SimStats {
            instructions: 20,
            cycles: 15,
            bus_bytes: 64,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.instructions, 30);
        assert_eq!(a.cycles, 20);
        assert_eq!(a.bus_bytes, 64);
    }

    #[test]
    fn miss_class_fractions_and_merge() {
        let mut m = MissClass {
            compulsory: 1,
            capacity: 2,
            conflict: 1,
        };
        assert_eq!(m.total(), 4);
        assert!((m.compulsory_frac() - 0.25).abs() < 1e-12);
        assert!((m.capacity_frac() - 0.5).abs() < 1e-12);
        assert!((m.conflict_frac() - 0.25).abs() < 1e-12);
        m.merge(&MissClass {
            compulsory: 3,
            capacity: 0,
            conflict: 1,
        });
        assert_eq!(m.compulsory, 4);
        assert_eq!(m.conflict, 2);
        assert_eq!(MissClass::default().compulsory_frac(), 0.0);
    }

    #[test]
    fn funnel_conservation_detects_leaks() {
        let mut s = SimStats::default();
        for _ in 0..10 {
            s.prefetches_proposed.bump(PrefetchSource::Nsp);
        }
        for _ in 0..3 {
            s.prefetches_duplicate.bump(PrefetchSource::Nsp);
        }
        for _ in 0..2 {
            s.prefetches_filtered.bump(PrefetchSource::Nsp);
        }
        for _ in 0..4 {
            s.prefetches_issued.bump(PrefetchSource::Nsp);
        }
        // 3 + 2 + 0 + 4 = 9 accounted, 1 still queued: balanced.
        assert!(s.check_funnel_conservation(1).is_ok());
        // Wrong backlog: leak reported with the stage breakdown.
        let err = s.check_funnel_conservation(0).unwrap_err();
        assert_eq!(err.kind(), crate::PpfErrorKind::FunnelViolation);
        assert!(err.to_string().contains("proposed 10"), "{err}");
    }

    #[test]
    fn stats_json_round_trip() {
        use crate::json::{FromJson, ToJson};
        let mut s = SimStats {
            instructions: 1_000,
            cycles: 2_000,
            ..Default::default()
        };
        s.l1.demand_accesses = 500;
        s.l1.miss_class.conflict = 7;
        s.prefetches_issued.bump(PrefetchSource::Stride);
        let back = SimStats::from_json_str(&s.to_json_string()).unwrap();
        assert_eq!(back, s);
    }
}
