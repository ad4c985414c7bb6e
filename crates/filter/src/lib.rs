//! The paper's contribution: hardware cache-pollution filters for
//! aggressive prefetches (§4 of Zhuang & Lee, ICPP 2003).
//!
//! A [`PollutionFilter`] looks every prefetch up before issue and trains on
//! the PIB/RIB feedback of evicted prefetched lines. It holds one of four
//! predictors, chosen by [`ppf_types::FilterKind`]:
//!
//! * **None**: admits everything and stores nothing (the baseline machine).
//! * **PA** and **PC** (the paper's filters): a single-level **history
//!   table** of 2-bit saturating counters, a hash function, and
//!   lookup/update logic — the same machinery as a bimodal branch
//!   predictor. PA indexes by the prefetched *cache-line address*, which
//!   tells apart addresses fetched by the same instruction but aliases more
//!   in a small table (§4.1). PC indexes by the *program counter* of the
//!   triggering instruction, which is coarser but more compact and needs the
//!   PC routed to the filter on a separate path (§4.2). Either can keep one
//!   table per prefetch source instead (`split_by_source`).
//! * **Hybrid** (extension): a PA table and a PC table with a PC-indexed
//!   tournament chooser picking between them.
//! * **Perceptron** (extension, [`perceptron`]): signed weight tables over
//!   five features, summed against a threshold.
//!
//! Training is eviction-driven: when the L1 replaces a line whose PIB is
//! set, the line's RIB (referenced-or-not) strengthens or weakens the
//! counter the prefetch hashed to. A prefetch is issued only when its
//! counter predicts "good" (counter in the upper half, like a taken branch);
//! unseen entries start weakly-good so first-touch prefetches pass — the
//! paper relies on this ("all prefetches first mapped to the history table
//! are assumed to be good and issued", §5.3). Every filtering kind shares
//! one storage budget, `table_entries × counter_bits` bits, and
//! [`PollutionFilter::storage_bits`] reports what it actually allocates.
//!
//! [`adaptive::AdaptiveGate`] implements the "advanced features" remark in
//! §5.2.1: engage filtering only while observed prefetch accuracy is low.
//! [`recovery::RejectLog`] lets a rejection proven wrong by a demand miss
//! train its counter back.

#![warn(missing_docs)]

pub mod adaptive;
pub mod counter;
pub mod hash;
pub mod perceptron;
pub mod recovery;
pub mod table;

use ppf_types::{
    FilterConfig, FilterKind, LineAddr, Pc, PrefetchOrigin, PrefetchRequest, PrefetchSource,
};

use adaptive::AdaptiveGate;
use perceptron::{accuracy_bucket, Features, Perceptron};
use recovery::RejectLog;
use table::HistoryTable;

/// Filter-local statistics (also mirrored into the global `SimStats` by the
/// simulator; kept here so the filter is independently testable).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FilterStats {
    /// Lookups that predicted "good" (prefetch allowed).
    pub allowed: u64,
    /// Lookups that predicted "bad" (prefetch dropped).
    pub rejected: u64,
    /// Eviction feedback events with RIB = 1.
    pub trained_good: u64,
    /// Eviction feedback events with RIB = 0.
    pub trained_bad: u64,
    /// Lookups bypassed by the adaptive gate (filter disengaged).
    pub bypassed: u64,
    /// Rejections later proven wrong by a demand miss (recovery trains).
    pub recovered: u64,
}

ppf_types::json_struct!(FilterStats {
    allowed,
    rejected,
    trained_good,
    trained_bad,
    bypassed,
    recovered,
});

/// Largest power of two `<= n` (0 for 0). Table sizing rounds *down* so a
/// configured storage budget is never exceeded.
#[inline]
pub(crate) fn floor_pow2(n: usize) -> usize {
    if n == 0 {
        0
    } else {
        1 << (usize::BITS - 1 - n.leading_zeros())
    }
}

/// The hardware pollution filter of §4.
#[derive(Debug, Clone)]
pub struct PollutionFilter {
    predictor: Predictor,
    /// `None` when no adaptive threshold is configured, and for
    /// `FilterKind::None`, which has nothing to gate.
    gate: Option<AdaptiveGate>,
    stats: FilterStats,
    /// Recently rejected targets, for misprediction recovery (see
    /// [`recovery`]). `None` when recovery is off or nothing can reject.
    reject_log: Option<RejectLog>,
    /// Keyed-hash salt (0 = the paper's plain fold; DESIGN.md §12).
    salt: u64,
}

/// Each filter kind's storage, and only that.
#[derive(Debug, Clone)]
enum Predictor {
    /// Admits everything and trains nothing.
    None,
    /// The paper's PA (`by_pc == false`) or PC filter: one table, or one per
    /// prefetch source when `FilterConfig::split_by_source` splits the same
    /// budget.
    Counters {
        by_pc: bool,
        tables: Vec<HistoryTable>,
    },
    /// Tournament of a PA table (`tables[0]`) and a PC table (`tables[1]`).
    /// The chooser is PC-indexed; "good" means trust the PC table.
    Hybrid {
        tables: [HistoryTable; 2],
        chooser: HistoryTable,
    },
    /// Weight tables of the hashed perceptron (DESIGN.md §15).
    Perceptron(Perceptron),
}

/// Folded into a nonzero salt per tenant ID so each tenant indexes the
/// shared table through its own keyed permutation (tag-mixing): a hostile
/// tenant can no longer aim trained-bad counters at a victim's keys even
/// without partitioning. Tenant 0 keeps the configured salt unchanged, so
/// single-tenant salted runs are unaffected.
const TENANT_TAG_MIX: u64 = 0x9e37_79b9_7f4a_7c15;

impl PollutionFilter {
    /// Build a filter from its configuration. This is the one place that
    /// sizes the counter tables; [`perceptron::rows_for`] sizes the weight
    /// tables.
    pub fn new(cfg: &FilterConfig) -> Self {
        let parts = (cfg.tenant_partitions.max(1) as u32).min(ppf_types::MAX_TENANTS as u32);
        let table =
            |entries: usize| HistoryTable::new(entries, cfg.counter_bits, cfg.counter_init, parts);
        // A table given `1/ways` of the budget. Rounds *down* to a power of
        // two (rounding up would overshoot the budget whenever the share is
        // not already one), floored at 64 entries for degenerate budgets.
        let share = |ways: usize| table(floor_pow2(cfg.table_entries / ways).max(64));
        let predictor = match cfg.kind {
            FilterKind::None => Predictor::None,
            FilterKind::Pa | FilterKind::Pc => Predictor::Counters {
                by_pc: cfg.kind == FilterKind::Pc,
                tables: if cfg.split_by_source {
                    (0..PrefetchSource::COUNT)
                        .map(|_| share(PrefetchSource::COUNT))
                        .collect()
                } else {
                    vec![table(cfg.table_entries)]
                },
            },
            // A quarter of the budget for each component and half for the
            // chooser, which aliases across trigger sites, so together they
            // stay inside `table_entries` counters.
            FilterKind::Hybrid => Predictor::Hybrid {
                tables: [share(4), share(4)],
                chooser: share(2),
            },
            FilterKind::Perceptron => Predictor::Perceptron(Perceptron::new(
                cfg.table_entries,
                cfg.counter_bits,
                cfg.counter_init,
                parts,
            )),
        };
        let filters = cfg.kind != FilterKind::None;
        PollutionFilter {
            predictor,
            gate: cfg
                .adaptive_accuracy_threshold
                .filter(|_| filters)
                .map(|thr| AdaptiveGate::new(thr, cfg.adaptive_window)),
            stats: FilterStats::default(),
            // `recovery_window == 0` disables recovery entirely — the
            // strict (absorbing) reading of the paper, kept as an ablation.
            reject_log: (filters && cfg.recovery_window > 0)
                .then(|| RejectLog::new(recovery::DEFAULT_REJECT_LOG, cfg.recovery_window)),
            salt: cfg.hash_salt,
        }
    }

    /// The keyed-hash salt a lookup from `tenant` uses: the configured salt
    /// with the tenant ID tag-mixed in (identity when salting is off).
    #[inline]
    fn salt_for(&self, tenant: u8) -> u64 {
        if self.salt == 0 {
            0
        } else {
            self.salt ^ (tenant as u64).wrapping_mul(TENANT_TAG_MIX)
        }
    }

    /// Filter-local statistics.
    pub fn stats(&self) -> &FilterStats {
        &self.stats
    }

    /// The counter tables whose counters predict good or bad: the PA or PC
    /// table(s), or the hybrid's two components. Empty for `None` and the
    /// perceptron.
    fn counter_tables(&self) -> &[HistoryTable] {
        match &self.predictor {
            Predictor::Counters { tables, .. } => tables,
            Predictor::Hybrid { tables, .. } => tables,
            Predictor::None | Predictor::Perceptron(_) => &[],
        }
    }

    /// Storage the filter allocates, in bits: counters × width over every
    /// table (the hybrid chooser included), or perceptron weights ×
    /// [`perceptron::WEIGHT_BITS`]. 0 for `FilterKind::None`. Never more
    /// than the configured `table_entries × counter_bits` outside
    /// degenerate budgets.
    pub fn storage_bits(&self) -> usize {
        let bits = |t: &HistoryTable| t.entries() * t.counter_bits() as usize;
        let counters: usize = self.counter_tables().iter().map(bits).sum();
        match &self.predictor {
            Predictor::Perceptron(p) => p.storage_bits(),
            Predictor::Hybrid { chooser, .. } => counters + bits(chooser),
            Predictor::None | Predictor::Counters { .. } => counters,
        }
    }

    /// Entries-weighted fraction of component-table counters currently
    /// predicting "good" — the telemetry gauge for filter convergence. All
    /// counters start weakly-good (§4), so this begins at 1.0 and decays as
    /// PIB/RIB evictions train entries bad; the curve flattening out is the
    /// filter reaching steady state. The hybrid chooser is excluded: it
    /// predicts *which table* to trust, not whether a prefetch is good.
    /// 1.0 for `FilterKind::None`, which stores nothing.
    pub fn fraction_good(&self) -> f64 {
        if let Predictor::Perceptron(p) = &self.predictor {
            return p.fraction_good();
        }
        let tables = self.counter_tables();
        let total: usize = tables.iter().map(HistoryTable::entries).sum();
        if total == 0 {
            return 1.0;
        }
        let good: f64 = tables
            .iter()
            .map(|t| t.fraction_good() * t.entries() as f64)
            .sum();
        good / total as f64
    }

    /// A copy of every component table's raw counter array, in table
    /// order. Cheap state-inspection hook for the differential oracle.
    pub fn counter_snapshot(&self) -> Vec<Vec<u8>> {
        self.counter_tables()
            .iter()
            .map(|t| t.counters().to_vec())
            .collect()
    }

    /// A copy of the hybrid chooser's counters; `None` for non-hybrid
    /// kinds.
    pub fn chooser_snapshot(&self) -> Option<Vec<u8>> {
        match &self.predictor {
            Predictor::Hybrid { chooser, .. } => Some(chooser.counters().to_vec()),
            _ => None,
        }
    }

    /// A copy of the perceptron's signed weight tables in feature order;
    /// `None` for counter-based kinds.
    pub fn weight_snapshot(&self) -> Option<Vec<Vec<i8>>> {
        match &self.predictor {
            Predictor::Perceptron(p) => Some(p.weight_snapshot()),
            _ => None,
        }
    }

    /// Decide whether `req` should be issued (history-table lookup, §4) at
    /// cycle `now`. `FilterKind::None` always allows. The adaptive gate,
    /// when configured and satisfied with recent accuracy, bypasses
    /// filtering.
    pub fn should_prefetch(&mut self, req: &PrefetchRequest, now: u64) -> bool {
        if self.gate.as_ref().is_some_and(|g| !g.engaged()) {
            self.stats.bypassed += 1;
            self.stats.allowed += 1;
            return true;
        }
        let (tenant, salt) = (req.tenant, self.salt_for(req.tenant));
        // A rejection logs the vetoing counter's `(key, table)`, or for the
        // perceptron the trigger PC and clamped depth: with the line, all a
        // recovery needs to rebuild the feature vector.
        let (good, key, table) = match &self.predictor {
            Predictor::None => (true, 0, 0),
            Predictor::Counters { by_pc, tables } => {
                let (key, table) = counter_index(*by_pc, tables, &req.origin(), salt);
                (tables[table].predict_good_for(key, tenant), key, table)
            }
            Predictor::Hybrid { tables, chooser } => {
                let pc_key = hash::hash_pc_salted(req.trigger_pc, salt);
                if chooser.predict_good_for(pc_key, tenant) {
                    (tables[1].predict_good_for(pc_key, tenant), pc_key, 1)
                } else {
                    let pa_key = hash::hash_line_salted(req.line, salt);
                    (tables[0].predict_good_for(pa_key, tenant), pa_key, 0)
                }
            }
            Predictor::Perceptron(p) => {
                let feats = features(&self.stats, req.line, req.trigger_pc, req.depth);
                let good = p.predict(&feats, tenant, salt);
                (good, req.trigger_pc, feats.depth as usize)
            }
        };
        if good {
            self.stats.allowed += 1;
        } else {
            self.stats.rejected += 1;
            if let Some(log) = &mut self.reject_log {
                log.record(req.line, key, table as u8, tenant, now);
            }
        }
        good
    }

    /// Train on an L1 eviction (or end-of-run drain) of a prefetched line:
    /// `referenced` is the line's RIB. Also feeds the adaptive gate's
    /// accuracy window.
    pub fn on_eviction(&mut self, origin: &PrefetchOrigin, referenced: bool) {
        // Ordering contract (mirrored by the oracle): this bump comes
        // first, so the accuracy bucket the perceptron trains with already
        // includes the event itself.
        if referenced {
            self.stats.trained_good += 1;
        } else {
            self.stats.trained_bad += 1;
        }
        if let Some(gate) = &mut self.gate {
            gate.observe(referenced);
        }
        let (tenant, salt) = (origin.tenant, self.salt_for(origin.tenant));
        match &mut self.predictor {
            Predictor::None => {}
            Predictor::Counters { by_pc, tables } => {
                let (key, table) = counter_index(*by_pc, tables, origin, salt);
                tables[table].train_for(key, tenant, referenced);
            }
            Predictor::Hybrid {
                tables: [pa, pc],
                chooser,
            } => {
                let pa_key = hash::hash_line_salted(origin.line, salt);
                let pc_key = hash::hash_pc_salted(origin.trigger_pc, salt);
                // Both components train on the outcome; the chooser trains
                // toward whichever component was right (only when they
                // disagree — the tournament update rule).
                let pa_right = pa.predict_good_for(pa_key, tenant) == referenced;
                let pc_right = pc.predict_good_for(pc_key, tenant) == referenced;
                pa.train_for(pa_key, tenant, referenced);
                pc.train_for(pc_key, tenant, referenced);
                if pa_right != pc_right {
                    chooser.train_for(pc_key, tenant, pc_right);
                }
            }
            Predictor::Perceptron(p) => {
                let feats = features(&self.stats, origin.line, origin.trigger_pc, origin.depth);
                // Margin gate (perceptron::TRAIN_MARGIN): good outcomes only
                // train while the sum is at or below the margin band above
                // the threshold; bad outcomes always train.
                if !referenced
                    || p.sum(&feats, tenant, salt)
                        <= perceptron::DECISION_THRESHOLD + perceptron::TRAIN_MARGIN
                {
                    p.train(&feats, tenant, salt, referenced);
                }
            }
        }
    }

    /// A demand access missed the L1 on `line`. If a prefetch for that line
    /// was recently rejected, the rejection was a misprediction: train the
    /// vetoing counter good so the key class can recover (see [`recovery`]).
    pub fn on_demand_miss(&mut self, line: LineAddr, now: u64) {
        let Some((key, table, tenant)) = self
            .reject_log
            .as_mut()
            .and_then(|log| log.check_miss(line, now))
        else {
            return;
        };
        self.stats.recovered += 1;
        let salt = self.salt_for(tenant);
        match &mut self.predictor {
            Predictor::None => {}
            Predictor::Counters { tables, .. } => {
                tables[table as usize].train_for(key, tenant, true)
            }
            Predictor::Hybrid { tables, .. } => tables[table as usize].train_for(key, tenant, true),
            // The record holds the trigger PC and clamped depth: rebuild the
            // feature vector and give its target-specific weights their
            // one-step second chance (`Perceptron::recover`).
            Predictor::Perceptron(p) => {
                p.recover(&features(&self.stats, line, key, table), tenant, salt)
            }
        }
    }
}

/// The `(key, table)` a PA or PC filter looks up or trains for `origin`:
/// the salted line or PC hash, in the prefetch source's own table when the
/// budget is split by source.
#[inline]
fn counter_index(
    by_pc: bool,
    tables: &[HistoryTable],
    origin: &PrefetchOrigin,
    salt: u64,
) -> (u64, usize) {
    let key = if by_pc {
        hash::hash_pc_salted(origin.trigger_pc, salt)
    } else {
        hash::hash_line_salted(origin.line, salt)
    };
    let table = if tables.len() > 1 {
        origin.source.index()
    } else {
        0
    };
    (key, table)
}

/// The perceptron's feature vector for a prefetch of `line` by `pc` at
/// `depth`, with the global-accuracy bucket of the training outcomes in
/// `stats`.
#[inline]
fn features(stats: &FilterStats, line: LineAddr, pc: Pc, depth: u8) -> Features {
    let bucket = accuracy_bucket(stats.trained_good, stats.trained_bad);
    Features::of(line, pc, depth, bucket)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(kind: FilterKind) -> FilterConfig {
        FilterConfig {
            kind,
            ..FilterConfig::default()
        }
    }

    fn req(line: u64, pc: u64) -> PrefetchRequest {
        PrefetchRequest {
            line: LineAddr(line),
            trigger_pc: pc,
            source: PrefetchSource::Nsp,
            tenant: 0,
            depth: 1,
        }
    }

    #[test]
    fn none_filter_always_allows() {
        let mut f = PollutionFilter::new(&cfg(FilterKind::None));
        for i in 0..100 {
            // Train hard against, then verify it still allows.
            f.on_eviction(&req(i, 0x100).origin(), false);
            assert!(f.should_prefetch(&req(i, 0x100), i));
        }
        assert_eq!(f.stats().rejected, 0);
    }

    #[test]
    fn first_touch_is_allowed() {
        // Counters initialize weakly-good: a never-seen prefetch passes.
        let mut f = PollutionFilter::new(&cfg(FilterKind::Pa));
        assert!(f.should_prefetch(&req(123, 0x100), 0));
        let mut f = PollutionFilter::new(&cfg(FilterKind::Pc));
        assert!(f.should_prefetch(&req(123, 0x100), 0));
    }

    #[test]
    fn pa_filter_learns_bad_address() {
        let mut f = PollutionFilter::new(&cfg(FilterKind::Pa));
        let r = req(500, 0x100);
        // Two bad outcomes drive the 2-bit counter from weakly-good to bad.
        f.on_eviction(&r.origin(), false);
        f.on_eviction(&r.origin(), false);
        assert!(!f.should_prefetch(&r, 0));
        // ...and a different line is unaffected.
        assert!(f.should_prefetch(&req(501, 0x100), 0));
    }

    #[test]
    fn pc_filter_groups_by_trigger_pc() {
        let mut f = PollutionFilter::new(&cfg(FilterKind::Pc));
        // Same PC, different lines: training one line's outcome affects the
        // other (that is the point of PC indexing).
        f.on_eviction(&req(1, 0x100).origin(), false);
        f.on_eviction(&req(2, 0x100).origin(), false);
        assert!(!f.should_prefetch(&req(3, 0x100), 0));
        // A different PC still passes.
        assert!(f.should_prefetch(&req(3, 0x200), 0));
    }

    #[test]
    fn pa_filter_relearns_good() {
        let mut f = PollutionFilter::new(&cfg(FilterKind::Pa));
        let r = req(500, 0x100);
        f.on_eviction(&r.origin(), false);
        f.on_eviction(&r.origin(), false);
        assert!(!f.should_prefetch(&r, 0));
        f.on_eviction(&r.origin(), true);
        f.on_eviction(&r.origin(), true);
        assert!(f.should_prefetch(&r, 0), "counter saturates back to good");
    }

    #[test]
    fn stats_track_decisions_and_training() {
        let mut f = PollutionFilter::new(&cfg(FilterKind::Pa));
        let r = req(7, 0x100);
        f.should_prefetch(&r, 0);
        f.on_eviction(&r.origin(), false);
        f.on_eviction(&r.origin(), false);
        f.should_prefetch(&r, 0);
        assert_eq!(f.stats().allowed, 1);
        assert_eq!(f.stats().rejected, 1);
        assert_eq!(f.stats().trained_bad, 2);
        assert_eq!(f.stats().trained_good, 0);
    }

    #[test]
    fn adaptive_gate_bypasses_while_accuracy_high() {
        let mut c = cfg(FilterKind::Pa);
        c.adaptive_accuracy_threshold = Some(0.5);
        c.adaptive_window = 16;
        let mut f = PollutionFilter::new(&c);
        let r = req(9, 0x100);
        // Train the entry bad — but overall accuracy stays high, so the
        // gate keeps the filter disengaged and prefetches pass.
        f.on_eviction(&r.origin(), false);
        f.on_eviction(&r.origin(), false);
        for i in 0..32 {
            f.on_eviction(&req(100 + i, 0x200).origin(), true);
        }
        assert!(f.should_prefetch(&r, 0), "high accuracy -> gate bypasses");
        assert!(f.stats().bypassed > 0);
        // Flood with bad outcomes: accuracy collapses, filter engages.
        for i in 0..64 {
            f.on_eviction(&req(200 + i, 0x300).origin(), false);
        }
        assert!(!f.should_prefetch(&r, 0), "low accuracy -> filter engages");
    }

    #[test]
    fn rejected_key_recovers_via_demand_miss() {
        let mut f = PollutionFilter::new(&cfg(FilterKind::Pc));
        let r = req(500, 0x100);
        // Lock the PC out.
        f.on_eviction(&r.origin(), false);
        f.on_eviction(&r.origin(), false);
        assert!(!f.should_prefetch(&r, 0));
        assert!(!f.should_prefetch(&req(501, 0x100), 0));
        // The program then demand-misses the rejected lines: both were
        // mispredictions, and two good trains bring the counter back.
        f.on_demand_miss(LineAddr(500), 10);
        f.on_demand_miss(LineAddr(501), 11);
        assert_eq!(f.stats().recovered, 2);
        assert!(f.should_prefetch(&r, 0), "key class recovered");
    }

    #[test]
    fn unrelated_demand_miss_does_not_recover() {
        let mut f = PollutionFilter::new(&cfg(FilterKind::Pc));
        let r = req(500, 0x100);
        f.on_eviction(&r.origin(), false);
        f.on_eviction(&r.origin(), false);
        assert!(!f.should_prefetch(&r, 0));
        // Misses to lines that were never rejected train nothing.
        f.on_demand_miss(LineAddr(9999), 10);
        f.on_demand_miss(LineAddr(12345), 11);
        assert_eq!(f.stats().recovered, 0);
        assert!(!f.should_prefetch(&r, 0));
    }

    #[test]
    fn split_filter_isolates_sources() {
        let mut c = cfg(FilterKind::Pa);
        c.split_by_source = true;
        let mut f = PollutionFilter::new(&c);
        assert_eq!(f.counter_snapshot().len(), PrefetchSource::COUNT);
        // NSP trains a line bad...
        let nsp = PrefetchRequest {
            line: LineAddr(500),
            trigger_pc: 0x100,
            source: PrefetchSource::Nsp,
            tenant: 0,
            depth: 1,
        };
        f.on_eviction(&nsp.origin(), false);
        f.on_eviction(&nsp.origin(), false);
        assert!(!f.should_prefetch(&nsp, 0));
        // ...but SDP's prefetch of the SAME line is judged by its own
        // table and still passes — the poisoning the shared table suffers.
        let sdp = PrefetchRequest {
            source: PrefetchSource::Sdp,
            ..nsp
        };
        assert!(f.should_prefetch(&sdp, 1));
    }

    #[test]
    fn split_filter_divides_the_budget() {
        let mut c = cfg(FilterKind::Pa);
        c.split_by_source = true;
        let f = PollutionFilter::new(&c);
        // 4096 entries split four ways.
        for table in f.counter_snapshot() {
            assert_eq!(table.len(), 1024);
        }
    }

    #[test]
    fn split_filter_recovery_trains_the_right_table() {
        let mut c = cfg(FilterKind::Pc);
        c.split_by_source = true;
        let mut f = PollutionFilter::new(&c);
        let nsp = PrefetchRequest {
            line: LineAddr(500),
            trigger_pc: 0x100,
            source: PrefetchSource::Nsp,
            tenant: 0,
            depth: 1,
        };
        f.on_eviction(&nsp.origin(), false);
        f.on_eviction(&nsp.origin(), false);
        assert!(!f.should_prefetch(&nsp, 0));
        // The rejected line is demand-missed promptly: NSP's table (and
        // only NSP's) trains back up. The counter sits at 0 after two bad
        // trainings, so two reject-miss rounds are needed to clear the
        // threshold — each rejection re-arms the log.
        f.on_demand_miss(LineAddr(500), 5);
        assert!(!f.should_prefetch(&nsp, 6)); // still bad; re-records
        f.on_demand_miss(LineAddr(500), 7);
        assert_eq!(f.stats().recovered, 2);
        assert!(f.should_prefetch(&nsp, 8));
    }

    #[test]
    fn hybrid_uses_pa_until_chooser_learns() {
        let mut f = PollutionFilter::new(&cfg(FilterKind::Hybrid));
        // Scenario where PC is right and PA is wrong: one PC touches many
        // lines, all consistently bad. The PA table (per line) sees each
        // line only twice — not enough to lock every line out — while the
        // PC table converges fast, and the chooser learns to trust it.
        for round in 0..6u64 {
            for i in 0..64 {
                let r = req(10_000 + round * 64 + i, 0x300);
                f.on_eviction(&r.origin(), false);
            }
        }
        // A fresh line from that PC: PA would say weakly-good (never seen),
        // PC says bad; the chooser must have learned to trust PC.
        assert!(!f.should_prefetch(&req(99_999, 0x300), 0));
    }

    #[test]
    fn hybrid_trains_both_components() {
        let mut f = PollutionFilter::new(&cfg(FilterKind::Hybrid));
        let r = req(500, 0x100);
        f.on_eviction(&r.origin(), false);
        f.on_eviction(&r.origin(), false);
        // Whichever table the chooser picks, the key class is bad.
        assert!(!f.should_prefetch(&r, 0));
    }

    #[test]
    fn hybrid_splits_the_budget() {
        let c = cfg(FilterKind::Hybrid);
        let f = PollutionFilter::new(&c);
        let tables = f.counter_snapshot();
        assert_eq!(tables.len(), 2);
        for table in tables {
            assert_eq!(table.len(), 1024, "a quarter each for PA and PC");
        }
        assert_eq!(
            f.chooser_snapshot().map(|c| c.len()),
            Some(2048),
            "half for the chooser"
        );
        assert_eq!(
            f.storage_bits(),
            c.table_entries * c.counter_bits as usize,
            "components + chooser together spend exactly the advertised budget"
        );
    }

    #[test]
    fn hybrid_chooser_honors_counter_config() {
        // The chooser is sized inside the budget AND follows the configured
        // counter width/init instead of hardcoding 2-bit weakly-good.
        let mut c = cfg(FilterKind::Hybrid);
        c.counter_bits = 3;
        c.counter_init = ppf_types::CounterInit::WeaklyBad;
        let mut f = PollutionFilter::new(&c);
        assert!(f.storage_bits() <= c.table_entries * c.counter_bits as usize);
        // Weakly-bad init: the chooser starts distrusting PC, and both
        // component tables start rejecting, so a first-touch prefetch is
        // rejected — observable proof the init reached all three tables.
        assert!(!f.should_prefetch(&req(1, 0x100), 0));
    }

    #[test]
    fn non_pow2_budget_never_overshoots() {
        // Regression: sizing used `next_power_of_two()`, which rounds UP —
        // a 1000-entry budget split four ways became 4 x 256 = 1024 > 1000.
        // Rounding down keeps every layout inside the advertised budget.
        for split in [false, true] {
            for kind in [FilterKind::Pa, FilterKind::Pc, FilterKind::Hybrid] {
                let mut c = cfg(kind);
                c.table_entries = 1000;
                c.split_by_source = split;
                // Shared non-split tables require a power-of-two entry
                // count; only the derived (split/hybrid) layouts accept an
                // arbitrary budget.
                if kind == FilterKind::Hybrid || split {
                    let f = PollutionFilter::new(&c);
                    let budget = c.table_entries * c.counter_bits as usize;
                    assert!(
                        f.storage_bits() <= budget,
                        "{kind:?} split={split}: {} bits from a budget of {budget}",
                        f.storage_bits(),
                    );
                }
            }
        }
    }

    #[test]
    fn zero_recovery_window_disables_reject_log() {
        let mut c = cfg(FilterKind::Pc);
        c.recovery_window = 0;
        let mut f = PollutionFilter::new(&c);
        let r = req(500, 0x100);
        f.on_eviction(&r.origin(), false);
        f.on_eviction(&r.origin(), false);
        assert!(!f.should_prefetch(&r, 0));
        // With the log disabled, a demand miss on the rejected line is NOT
        // treated as a misprediction: nothing recovers, the key stays bad.
        f.on_demand_miss(LineAddr(500), 1);
        f.on_demand_miss(LineAddr(500), 2);
        assert_eq!(f.stats().recovered, 0);
        assert!(!f.should_prefetch(&r, 3));
    }

    #[test]
    fn paper_default_table_is_4k_entries() {
        let f = PollutionFilter::new(&cfg(FilterKind::Pa));
        assert_eq!(f.counter_snapshot()[0].len(), 4096);
    }

    #[test]
    fn fraction_good_starts_at_one_and_decays_with_bad_training() {
        let mut f = PollutionFilter::new(&cfg(FilterKind::Pa));
        assert_eq!(f.fraction_good(), 1.0, "weakly-good init predicts good");
        // Train a handful of distinct lines bad twice each: their 2-bit
        // counters saturate below the threshold, so the aggregate drops.
        for line in 0..8u64 {
            let r = req(line * 64, 0x100);
            f.on_eviction(&r.origin(), false);
            f.on_eviction(&r.origin(), false);
        }
        let fg = f.fraction_good();
        assert!(fg < 1.0, "training bad must lower fraction_good: {fg}");
        assert!(fg > 0.9, "only 8 of 4096 entries were trained: {fg}");
    }

    #[test]
    fn perceptron_first_touch_is_allowed_then_learns_bad() {
        let mut f = PollutionFilter::new(&cfg(FilterKind::Perceptron));
        let r = req(500, 0x100);
        assert!(f.should_prefetch(&r, 0), "all-zero weights admit");
        // One bad eviction drives all five selected weights to −1: sum −5.
        f.on_eviction(&r.origin(), false);
        assert!(!f.should_prefetch(&r, 1));
        // A request sharing no feature slot with the trained one still
        // passes (different line, page offset, and PC slots; the shared
        // depth/bucket weights are only −1 each, not enough to flip the
        // sum alone). PC 0x904 folds to row 577 of 1024, clear of 0x100's 64.
        assert!(f.should_prefetch(&req(1000, 0x904), 2));
    }

    #[test]
    fn perceptron_relearns_good() {
        let mut f = PollutionFilter::new(&cfg(FilterKind::Perceptron));
        let r = req(500, 0x100);
        for _ in 0..4 {
            f.on_eviction(&r.origin(), false);
        }
        assert!(!f.should_prefetch(&r, 0));
        for _ in 0..5 {
            f.on_eviction(&r.origin(), true);
        }
        assert!(f.should_prefetch(&r, 1), "weights trained back up");
    }

    #[test]
    fn perceptron_rejected_prefetch_recovers_via_demand_miss() {
        let mut f = PollutionFilter::new(&cfg(FilterKind::Perceptron));
        let r = req(500, 0x100);
        f.on_eviction(&r.origin(), false);
        assert!(!f.should_prefetch(&r, 0));
        // The rejection was wrong: the program demand-misses the line. One
        // good train lifts the sum from −5 back to 0 (admit).
        f.on_demand_miss(LineAddr(500), 5);
        assert_eq!(f.stats().recovered, 1);
        assert!(f.should_prefetch(&r, 6), "feature vector recovered");
    }

    #[test]
    fn perceptron_storage_never_exceeds_the_counter_budget() {
        for (entries, bits) in [(4096usize, 2u8), (1024, 2), (256, 3), (64, 1)] {
            let mut c = cfg(FilterKind::Perceptron);
            c.table_entries = entries;
            c.counter_bits = bits;
            let f = PollutionFilter::new(&c);
            let budget_bits = entries * bits as usize;
            let spent = f.storage_bits();
            // The fixed feature tables (88 slots = 440 bits) dominate only
            // for degenerate budgets; everywhere else the layout must fit.
            if budget_bits >= 1024 {
                assert!(
                    spent <= budget_bits,
                    "{entries}x{bits}: spent {spent} of {budget_bits} bits"
                );
            }
        }
    }

    #[test]
    fn perceptron_snapshot_is_weights_counters_otherwise() {
        let f = PollutionFilter::new(&cfg(FilterKind::Perceptron));
        assert!(f.counter_snapshot().is_empty());
        let w = f.weight_snapshot().expect("perceptron stores weights");
        assert_eq!(w.len(), perceptron::FEATURE_COUNT);
        assert!(w.iter().flatten().all(|&x| x == 0));
        let f = PollutionFilter::new(&cfg(FilterKind::Pa));
        assert!(f.weight_snapshot().is_none());
        assert_eq!(f.counter_snapshot().len(), 1);
    }

    #[test]
    fn each_kind_stores_only_its_own_tables() {
        // The baseline machine stores nothing at all.
        let f = PollutionFilter::new(&cfg(FilterKind::None));
        assert!(f.counter_snapshot().is_empty());
        assert!(f.chooser_snapshot().is_none());
        assert!(f.weight_snapshot().is_none());
        assert_eq!(f.storage_bits(), 0);
        assert_eq!(f.fraction_good(), 1.0);
        // At the paper default every counter kind spends Table 1's 1KB
        // (4096 x 2 bits); the perceptron's [1024, 512, 64, 16, 8] rows of
        // 5-bit weights come to 8120 bits.
        for (kind, bits) in [
            (FilterKind::Pa, 8192),
            (FilterKind::Pc, 8192),
            (FilterKind::Hybrid, 8192),
            (FilterKind::Perceptron, 8120),
        ] {
            let f = PollutionFilter::new(&cfg(kind));
            assert_eq!(f.storage_bits(), bits, "{kind:?}");
        }
        let mut c = cfg(FilterKind::Pa);
        c.split_by_source = true;
        assert_eq!(PollutionFilter::new(&c).storage_bits(), 4 * 1024 * 2);
        // Tenant partitions slice the tables without growing them.
        for kind in [FilterKind::Pa, FilterKind::Perceptron] {
            let mut c = cfg(kind);
            c.tenant_partitions = 4;
            let unpartitioned = PollutionFilter::new(&cfg(kind)).storage_bits();
            assert_eq!(PollutionFilter::new(&c).storage_bits(), unpartitioned);
        }
        // §5.3's sweep: 1024 entries = 256B ... 16384 entries = 4KB.
        for (entries, bytes) in [(1024, 256), (2048, 512), (8192, 2048), (16384, 4096)] {
            let mut c = cfg(FilterKind::Pa);
            c.table_entries = entries;
            assert_eq!(PollutionFilter::new(&c).storage_bits() / 8, bytes);
        }
    }

    #[test]
    fn perceptron_depth_feature_distinguishes_deep_prefetches() {
        // Same PC and page, different depths: deep speculative requests can
        // be trained bad while shallow ones stay admitted, because the depth
        // feature selects different weights. The line feature also differs
        // here (as it would for a real degree-d burst), so the test drives
        // the shared PC weight down and checks depth keeps them apart.
        let mut f = PollutionFilter::new(&cfg(FilterKind::Perceptron));
        let shallow = PrefetchRequest {
            depth: 1,
            ..req(500, 0x100)
        };
        let deep = PrefetchRequest {
            depth: 8,
            ..req(501, 0x100)
        };
        // Deep requests train bad; shallow ones good — alternating, so the
        // shared PC/bucket weights roughly cancel.
        for _ in 0..6 {
            f.on_eviction(&deep.origin(), false);
            f.on_eviction(&shallow.origin(), true);
        }
        assert!(!f.should_prefetch(&deep, 0), "deep class trained bad");
        assert!(f.should_prefetch(&shallow, 1), "shallow class still good");
    }

    #[test]
    fn perceptron_tenants_are_isolated_with_partitions() {
        let mut c = cfg(FilterKind::Perceptron);
        c.tenant_partitions = 4;
        let mut f = PollutionFilter::new(&c);
        let hostile = PrefetchRequest {
            tenant: 1,
            ..req(500, 0x100)
        };
        for _ in 0..8 {
            f.on_eviction(&hostile.origin(), false);
        }
        assert!(!f.should_prefetch(&hostile, 0));
        let victim = PrefetchRequest {
            tenant: 0,
            ..req(500, 0x100)
        };
        assert!(
            f.should_prefetch(&victim, 1),
            "tenant 0's partition is untouched by tenant 1's pollution"
        );
    }

    #[test]
    fn perceptron_gate_bypass_counts() {
        let mut c = cfg(FilterKind::Perceptron);
        c.adaptive_accuracy_threshold = Some(0.5);
        c.adaptive_window = 16;
        let mut f = PollutionFilter::new(&c);
        let r = req(9, 0x100);
        // Pollute r's feature slots, but keep overall accuracy high.
        f.on_eviction(&r.origin(), false);
        f.on_eviction(&r.origin(), false);
        for i in 0..32 {
            f.on_eviction(&req(100 + i, 0x200).origin(), true);
        }
        assert!(f.should_prefetch(&r, 0), "high accuracy -> gate bypasses");
        assert!(f.stats().bypassed > 0);
        for i in 0..64 {
            f.on_eviction(&req(200 + i, 0x300).origin(), false);
        }
        assert!(!f.should_prefetch(&r, 1), "low accuracy -> filter engages");
    }
}
