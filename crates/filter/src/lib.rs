//! The paper's contribution: hardware cache-pollution filters for
//! aggressive prefetches (§4 of Zhuang & Lee, ICPP 2003).
//!
//! A [`PollutionFilter`] consists of a single-level **history table** of
//! 2-bit saturating counters, a hash function, and lookup/update logic — the
//! same machinery as a bimodal branch predictor. Incoming prefetches are
//! looked up before issue:
//!
//! * **PA-based** ([`ppf_types::FilterKind::Pa`]): indexed by the prefetched
//!   *cache-line address* (offset bits stripped). Discriminates different
//!   addresses fetched by the same instruction, but aliases more in a small
//!   table (§4.1).
//! * **PC-based** ([`ppf_types::FilterKind::Pc`]): indexed by the *program
//!   counter* of the triggering instruction. Coarser but more compact; needs
//!   the PC routed to the filter on a separate path (§4.2).
//!
//! Training is eviction-driven: when the L1 replaces a line whose PIB is
//! set, the line's RIB (referenced-or-not) strengthens or weakens the
//! counter the prefetch hashed to. A prefetch is issued only when its
//! counter predicts "good" (counter in the upper half, like a taken branch);
//! unseen entries start weakly-good so first-touch prefetches pass — the
//! paper relies on this ("all prefetches first mapped to the history table
//! are assumed to be good and issued", §5.3).
//!
//! [`adaptive::AdaptiveGate`] implements the "advanced features" remark in
//! §5.2.1: engage filtering only while observed prefetch accuracy is low.

#![warn(missing_docs)]

pub mod adaptive;
pub mod cost;
pub mod counter;
pub mod hash;
pub mod perceptron;
pub mod recovery;
pub mod table;

use ppf_types::json::{FromJson, JsonError, JsonValue, ToJson};
use ppf_types::{FilterConfig, FilterKind, PrefetchOrigin, PrefetchRequest, PrefetchSource};

use adaptive::AdaptiveGate;
use perceptron::{accuracy_bucket, Features, Perceptron};
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
fn floor_pow2(n: usize) -> usize {
    if n == 0 {
        0
    } else {
        1 << (usize::BITS - 1 - n.leading_zeros())
    }
}

/// The hardware pollution filter of §4.
#[derive(Debug, Clone)]
pub struct PollutionFilter {
    kind: FilterKind,
    /// One shared table (paper), or one per prefetch source when
    /// `FilterConfig::split_by_source` splits the same storage budget.
    tables: Vec<HistoryTable>,
    gate: Option<AdaptiveGate>,
    stats: FilterStats,
    /// Recently rejected targets, for misprediction recovery (see
    /// [`recovery`]). `None` for `FilterKind::None`.
    reject_log: Option<recovery::RejectLog>,
    /// Tournament chooser for [`FilterKind::Hybrid`]: PC-indexed 2-bit
    /// counters; "good" means trust the PC table, otherwise the PA table.
    chooser: Option<HistoryTable>,
    /// Weight tables for [`FilterKind::Perceptron`] (DESIGN.md §15); the
    /// counter `tables` vector is empty for that kind.
    perceptron: Option<Perceptron>,
    /// Keyed-hash salt (0 = the paper's plain fold; DESIGN.md §12).
    salt: u64,
}

/// A full-state snapshot of whichever storage the configured kind uses —
/// unsigned counters or signed perceptron weights. This is the oracle's
/// diff surface and serializes through the JSON layer as a tagged object
/// (`{"counters": [...]}` / `{"weights": [...]}`) so lockstep divergence
/// reports render either representation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FilterSnapshot {
    /// Raw counter arrays of every component table, in table order.
    Counters(Vec<Vec<u8>>),
    /// Raw signed weight arrays of every feature table, in feature order.
    Weights(Vec<Vec<i8>>),
}

impl ToJson for FilterSnapshot {
    fn to_json(&self) -> JsonValue {
        match self {
            FilterSnapshot::Counters(t) => {
                JsonValue::Object(vec![("counters".to_string(), t.to_json())])
            }
            FilterSnapshot::Weights(t) => {
                JsonValue::Object(vec![("weights".to_string(), t.to_json())])
            }
        }
    }
}

impl FromJson for FilterSnapshot {
    fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
        if let Some(c) = v.get("counters") {
            return Vec::<Vec<u8>>::from_json(c).map(FilterSnapshot::Counters);
        }
        if let Some(w) = v.get("weights") {
            return Vec::<Vec<i8>>::from_json(w).map(FilterSnapshot::Weights);
        }
        Err(format!(
            "expected object with `counters` or `weights`, got {v}"
        ))
    }
}

/// Folded into a nonzero salt per tenant ID so each tenant indexes the
/// shared table through its own keyed permutation (tag-mixing): a hostile
/// tenant can no longer aim trained-bad counters at a victim's keys even
/// without partitioning. Tenant 0 keeps the configured salt unchanged, so
/// single-tenant salted runs are unaffected.
const TENANT_TAG_MIX: u64 = 0x9e37_79b9_7f4a_7c15;

impl PollutionFilter {
    /// Build a filter from its configuration. With `FilterKind::None` the
    /// filter admits everything and trains nothing (the baseline machine).
    pub fn new(cfg: &FilterConfig) -> Self {
        let parts = (cfg.tenant_partitions.max(1) as u32).min(ppf_types::MAX_TENANTS as u32);
        let table = |entries: usize| {
            HistoryTable::with_partitions(entries, cfg.counter_bits, cfg.counter_init, parts)
        };
        let tables = if cfg.kind == FilterKind::Perceptron {
            // All storage lives in the signed weight tables below; an empty
            // counter-table vector keeps the counter paths inert.
            Vec::new()
        } else if cfg.kind == FilterKind::Hybrid {
            // tables[0] is PA-indexed, tables[1] is PC-indexed. The chooser
            // below takes half the advertised budget, each component a
            // quarter, so components + chooser together stay inside
            // `table_entries` counters (floored at 64 entries each for
            // degenerate budgets).
            let per = floor_pow2(cfg.table_entries / 4).max(64);
            vec![table(per), table(per)]
        } else if cfg.split_by_source {
            // Same total budget, four ways; round *down* to a power of two
            // (rounding up would overshoot the budget whenever the quarter
            // is not already a power of two); floor at 64 entries each.
            let per = floor_pow2(cfg.table_entries / PrefetchSource::COUNT).max(64);
            (0..PrefetchSource::COUNT).map(|_| table(per)).collect()
        } else {
            vec![table(cfg.table_entries)]
        };
        PollutionFilter {
            kind: cfg.kind,
            tables,
            gate: cfg
                .adaptive_accuracy_threshold
                .map(|thr| AdaptiveGate::new(thr, cfg.adaptive_window)),
            stats: FilterStats::default(),
            // `recovery_window == 0` disables recovery entirely — the
            // strict (absorbing) reading of the paper, kept as an ablation.
            reject_log: (cfg.kind != FilterKind::None && cfg.recovery_window > 0).then(|| {
                recovery::RejectLog::with_window(recovery::DEFAULT_REJECT_LOG, cfg.recovery_window)
            }),
            // Half the advertised budget; honors the configured counter
            // width and initial state like the component tables (the
            // PC-indexed chooser aliases across trigger sites, so it gets
            // the larger share).
            chooser: (cfg.kind == FilterKind::Hybrid)
                .then(|| table(floor_pow2(cfg.table_entries / 2).max(64))),
            perceptron: (cfg.kind == FilterKind::Perceptron).then(|| {
                Perceptron::new(cfg.table_entries, cfg.counter_bits, cfg.counter_init, parts)
            }),
            salt: cfg.hash_salt,
        }
    }

    /// The keyed-hash salt a lookup from `tenant` uses: the configured salt
    /// with the tenant ID tag-mixed in (identity when salting is off).
    #[inline]
    fn effective_salt(&self, tenant: u8) -> u64 {
        if self.salt == 0 {
            0
        } else {
            self.salt ^ (tenant as u64).wrapping_mul(TENANT_TAG_MIX)
        }
    }

    /// The indexing scheme in use.
    pub fn kind(&self) -> FilterKind {
        self.kind
    }

    /// Filter-local statistics.
    pub fn stats(&self) -> &FilterStats {
        &self.stats
    }

    /// History-table entry count (per table when split by source). For the
    /// perceptron this is the per-partition row count of the largest
    /// feature table (the PC/line tables).
    pub fn table_entries(&self) -> usize {
        match &self.perceptron {
            Some(p) => p.rows()[0],
            None => self.tables[0].entries(),
        }
    }

    /// Number of history tables (1 shared, or one per prefetch source).
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Entry count of the hybrid chooser table; `None` for non-hybrid kinds.
    pub fn chooser_entries(&self) -> Option<usize> {
        self.chooser.as_ref().map(HistoryTable::entries)
    }

    /// Total counters across every structure the filter allocates
    /// (component tables plus the hybrid chooser) — the real storage cost
    /// to compare against the advertised `FilterConfig::table_entries`.
    pub fn storage_entries(&self) -> usize {
        self.tables.iter().map(HistoryTable::entries).sum::<usize>()
            + self.chooser_entries().unwrap_or(0)
            + self
                .perceptron
                .as_ref()
                .map(Perceptron::storage_entries)
                .unwrap_or(0)
    }

    /// Entries-weighted fraction of component-table counters currently
    /// predicting "good" — the telemetry gauge for filter convergence. All
    /// counters start weakly-good (§4), so this begins at 1.0 and decays as
    /// PIB/RIB evictions train entries bad; the curve flattening out is the
    /// filter reaching steady state. The hybrid chooser is excluded: it
    /// predicts *which table* to trust, not whether a prefetch is good.
    pub fn fraction_good(&self) -> f64 {
        if let Some(p) = &self.perceptron {
            return p.fraction_good();
        }
        let total: usize = self.tables.iter().map(HistoryTable::entries).sum();
        if total == 0 {
            return 1.0;
        }
        let good: f64 = self
            .tables
            .iter()
            .map(|t| t.fraction_good() * t.entries() as f64)
            .sum();
        good / total as f64
    }

    /// Snapshot of every component table's raw counter array, in table
    /// order. Cheap state-inspection hook for the differential oracle.
    pub fn counter_snapshot(&self) -> Vec<Vec<u8>> {
        self.tables.iter().map(|t| t.counters().to_vec()).collect()
    }

    /// Snapshot of the hybrid chooser's counters; `None` for non-hybrid
    /// kinds.
    pub fn chooser_snapshot(&self) -> Option<Vec<u8>> {
        self.chooser.as_ref().map(|c| c.counters().to_vec())
    }

    /// Snapshot of the perceptron's signed weight tables in feature order;
    /// `None` for counter-based kinds.
    pub fn weight_snapshot(&self) -> Option<Vec<Vec<i8>>> {
        self.perceptron.as_ref().map(Perceptron::weight_snapshot)
    }

    /// Full-state snapshot of whichever storage this kind uses — the
    /// kind-agnostic diff surface for lockstep oracles.
    pub fn snapshot(&self) -> FilterSnapshot {
        match self.weight_snapshot() {
            Some(w) => FilterSnapshot::Weights(w),
            None => FilterSnapshot::Counters(self.counter_snapshot()),
        }
    }

    #[inline]
    fn table_idx(&self, source: PrefetchSource) -> usize {
        if self.tables.len() > 1 {
            source.index()
        } else {
            0
        }
    }

    #[inline]
    fn index_for(&self, line: ppf_types::LineAddr, pc: ppf_types::Pc, tenant: u8) -> Option<u64> {
        let salt = self.effective_salt(tenant);
        match self.kind {
            FilterKind::None => None,
            FilterKind::Pa => Some(hash::hash_line_salted(line, salt)),
            FilterKind::Pc => Some(hash::hash_pc_salted(pc, salt)),
            // Hybrid handles its two keys explicitly at each use site; the
            // recovery log stores the chosen (key, table) pair. The
            // perceptron has no single index either — its reject-log entry
            // stores the feature inputs instead.
            FilterKind::Hybrid | FilterKind::Perceptron => None,
        }
    }

    /// Hybrid lookup: both predictions plus the chooser's pick.
    /// Returns (decision, chosen key, chosen table index).
    #[inline]
    fn hybrid_predict(
        &self,
        line: ppf_types::LineAddr,
        pc: ppf_types::Pc,
        tenant: u8,
    ) -> (bool, u64, usize) {
        let salt = self.effective_salt(tenant);
        let pa_key = hash::hash_line_salted(line, salt);
        let pc_key = hash::hash_pc_salted(pc, salt);
        let use_pc = self
            .chooser
            .as_ref()
            .map(|c| c.predict_good_for(pc_key, tenant))
            .unwrap_or(false);
        if use_pc {
            (self.tables[1].predict_good_for(pc_key, tenant), pc_key, 1)
        } else {
            (self.tables[0].predict_good_for(pa_key, tenant), pa_key, 0)
        }
    }

    /// Perceptron lookup path of [`Self::should_prefetch`]: gate bypass,
    /// then a weight-sum threshold decision. A rejection records the
    /// feature inputs (target line, trigger PC, clamped depth) in the
    /// reject log so a later demand miss can re-derive the exact feature
    /// vector and train it good.
    fn perceptron_lookup(&mut self, req: &PrefetchRequest, now: u64) -> bool {
        if let Some(gate) = &self.gate {
            if !gate.engaged() {
                self.stats.bypassed += 1;
                self.stats.allowed += 1;
                return true;
            }
        }
        let bucket = accuracy_bucket(self.stats.trained_good, self.stats.trained_bad);
        let feats = Features::of(req.line, req.trigger_pc, req.depth, bucket);
        let salt = self.effective_salt(req.tenant);
        let good = self
            .perceptron
            .as_ref()
            .is_none_or(|p| p.predict(&feats, req.tenant, salt));
        if good {
            self.stats.allowed += 1;
        } else {
            self.stats.rejected += 1;
            if let Some(log) = &mut self.reject_log {
                // Slot reuse: `key` carries the trigger PC and `table` the
                // clamped depth — together with the line, everything needed
                // to rebuild the feature vector at miss time.
                log.record(req.line, req.trigger_pc, feats.depth, req.tenant, now);
            }
        }
        good
    }

    /// Decide whether `req` should be issued (history-table lookup, §4) at
    /// cycle `now`. `FilterKind::None` always allows. The adaptive gate,
    /// when configured and satisfied with recent accuracy, bypasses
    /// filtering.
    pub fn should_prefetch(&mut self, req: &PrefetchRequest, now: u64) -> bool {
        let (key, table) = match self.kind {
            FilterKind::None => {
                self.stats.allowed += 1;
                return true;
            }
            FilterKind::Perceptron => return self.perceptron_lookup(req, now),
            FilterKind::Hybrid => {
                let (_, key, table) = self.hybrid_predict(req.line, req.trigger_pc, req.tenant);
                (key, table)
            }
            _ => match self.index_for(req.line, req.trigger_pc, req.tenant) {
                Some(key) => (key, self.table_idx(req.source)),
                None => unreachable!("None handled above"),
            },
        };
        if let Some(gate) = &self.gate {
            if !gate.engaged() {
                self.stats.bypassed += 1;
                self.stats.allowed += 1;
                return true;
            }
        }
        let good = self.tables[table].predict_good_for(key, req.tenant);
        if good {
            self.stats.allowed += 1;
        } else {
            self.stats.rejected += 1;
            if let Some(log) = &mut self.reject_log {
                log.record(req.line, key, table as u8, req.tenant, now);
            }
        }
        good
    }

    /// Train on an L1 eviction (or end-of-run drain) of a prefetched line:
    /// `referenced` is the line's RIB. Also feeds the adaptive gate's
    /// accuracy window.
    pub fn on_eviction(&mut self, origin: &PrefetchOrigin, referenced: bool) {
        if referenced {
            self.stats.trained_good += 1;
        } else {
            self.stats.trained_bad += 1;
        }
        if let Some(gate) = &mut self.gate {
            gate.observe(referenced);
        }
        if let Some(p) = &mut self.perceptron {
            // Ordering contract (mirrored by the oracle): the stats bump
            // above happens FIRST, so the accuracy bucket this training
            // event hashes feature 4 with already includes the event itself.
            let bucket = accuracy_bucket(self.stats.trained_good, self.stats.trained_bad);
            let feats = Features::of(origin.line, origin.trigger_pc, origin.depth, bucket);
            let salt = if self.salt == 0 {
                0
            } else {
                self.salt ^ (origin.tenant as u64).wrapping_mul(TENANT_TAG_MIX)
            };
            // Margin gate (perceptron::TRAIN_MARGIN): good outcomes only
            // train while the sum is at or below the margin band above the
            // threshold; bad outcomes always train.
            if !referenced
                || p.sum(&feats, origin.tenant, salt)
                    <= perceptron::DECISION_THRESHOLD + perceptron::TRAIN_MARGIN
            {
                p.train(&feats, origin.tenant, salt, referenced);
            }
        } else if self.kind == FilterKind::Hybrid {
            let tenant = origin.tenant;
            let salt = self.effective_salt(tenant);
            let pa_key = hash::hash_line_salted(origin.line, salt);
            let pc_key = hash::hash_pc_salted(origin.trigger_pc, salt);
            // Both component tables train on the outcome; the chooser
            // trains toward whichever component was right (only when they
            // disagree — the tournament update rule).
            let pa_right = self.tables[0].predict_good_for(pa_key, tenant) == referenced;
            let pc_right = self.tables[1].predict_good_for(pc_key, tenant) == referenced;
            self.tables[0].train_for(pa_key, tenant, referenced);
            self.tables[1].train_for(pc_key, tenant, referenced);
            if pa_right != pc_right {
                if let Some(c) = &mut self.chooser {
                    c.train_for(pc_key, tenant, pc_right);
                }
            }
        } else if let Some(key) = self.index_for(origin.line, origin.trigger_pc, origin.tenant) {
            let table = self.table_idx(origin.source);
            self.tables[table].train_for(key, origin.tenant, referenced);
        }
    }

    /// A demand access missed the L1 on `line`. If a prefetch for that line
    /// was recently rejected, the rejection was a misprediction: train the
    /// vetoing counter good so the key class can recover (see [`recovery`]).
    pub fn on_demand_miss(&mut self, line: ppf_types::LineAddr, now: u64) {
        let Some(log) = &mut self.reject_log else {
            return;
        };
        let Some((key, table, tenant)) = log.check_miss(line, now) else {
            return;
        };
        self.stats.recovered += 1;
        if let Some(p) = &mut self.perceptron {
            // The log entry holds the rejected request's feature inputs
            // (`key` = trigger PC, `table` = clamped depth; see the reject
            // path). Re-derive the vector and give the target-specific
            // weights their one-step second chance (`Perceptron::recover`)
            // — the analogue of the counter filters' recovery train.
            let bucket = accuracy_bucket(self.stats.trained_good, self.stats.trained_bad);
            let feats = Features::of(line, key, table, bucket);
            let salt = if self.salt == 0 {
                0
            } else {
                self.salt ^ (tenant as u64).wrapping_mul(TENANT_TAG_MIX)
            };
            p.recover(&feats, tenant, salt);
        } else {
            self.tables[table as usize].train_for(key, tenant, true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppf_types::{LineAddr, PrefetchSource};

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
        assert_eq!(f.table_count(), PrefetchSource::COUNT);
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
        assert_eq!(f.table_entries(), 1024);
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
        assert_eq!(f.table_count(), 2);
        assert_eq!(f.table_entries(), 1024, "a quarter each for PA and PC");
        assert_eq!(f.chooser_entries(), Some(2048), "half for the chooser");
        assert_eq!(
            f.storage_entries(),
            c.table_entries,
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
        assert!(f.storage_entries() <= c.table_entries);
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
                    assert!(
                        f.storage_entries() <= c.table_entries,
                        "{kind:?} split={split}: {} counters from a budget of {}",
                        f.storage_entries(),
                        c.table_entries
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
        assert_eq!(f.table_entries(), 4096);
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
            let spent = f.storage_entries() * perceptron::WEIGHT_BITS;
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
        let snap = f.snapshot();
        match &snap {
            FilterSnapshot::Weights(w) => {
                assert_eq!(w.len(), perceptron::FEATURE_COUNT);
                assert!(w.iter().flatten().all(|&x| x == 0));
            }
            other => panic!("expected weights, got {other:?}"),
        }
        let f = PollutionFilter::new(&cfg(FilterKind::Pa));
        assert!(f.weight_snapshot().is_none());
        assert!(matches!(f.snapshot(), FilterSnapshot::Counters(_)));
    }

    #[test]
    fn filter_snapshot_round_trips_through_json() {
        use ppf_types::json::{FromJson, ToJson};
        let w = FilterSnapshot::Weights(vec![vec![-15, 0, 15], vec![1, -1]]);
        let c = FilterSnapshot::Counters(vec![vec![0, 3], vec![2]]);
        for snap in [w, c] {
            let back = FilterSnapshot::from_json(&snap.to_json()).unwrap();
            assert_eq!(back, snap);
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
