//! Untimed reference model of the pollution filter (§4 of the paper).
//!
//! The real [`PollutionFilter`] packs its counters into boxed slices with
//! masked indexing, shares code between the PA/PC/split/hybrid layouts, and
//! keeps a direct-mapped reject log for misprediction recovery. The oracle
//! re-derives the same semantics with the most naive storage possible —
//! plain `Vec<Vec<u8>>` counter arrays and modulo indexing — straight from
//! the spec:
//!
//! * 2-bit (configurable-width) saturating counters, weakly-good init, good
//!   when strictly above the mid-point (bimodal predictor rules).
//! * PA keys are the XOR-folded line address; PC keys the folded,
//!   alignment-stripped trigger PC.
//! * Eviction feedback trains the counter the prefetch hashed to with the
//!   line's RIB; hybrid trains both components and the chooser on
//!   disagreement (the tournament rule).
//! * A rejected target recorded in the reject log recovers (trains good)
//!   when a demand miss to it arrives within the freshness window.
//! * The hardened variants (DESIGN.md §12): a nonzero `hash_salt` keys the
//!   fold through per-half affine permutations (re-derived here, not
//!   imported), tag-mixed per tenant; `tenant_partitions > 1` confines
//!   each tenant to its own slice of every table.
//! * The hashed perceptron (DESIGN.md §15): five signed weight tables
//!   indexed by the folded PC, line, page offset, clamped depth, and the
//!   global-accuracy bucket; admit when the weight sum reaches the
//!   threshold; unit-step training clamped at ±15. [`RefPerceptron`]
//!   re-derives the geometry (budget split, fixed feature tables) and the
//!   decision/training rules from the spec with plain `Vec<Vec<i8>>`
//!   storage and modulo indexing.
//!
//! The adaptive gate is deliberately **not** modelled: campaigns run with
//! `adaptive_accuracy_threshold = None` and the harness refuses gated
//! configs, keeping the oracle a model of the paper mechanism only.

use crate::event::{obj, op, s, u, u_or};
use crate::Harness;
use ppf_filter::{FilterStats, PollutionFilter};
use ppf_types::{
    CounterInit, FilterConfig, FilterKind, FromJson, JsonValue, LineAddr, PrefetchOrigin,
    PrefetchRequest, PrefetchSource, ToJson, MAX_TENANTS,
};

/// Mirror of the real reject-log geometry (`ppf_filter::recovery`).
const REJECT_LOG_ENTRIES: usize = 4096;

/// Mirror of the tenant tag-mix constant (DESIGN.md §12): a nonzero salt is
/// XORed with `tenant * TENANT_TAG_MIX` so each tenant indexes through its
/// own keyed permutation.
const TENANT_TAG_MIX: u64 = 0x9e37_79b9_7f4a_7c15;

/// XOR-fold to 16 bits, re-derived from the spec (not imported from the
/// implementation under test).
fn fold16(v: u64) -> u64 {
    (v ^ (v >> 16) ^ (v >> 32) ^ (v >> 48)) & 0xffff
}

/// SplitMix64 finalizer — the salted fold's key-expansion step, re-derived
/// from DESIGN.md §12.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Salt-keyed affine permutation of one 16-bit half: `(x ^ a) * m + b`
/// modulo 2^16, multiplier forced odd.
fn scramble16(half: u64, key: u64) -> u64 {
    let a = key & 0xffff;
    let m = (key >> 16) | 1;
    let b = key >> 48;
    ((half ^ a).wrapping_mul(m)).wrapping_add(b) & 0xffff
}

/// Keyed fold: each 16-bit half through its own salt-derived permutation,
/// then XOR. Salt 0 is the plain [`fold16`].
fn fold16_salted(v: u64, salt: u64) -> u64 {
    if salt == 0 {
        return fold16(v);
    }
    scramble16(v & 0xffff, mix64(salt ^ 0x9e37_79b9_7f4a_7c15))
        ^ scramble16((v >> 16) & 0xffff, mix64(salt ^ 0xd1b5_4a32_d192_ed03))
        ^ scramble16((v >> 32) & 0xffff, mix64(salt ^ 0x8cb9_2ba7_2f3d_8dd7))
        ^ scramble16(v >> 48, mix64(salt ^ 0x52db_cc63_35f6_11c9))
}

fn pa_key(line: LineAddr, salt: u64) -> u64 {
    fold16_salted(line.0, salt)
}

fn pc_key(pc: u64, salt: u64) -> u64 {
    fold16_salted(pc >> 2, salt)
}

/// Largest power of two `<= n` (`n >= 1`), written the slow obvious way.
fn pow2_floor(n: usize) -> usize {
    let mut p = 1;
    while p * 2 <= n {
        p *= 2;
    }
    p
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Rejection {
    line: LineAddr,
    key: u64,
    table: usize,
    tenant: u8,
    stamp: u64,
}

/// Perceptron spec constants, re-derived from DESIGN.md §15 (not imported
/// from `ppf_filter::perceptron`).
const PERC_FEATURES: usize = 5;
const PERC_WEIGHT_BITS: usize = 5;
const PERC_WEIGHT_MAX: i8 = 15;
const PERC_THRESHOLD: i32 = -2;
/// Positive-side training margin (mirrors `perceptron::TRAIN_MARGIN`).
const PERC_TRAIN_MARGIN: i32 = 2;
const PERC_MAX_DEPTH: u64 = 15;
const PERC_ACC_BUCKETS: u64 = 8;

/// The global-accuracy bucket (feature 4) for the filter's lifetime
/// training counts; the top bucket when untrained.
fn perc_bucket(trained_good: u64, trained_bad: u64) -> u64 {
    match (trained_good * PERC_ACC_BUCKETS).checked_div(trained_good + trained_bad) {
        None => PERC_ACC_BUCKETS - 1,
        Some(scaled) => scaled.min(PERC_ACC_BUCKETS - 1),
    }
}

/// Naive reference model of the hashed-perceptron weight storage: five
/// plain signed vectors, modulo indexing, spelled out feature by feature.
#[derive(Debug, Clone)]
pub struct RefPerceptron {
    /// `weights[f]` holds `rows[f] * partitions` signed weights.
    weights: Vec<Vec<i8>>,
    /// Per-partition region size of each feature table.
    rows: Vec<usize>,
    partitions: usize,
}

impl RefPerceptron {
    fn new(cfg: &FilterConfig, partitions: usize) -> Self {
        // Budget split per the spec: the whole structure fits in the
        // `table_entries x counter_bits` bit budget at 5 bits a weight; the
        // bounded features (page offset / depth / accuracy) take 64/16/8
        // rows, the line feature takes the largest power of two at most
        // half the remainder, the PC feature the largest power of two in
        // what is left, both floored at 16 rows.
        let slots = cfg.table_entries * cfg.counter_bits as usize / PERC_WEIGHT_BITS;
        let fixed = 64 + 16 + 8;
        let free = slots.saturating_sub(fixed);
        let line_rows = pow2_floor(free / 2).max(16);
        let pc_rows = pow2_floor(free.saturating_sub(line_rows)).max(16);
        let total = [pc_rows, line_rows, 64, 16, 8];
        let w0: i8 = match cfg.counter_init {
            CounterInit::WeaklyGood => 0,
            CounterInit::StronglyGood => 1,
            CounterInit::WeaklyBad => -1,
        };
        let rows: Vec<usize> = total.iter().map(|&r| (r / partitions).max(1)).collect();
        let weights = rows.iter().map(|&r| vec![w0; r * partitions]).collect();
        RefPerceptron {
            weights,
            rows,
            partitions,
        }
    }

    /// The five feature slots a (line, pc, depth, bucket) event selects for
    /// `tenant` under the effective `salt`.
    fn slots(
        &self,
        line: LineAddr,
        pc: u64,
        depth: u64,
        bucket: u64,
        tenant: u8,
        salt: u64,
    ) -> [usize; PERC_FEATURES] {
        let values = [
            pc >> 2,
            line.0,
            line.0 % 64,
            depth.min(PERC_MAX_DEPTH),
            bucket,
        ];
        let mut out = [0usize; PERC_FEATURES];
        for f in 0..PERC_FEATURES {
            let region = self.rows[f];
            let idx = (fold16_salted(values[f], salt) as usize) % region;
            out[f] = (tenant as usize % self.partitions) * region + idx;
        }
        out
    }

    fn sum(&self, line: LineAddr, pc: u64, depth: u64, bucket: u64, tenant: u8, salt: u64) -> i32 {
        self.slots(line, pc, depth, bucket, tenant, salt)
            .iter()
            .enumerate()
            .map(|(f, &s)| self.weights[f][s] as i32)
            .sum()
    }

    #[allow(clippy::too_many_arguments)]
    fn train(
        &mut self,
        line: LineAddr,
        pc: u64,
        depth: u64,
        bucket: u64,
        tenant: u8,
        salt: u64,
        good: bool,
    ) {
        let slots = self.slots(line, pc, depth, bucket, tenant, salt);
        for (w_table, s) in self.weights.iter_mut().zip(slots) {
            let w = &mut w_table[s];
            *w = if good {
                (*w + 1).min(PERC_WEIGHT_MAX)
            } else {
                (*w - 1).max(-PERC_WEIGHT_MAX)
            };
        }
    }

    /// Recovery training: only the target-specific features (PC, line,
    /// page offset — tables 0..3) move up; shared depth/accuracy weights
    /// stay put (mirrors `Perceptron::recover`).
    fn recover(&mut self, line: LineAddr, pc: u64, depth: u64, bucket: u64, tenant: u8, salt: u64) {
        let slots = self.slots(line, pc, depth, bucket, tenant, salt);
        for (w_table, s) in self.weights.iter_mut().zip(slots).take(3) {
            let w = &mut w_table[s];
            *w = (*w + 1).min(PERC_WEIGHT_MAX);
        }
    }

    /// The raw weight arrays in feature order (compared against
    /// [`PollutionFilter::weight_snapshot`]).
    pub fn weights(&self) -> &[Vec<i8>] {
        &self.weights
    }
}

/// Naive reference filter: counter vectors plus a flat reject log.
#[derive(Debug, Clone)]
pub struct RefFilter {
    kind: FilterKind,
    tables: Vec<Vec<u8>>,
    chooser: Option<Vec<u8>>,
    perceptron: Option<RefPerceptron>,
    max: u8,
    threshold: u8,
    reject: Option<Vec<Option<Rejection>>>,
    window: u64,
    salt: u64,
    partitions: usize,
    stats: FilterStats,
}

impl RefFilter {
    /// Build the reference model for `cfg`. Refuses configurations the
    /// oracle does not model (the adaptive gate).
    pub fn new(cfg: &FilterConfig) -> Result<Self, String> {
        if cfg.adaptive_accuracy_threshold.is_some() {
            return Err("oracle does not model the adaptive gate".into());
        }
        let max: u8 = if cfg.counter_bits >= 8 {
            u8::MAX
        } else {
            (1u8 << cfg.counter_bits) - 1
        };
        let init = match cfg.counter_init {
            CounterInit::WeaklyGood => max / 2 + 1,
            CounterInit::StronglyGood => max,
            CounterInit::WeaklyBad => max / 2,
        };
        let table = |entries: usize| vec![init; entries];
        let (tables, chooser) = match (cfg.kind, cfg.split_by_source) {
            // `None` keeps no table; the perceptron keeps all its state in
            // the weight tables.
            (FilterKind::None | FilterKind::Perceptron, _) => (Vec::new(), None),
            (FilterKind::Hybrid, _) => {
                let per = pow2_floor(cfg.table_entries / 4).max(64);
                (
                    vec![table(per), table(per)],
                    Some(table(pow2_floor(cfg.table_entries / 2).max(64))),
                )
            }
            (_, true) => {
                let per = pow2_floor(cfg.table_entries / PrefetchSource::COUNT).max(64);
                (
                    (0..PrefetchSource::COUNT).map(|_| table(per)).collect(),
                    None,
                )
            }
            _ => (vec![table(cfg.table_entries)], None),
        };
        let partitions = cfg.tenant_partitions.clamp(1, MAX_TENANTS);
        Ok(RefFilter {
            kind: cfg.kind,
            tables,
            chooser,
            perceptron: (cfg.kind == FilterKind::Perceptron)
                .then(|| RefPerceptron::new(cfg, partitions)),
            max,
            threshold: max / 2,
            reject: (cfg.kind != FilterKind::None && cfg.recovery_window > 0)
                .then(|| vec![None; REJECT_LOG_ENTRIES]),
            window: cfg.recovery_window,
            salt: cfg.hash_salt,
            partitions,
            stats: FilterStats::default(),
        })
    }

    /// The salt a lookup from `tenant` hashes with: the configured salt with
    /// the tenant ID tag-mixed in; identity when salting is off.
    fn effective_salt(&self, tenant: u8) -> u64 {
        if self.salt == 0 {
            0
        } else {
            self.salt ^ (tenant as u64).wrapping_mul(TENANT_TAG_MIX)
        }
    }

    /// Partitioned slot: tenant `t` owns the `t % P` region of `len / P`
    /// consecutive counters and `key` indexes within it. `P = 1` degenerates
    /// to plain `key % len`.
    fn slot(&self, len: usize, key: u64, tenant: u8) -> usize {
        let region = len / self.partitions;
        (tenant as usize % self.partitions) * region + (key as usize) % region
    }

    fn predicts_good(&self, table: usize, key: u64, tenant: u8) -> bool {
        let t = &self.tables[table];
        t[self.slot(t.len(), key, tenant)] > self.threshold
    }

    fn train(&mut self, table: usize, key: u64, tenant: u8, good: bool) {
        let max = self.max;
        let slot = self.slot(self.tables[table].len(), key, tenant);
        let t = &mut self.tables[table];
        t[slot] = if good {
            t[slot].saturating_add(1).min(max)
        } else {
            t[slot].saturating_sub(1)
        };
    }

    fn table_for(&self, source: PrefetchSource) -> usize {
        if self.tables.len() > 1 {
            source.index()
        } else {
            0
        }
    }

    /// The `(decision key, table)` a non-hybrid lookup or training event
    /// resolves to; `None` only for `FilterKind::None`.
    fn flat_key(
        &self,
        line: LineAddr,
        pc: u64,
        source: PrefetchSource,
        tenant: u8,
    ) -> Option<(u64, usize)> {
        let salt = self.effective_salt(tenant);
        match self.kind {
            FilterKind::None | FilterKind::Hybrid | FilterKind::Perceptron => None,
            FilterKind::Pa => Some((pa_key(line, salt), self.table_for(source))),
            FilterKind::Pc => Some((pc_key(pc, salt), self.table_for(source))),
        }
    }

    /// Hybrid lookup: the chooser (PC-indexed) picks which component table
    /// decides.
    fn hybrid_key(&self, line: LineAddr, pc: u64, tenant: u8) -> (u64, usize) {
        let salt = self.effective_salt(tenant);
        let pck = pc_key(pc, salt);
        let trust_pc = match &self.chooser {
            Some(c) => c[self.slot(c.len(), pck, tenant)] > self.threshold,
            None => false,
        };
        if trust_pc {
            (pck, 1)
        } else {
            (pa_key(line, salt), 0)
        }
    }

    /// Mirror of [`PollutionFilter::should_prefetch`]. `depth` feeds the
    /// perceptron's depth feature and is ignored by the counter kinds.
    pub fn lookup(
        &mut self,
        line: LineAddr,
        pc: u64,
        source: PrefetchSource,
        tenant: u8,
        depth: u64,
        now: u64,
    ) -> bool {
        if self.kind == FilterKind::Perceptron {
            let bucket = perc_bucket(self.stats.trained_good, self.stats.trained_bad);
            let salt = self.effective_salt(tenant);
            let good = self
                .perceptron
                .as_ref()
                .map(|p| p.sum(line, pc, depth, bucket, tenant, salt) >= PERC_THRESHOLD)
                .unwrap_or(true);
            if good {
                self.stats.allowed += 1;
            } else {
                self.stats.rejected += 1;
                if let Some(log) = &mut self.reject {
                    // The log slot reuses `key` for the trigger PC and
                    // `table` for the clamped depth — the feature inputs a
                    // recovery train needs.
                    log[(line.0 as usize) % REJECT_LOG_ENTRIES] = Some(Rejection {
                        line,
                        key: pc,
                        table: depth.min(PERC_MAX_DEPTH) as usize,
                        tenant,
                        stamp: now,
                    });
                }
            }
            return good;
        }
        let (key, table) = match self.kind {
            FilterKind::None => {
                self.stats.allowed += 1;
                return true;
            }
            FilterKind::Hybrid => self.hybrid_key(line, pc, tenant),
            _ => self.flat_key(line, pc, source, tenant).expect("flat kind"),
        };
        let good = self.predicts_good(table, key, tenant);
        if good {
            self.stats.allowed += 1;
        } else {
            self.stats.rejected += 1;
            if let Some(log) = &mut self.reject {
                log[(line.0 as usize) % REJECT_LOG_ENTRIES] = Some(Rejection {
                    line,
                    key,
                    table,
                    tenant,
                    stamp: now,
                });
            }
        }
        good
    }

    /// Mirror of [`PollutionFilter::on_eviction`]. `depth` feeds the
    /// perceptron's depth feature and is ignored by the counter kinds.
    pub fn evict(
        &mut self,
        line: LineAddr,
        pc: u64,
        source: PrefetchSource,
        tenant: u8,
        depth: u64,
        referenced: bool,
    ) {
        if referenced {
            self.stats.trained_good += 1;
        } else {
            self.stats.trained_bad += 1;
        }
        if self.kind == FilterKind::Perceptron {
            // Ordering contract with the real filter: the stats bump above
            // comes first, so feature 4 hashes with a bucket that already
            // includes this event.
            let bucket = perc_bucket(self.stats.trained_good, self.stats.trained_bad);
            let salt = self.effective_salt(tenant);
            if let Some(p) = &mut self.perceptron {
                // Positive-side margin gate, mirroring the real filter:
                // good outcomes only train while the sum sits within the
                // margin band above the threshold; bad always trains.
                if !referenced
                    || p.sum(line, pc, depth, bucket, tenant, salt)
                        <= PERC_THRESHOLD + PERC_TRAIN_MARGIN
                {
                    p.train(line, pc, depth, bucket, tenant, salt, referenced);
                }
            }
        } else if self.kind == FilterKind::Hybrid {
            let salt = self.effective_salt(tenant);
            let (pak, pck) = (pa_key(line, salt), pc_key(pc, salt));
            let pa_right = self.predicts_good(0, pak, tenant) == referenced;
            let pc_right = self.predicts_good(1, pck, tenant) == referenced;
            self.train(0, pak, tenant, referenced);
            self.train(1, pck, tenant, referenced);
            if pa_right != pc_right {
                let slot = self
                    .chooser
                    .as_ref()
                    .map(|c| self.slot(c.len(), pck, tenant));
                if let (Some(c), Some(slot)) = (&mut self.chooser, slot) {
                    c[slot] = if pc_right {
                        c[slot].saturating_add(1).min(self.max)
                    } else {
                        c[slot].saturating_sub(1)
                    };
                }
            }
        } else if let Some((key, table)) = self.flat_key(line, pc, source, tenant) {
            self.train(table, key, tenant, referenced);
        }
    }

    /// Mirror of [`PollutionFilter::on_demand_miss`]. The recovering train
    /// goes to the tenant recorded with the rejection, not the missing
    /// request's — the log remembers whose counter vetoed.
    pub fn demand_miss(&mut self, line: LineAddr, now: u64) {
        let Some(log) = &mut self.reject else {
            return;
        };
        let slot = (line.0 as usize) % REJECT_LOG_ENTRIES;
        match log[slot] {
            Some(r) if r.line == line => {
                log[slot] = None;
                if now.saturating_sub(r.stamp) <= self.window {
                    self.stats.recovered += 1;
                    if self.kind == FilterKind::Perceptron {
                        // Rebuild the rejected feature vector (`key` = PC,
                        // `table` = clamped depth); only the target
                        // features get the recovery step.
                        let bucket = perc_bucket(self.stats.trained_good, self.stats.trained_bad);
                        let salt = self.effective_salt(r.tenant);
                        if let Some(p) = &mut self.perceptron {
                            p.recover(r.line, r.key, r.table as u64, bucket, r.tenant, salt);
                        }
                    } else {
                        self.train(r.table, r.key, r.tenant, true);
                    }
                }
            }
            _ => {}
        }
    }

    /// Component-table counter arrays (compared against
    /// [`PollutionFilter::counter_snapshot`]).
    pub fn counters(&self) -> &[Vec<u8>] {
        &self.tables
    }

    /// Chooser counter array, for hybrid configs.
    pub fn chooser(&self) -> Option<&[u8]> {
        self.chooser.as_deref()
    }

    /// Perceptron weight arrays, for perceptron configs (compared against
    /// [`PollutionFilter::weight_snapshot`]).
    pub fn perceptron_weights(&self) -> Option<&[Vec<i8>]> {
        self.perceptron.as_ref().map(RefPerceptron::weights)
    }

    /// Statistics accumulated by the model.
    pub fn stats(&self) -> FilterStats {
        self.stats
    }
}

/// Lockstep harness pairing the real [`PollutionFilter`] with [`RefFilter`].
pub struct FilterHarness {
    cfg: FilterConfig,
    real: PollutionFilter,
    oracle: RefFilter,
}

impl FilterHarness {
    /// Build from a repro/campaign config — a full [`FilterConfig`] JSON
    /// object (the same shape `figures --json` emits).
    pub fn from_config(config: &JsonValue) -> Result<Self, String> {
        let cfg = FilterConfig::from_json(config)?;
        Ok(FilterHarness {
            real: PollutionFilter::new(&cfg),
            oracle: RefFilter::new(&cfg)?,
            cfg,
        })
    }

    fn check_state(&self) -> Result<(), String> {
        let real_tables = self.real.counter_snapshot();
        if real_tables != self.oracle.tables {
            return Err(format!(
                "counter tables diverged: real {real_tables:?} vs oracle {:?}",
                self.oracle.tables
            ));
        }
        let real_chooser = self.real.chooser_snapshot();
        if real_chooser.as_deref() != self.oracle.chooser() {
            return Err(format!(
                "chooser diverged: real {real_chooser:?} vs oracle {:?}",
                self.oracle.chooser()
            ));
        }
        let real_weights = self.real.weight_snapshot();
        if real_weights.as_deref() != self.oracle.perceptron_weights() {
            return Err(format!(
                "perceptron weights diverged: real {real_weights:?} vs oracle {:?}",
                self.oracle.perceptron_weights()
            ));
        }
        if *self.real.stats() != self.oracle.stats {
            return Err(format!(
                "stats diverged: real {:?} vs oracle {:?}",
                self.real.stats(),
                self.oracle.stats
            ));
        }
        Ok(())
    }
}

impl Harness for FilterHarness {
    fn kind(&self) -> &'static str {
        "filter"
    }

    fn config(&self) -> JsonValue {
        self.cfg.to_json()
    }

    fn reset(&mut self) {
        self.real = PollutionFilter::new(&self.cfg);
        self.oracle = RefFilter::new(&self.cfg).expect("config already accepted");
    }

    fn step(&mut self, event: &JsonValue) -> Result<(), String> {
        let line = LineAddr(u(event, "line"));
        // Lenient: repros committed before multi-tenant hardening carry no
        // tenant field and replay with the pre-extension semantics.
        let tenant = u_or(event, "tenant", 0) as u8;
        match op(event) {
            "lookup" => {
                let pc = u(event, "pc");
                let source = source_of(event);
                let now = u(event, "now");
                // Lenient like `tenant`: pre-perceptron repros carry no
                // depth field and replay as depth 0.
                let depth = u_or(event, "depth", 0);
                let req = PrefetchRequest {
                    line,
                    trigger_pc: pc,
                    source,
                    tenant,
                    depth: depth.min(u8::MAX as u64) as u8,
                };
                let real = self.real.should_prefetch(&req, now);
                let oracle = self.oracle.lookup(line, pc, source, tenant, depth, now);
                if real != oracle {
                    return Err(format!(
                        "lookup decision: real {real} vs oracle {oracle} for {event}"
                    ));
                }
            }
            "evict" => {
                let pc = u(event, "pc");
                let source = source_of(event);
                let referenced = crate::event::b(event, "referenced");
                let depth = u_or(event, "depth", 0);
                let origin = PrefetchOrigin {
                    line,
                    trigger_pc: pc,
                    source,
                    tenant,
                    depth: depth.min(u8::MAX as u64) as u8,
                };
                self.real.on_eviction(&origin, referenced);
                self.oracle
                    .evict(line, pc, source, tenant, depth, referenced);
            }
            "demand_miss" => {
                let now = u(event, "now");
                self.real.on_demand_miss(line, now);
                self.oracle.demand_miss(line, now);
            }
            other => panic!("filter harness: unknown op `{other}` in {event}"),
        }
        self.check_state()
    }
}

fn source_of(e: &JsonValue) -> PrefetchSource {
    PrefetchSource::from_json(&JsonValue::Str(s(e, "source").to_string()))
        .unwrap_or_else(|err| panic!("bad prefetch source in {e}: {err}"))
}

/// Build a lookup event (shared with the sim tap replay in tests).
pub fn lookup_event(
    line: LineAddr,
    pc: u64,
    source: PrefetchSource,
    tenant: u8,
    depth: u8,
    now: u64,
) -> JsonValue {
    obj(&[
        ("op", JsonValue::Str("lookup".into())),
        ("line", line.0.to_json()),
        ("pc", pc.to_json()),
        ("source", source.to_json()),
        ("tenant", (tenant as u64).to_json()),
        ("depth", (depth as u64).to_json()),
        ("now", now.to_json()),
    ])
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

    #[test]
    fn weakly_good_first_touch_passes() {
        let mut f = RefFilter::new(&cfg(FilterKind::Pa)).unwrap();
        assert!(f.lookup(LineAddr(5), 0x100, PrefetchSource::Nsp, 0, 1, 0));
    }

    #[test]
    fn two_bad_outcomes_reject_then_recovery_trains_back() {
        let mut f = RefFilter::new(&cfg(FilterKind::Pa)).unwrap();
        let l = LineAddr(5);
        f.evict(l, 0x100, PrefetchSource::Nsp, 0, 1, false);
        f.evict(l, 0x100, PrefetchSource::Nsp, 0, 1, false);
        assert!(!f.lookup(l, 0x100, PrefetchSource::Nsp, 0, 1, 10));
        f.demand_miss(l, 20);
        assert_eq!(f.stats().recovered, 1);
    }

    #[test]
    fn stale_recovery_is_dropped() {
        let mut f = RefFilter::new(&cfg(FilterKind::Pa)).unwrap();
        let l = LineAddr(5);
        f.evict(l, 0x100, PrefetchSource::Nsp, 0, 1, false);
        f.evict(l, 0x100, PrefetchSource::Nsp, 0, 1, false);
        assert!(!f.lookup(l, 0x100, PrefetchSource::Nsp, 0, 1, 0));
        f.demand_miss(l, 100_000);
        assert_eq!(f.stats().recovered, 0, "beyond the freshness window");
    }

    #[test]
    fn salted_fold_matches_the_real_hash() {
        // The oracle re-derives the keyed fold from DESIGN.md §12; it must
        // land on the same 16-bit keys as `ppf_filter::hash` for every salt.
        for salt in [0u64, 1, 0x5eed_cafe_f00d_d00d, u64::MAX] {
            for v in [0u64, 5, 0xdead_beef, 0x1234_5678_9abc_def0, u64::MAX] {
                assert_eq!(
                    fold16_salted(v, salt),
                    ppf_filter::hash::fold16_salted(v, salt),
                    "salt {salt:#x} value {v:#x}"
                );
            }
        }
    }

    #[test]
    fn partitioned_filter_isolates_tenants() {
        let mut c = cfg(FilterKind::Pa);
        c.tenant_partitions = 4;
        let mut f = RefFilter::new(&c).unwrap();
        let l = LineAddr(5);
        // Tenant 1 poisons its counter for the line...
        f.evict(l, 0x100, PrefetchSource::Nsp, 1, 1, false);
        f.evict(l, 0x100, PrefetchSource::Nsp, 1, 1, false);
        assert!(!f.lookup(l, 0x100, PrefetchSource::Nsp, 1, 1, 0));
        // ...and every other tenant's view of the same line is untouched.
        for victim in [0u8, 2, 3] {
            assert!(f.lookup(l, 0x100, PrefetchSource::Nsp, victim, 1, 0));
        }
    }

    #[test]
    fn tag_mixed_salt_separates_tenant_keys() {
        // With a nonzero salt, the same line hashes to different keys for
        // different tenants even in a shared (P=1) table.
        let mut c = cfg(FilterKind::Pa);
        c.hash_salt = 0x5eed_cafe_f00d_d00d;
        let f = RefFilter::new(&c).unwrap();
        let k0 = pa_key(LineAddr(5), f.effective_salt(0));
        let k1 = pa_key(LineAddr(5), f.effective_salt(1));
        assert_ne!(k0, k1, "tenants must index through distinct permutations");
    }

    #[test]
    fn hybrid_geometry_matches_real_budget_split() {
        let c = cfg(FilterKind::Hybrid);
        let f = RefFilter::new(&c).unwrap();
        let real = PollutionFilter::new(&c);
        assert_eq!(f.counters(), real.counter_snapshot());
        assert_eq!(f.chooser(), real.chooser_snapshot().as_deref());
    }

    #[test]
    fn none_filter_keeps_no_table() {
        let c = cfg(FilterKind::None);
        let mut f = RefFilter::new(&c).unwrap();
        assert!(f.counters().is_empty());
        assert!(PollutionFilter::new(&c).counter_snapshot().is_empty());
        f.evict(LineAddr(5), 0x100, PrefetchSource::Nsp, 0, 1, false);
        assert!(f.lookup(LineAddr(5), 0x100, PrefetchSource::Nsp, 0, 1, 0));
    }

    #[test]
    fn gated_config_is_refused() {
        let mut c = cfg(FilterKind::Pa);
        c.adaptive_accuracy_threshold = Some(0.5);
        assert!(RefFilter::new(&c).is_err());
    }

    #[test]
    fn perceptron_geometry_matches_real_weight_tables() {
        for (entries, bits, parts) in [(4096usize, 2u8, 1usize), (1024, 2, 1), (4096, 2, 4)] {
            let mut c = cfg(FilterKind::Perceptron);
            c.table_entries = entries;
            c.counter_bits = bits;
            c.tenant_partitions = parts;
            let f = RefFilter::new(&c).unwrap();
            let real = PollutionFilter::new(&c);
            assert_eq!(
                f.perceptron_weights().map(<[Vec<i8>]>::to_vec),
                real.weight_snapshot(),
                "{entries}x{bits} P={parts}"
            );
        }
    }

    #[test]
    fn perceptron_admits_until_trained_then_recovers() {
        let mut f = RefFilter::new(&cfg(FilterKind::Perceptron)).unwrap();
        let l = LineAddr(5);
        assert!(f.lookup(l, 0x100, PrefetchSource::Nsp, 0, 1, 0));
        f.evict(l, 0x100, PrefetchSource::Nsp, 0, 1, false);
        assert!(!f.lookup(l, 0x100, PrefetchSource::Nsp, 0, 1, 5));
        f.demand_miss(l, 10);
        assert_eq!(f.stats().recovered, 1);
        assert!(f.lookup(l, 0x100, PrefetchSource::Nsp, 0, 1, 11));
    }

    #[test]
    fn perceptron_lockstep_smoke_random_events() {
        // A miniature campaign inline: drive both models through the
        // harness path with a config mix (plain, salted, partitioned) and
        // require byte-identical weights and stats at every step.
        for (salt, parts) in [
            (0u64, 1usize),
            (0x5eed_cafe_f00d_d00d, 1),
            (0, 4),
            (0xbeef, 4),
        ] {
            let mut c = cfg(FilterKind::Perceptron);
            c.table_entries = 256;
            c.counter_bits = 2;
            c.hash_salt = salt;
            c.tenant_partitions = parts;
            let mut h = FilterHarness::from_config(&c.to_json()).unwrap();
            let mut x = 0x1234_5678_9abc_def0u64 ^ salt;
            for step in 0..400u64 {
                // xorshift64 event stream.
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let line = LineAddr(x % 512);
                let pc = 0x400 + (x >> 9) % 64 * 4;
                let tenant = ((x >> 20) % 4) as u8;
                let depth = (x >> 24) % 20;
                let ev = match x % 3 {
                    0 => lookup_event(line, pc, PrefetchSource::Nsp, tenant, depth as u8, step),
                    1 => obj(&[
                        ("op", JsonValue::Str("evict".into())),
                        ("line", line.0.to_json()),
                        ("pc", pc.to_json()),
                        ("source", PrefetchSource::Nsp.to_json()),
                        ("tenant", (tenant as u64).to_json()),
                        ("depth", depth.to_json()),
                        ("referenced", (x & 8 == 0).to_json()),
                    ]),
                    _ => obj(&[
                        ("op", JsonValue::Str("demand_miss".into())),
                        ("line", line.0.to_json()),
                        ("now", step.to_json()),
                    ]),
                };
                h.step(&ev).unwrap_or_else(|e| {
                    panic!("divergence at step {step} (salt {salt:#x} P={parts}): {e}")
                });
            }
        }
    }
}
