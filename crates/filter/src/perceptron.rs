//! Hashed-perceptron pollution filter (DESIGN.md §15).
//!
//! The counter filters judge a prefetch from a single hashed index; the
//! perceptron (after the perceptron-filtered prefetcher literature — see
//! PAPERS.md) combines several weak sources of evidence. Each *feature*
//! owns a small table of signed weights; a lookup hashes every feature,
//! sums the selected weights, and admits the prefetch when the sum clears
//! [`DECISION_THRESHOLD`]. Training is the same PIB/RIB eviction feedback
//! the counter filters consume: a referenced line bumps every selected
//! weight up by one, an unreferenced one bumps them down, saturating
//! symmetrically at ±[`WEIGHT_MAX`] — unit-step updates, exactly like the
//! saturating counters, just signed and multi-table. Good-outcome updates
//! are margin-gated ([`TRAIN_MARGIN`]): once the sum is confidently
//! positive, further strengthening is skipped, so shared features cannot
//! saturate and drown out target-specific evidence.
//!
//! The feature vector:
//!
//! | # | feature          | value                                  | rows    |
//! |---|------------------|----------------------------------------|---------|
//! | 0 | trigger PC       | `pc >> 2` folded                       | derived |
//! | 1 | line address     | line number folded                     | derived |
//! | 2 | page offset      | `line & 63` (position in a 64-line page)| 64     |
//! | 3 | prefetch depth   | lookahead distance, clamped to 15      | 16      |
//! | 4 | global accuracy  | `trained_good / trained` in 8 buckets  | 8       |
//!
//! Features 2–4 have bounded cardinality, so their tables are fixed and
//! small; the PC and line tables split whatever remains of the storage
//! budget ([`rows_for`]). The whole structure never spends more bits than
//! the counter table it replaces (`table_entries × counter_bits`), which is
//! what makes the `filter-family` head-to-head an equal-budget comparison.
//!
//! Salting and partitioning compose exactly as in [`crate::table`]: a
//! nonzero salt keys every feature fold ([`crate::hash::fold16_salted`]),
//! and with `P` tenant partitions each feature table is region-sliced so
//! tenant `t` only touches partition `t % P`.

use crate::hash::fold16_salted;
use ppf_types::{CounterInit, LineAddr, Pc, MAX_PREFETCH_DEPTH};

/// Number of feature tables.
pub const FEATURE_COUNT: usize = 5;

/// Bits per signed weight (sign + 4 magnitude bits → range ±15). This is
/// the denominator of the storage budget: a weight costs 2.5× a 2-bit
/// counter, so the perceptron gets proportionally fewer rows.
pub const WEIGHT_BITS: usize = 5;

/// Symmetric saturation bound for every weight.
pub const WEIGHT_MAX: i8 = 15;

/// A prefetch is admitted when the summed weights reach this threshold.
/// The bias is negative so an untrained perceptron (all weights at the
/// `WeaklyGood` init of 0) admits everything — the paper's weakly-good
/// spirit — AND so the two cross-cutting features (depth and global
/// accuracy, which many otherwise-unrelated requests share) can never veto
/// on their own: rejection requires at least three features' worth of
/// negative evidence, i.e. the target-specific features must concur.
pub const DECISION_THRESHOLD: i32 = -2;

/// Positive-side training margin: a *referenced* (good) eviction only
/// trains the weights while the sum sits at or below
/// `DECISION_THRESHOLD + TRAIN_MARGIN` — strengthening an already-confident
/// admit is skipped. Without this gate the two cross-cutting features
/// (depth and global accuracy), which nearly every request in a
/// mostly-good workload shares, saturate at +[`WEIGHT_MAX`] and mask any
/// amount of negative PC/line evidence; with it, positive mass stays
/// bounded near the decision boundary so a few bad outcomes can flip a
/// prediction. Bad evictions and reject-log recoveries are never gated:
/// negative evidence is what the filter exists to accumulate, and a
/// recovery is a proven misprediction by construction.
pub const TRAIN_MARGIN: i32 = 2;

/// Rows of the page-offset feature table (feature 2): one per line slot in
/// a 64-line page region, the feature's full cardinality.
pub const PAGE_OFFSET_ROWS: usize = 64;

/// Rows of the prefetch-depth feature table (feature 3): depths are
/// clamped to [`MAX_PREFETCH_DEPTH`], so 16 rows cover every value.
pub const DEPTH_ROWS: usize = 16;

/// Rows of the global-accuracy feature table (feature 4): accuracy is
/// quantized to [`ACCURACY_BUCKETS`] buckets.
pub const ACCURACY_ROWS: usize = 8;

/// Number of global-accuracy buckets (feature 4's cardinality).
pub const ACCURACY_BUCKETS: u8 = 8;

/// Floor of the PC/line feature-table row count, for degenerate budgets.
const MIN_BIG_ROWS: usize = 16;

/// Largest power of two `<= n` (0 for 0).
#[inline]
fn floor_pow2(n: usize) -> usize {
    if n == 0 {
        0
    } else {
        1 << (usize::BITS - 1 - n.leading_zeros())
    }
}

/// Quantize the filter's lifetime training accuracy into
/// [`ACCURACY_BUCKETS`] buckets. An untrained filter reports the top
/// bucket — optimistic, matching the weakly-good initialization story.
#[inline]
pub fn accuracy_bucket(trained_good: u64, trained_bad: u64) -> u8 {
    match (trained_good * ACCURACY_BUCKETS as u64).checked_div(trained_good + trained_bad) {
        None => ACCURACY_BUCKETS - 1,
        Some(scaled) => (scaled as u8).min(ACCURACY_BUCKETS - 1),
    }
}

/// Per-feature table sizes for a storage budget of `table_entries` counters
/// of `counter_bits` bits each. The three bounded features take their fixed
/// tables; the line feature takes the largest power of two at most half the
/// remaining weight slots, and the PC feature takes the largest power of
/// two that fits in what is left (often 2× the line table — the PC feature
/// carries the most predictive signal, so the leftover budget a symmetric
/// split would strand goes to it). Both are floored at `MIN_BIG_ROWS` so
/// a degenerate budget still yields a working filter.
pub fn rows_for(table_entries: usize, counter_bits: u8) -> [usize; FEATURE_COUNT] {
    let budget_bits = table_entries * counter_bits as usize;
    let budget_slots = budget_bits / WEIGHT_BITS;
    let fixed = PAGE_OFFSET_ROWS + DEPTH_ROWS + ACCURACY_ROWS;
    let free = budget_slots.saturating_sub(fixed);
    let line = floor_pow2(free / 2).max(MIN_BIG_ROWS);
    let pc = floor_pow2(free.saturating_sub(line)).max(MIN_BIG_ROWS);
    [pc, line, PAGE_OFFSET_ROWS, DEPTH_ROWS, ACCURACY_ROWS]
}

/// The inputs a lookup or training event presents to the feature hashes.
/// Everything here is available both at issue time (from the request) and
/// at eviction time (from the line's [`ppf_types::PrefetchOrigin`]), so
/// lookup and training always select the same weights.
#[derive(Debug, Clone, Copy)]
pub struct Features {
    /// Prefetch target line (feature 1, and feature 2's page offset).
    pub line: LineAddr,
    /// Trigger PC (feature 0).
    pub pc: Pc,
    /// Prefetch depth, clamped to [`MAX_PREFETCH_DEPTH`] (feature 3).
    pub depth: u8,
    /// Global-accuracy bucket from [`accuracy_bucket`] (feature 4).
    pub bucket: u8,
}

impl Features {
    /// Assemble the feature vector for a request or origin.
    #[inline]
    pub fn of(line: LineAddr, pc: Pc, depth: u8, bucket: u8) -> Features {
        Features {
            line,
            pc,
            depth: depth.min(MAX_PREFETCH_DEPTH),
            bucket,
        }
    }

    /// The raw per-feature values fed to the keyed fold, in table order.
    #[inline]
    fn values(&self) -> [u64; FEATURE_COUNT] {
        [
            // Strip the two always-zero instruction-alignment bits, like
            // the PC-indexed counter filter.
            self.pc >> 2,
            self.line.0,
            self.line.0 & (PAGE_OFFSET_ROWS as u64 - 1),
            self.depth as u64,
            self.bucket as u64,
        ]
    }
}

/// The perceptron's weight storage: one signed table per feature.
#[derive(Debug, Clone)]
pub struct Perceptron {
    /// `tables[f]` holds `rows[f] * partitions` weights — the full
    /// [`rows_for`] allocation, region-sliced like [`crate::table`]: total
    /// storage does not grow with the partition count, per-tenant reach
    /// shrinks instead.
    tables: [Vec<i8>; FEATURE_COUNT],
    /// Rows per partition (region size) of each feature table.
    rows: [usize; FEATURE_COUNT],
    /// Per-tenant partitions (power of two, ≥ 1).
    partitions: u32,
}

impl Perceptron {
    /// Build the weight tables for the given counter-table budget. Weights
    /// initialize from `init` in the same spirit as the counters:
    /// `WeaklyGood` starts at 0 (sum 0 admits — one bad training per
    /// feature flips nothing yet, but the structure is on the fence),
    /// `StronglyGood` at +1 per feature, `WeaklyBad` at −1 (unseen
    /// prefetches are rejected until trained or recovered).
    pub fn new(table_entries: usize, counter_bits: u8, init: CounterInit, partitions: u32) -> Self {
        let partitions = partitions.max(1);
        let total = rows_for(table_entries, counter_bits);
        // Region-slice the fixed allocation: every partition gets
        // 1/partitions of each feature table (all row counts and the
        // partition count are powers of two, so this divides exactly).
        let rows = total.map(|r| (r / partitions as usize).max(1));
        let w0 = match init {
            CounterInit::WeaklyGood => 0i8,
            CounterInit::StronglyGood => 1,
            CounterInit::WeaklyBad => -1,
        };
        let tables = rows.map(|r| vec![w0; r * partitions as usize]);
        Perceptron {
            tables,
            rows,
            partitions,
        }
    }

    /// Rows per partition (region size) of each feature table, in feature
    /// order.
    pub fn rows(&self) -> [usize; FEATURE_COUNT] {
        self.rows
    }

    /// Total weight slots across all feature tables and partitions.
    pub fn storage_entries(&self) -> usize {
        self.tables.iter().map(Vec::len).sum()
    }

    /// Total storage in bits ([`WEIGHT_BITS`] per slot).
    pub fn storage_bits(&self) -> usize {
        self.storage_entries() * WEIGHT_BITS
    }

    /// The slot each feature selects for (`features`, `tenant`, `salt`).
    /// `salt` is the *effective* (tenant-mixed) salt; 0 is the plain fold.
    #[inline]
    fn slots(&self, features: &Features, tenant: u8, salt: u64) -> [usize; FEATURE_COUNT] {
        let values = features.values();
        let mut out = [0usize; FEATURE_COUNT];
        for f in 0..FEATURE_COUNT {
            let region = self.rows[f];
            let idx = (fold16_salted(values[f], salt) as usize) & (region - 1);
            let part = (tenant as u32 % self.partitions) as usize;
            out[f] = part * region + idx;
        }
        out
    }

    /// The summed weight of the selected slots.
    #[inline]
    pub fn sum(&self, features: &Features, tenant: u8, salt: u64) -> i32 {
        let slots = self.slots(features, tenant, salt);
        self.tables
            .iter()
            .zip(slots)
            .map(|(t, s)| t[s] as i32)
            .sum()
    }

    /// Threshold decision: admit when the weight sum reaches
    /// [`DECISION_THRESHOLD`].
    #[inline]
    pub fn predict(&self, features: &Features, tenant: u8, salt: u64) -> bool {
        self.sum(features, tenant, salt) >= DECISION_THRESHOLD
    }

    /// Unit-step training on one outcome: every selected weight moves one
    /// step toward the outcome, saturating at ±[`WEIGHT_MAX`].
    pub fn train(&mut self, features: &Features, tenant: u8, salt: u64, good: bool) {
        let slots = self.slots(features, tenant, salt);
        for (t, s) in self.tables.iter_mut().zip(slots) {
            let w = &mut t[s];
            *w = if good {
                (*w + 1).min(WEIGHT_MAX)
            } else {
                (*w - 1).max(-WEIGHT_MAX)
            };
        }
    }

    /// Reject-log recovery training: a demand miss on a rejected line is a
    /// proven misprediction, so the *target-specific* features (PC, line,
    /// page offset) each move one step up — but the shared depth and
    /// accuracy weights stay put. Full-width recovery would hand +1 to
    /// weights nearly every request shares, letting one mistimed line
    /// re-inflate the global bias (and re-admit every repeat offender);
    /// target-only recovery gives the line its second chance without
    /// paying that tax, matching the counter filters' one-step recovery.
    pub fn recover(&mut self, features: &Features, tenant: u8, salt: u64) {
        let slots = self.slots(features, tenant, salt);
        for (t, s) in self.tables.iter_mut().zip(slots).take(3) {
            let w = &mut t[s];
            *w = (*w + 1).min(WEIGHT_MAX);
        }
    }

    /// Raw weight arrays in feature order — the oracle's full-state diff
    /// surface (the signed analogue of `counter_snapshot`).
    pub fn weight_snapshot(&self) -> Vec<Vec<i8>> {
        self.tables.iter().map(|t| t.to_vec()).collect()
    }

    /// Fraction of weight slots currently non-negative — the convergence
    /// gauge matching the counter tables' `fraction_good` (starts at 1.0
    /// under the default init, decays as eviction feedback drives weights
    /// negative).
    pub fn fraction_good(&self) -> f64 {
        let total = self.storage_entries();
        if total == 0 {
            return 1.0;
        }
        let good = self
            .tables
            .iter()
            .flat_map(|t| t.iter())
            .filter(|&&w| w >= 0)
            .count();
        good as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feats(line: u64, pc: u64) -> Features {
        Features::of(LineAddr(line), pc, 1, ACCURACY_BUCKETS - 1)
    }

    #[test]
    fn default_budget_stays_inside_the_counter_table() {
        // Paper default: 4096 × 2-bit = 8192 bits. The perceptron must not
        // spend more.
        let p = Perceptron::new(4096, 2, CounterInit::WeaklyGood, 1);
        assert_eq!(p.rows(), [1024, 512, 64, 16, 8]);
        assert!(p.storage_bits() <= 8192, "got {} bits", p.storage_bits());
    }

    #[test]
    fn tiny_budget_still_builds() {
        let p = Perceptron::new(64, 1, CounterInit::WeaklyGood, 1);
        assert_eq!(p.rows()[0], MIN_BIG_ROWS);
        assert!(p.predict(&feats(1, 2), 0, 0));
    }

    #[test]
    fn unseen_prefetch_is_admitted_then_trains_bad() {
        let mut p = Perceptron::new(4096, 2, CounterInit::WeaklyGood, 1);
        let f = feats(500, 0x400);
        assert!(p.predict(&f, 0, 0), "all-zero weights admit");
        p.train(&f, 0, 0, false);
        assert_eq!(p.sum(&f, 0, 0), -(FEATURE_COUNT as i32));
        assert!(!p.predict(&f, 0, 0), "one bad training rejects");
    }

    #[test]
    fn training_saturates_symmetrically() {
        let mut p = Perceptron::new(4096, 2, CounterInit::WeaklyGood, 1);
        let f = feats(77, 0x1000);
        for _ in 0..3 * WEIGHT_MAX as usize {
            p.train(&f, 0, 0, true);
        }
        assert_eq!(p.sum(&f, 0, 0), FEATURE_COUNT as i32 * WEIGHT_MAX as i32);
        for _ in 0..6 * WEIGHT_MAX as usize {
            p.train(&f, 0, 0, false);
        }
        assert_eq!(p.sum(&f, 0, 0), -(FEATURE_COUNT as i32) * WEIGHT_MAX as i32);
        assert!(p
            .weight_snapshot()
            .iter()
            .flatten()
            .all(|&w| (-WEIGHT_MAX..=WEIGHT_MAX).contains(&w)));
    }

    #[test]
    fn weakly_bad_init_rejects_unseen() {
        let p = Perceptron::new(4096, 2, CounterInit::WeaklyBad, 1);
        assert!(!p.predict(&feats(1, 2), 0, 0));
        let p = Perceptron::new(4096, 2, CounterInit::StronglyGood, 1);
        assert!(p.predict(&feats(1, 2), 0, 0));
    }

    #[test]
    fn partitions_isolate_tenants() {
        let mut p = Perceptron::new(4096, 2, CounterInit::WeaklyGood, 4);
        let f = feats(900, 0x2000);
        // Tenant 1 poisons its own partition only.
        for _ in 0..WEIGHT_MAX {
            p.train(&f, 1, 0, false);
        }
        assert!(!p.predict(&f, 1, 0));
        assert!(p.predict(&f, 0, 0), "tenant 0's partition is untouched");
        assert!(p.predict(&f, 2, 0));
    }

    #[test]
    fn salt_zero_is_the_plain_fold() {
        // At salt 0 the small-cardinality features index identically
        // (value & mask), so two Perceptrons built alike agree slot-wise.
        let mut a = Perceptron::new(1024, 2, CounterInit::WeaklyGood, 1);
        let mut b = Perceptron::new(1024, 2, CounterInit::WeaklyGood, 1);
        let f = feats(123, 0x5555);
        a.train(&f, 0, 0, false);
        b.train(&f, 0, 0, false);
        assert_eq!(a.weight_snapshot(), b.weight_snapshot());
    }

    #[test]
    fn distinct_salts_select_distinct_slots() {
        let p = Perceptron::new(4096, 2, CounterInit::WeaklyGood, 1);
        let f = feats(0xABCD_EF01, 0x7FF0);
        let s1 = p.slots(&f, 0, 0x1111_2222_3333_4444);
        let s2 = p.slots(&f, 0, 0x9999_8888_7777_6666);
        assert_ne!(s1, s2, "keyed folds must decorrelate across salts");
    }

    #[test]
    fn accuracy_buckets_cover_the_range() {
        assert_eq!(accuracy_bucket(0, 0), ACCURACY_BUCKETS - 1);
        assert_eq!(accuracy_bucket(100, 0), ACCURACY_BUCKETS - 1);
        assert_eq!(accuracy_bucket(0, 100), 0);
        assert_eq!(accuracy_bucket(50, 50), ACCURACY_BUCKETS / 2);
        for g in 0..=32u64 {
            let b = accuracy_bucket(g, 32 - g);
            assert!(b < ACCURACY_BUCKETS);
        }
    }

    #[test]
    fn depth_clamps_into_its_table() {
        let f = Features::of(LineAddr(1), 0x100, 200, 0);
        assert_eq!(f.depth, MAX_PREFETCH_DEPTH);
    }
}
