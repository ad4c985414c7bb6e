//! Deterministic, splittable pseudo-random number generation.
//!
//! The simulator core must be a pure function of `(config, workload, seed)`,
//! so it does not use the `rand` crate (whose algorithms may change across
//! versions). Instead workloads draw from this small SplitMix64 generator —
//! the well-known Steele/Lea/Flood mixer — which is fast, has a single `u64`
//! of state, and supports *splitting*: deriving independent child streams so
//! each workload phase gets its own reproducible sequence.
//!
//! Hot loops draw against precomputed integer thresholds ([`Threshold`])
//! instead of comparing floats: a Bernoulli draw is one compare of a
//! draw's top 53 bits, a weighted choice a count of compares, and both
//! give exactly the outcomes of the `f64()`-based draws they replace.

/// SplitMix64 PRNG (Steele, Lea & Flood, "Fast splittable pseudorandom
/// number generators", OOPSLA 2014).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// `2^-53`: the weight of one unit of a 53-bit draw in [`SplitMix64::f64`].
const UNIT: f64 = 1.0 / (1u64 << 53) as f64;

/// A probability as an integer threshold on the 53-bit draw behind
/// [`SplitMix64::f64`]: the draw `u` hits when `u < threshold`, which holds
/// exactly when `f64() < p` would.
///
/// `f64()` is `u · 2^-53` and scaling by a power of two is exact, so
/// `u · 2^-53 < p` ⇔ `u < p · 2^53` ⇔ `u < ⌈p · 2^53⌉` for integer `u`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Threshold(u64);

impl Threshold {
    /// The threshold of probability `p`. NaN, zero and negative `p` never
    /// hit; `p ≥ 1` always hits.
    #[inline]
    pub fn new(p: f64) -> Self {
        // The saturating cast sends NaN and negatives to 0 and +inf to
        // u64::MAX, which the clamp brings back to "always".
        Threshold(((p * (1u64 << 53) as f64).ceil() as u64).min(1 << 53))
    }

    /// The cut points of a weighted choice among `weights.len()` outcomes,
    /// one per outcome but the last, for [`SplitMix64::rank`]. The rank of
    /// a draw is the index the float scan "first `i` with `f64() * total <
    /// cum[i]`, else the last" picks, where `cum` holds the running sums of
    /// `weights` and `total` their sum.
    ///
    /// Panics on a negative weight: the cuts must ascend.
    pub fn cuts(weights: &[f64]) -> Vec<Threshold> {
        assert!(
            weights.iter().all(|w| w.is_nan() || *w >= 0.0),
            "negative weight in {weights:?}"
        );
        let mut cum = Vec::with_capacity(weights.len());
        let mut total = 0.0;
        for w in weights {
            total += w;
            cum.push(total);
        }
        cum.pop();
        // The scaled draw `u · 2^-53 · total` never falls as `u` grows, so
        // the draws below a running sum form a prefix; bisect for its end.
        cum.iter()
            .map(|&c| {
                let (mut lo, mut hi) = (0u64, 1u64 << 53);
                while lo < hi {
                    let mid = lo + (hi - lo) / 2;
                    if mid as f64 * UNIT * total < c {
                        lo = mid + 1;
                    } else {
                        hi = mid;
                    }
                }
                Threshold(lo)
            })
            .collect()
    }
}

#[inline]
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl SplitMix64 {
    /// Create a generator from a seed. Equal seeds give equal streams.
    #[inline]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        mix64(self.state)
    }

    /// Derive an independent child generator. The parent advances by one
    /// step, so repeated splits give distinct children.
    #[inline]
    pub fn split(&mut self) -> SplitMix64 {
        SplitMix64 {
            state: mix64(self.next_u64()),
        }
    }

    /// Uniform value in `[0, bound)`. `bound` must be nonzero.
    ///
    /// Uses the widening-multiply technique (Lemire) — no division, and bias
    /// is at most 2^-64 per draw, far below anything a cache simulation can
    /// observe.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "below(0) is meaningless");
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform value in the inclusive range `[lo, hi]`.
    #[inline]
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        lo + self.below(hi - lo + 1)
    }

    /// `below(bound)` when `take`, otherwise 0 without advancing: the same
    /// value and final state as `if take { self.below(bound) } else { 0 }`,
    /// but branch-free. It peeks the next draw and commits the step only
    /// when taken; `bound` may be 0 when not taken.
    #[inline]
    pub fn below_if(&mut self, take: bool, bound: u64) -> u64 {
        debug_assert!(!take || bound > 0, "below(0) is meaningless");
        let mask = (take as u64).wrapping_neg();
        let peeked = mix64(self.state.wrapping_add(GOLDEN_GAMMA));
        self.state = self.state.wrapping_add(GOLDEN_GAMMA & mask);
        ((peeked as u128 * bound as u128) >> 64) as u64 & mask
    }

    /// The top 53 bits of the next draw.
    #[inline]
    fn next_u53(&mut self) -> u64 {
        self.next_u64() >> 11
    }

    /// Uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        self.next_u53() as f64 * UNIT
    }

    /// Bernoulli draw against a precomputed threshold: one integer compare.
    #[inline]
    pub fn hit(&mut self, threshold: Threshold) -> bool {
        self.next_u53() < threshold.0
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to \[0,1\]).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.hit(Threshold::new(p))
    }

    /// One draw ranked against ascending cut points: the number of `cuts`
    /// the draw is not below. Cuts built from ascending probabilities
    /// `p_0 ≤ p_1 ≤ …` give the first `i` with `f64() < p_i`, or
    /// `cuts.len()`; [`Threshold::cuts`] gives a weighted choice. Counting
    /// instead of scanning keeps the choice branch-free.
    #[inline]
    pub fn rank(&mut self, cuts: &[Threshold]) -> usize {
        let u = self.next_u53();
        cuts.iter().map(|c| (u >= c.0) as usize).sum()
    }

    /// Pick a uniformly random element of a non-empty slice.
    #[inline]
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "pick from empty slice");
        &items[self.below(items.len() as u64) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = SplitMix64::new(12345);
        let mut b = SplitMix64::new(12345);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn split_children_are_independent_of_parent_continuation() {
        let mut parent = SplitMix64::new(99);
        let mut child = parent.split();
        // Child stream must not equal the parent's continuation.
        let c: Vec<u64> = (0..16).map(|_| child.next_u64()).collect();
        let p: Vec<u64> = (0..16).map(|_| parent.next_u64()).collect();
        assert_ne!(c, p);
    }

    #[test]
    fn repeated_splits_differ() {
        let mut parent = SplitMix64::new(7);
        let mut c1 = parent.split();
        let mut c2 = parent.split();
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = SplitMix64::new(42);
        for bound in [1u64, 2, 3, 10, 1000, u64::MAX] {
            for _ in 0..200 {
                assert!(rng.below(bound) < bound);
            }
        }
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut rng = SplitMix64::new(1234);
        let mut buckets = [0u32; 8];
        let n = 80_000;
        for _ in 0..n {
            buckets[rng.below(8) as usize] += 1;
        }
        let expect = n / 8;
        for &b in &buckets {
            // 5% tolerance — generous for n=80k per-bucket ~10k.
            assert!((b as i64 - expect as i64).unsigned_abs() < expect as u64 / 20);
        }
    }

    #[test]
    fn range_is_inclusive() {
        let mut rng = SplitMix64::new(5);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..1000 {
            let v = rng.range(3, 6);
            assert!((3..=6).contains(&v));
            seen_lo |= v == 3;
            seen_hi |= v == 6;
        }
        assert!(seen_lo && seen_hi);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = SplitMix64::new(8);
        for _ in 0..1000 {
            let v = rng.f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SplitMix64::new(11);
        for _ in 0..100 {
            assert!(!rng.chance(0.0));
            assert!(rng.chance(1.1)); // clamping behaviour: p>=1 always true
        }
    }

    #[test]
    fn chance_is_calibrated() {
        let mut rng = SplitMix64::new(21);
        let hits = (0..100_000).filter(|_| rng.chance(0.3)).count();
        assert!((28_000..32_000).contains(&hits), "hits={hits}");
    }

    #[test]
    fn pick_covers_all_elements() {
        let mut rng = SplitMix64::new(3);
        let items = [10, 20, 30];
        let mut seen = [false; 3];
        for _ in 0..300 {
            let v = *rng.pick(&items);
            seen[(v / 10 - 1) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
