//! Property-based tests for the shared vocabulary types.

use ppf_types::rng::Threshold;
use ppf_types::{LineAddr, PrefetchSource, SimStats, SplitMix64};
use proptest::prelude::*;

/// `2^-53`, the weight of one unit of a 53-bit draw.
const UNIT: f64 = 1.0 / (1u64 << 53) as f64;

/// Undo `z ^= z >> shift`.
fn unxorshift(y: u64, shift: u32) -> u64 {
    let mut x = y;
    for _ in 0..64 / shift {
        x = y ^ (x >> shift);
    }
    x
}

/// The inverse of odd `c` modulo 2^64 (Newton's iteration doubles the
/// correct low bits each step, from 3).
fn inverse(c: u64) -> u64 {
    let mut inv = c;
    for _ in 0..5 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(c.wrapping_mul(inv)));
    }
    inv
}

/// The generator whose next draw is `x`. SplitMix64 adds its gamma to the
/// state and then mixes it with a bijection, so run the mix backwards.
fn rng_drawing(x: u64) -> SplitMix64 {
    let z = unxorshift(x, 31).wrapping_mul(inverse(0x94d0_49bb_1331_11eb));
    let z = unxorshift(z, 27).wrapping_mul(inverse(0xbf58_476d_1ce4_e5b9));
    let state = unxorshift(z, 30);
    SplitMix64::new(state.wrapping_sub(0x9e37_79b9_7f4a_7c15))
}

/// `p` moved by `ulps` representable values (-1, 0 or +1).
fn ulp_step(p: f64, ulps: i64) -> f64 {
    match ulps {
        0 => p,
        _ if p == 0.0 => f64::from_bits(1) * ulps as f64,
        _ => f64::from_bits((p.to_bits() as i64 + ulps) as u64),
    }
}

/// Probabilities of every kind: unit-interval values, every float class
/// (NaN, infinities, subnormals, negatives), exact 53-bit boundaries
/// `k·2^-53` and their neighbours, and the usual suspects.
fn probability() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<f64>(),
        any::<u64>().prop_map(f64::from_bits),
        (0u64..=1 << 53, -1i64..=1).prop_map(|(k, ulps)| ulp_step(k as f64 * UNIT, ulps)),
        prop_oneof![
            Just(0.0),
            Just(-0.0),
            Just(1.0),
            Just(1.5),
            Just(-0.2),
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(f64::MIN_POSITIVE),
            Just(f64::from_bits(1)),
        ],
    ]
}

/// Non-negative weights, zero and subnormal included.
fn weight() -> impl Strategy<Value = f64> {
    prop_oneof![
        0.0..1.0f64,
        0.0..1e6f64,
        Just(0.0),
        Just(1e-4),
        Just(f64::from_bits(1)),
        any::<u64>().prop_map(|b| f64::from_bits(b >> 2)),
    ]
}

/// The float scan the weighted rank replaces: the first running sum above
/// the scaled draw, else the last outcome.
fn float_scan(rng: &mut SplitMix64, weights: &[f64]) -> usize {
    let mut cum = Vec::new();
    let mut total = 0.0;
    for w in weights {
        total += w;
        cum.push(total);
    }
    let x = rng.f64() * total;
    cum.iter().position(|&c| x < c).unwrap_or(cum.len() - 1)
}

/// A stats block whose funnel counters are balanced by construction:
/// `proposed` equals the sum of every downstream outcome plus `backlog`.
/// The outcome counts are scattered across prefetch sources so the check's
/// per-source totals are exercised, not just the grand total.
fn balanced_funnel(dup: u64, filt: u64, over: u64, issued: u64, backlog: u64) -> SimStats {
    let mut s = SimStats::default();
    let n = PrefetchSource::COUNT;
    for (i, (per, count)) in [
        (&mut s.prefetches_duplicate, dup),
        (&mut s.prefetches_filtered, filt),
        (&mut s.prefetches_queue_overflow, over),
        (&mut s.prefetches_issued, issued),
    ]
    .into_iter()
    .enumerate()
    {
        per.by_source[i % n] = count;
    }
    let proposed = dup + filt + over + issued + backlog;
    // Spread proposals over two sources to keep totals, not slots, balanced.
    s.prefetches_proposed.by_source[0] = proposed / 2;
    s.prefetches_proposed.by_source[1 % n] += proposed - proposed / 2;
    s
}

proptest! {
    #[test]
    fn line_addr_round_trip(addr in any::<u64>(), shift in 4u32..12) {
        let line_bytes = 1u32 << shift;
        let line = LineAddr::of(addr, line_bytes);
        let base = line.base_addr(line_bytes);
        // The base is line-aligned and contains the address.
        prop_assert_eq!(base % line_bytes as u64, 0);
        prop_assert!(base <= addr);
        prop_assert!(addr - base < line_bytes as u64);
        // Round trip: the base maps to the same line.
        prop_assert_eq!(LineAddr::of(base, line_bytes), line);
    }

    #[test]
    fn line_offset_is_additive(line in any::<u64>(), a in -1000i64..1000, b in -1000i64..1000) {
        let l = LineAddr(line);
        prop_assert_eq!(l.offset(a).offset(b), l.offset(a.wrapping_add(b)));
    }

    #[test]
    fn rng_below_always_in_bounds(seed in any::<u64>(), bound in 1u64..u64::MAX) {
        let mut rng = SplitMix64::new(seed);
        for _ in 0..32 {
            prop_assert!(rng.below(bound) < bound);
        }
    }

    #[test]
    fn rng_range_inclusive(seed in any::<u64>(), lo in 0u64..1000, width in 0u64..1000) {
        let hi = lo + width;
        let mut rng = SplitMix64::new(seed);
        for _ in 0..32 {
            let v = rng.range(lo, hi);
            prop_assert!((lo..=hi).contains(&v));
        }
    }

    #[test]
    fn rng_drawing_draws_its_value(x in any::<u64>()) {
        prop_assert_eq!(rng_drawing(x).next_u64(), x);
    }

    #[test]
    fn threshold_draw_matches_float_compare(seed in any::<u64>(), p in probability()) {
        let mut float = SplitMix64::new(seed);
        let mut hit = float.clone();
        let mut chance = float.clone();
        let want = float.f64() < p;
        prop_assert_eq!(hit.hit(Threshold::new(p)), want);
        prop_assert_eq!(chance.chance(p), want);
        prop_assert_eq!(&hit, &float);
        prop_assert_eq!(&chance, &float);
    }

    #[test]
    fn threshold_draw_matches_at_boundaries(
        k in 0u64..=1 << 53,
        ulps in -1i64..=1,
        offset in -2i64..=2,
        low in 0u64..1 << 11,
    ) {
        // A draw whose 53 bits sit on or next to the boundary of `p`.
        let p = ulp_step(k as f64 * UNIT, ulps);
        let u = (k as i64 + offset).clamp(0, (1 << 53) - 1) as u64;
        let mut float = rng_drawing(u << 11 | low);
        let mut hit = float.clone();
        prop_assert_eq!(hit.hit(Threshold::new(p)), float.f64() < p);
    }

    #[test]
    fn conditional_draw_matches_branch(seed in any::<u64>(), take in any::<bool>(), bound in any::<u64>()) {
        // `below(0)` is meaningless, but an untaken draw may name it.
        let bound = if take { bound.max(1) } else { bound };
        let mut branchless = SplitMix64::new(seed);
        let mut branchy = branchless.clone();
        let want = if take { branchy.below(bound) } else { 0 };
        prop_assert_eq!(branchless.below_if(take, bound), want);
        prop_assert_eq!(&branchless, &branchy);
    }

    #[test]
    fn class_rank_matches_float_if_chain(seed in any::<u64>(), a in 0.0..1.0f64, b in 0.0..1.0f64) {
        let mut int = SplitMix64::new(seed);
        let mut float = int.clone();
        let x = float.f64();
        let want = if x < a { 0 } else if x < a + b { 1 } else { 2 };
        prop_assert_eq!(int.rank(&[Threshold::new(a), Threshold::new(a + b)]), want);
    }

    #[test]
    fn weighted_rank_matches_float_scan(
        seed in any::<u64>(),
        weights in prop::collection::vec(weight(), 1..6),
    ) {
        let cuts = Threshold::cuts(&weights);
        prop_assert_eq!(cuts.len(), weights.len() - 1);
        let mut int = SplitMix64::new(seed);
        let mut float = int.clone();
        prop_assert_eq!(int.rank(&cuts), float_scan(&mut float, &weights));
        prop_assert_eq!(&int, &float);
        // Draws just around each running sum, where rounding decides.
        let total: f64 = weights.iter().sum();
        let mut sum = 0.0;
        for w in &weights {
            sum += w;
            let edge = (sum / total / UNIT).clamp(0.0, ((1u64 << 53) - 1) as f64) as i64;
            for u in edge - 2..=edge + 2 {
                let x = (u.clamp(0, (1 << 53) - 1) as u64) << 11;
                let mut int = rng_drawing(x);
                let mut float = int.clone();
                prop_assert_eq!(int.rank(&cuts), float_scan(&mut float, &weights));
            }
        }
    }

    #[test]
    fn rng_streams_reproducible(seed in any::<u64>()) {
        let mut a = SplitMix64::new(seed);
        let mut b = SplitMix64::new(seed);
        let va: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        prop_assert_eq!(va, vb);
    }

    #[test]
    fn rng_split_children_independent(seed in any::<u64>()) {
        let mut parent = SplitMix64::new(seed);
        let mut c1 = parent.split();
        let mut c2 = parent.split();
        // Children differ from each other in their first few outputs.
        let a: Vec<u64> = (0..4).map(|_| c1.next_u64()).collect();
        let b: Vec<u64> = (0..4).map(|_| c2.next_u64()).collect();
        prop_assert_ne!(a, b);
    }

    #[test]
    fn stats_merge_is_commutative_on_counters(
        a_insts in 0u64..1_000_000, a_cycles in 0u64..1_000_000,
        b_insts in 0u64..1_000_000, b_cycles in 0u64..1_000_000,
    ) {
        let mk = |i, c| SimStats { instructions: i, cycles: c, ..Default::default() };
        let mut ab = mk(a_insts, a_cycles);
        ab.merge(&mk(b_insts, b_cycles));
        let mut ba = mk(b_insts, b_cycles);
        ba.merge(&mk(a_insts, a_cycles));
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn funnel_conservation_accepts_any_balanced_split(
        dup in 0u64..100_000,
        filt in 0u64..100_000,
        over in 0u64..100_000,
        issued in 0u64..100_000,
        backlog in 0u64..64,
    ) {
        let s = balanced_funnel(dup, filt, over, issued, backlog);
        prop_assert!(s.check_funnel_conservation(backlog).is_ok());
    }

    #[test]
    fn funnel_conservation_rejects_any_leak(
        dup in 0u64..100_000,
        filt in 0u64..100_000,
        over in 0u64..100_000,
        issued in 0u64..100_000,
        backlog in 0u64..64,
        leak in 1u64..10_000,
    ) {
        // A candidate that was proposed but never reached any outcome —
        // exactly the bug class the debug-build check exists to catch.
        let mut s = balanced_funnel(dup, filt, over, issued, backlog);
        s.prefetches_proposed.by_source[0] += leak;
        let err = s.check_funnel_conservation(backlog).unwrap_err();
        prop_assert!(err.to_string().contains("funnel leak"), "{}", err);
        // And the dual: an outcome that was never proposed.
        let mut s = balanced_funnel(dup, filt, over, issued, backlog);
        s.prefetches_issued.by_source[0] += leak;
        prop_assert!(s.check_funnel_conservation(backlog).is_err());
    }

    #[test]
    fn funnel_conservation_survives_merge(
        a in 0u64..50_000, b in 0u64..50_000, c in 0u64..50_000,
        d in 0u64..50_000, back_a in 0u64..64, back_b in 0u64..64,
    ) {
        // Aggregating two balanced shards (as seed merging does) stays
        // balanced when the backlogs are summed.
        let mut x = balanced_funnel(a, b, c, d, back_a);
        let y = balanced_funnel(d, c, b, a, back_b);
        x.merge(&y);
        prop_assert!(x.check_funnel_conservation(back_a + back_b).is_ok());
    }

    #[test]
    fn ipc_is_finite_and_nonnegative(insts in 0u64..u32::MAX as u64, cycles in 0u64..u32::MAX as u64) {
        let s = SimStats { instructions: insts, cycles, ..Default::default() };
        let ipc = s.ipc();
        prop_assert!(ipc.is_finite());
        prop_assert!(ipc >= 0.0);
    }
}
