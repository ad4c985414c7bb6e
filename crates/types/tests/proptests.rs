//! Property-based tests for the shared vocabulary types.

use ppf_types::{LineAddr, PrefetchSource, SimStats, SplitMix64};
use proptest::prelude::*;

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
