//! Property-based tests for the pollution filter: counter bounds, table
//! behaviour under arbitrary training, and end-to-end filter consistency.

use ppf_filter::counter::SatCounter;
use ppf_filter::hash::{fold16_salted, hash_line, hash_line_salted, hash_pc, hash_pc_salted};
use ppf_filter::perceptron::{Features, Perceptron, FEATURE_COUNT, WEIGHT_MAX};
use ppf_filter::table::HistoryTable;
use ppf_filter::PollutionFilter;
use ppf_types::{CounterInit, FilterConfig, FilterKind, LineAddr, PrefetchRequest, PrefetchSource};
use proptest::prelude::*;

proptest! {
    #[test]
    fn pa_index_sweep_covers_every_slot(
        entries_log2 in 4u32..13,
        high in any::<u64>(),
    ) {
        // A sweep of consecutive line addresses (with arbitrary upper bits,
        // which fold16 XORs in as a constant) must land on every slot of a
        // power-of-two table: the PA index wastes no entries on any stripe
        // of the address space.
        let entries = 1usize << entries_log2;
        let mask = (entries - 1) as u64;
        let mut hit = vec![false; entries];
        for i in 0..entries as u64 {
            let line = LineAddr((high << 16) | i);
            hit[(hash_line(line) & mask) as usize] = true;
        }
        prop_assert!(hit.iter().all(|&h| h), "PA sweep must cover all {} slots", entries);
    }

    #[test]
    fn pc_index_sweep_covers_every_slot(
        entries_log2 in 4u32..13,
        high in any::<u64>(),
    ) {
        // Same full-range property for the PC index: consecutive 4-byte
        // aligned instruction addresses cover the whole table — the two
        // always-zero alignment bits must not shrink the usable index range.
        let entries = 1usize << entries_log2;
        let mask = (entries - 1) as u64;
        let mut hit = vec![false; entries];
        for i in 0..entries as u64 {
            let pc = (high << 18) | (i << 2);
            hit[(hash_pc(pc) & mask) as usize] = true;
        }
        prop_assert!(hit.iter().all(|&h| h), "PC sweep must cover all {} slots", entries);
    }

    #[test]
    fn saturating_bad_sweep_drains_the_whole_table(
        entries_log2 in 4u32..10,
        bits in 1u8..=3,
    ) {
        // Training every slot bad max+1 times saturates the entire table at
        // zero regardless of width — coverage and decay saturation at once.
        let entries = 1usize << entries_log2;
        let mut t = HistoryTable::new(entries, bits, CounterInit::WeaklyGood, 1);
        let reps = 1u32 << bits;
        for key in 0..entries as u64 {
            for _ in 0..reps {
                t.train_for(key, 0, false);
            }
        }
        prop_assert_eq!(t.fraction_good(), 0.0);
        prop_assert!(t.counters().iter().all(|&v| v == 0));
    }

    #[test]
    fn saturating_good_sweep_fills_the_whole_table(
        entries_log2 in 4u32..10,
        bits in 1u8..=3,
    ) {
        let entries = 1usize << entries_log2;
        let max = (1u8 << bits) - 1;
        let mut t = HistoryTable::new(entries, bits, CounterInit::WeaklyBad, 1);
        let reps = 1u32 << bits;
        for key in 0..entries as u64 {
            for _ in 0..reps {
                t.train_for(key, 0, true);
            }
        }
        prop_assert_eq!(t.fraction_good(), 1.0);
        prop_assert!(t.counters().iter().all(|&v| v == max));
    }

    #[test]
    fn counter_moves_monotonically_in_unit_steps(
        bits in 1u8..=8,
        initial in any::<u8>(),
        good in any::<bool>(),
        n in 1usize..40,
    ) {
        // Under a consistent outcome the counter is monotone, moves by at
        // most one per training, and never leaves [0, max].
        let mut c = SatCounter::new(bits, initial);
        let mut prev = c.value();
        for _ in 0..n {
            c.train(good);
            let v = c.value();
            if good {
                prop_assert!(v >= prev, "good training must not weaken");
            } else {
                prop_assert!(v <= prev, "bad training must not strengthen");
            }
            prop_assert!(v.abs_diff(prev) <= 1, "saturating counters step by one");
            prop_assert!(v <= c.max());
            prev = v;
        }
    }

    #[test]
    fn table_counters_never_exceed_width(
        bits in 1u8..=3,
        ops in prop::collection::vec((any::<u64>(), any::<bool>()), 0..300),
    ) {
        // The 2-bit-range invariant, generalized: whatever the training
        // history, no raw counter escapes its configured width.
        let mut t = HistoryTable::new(64, bits, CounterInit::WeaklyGood, 1);
        let max = (1u8 << bits) - 1;
        for (key, good) in ops {
            t.train_for(key, 0, good);
            prop_assert!(t.counters().iter().all(|&v| v <= max));
        }
    }

    #[test]
    fn counter_stays_in_range_under_any_training(
        bits in 1u8..=8,
        initial in any::<u8>(),
        outcomes in prop::collection::vec(any::<bool>(), 0..200),
    ) {
        let mut c = SatCounter::new(bits, initial);
        let max = c.max();
        for good in outcomes {
            c.train(good);
            prop_assert!(c.value() <= max);
        }
    }

    #[test]
    fn counter_prediction_matches_threshold(
        bits in 1u8..=8,
        outcomes in prop::collection::vec(any::<bool>(), 0..100),
    ) {
        let mut c = SatCounter::weakly_good(bits);
        for good in outcomes {
            c.train(good);
            prop_assert_eq!(c.predicts_good(), c.value() > c.max() / 2);
        }
    }

    #[test]
    fn saturated_good_counter_survives_one_bad(bits in 2u8..=8) {
        let mut c = SatCounter::new(bits, u8::MAX);
        c.train(false);
        prop_assert!(c.predicts_good(), "hysteresis: one bad does not flip saturation");
    }

    #[test]
    fn table_trains_only_the_indexed_slot(
        entries_log2 in 4u32..10,
        key in any::<u64>(),
        probe in any::<u64>(),
    ) {
        let entries = 1usize << entries_log2;
        let mut t = HistoryTable::new(entries, 2, CounterInit::WeaklyGood, 1);
        t.train_for(key, 0, false);
        let mask = (entries - 1) as u64;
        if probe & mask != key & mask {
            prop_assert!(t.predict_good_for(probe, 0), "untouched slot stays weakly good");
        }
    }

    #[test]
    fn table_counts_match_counter_semantics(
        key in any::<u64>(),
        outcomes in prop::collection::vec(any::<bool>(), 0..100),
    ) {
        // Table slot must behave exactly like a standalone 2-bit counter.
        let mut t = HistoryTable::new(64, 2, CounterInit::WeaklyGood, 1);
        let mut c = SatCounter::weakly_good(2);
        for good in outcomes {
            t.train_for(key, 0, good);
            c.train(good);
            prop_assert_eq!(t.value_for(key, 0), c.value());
            prop_assert_eq!(t.predict_good_for(key, 0), c.predicts_good());
        }
    }

    #[test]
    fn salted_index_sweep_still_covers_every_slot(
        entries_log2 in 4u32..13,
        high in any::<u64>(),
        salt in any::<u64>(),
    ) {
        // Hardening must not cost coverage: the keyed fold scrambles each
        // 16-bit half through an affine permutation, so a consecutive sweep
        // still lands on every slot of a power-of-two table — for ANY salt,
        // including 0 (the plain fold). A salt that stranded slots would
        // shrink the effective table and help the attacker.
        let entries = 1usize << entries_log2;
        let mask = (entries - 1) as u64;
        let mut pa_hit = vec![false; entries];
        let mut pc_hit = vec![false; entries];
        for i in 0..entries as u64 {
            let line = LineAddr((high << 16) | i);
            pa_hit[(hash_line_salted(line, salt) & mask) as usize] = true;
            let pc = (high << 18) | (i << 2);
            pc_hit[(hash_pc_salted(pc, salt) & mask) as usize] = true;
        }
        prop_assert!(pa_hit.iter().all(|&h| h), "salted PA sweep must cover all {} slots", entries);
        prop_assert!(pc_hit.iter().all(|&h| h), "salted PC sweep must cover all {} slots", entries);
    }

    #[test]
    fn distinct_salts_decorrelate_an_aliasing_flood(
        victim in 0u64..0xffff,
        s1 in 1u64..u64::MAX,
        s2 in 1u64..u64::MAX,
    ) {
        // The aliasing-flood attack crafts lines `t | h<<16 | h<<32` whose
        // plain XOR-fold cancels the two h halves, so every flood line lands
        // on the victim's slot. Under a keyed fold the halves go through
        // different permutations and no longer cancel: the flood scatters
        // across many slots, and two distinct salts scatter it differently —
        // an attacker calibrated against one deployment learns nothing
        // about another.
        prop_assume!(s1 != s2);
        let mask = 0xffu64; // 256-entry table
        let flood: Vec<LineAddr> = (1..=64u64)
            .map(|h| LineAddr(victim | (h << 16) | (h << 32)))
            .collect();
        for line in &flood {
            prop_assert_eq!(
                hash_line(*line) & mask,
                hash_line(LineAddr(victim)) & mask,
                "flood construction must alias perfectly under the plain fold"
            );
        }
        let idx = |salt: u64| -> Vec<u64> {
            flood.iter().map(|l| hash_line_salted(*l, salt) & mask).collect()
        };
        let (i1, i2) = (idx(s1), idx(s2));
        let distinct = |v: &[u64]| {
            let mut s: Vec<u64> = v.to_vec();
            s.sort_unstable();
            s.dedup();
            s.len()
        };
        prop_assert!(
            distinct(&i1) >= 8 && distinct(&i2) >= 8,
            "a keyed fold must scatter the flood (got {} and {} distinct slots of 64 lines)",
            distinct(&i1), distinct(&i2)
        );
        prop_assert_ne!(i1, i2, "distinct salts must give distinct index sequences");
    }

    #[test]
    fn none_filter_never_rejects(
        lines in prop::collection::vec(any::<u64>(), 1..100),
    ) {
        let cfg = FilterConfig { kind: FilterKind::None, ..FilterConfig::default() };
        let mut f = PollutionFilter::new(&cfg);
        for (i, l) in lines.iter().enumerate() {
            let req = PrefetchRequest {
                line: LineAddr(*l),
                trigger_pc: *l ^ 0xabcd,
                source: PrefetchSource::Nsp,
                tenant: 0,
                depth: 1,
            };
            prop_assert!(f.should_prefetch(&req, i as u64));
            // Train adversarially; it must still never reject.
            f.on_eviction(&req.origin(), false);
        }
        prop_assert_eq!(f.stats().rejected, 0);
    }

    #[test]
    fn filter_decision_is_stateless_between_lookups(
        kind in prop_oneof![Just(FilterKind::Pa), Just(FilterKind::Pc)],
        line in any::<u64>(),
        pc in any::<u64>(),
    ) {
        // Two consecutive lookups with no intervening training agree
        // (lookups must not themselves mutate the prediction).
        let cfg = FilterConfig { kind, ..FilterConfig::default() };
        let mut f = PollutionFilter::new(&cfg);
        let req = PrefetchRequest { line: LineAddr(line), trigger_pc: pc, source: PrefetchSource::Sdp, tenant: 0, depth: 1 };
        let a = f.should_prefetch(&req, 0);
        let b = f.should_prefetch(&req, 1);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn consistent_training_converges(
        kind in prop_oneof![Just(FilterKind::Pa), Just(FilterKind::Pc)],
        line in any::<u64>(),
        pc in any::<u64>(),
        good in any::<bool>(),
    ) {
        // A key class with a perfectly consistent outcome ends up with the
        // matching steady-state decision after a handful of trainings.
        let cfg = FilterConfig { kind, ..FilterConfig::default() };
        let mut f = PollutionFilter::new(&cfg);
        let req = PrefetchRequest { line: LineAddr(line), trigger_pc: pc, source: PrefetchSource::Nsp, tenant: 0, depth: 1 };
        for _ in 0..4 {
            f.on_eviction(&req.origin(), good);
        }
        prop_assert_eq!(f.should_prefetch(&req, 0), good);
    }

    #[test]
    fn recovery_never_resurrects_without_a_matching_miss(
        line in any::<u64>(),
        other in any::<u64>(),
        pc in any::<u64>(),
    ) {
        prop_assume!(line != other);
        let cfg = FilterConfig { kind: FilterKind::Pa, ..FilterConfig::default() };
        let mut f = PollutionFilter::new(&cfg);
        let req = PrefetchRequest { line: LineAddr(line), trigger_pc: pc, source: PrefetchSource::Nsp, tenant: 0, depth: 1 };
        f.on_eviction(&req.origin(), false);
        f.on_eviction(&req.origin(), false);
        prop_assert!(!f.should_prefetch(&req, 10));
        // A miss on an unrelated line must not train this key...
        // (unless it aliases to the same reject-log slot AND table key,
        // which different lines cannot: the log stores the exact line).
        f.on_demand_miss(LineAddr(other), 11);
        prop_assert!(!f.should_prefetch(&req, 12));
    }

    #[test]
    fn perceptron_weights_saturate_symmetrically_in_unit_steps(
        line in any::<u64>(),
        pc in any::<u64>(),
        depth in any::<u8>(),
        bucket in 0u8..8,
        salt in any::<u64>(),
        outcomes in prop::collection::vec(any::<bool>(), 0..120),
    ) {
        // Signed analogue of `counter_moves_monotonically_in_unit_steps`:
        // whatever the training history, the weight sum moves by at most
        // FEATURE_COUNT per step, in the trained direction, and every
        // individual weight stays inside ±WEIGHT_MAX. Driving one outcome
        // long enough pins the sum at exactly ±(FEATURE_COUNT * WEIGHT_MAX)
        // — saturation is symmetric around zero, unlike the unsigned
        // counters' [0, max] band.
        let mut p = Perceptron::new(1024, 2, CounterInit::WeaklyGood, 1);
        let f = Features::of(LineAddr(line), pc, depth, bucket);
        let mut prev = p.sum(&f, 0, salt);
        for good in outcomes {
            p.train(&f, 0, salt, good);
            let s = p.sum(&f, 0, salt);
            if good {
                prop_assert!(s >= prev, "good training must not lower the sum");
            } else {
                prop_assert!(s <= prev, "bad training must not raise the sum");
            }
            prop_assert!((s - prev).abs() <= FEATURE_COUNT as i32, "unit steps per table");
            prop_assert!(
                p.weight_snapshot().iter().flatten().all(|w| (-WEIGHT_MAX..=WEIGHT_MAX).contains(w))
            );
            prev = s;
        }
        let bound = FEATURE_COUNT as i32 * WEIGHT_MAX as i32;
        for _ in 0..2 * WEIGHT_MAX as usize {
            p.train(&f, 0, salt, true);
        }
        prop_assert_eq!(p.sum(&f, 0, salt), bound);
        for _ in 0..4 * WEIGHT_MAX as usize {
            p.train(&f, 0, salt, false);
        }
        prop_assert_eq!(p.sum(&f, 0, salt), -bound);
    }

    #[test]
    fn perceptron_prediction_is_monotone_in_every_feature_weight(
        line in any::<u64>(),
        pc in any::<u64>(),
        depth in any::<u8>(),
        bucket in 0u8..8,
        salt in any::<u64>(),
        pre in prop::collection::vec(any::<bool>(), 0..60),
    ) {
        // From ANY reachable weight state, one good training step never
        // flips an admitted prefetch to rejected, and one bad step never
        // flips a rejected prefetch to admitted. Each step raises (lowers)
        // every selected feature weight by at most one, so this is
        // monotonicity of the decision in each feature's weight — a
        // perceptron whose admit region were non-monotone in a weight would
        // un-learn under consistent feedback.
        let mut p = Perceptron::new(512, 2, CounterInit::WeaklyGood, 1);
        let f = Features::of(LineAddr(line), pc, depth, bucket);
        for good in pre {
            p.train(&f, 0, salt, good);
        }
        let mut up = p.clone();
        up.train(&f, 0, salt, true);
        prop_assert!(
            !p.predict(&f, 0, salt) || up.predict(&f, 0, salt),
            "raising weights must not reject an admitted prefetch"
        );
        let mut down = p.clone();
        down.train(&f, 0, salt, false);
        prop_assert!(
            p.predict(&f, 0, salt) || !down.predict(&f, 0, salt),
            "lowering weights must not admit a rejected prefetch"
        );
    }

    #[test]
    fn perceptron_feature_fold_covers_every_row_for_any_salt(
        rows_log2 in 3u32..13,
        salt in any::<u64>(),
        high in any::<u64>(),
    ) {
        // Every perceptron feature table is indexed
        // `fold16_salted(value, salt) & (rows - 1)` with power-of-two rows.
        // A sweep of 2^k consecutive feature values (arbitrary upper bits)
        // must cover all 2^k rows for ANY salt — this is what guarantees
        // the bounded features (page offset: 64 values into 64 rows, depth:
        // 16 into 16, accuracy: 8 into 8) waste no rows, and that the big
        // PC/line tables keep the unsalted coverage property under keying.
        let rows = 1usize << rows_log2;
        let mask = (rows - 1) as u64;
        let mut hit = vec![false; rows];
        for v in 0..rows as u64 {
            hit[(fold16_salted((high << 16) | v, salt) & mask) as usize] = true;
        }
        prop_assert!(hit.iter().all(|&h| h), "sweep must cover all {} rows", rows);
    }
}
