//! The single-level history table (§4, Figure 3).
//!
//! A direct-indexed array of saturating counters. 4096 2-bit entries = 1KB,
//! the paper's default; §5.3 sweeps 1024 to 16384 entries. Counters are
//! stored as raw `u8`s in a flat boxed slice — the hot path is a masked
//! index plus a byte compare, no hashing beyond the fold done by the caller
//! and no allocation.
//!
//! # Per-tenant partitioning
//!
//! The hardened multi-tenant configuration (DESIGN.md §12) splits the same
//! storage into `P` equal partitions: a request from tenant `t` indexes only
//! the `t % P` region (`base + (key & region_mask)`), so a hostile tenant's
//! eviction feedback is physically unable to touch a victim tenant's
//! counters. `P = 1` (the default) is bit-for-bit the paper's shared table,
//! where every tenant reads and trains the same counters.

use crate::counter::SatCounter;
use ppf_types::CounterInit;

/// Direct-indexed table of saturating counters.
#[derive(Debug, Clone)]
pub struct HistoryTable {
    counters: Box<[u8]>,
    mask: u64,
    bits: u8,
    max: u8,
    /// Threshold: values strictly above predict good.
    threshold: u8,
    /// Tenant partitions (1 = shared table). Power of two dividing the
    /// entry count, so each partition keeps a power-of-two slot range.
    partitions: u32,
}

impl HistoryTable {
    /// A table of `entries` counters (power of two) of `bits` width, all
    /// starting at `init` (the paper's is weakly-good, so unseen
    /// prefetches are issued), split into `partitions` equal per-tenant
    /// regions (1 = the shared table of the paper).
    pub fn new(entries: usize, bits: u8, init: CounterInit, partitions: u32) -> Self {
        assert!(entries.is_power_of_two(), "table entries must be 2^k");
        assert!((1..=8).contains(&bits));
        assert!(
            partitions.is_power_of_two() && (partitions as usize) <= entries,
            "partitions must be 2^k and at most the entry count"
        );
        let init = match init {
            CounterInit::WeaklyGood => SatCounter::weakly_good(bits),
            CounterInit::StronglyGood => SatCounter::strongly_good(bits),
            CounterInit::WeaklyBad => SatCounter::weakly_bad(bits),
        };
        HistoryTable {
            counters: vec![init.value(); entries].into_boxed_slice(),
            mask: (entries / partitions as usize - 1) as u64,
            bits,
            max: init.max(),
            threshold: init.max() / 2,
            partitions,
        }
    }

    /// Entry count.
    pub fn entries(&self) -> usize {
        self.counters.len()
    }

    /// Counter width in bits.
    pub fn counter_bits(&self) -> u8 {
        self.bits
    }

    #[inline]
    fn slot(&self, key: u64, tenant: u8) -> usize {
        let region = (tenant as u32 % self.partitions) as usize * (self.mask as usize + 1);
        region + (key & self.mask) as usize
    }

    /// Does tenant `tenant`'s counter for `key` predict a good prefetch?
    #[inline]
    pub fn predict_good_for(&self, key: u64, tenant: u8) -> bool {
        self.counters[self.slot(key, tenant)] > self.threshold
    }

    /// Raw counter value for tenant `tenant`'s `key`.
    pub fn value_for(&self, key: u64, tenant: u8) -> u8 {
        self.counters[self.slot(key, tenant)]
    }

    /// The full counter array, in slot order (differential-oracle
    /// snapshots).
    pub fn counters(&self) -> &[u8] {
        &self.counters
    }

    /// Train tenant `tenant`'s counter for `key` with one outcome.
    #[inline]
    pub fn train_for(&mut self, key: u64, tenant: u8, good: bool) {
        let slot = self.slot(key, tenant);
        let v = self.counters[slot];
        self.counters[slot] = if good {
            if v < self.max {
                v + 1
            } else {
                v
            }
        } else {
            v.saturating_sub(1)
        };
    }

    /// Fraction of entries currently predicting good (diagnostics).
    pub fn fraction_good(&self) -> f64 {
        let good = self
            .counters
            .iter()
            .filter(|&&v| v > self.threshold)
            .count();
        good as f64 / self.counters.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_table_predicts_all_good() {
        let t = HistoryTable::new(1024, 2, CounterInit::WeaklyGood, 1);
        assert!((t.fraction_good() - 1.0).abs() < 1e-12);
        for key in [0u64, 5, 1023, 1024, u64::MAX] {
            assert!(t.predict_good_for(key, 0));
        }
    }

    #[test]
    fn init_variants_control_first_touch() {
        let good = HistoryTable::new(16, 2, CounterInit::StronglyGood, 1);
        assert!(good.predict_good_for(3, 0));
        let bad = HistoryTable::new(16, 2, CounterInit::WeaklyBad, 1);
        assert!(!bad.predict_good_for(3, 0));
        let mut bad = bad;
        bad.train_for(3, 0, true);
        assert!(
            bad.predict_good_for(3, 0),
            "one good outcome admits the key"
        );
    }

    #[test]
    fn train_and_flip() {
        let mut t = HistoryTable::new(16, 2, CounterInit::WeaklyGood, 1);
        t.train_for(3, 0, false);
        assert!(!t.predict_good_for(3, 0), "weakly-good flips after one bad");
        assert!(t.predict_good_for(4, 0), "neighbours untouched");
        t.train_for(3, 0, true);
        assert!(t.predict_good_for(3, 0));
    }

    #[test]
    fn aliasing_by_mask() {
        let mut t = HistoryTable::new(16, 2, CounterInit::WeaklyGood, 1);
        t.train_for(1, 0, false);
        t.train_for(1, 0, false);
        // Key 17 aliases to the same slot in a 16-entry table.
        assert!(!t.predict_good_for(17, 0), "aliased keys share a counter");
    }

    #[test]
    fn saturation_bounds() {
        let mut t = HistoryTable::new(8, 2, CounterInit::WeaklyGood, 1);
        for _ in 0..10 {
            t.train_for(0, 0, true);
        }
        assert_eq!(t.value_for(0, 0), 3);
        for _ in 0..10 {
            t.train_for(0, 0, false);
        }
        assert_eq!(t.value_for(0, 0), 0);
    }

    #[test]
    fn fraction_good_tracks_training() {
        let mut t = HistoryTable::new(4, 2, CounterInit::WeaklyGood, 1);
        t.train_for(0, 0, false); // 4 entries, 1 flipped bad
        assert!((t.fraction_good() - 0.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_rejected() {
        HistoryTable::new(1000, 2, CounterInit::WeaklyGood, 1);
    }

    #[test]
    fn single_partition_is_the_shared_table() {
        // With one partition every tenant reads and trains every counter.
        let mut t = HistoryTable::new(16, 2, CounterInit::WeaklyGood, 1);
        t.train_for(3, 2, false);
        for tenant in 0..4u8 {
            assert!(!t.predict_good_for(3, tenant), "tenant {tenant}");
        }
        t.train_for(19, 1, true); // 19 aliases 3 in a 16-entry table
        for tenant in 0..4u8 {
            assert!(t.predict_good_for(3, tenant), "tenant {tenant}");
        }
    }

    #[test]
    fn partitions_isolate_tenants() {
        let mut t = HistoryTable::new(16, 2, CounterInit::WeaklyGood, 4);
        // Tenant 1 saturates its counter for key 3 bad.
        t.train_for(3, 1, false);
        t.train_for(3, 1, false);
        assert!(!t.predict_good_for(3, 1));
        // Tenants 0, 2 and 3 are untouched — the poisoning cannot escape
        // the attacker's partition.
        for victim in [0u8, 2, 3] {
            assert!(t.predict_good_for(3, victim), "tenant {victim} polluted");
        }
        // Keys alias within a partition at entries/partitions, not entries.
        t.train_for(7, 0, false);
        assert_eq!(t.value_for(7 + 4, 0), t.value_for(7, 0), "4-slot regions");
    }

    #[test]
    fn partitioned_slots_stay_in_bounds() {
        let mut t = HistoryTable::new(32, 2, CounterInit::WeaklyGood, 4);
        for tenant in 0..=7u8 {
            for key in [0u64, 31, 32, u64::MAX] {
                t.train_for(key, tenant, false);
                let _ = t.predict_good_for(key, tenant);
            }
        }
        // Tenant IDs past the partition count wrap onto existing regions.
        assert_eq!(t.value_for(0, 1), t.value_for(0, 5));
    }
}
