//! Victim cache (Jouppi, ISCA 1990) — ablation hardware.
//!
//! The paper's machine has a *direct-mapped* 8KB L1, so conflict misses —
//! including those induced by prefetch pollution — are a big part of its
//! story. A small fully-associative victim cache between the L1 and L2
//! catches recently evicted lines and is the classic alternative fix for
//! conflict misses; the `ablations` experiment quantifies how much of the
//! pollution filter's benefit a victim cache captures instead.
//!
//! Evicted L1 lines (with their PIB/RIB/provenance metadata and fill-ready
//! cycle intact) enter the victim cache; a demand miss that hits a victim
//! swaps the line back into the L1, where it still waits for its data. A prefetched line recovered from the victim cache before
//! any use continues its lifetime — its good/bad classification is decided
//! only when it finally leaves the L1-side hierarchy, so the filter's
//! feedback stays consistent.

use crate::cache::Evicted;
use ppf_types::LineAddr;

#[derive(Debug, Clone, Copy)]
struct Slot {
    line: LineAddr,
    /// The eviction record carried while the line sits here.
    record: Evicted,
    stamp: u64,
}

/// Fully-associative LRU victim cache.
#[derive(Debug, Clone)]
pub struct VictimCache {
    slots: Vec<Slot>,
    cap: usize,
    next_stamp: u64,
    /// Demand misses served from the victim cache.
    pub hits: u64,
    /// Lines that aged out of the victim cache (their eviction records are
    /// final at that point).
    pub final_evictions: u64,
}

impl VictimCache {
    /// A victim cache with `cap` entries (Jouppi's sweet spot is 4-16).
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0);
        VictimCache {
            slots: Vec::with_capacity(cap),
            cap,
            next_stamp: 1,
            hits: 0,
            final_evictions: 0,
        }
    }

    /// Capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Occupancy.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Non-mutating presence check.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.slots.iter().any(|s| s.line == line)
    }

    /// An L1 eviction enters the victim cache. If a victim ages out to
    /// make room, its (now final) eviction record is returned — that is
    /// the record the pollution filter should train on.
    pub fn insert(&mut self, record: Evicted) -> Option<Evicted> {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        // Re-inserting a line already here replaces the record (can happen
        // if the line bounced back to L1 and was evicted again).
        if let Some(s) = self.slots.iter_mut().find(|s| s.line == record.line) {
            let old = s.record;
            s.record = record;
            s.stamp = stamp;
            return Some(old);
        }
        let displaced = if self.slots.len() >= self.cap {
            let (idx, _) = self
                .slots
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.stamp)
                .expect("full, so non-empty");
            let victim = self.slots.swap_remove(idx);
            self.final_evictions += 1;
            Some(victim.record)
        } else {
            None
        };
        self.slots.push(Slot {
            line: record.line,
            record,
            stamp,
        });
        displaced
    }

    /// A demand miss probes the victim cache: on a hit the line (with its
    /// carried eviction record, i.e. its PIB/RIB state) moves back toward
    /// the L1 and is removed here.
    pub fn take(&mut self, line: LineAddr) -> Option<Evicted> {
        let idx = self.slots.iter().position(|s| s.line == line)?;
        self.hits += 1;
        Some(self.slots.swap_remove(idx).record)
    }

    /// Drain all remaining records (end-of-run census).
    pub fn drain(&mut self) -> impl Iterator<Item = Evicted> + '_ {
        self.slots.drain(..).map(|s| s.record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppf_types::{PrefetchOrigin, PrefetchSource};

    fn record(line: u64, prefetched: bool) -> Evicted {
        Evicted {
            line: LineAddr(line),
            dirty: false,
            prefetch: prefetched.then_some((
                PrefetchOrigin {
                    line: LineAddr(line),
                    trigger_pc: 0x100,
                    source: PrefetchSource::Nsp,
                    tenant: 0,
                    depth: 0,
                },
                false,
            )),
            ready: 0,
        }
    }

    #[test]
    fn insert_take_round_trip() {
        let mut v = VictimCache::new(4);
        assert!(v.insert(record(1, false)).is_none());
        assert!(v.contains(LineAddr(1)));
        let r = v.take(LineAddr(1)).expect("victim hit");
        assert_eq!(r.line, LineAddr(1));
        assert_eq!(v.hits, 1);
        assert!(!v.contains(LineAddr(1)));
    }

    #[test]
    fn lru_ages_out_oldest() {
        let mut v = VictimCache::new(2);
        v.insert(record(1, false));
        v.insert(record(2, false));
        let aged = v.insert(record(3, false)).expect("oldest displaced");
        assert_eq!(aged.line, LineAddr(1));
        assert_eq!(v.final_evictions, 1);
        assert!(v.contains(LineAddr(2)) && v.contains(LineAddr(3)));
    }

    #[test]
    fn prefetch_metadata_survives_the_trip() {
        let mut v = VictimCache::new(4);
        v.insert(record(7, true));
        let r = v.take(LineAddr(7)).unwrap();
        let (origin, referenced) = r.prefetch.expect("provenance carried");
        assert_eq!(origin.trigger_pc, 0x100);
        assert!(!referenced);
    }

    #[test]
    fn reinsert_replaces_record() {
        let mut v = VictimCache::new(2);
        v.insert(record(5, false));
        let old = v.insert(record(5, true)).expect("old record returned");
        assert!(old.prefetch.is_none());
        assert_eq!(v.len(), 1);
        assert!(v.take(LineAddr(5)).unwrap().prefetch.is_some());
    }

    #[test]
    fn drain_returns_everything() {
        let mut v = VictimCache::new(4);
        v.insert(record(1, false));
        v.insert(record(2, true));
        let drained: Vec<_> = v.drain().collect();
        assert_eq!(drained.len(), 2);
        assert!(v.is_empty());
    }

    #[test]
    fn miss_returns_none() {
        let mut v = VictimCache::new(2);
        assert!(v.take(LineAddr(9)).is_none());
        assert_eq!(v.hits, 0);
    }
}
