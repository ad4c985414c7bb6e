//! The fully-associative LRU side store next to the L1. The hierarchy uses
//! it twice: as the §5.5 dedicated prefetch buffer (Chen et al., MICRO'91)
//! and as the victim-cache ablation (Jouppi, ISCA'90).
//!
//! A side store holds eviction records ([`Evicted`]), so a line's
//! provenance, RIB and fill-ready cycle travel with it. A buffered prefetch
//! is a record with its provenance, RIB 0 and the cycle its data arrives;
//! an L1 victim parks the record its eviction produced. A demand hit takes
//! the record out and the line moves into the L1, where it still waits for
//! its data. A record pushed out of a full store is final: the good/bad
//! classification of a prefetched line in it is decided then. The
//! hierarchy keeps every line in at most one L1-side place, so an insert
//! never finds its line already here.
//!
//! The paper finds the buffer interacts poorly with aggressive prefetching
//! and with the pollution filters (Figures 15–16); the victim cache is the
//! classic alternative fix for the direct-mapped L1's conflict misses.

use crate::cache::Evicted;
use ppf_types::{Cycle, LineAddr};

#[derive(Debug, Clone, Copy)]
struct Slot {
    record: Evicted,
    stamp: u64,
}

/// Fully-associative LRU store of eviction records.
#[derive(Debug, Clone)]
pub struct SideStore {
    slots: Vec<Slot>,
    cap: usize,
    next_stamp: u64,
}

impl SideStore {
    /// A store with `cap` entries (the paper's buffer: 16; Jouppi's victim
    /// cache: 4–16).
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0);
        SideStore {
            slots: Vec::with_capacity(cap),
            cap,
            next_stamp: 1,
        }
    }

    /// Non-mutating presence check (for duplicate squashing).
    pub fn contains(&self, line: LineAddr) -> bool {
        self.slots.iter().any(|s| s.record.line == line)
    }

    /// Held lines whose fill is still in flight at `now`.
    pub fn in_flight(&self, now: Cycle) -> usize {
        self.slots.iter().filter(|s| s.record.ready > now).count()
    }

    /// Demand probe. On a hit the record is removed (the caller moves the
    /// line into the L1) and returned; misses return `None`.
    pub fn take(&mut self, line: LineAddr) -> Option<Evicted> {
        let idx = self.slots.iter().position(|s| s.record.line == line)?;
        Some(self.slots.swap_remove(idx).record)
    }

    /// Insert a record for a line not held here, displacing the LRU record
    /// if full. The displaced record is final and is returned.
    pub fn insert(&mut self, record: Evicted) -> Option<Evicted> {
        debug_assert!(
            !self.contains(record.line),
            "line {:?} is already held",
            record.line
        );
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        let displaced = if self.slots.len() >= self.cap {
            let (idx, _) = self
                .slots
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.stamp)
                .expect("full, so non-empty");
            Some(self.slots.swap_remove(idx).record)
        } else {
            None
        };
        self.slots.push(Slot { record, stamp });
        displaced
    }

    /// Remove and return every record (end-of-run census).
    pub fn drain(&mut self) -> impl Iterator<Item = Evicted> + '_ {
        self.slots.drain(..).map(|s| s.record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppf_types::{PrefetchOrigin, PrefetchSource};

    fn record(line: u64, prefetched: bool, ready: Cycle) -> Evicted {
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
            ready,
        }
    }

    #[test]
    fn take_returns_the_record_and_removes_it() {
        let mut s = SideStore::new(4);
        assert!(s.insert(record(7, true, 100)).is_none());
        assert!(s.contains(LineAddr(7)));
        assert_eq!(s.take(LineAddr(7)), Some(record(7, true, 100)));
        assert!(!s.contains(LineAddr(7)), "a hit moves the line out");
        assert!(s.take(LineAddr(7)).is_none());
    }

    #[test]
    fn full_store_displaces_the_lru_record() {
        let mut s = SideStore::new(2);
        s.insert(record(1, true, 0));
        s.insert(record(2, false, 0));
        let displaced = s.insert(record(3, false, 0)).expect("full store");
        assert_eq!(displaced, record(1, true, 0), "oldest record is final");
        assert!(s.contains(LineAddr(2)) && s.contains(LineAddr(3)));
        assert_eq!(s.slots.len(), 2);
    }

    #[test]
    fn in_flight_counts_records_until_their_data_arrives() {
        let mut s = SideStore::new(2);
        s.insert(record(1, true, 100));
        s.insert(record(2, true, 0));
        assert_eq!(s.in_flight(99), 1);
        assert_eq!(s.in_flight(100), 0);
    }

    #[test]
    fn drain_returns_every_record() {
        let mut s = SideStore::new(4);
        s.insert(record(1, false, 0));
        s.insert(record(2, true, 0));
        let drained: Vec<_> = s.drain().collect();
        assert_eq!(drained, vec![record(1, false, 0), record(2, true, 0)]);
        assert!(s.slots.is_empty());
    }
}
