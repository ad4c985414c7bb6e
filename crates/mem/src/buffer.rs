//! The dedicated prefetch buffer evaluated in §5.5 (Chen et al., MICRO'91).
//!
//! A small fully-associative buffer that holds prefetched lines *instead of*
//! allocating them in the L1. Demand accesses probe the L1 and the buffer;
//! a buffer hit promotes the line into the L1 (and is by definition a *good*
//! prefetch). A line evicted from the buffer without ever being referenced
//! is a *bad* prefetch. Each entry carries its fill-ready cycle, so a
//! promoted line's data is not usable before it arrives from the L2 or
//! memory. The paper finds this structure interacts poorly
//! with aggressive prefetching and with the pollution filters (Figures
//! 15–16); this module lets the benches reproduce that comparison.

use ppf_types::{Cycle, LineAddr, PrefetchOrigin};

/// An entry evicted from the buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferEvicted {
    /// The prefetch that brought the line in.
    pub origin: PrefetchOrigin,
    /// Whether the line was ever hit while in the buffer. With promotion-
    /// on-hit this is always false for LRU victims, but `drain` reports
    /// resident lines too.
    pub referenced: bool,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    line: LineAddr,
    origin: PrefetchOrigin,
    ready: Cycle,
    stamp: u64,
}

/// Fully-associative LRU prefetch buffer.
#[derive(Debug, Clone)]
pub struct PrefetchBuffer {
    slots: Vec<Slot>,
    cap: usize,
    next_stamp: u64,
}

impl PrefetchBuffer {
    /// A buffer with `cap` fully-associative entries (paper: 16).
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0);
        PrefetchBuffer {
            slots: Vec::with_capacity(cap),
            cap,
            next_stamp: 1,
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

    /// Non-mutating presence check (for duplicate squashing).
    pub fn contains(&self, line: LineAddr) -> bool {
        self.slots.iter().any(|s| s.line == line)
    }

    /// Buffered lines whose fill is still in flight at `now`.
    pub fn in_flight(&self, now: Cycle) -> usize {
        self.slots.iter().filter(|s| s.ready > now).count()
    }

    /// Demand probe. On a hit the line is *removed* (promoted to the L1 by
    /// the caller) and its provenance and fill-ready cycle returned — a
    /// buffer hit is a good prefetch. Misses return `None`.
    pub fn take(&mut self, line: LineAddr) -> Option<(PrefetchOrigin, Cycle)> {
        let idx = self.slots.iter().position(|s| s.line == line)?;
        let slot = self.slots.swap_remove(idx);
        Some((slot.origin, slot.ready))
    }

    /// Insert a prefetched line whose data arrives at `ready_at`, evicting
    /// the LRU entry if full. The evicted entry was never referenced (hits
    /// promote out of the buffer), so it is a bad prefetch.
    pub fn insert(
        &mut self,
        line: LineAddr,
        origin: PrefetchOrigin,
        ready_at: Cycle,
    ) -> Option<BufferEvicted> {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        if let Some(s) = self.slots.iter_mut().find(|s| s.line == line) {
            // Re-prefetch of a buffered line: refresh recency, keep origin
            // and the later fill-ready cycle.
            s.stamp = stamp;
            s.ready = s.ready.max(ready_at);
            return None;
        }
        let evicted = if self.slots.len() >= self.cap {
            let (idx, _) = self
                .slots
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.stamp)
                .expect("buffer is full, so non-empty");
            let victim = self.slots.swap_remove(idx);
            Some(BufferEvicted {
                origin: victim.origin,
                referenced: false,
            })
        } else {
            None
        };
        self.slots.push(Slot {
            line,
            origin,
            ready: ready_at,
            stamp,
        });
        evicted
    }

    /// Report and remove every resident line (end-of-run census). Resident
    /// lines were never referenced — references promote out of the buffer.
    pub fn drain(&mut self) -> impl Iterator<Item = BufferEvicted> + '_ {
        self.slots.drain(..).map(|s| BufferEvicted {
            origin: s.origin,
            referenced: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppf_types::PrefetchSource;

    fn origin(line: u64) -> PrefetchOrigin {
        PrefetchOrigin {
            line: LineAddr(line),
            trigger_pc: 0x2000,
            source: PrefetchSource::Sdp,
            tenant: 0,
            depth: 0,
        }
    }

    #[test]
    fn hit_promotes_and_removes() {
        let mut b = PrefetchBuffer::new(4);
        b.insert(LineAddr(1), origin(1), 0);
        assert!(b.contains(LineAddr(1)));
        let (o, _) = b.take(LineAddr(1)).expect("hit");
        assert_eq!(o.line, LineAddr(1));
        assert!(!b.contains(LineAddr(1)), "promotion removes from buffer");
        assert!(b.take(LineAddr(1)).is_none());
    }

    #[test]
    fn lru_eviction_when_full() {
        let mut b = PrefetchBuffer::new(2);
        assert!(b.insert(LineAddr(1), origin(1), 0).is_none());
        assert!(b.insert(LineAddr(2), origin(2), 0).is_none());
        let ev = b
            .insert(LineAddr(3), origin(3), 0)
            .expect("full buffer evicts");
        assert_eq!(ev.origin.line, LineAddr(1), "oldest entry is the victim");
        assert!(!ev.referenced);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn reinsert_refreshes_recency() {
        let mut b = PrefetchBuffer::new(2);
        b.insert(LineAddr(1), origin(1), 0);
        b.insert(LineAddr(2), origin(2), 0);
        b.insert(LineAddr(1), origin(1), 0); // refresh 1
        let ev = b.insert(LineAddr(3), origin(3), 0).unwrap();
        assert_eq!(
            ev.origin.line,
            LineAddr(2),
            "2 became LRU after 1's refresh"
        );
    }

    #[test]
    fn take_returns_the_later_fill_ready_cycle() {
        let mut b = PrefetchBuffer::new(2);
        b.insert(LineAddr(1), origin(1), 100);
        b.insert(LineAddr(1), origin(1), 80);
        assert_eq!(b.in_flight(99), 1);
        assert_eq!(b.in_flight(100), 0);
        assert_eq!(b.take(LineAddr(1)).map(|(_, ready)| ready), Some(100));
    }

    #[test]
    fn reinsert_does_not_grow() {
        let mut b = PrefetchBuffer::new(2);
        b.insert(LineAddr(1), origin(1), 0);
        b.insert(LineAddr(1), origin(1), 0);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn drain_reports_unreferenced() {
        let mut b = PrefetchBuffer::new(4);
        b.insert(LineAddr(1), origin(1), 0);
        b.insert(LineAddr(2), origin(2), 0);
        let drained: Vec<_> = b.drain().collect();
        assert_eq!(drained.len(), 2);
        assert!(drained.iter().all(|e| !e.referenced));
        assert!(b.is_empty());
    }

    #[test]
    fn paper_size_is_16() {
        let b = PrefetchBuffer::new(ppf_types::BufferConfig::default().entries);
        assert_eq!(b.capacity(), 16);
    }
}
