//! Correlation-based (Markov) prefetching.
//!
//! The paper cites Charney & Reeves, *Generalized Correlation Based
//! Hardware Prefetching* (1995) as one of the aggressive prefetcher
//! families its filter must tame: "correlation-based prefetching keeps
//! prior L1 cache miss addresses and triggers prefetches by correlating
//! subsequent misses to the history" (§1.1). It is not part of the
//! paper's evaluated mix; this implementation backs the prefetcher-mix
//! ablations in `ppf-bench` (a third differently-shaped generator next to
//! NSP's spatial guess and SDP's L2-side successor).
//!
//! Structure: a direct-mapped correlation table keyed by L1 *miss* line;
//! each entry remembers up to [`WAYS`] successor miss lines in MRU order.
//! On a miss to `X`, the entry for the *previous* miss learns `X` as a
//! successor, and `X`'s own successors are emitted as prefetch candidates
//! (most-recent first, up to the configured degree).

use crate::AccessEvent;
use ppf_types::{LineAddr, PrefetchRequest, PrefetchSource};

/// Successors remembered per entry.
pub const WAYS: usize = 2;

#[derive(Debug, Clone, Copy)]
struct Entry {
    tag: LineAddr,
    /// Successor miss lines, MRU first. `None` slots are unused.
    next: [Option<LineAddr>; WAYS],
    valid: bool,
}

const INVALID: Entry = Entry {
    tag: LineAddr(0),
    next: [None; WAYS],
    valid: false,
};

/// Miss-correlation prefetcher.
#[derive(Debug, Clone)]
pub struct CorrelationPrefetcher {
    entries: Box<[Entry]>,
    mask: u64,
    last_miss: Option<LineAddr>,
    /// Successors emitted per trigger (1..=WAYS).
    degree: usize,
}

impl CorrelationPrefetcher {
    /// A correlation table with `entries` slots (power of two), emitting
    /// one successor per trigger.
    pub fn new(entries: usize) -> Self {
        assert!(entries.is_power_of_two());
        CorrelationPrefetcher {
            entries: vec![INVALID; entries].into_boxed_slice(),
            mask: (entries - 1) as u64,
            last_miss: None,
            degree: 1,
        }
    }

    /// Emit up to `degree` remembered successors per trigger.
    pub fn with_degree(mut self, degree: usize) -> Self {
        assert!((1..=WAYS).contains(&degree));
        self.degree = degree;
        self
    }

    #[inline]
    fn slot(&self, line: LineAddr) -> usize {
        (line.0 & self.mask) as usize
    }

    /// Record `succ` as the most recent successor of `prev`.
    fn learn(&mut self, prev: LineAddr, succ: LineAddr) {
        let slot = self.slot(prev);
        let e = &mut self.entries[slot];
        if !e.valid || e.tag != prev {
            *e = Entry {
                tag: prev,
                next: [None; WAYS],
                valid: true,
            };
        }
        // MRU insert with de-duplication.
        if e.next[0] == Some(succ) {
            return;
        }
        let mut shifted = Some(succ);
        for n in e.next.iter_mut() {
            let out = *n;
            *n = shifted;
            if out == Some(succ) {
                break; // it moved to the front; keep the tail intact
            }
            shifted = out;
        }
    }

    /// Observe one demand access; append any candidate prefetches to `out`
    /// without clearing it.
    pub fn on_access(&mut self, ev: &AccessEvent, out: &mut Vec<PrefetchRequest>) {
        // Correlation tables watch the L1 miss stream.
        if ev.l1_hit {
            return;
        }
        if let Some(prev) = self.last_miss {
            if prev != ev.line {
                self.learn(prev, ev.line);
            }
        }
        self.last_miss = Some(ev.line);
        let slot = self.slot(ev.line);
        let e = &self.entries[slot];
        if e.valid && e.tag == ev.line {
            for (d, succ) in e.next.iter().flatten().take(self.degree).enumerate() {
                out.push(PrefetchRequest {
                    line: *succ,
                    trigger_pc: ev.pc,
                    source: PrefetchSource::Stride, // shares the "extension" stats slot
                    tenant: 0,
                    depth: (d + 1).min(u8::MAX as usize) as u8,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{event, miss_event};

    fn run(p: &mut CorrelationPrefetcher, line: u64) -> Vec<LineAddr> {
        let mut out = Vec::new();
        p.on_access(&miss_event(0x100, line, true), &mut out);
        out.iter().map(|r| r.line).collect()
    }

    #[test]
    fn learns_miss_successors() {
        let mut p = CorrelationPrefetcher::new(256);
        assert!(run(&mut p, 10).is_empty());
        assert!(run(&mut p, 50).is_empty()); // learn 10 -> 50
        assert!(run(&mut p, 90).is_empty()); // learn 50 -> 90
        assert_eq!(run(&mut p, 10), vec![LineAddr(50)]);
        assert_eq!(run(&mut p, 50), vec![LineAddr(90)]);
    }

    #[test]
    fn hits_are_invisible() {
        let mut p = CorrelationPrefetcher::new(256);
        run(&mut p, 10);
        let mut out = Vec::new();
        p.on_access(&event(0x100, 50), &mut out); // L1 hit
        assert!(out.is_empty());
        // The hit did not become 10's successor.
        assert!(run(&mut p, 10).is_empty());
    }

    #[test]
    fn mru_keeps_two_successors() {
        let mut p = CorrelationPrefetcher::new(256).with_degree(2);
        run(&mut p, 10);
        run(&mut p, 50); // 10 -> 50
        run(&mut p, 10);
        run(&mut p, 90); // 10 -> 90 (MRU), 50 demoted
        let got = run(&mut p, 10);
        assert_eq!(got, vec![LineAddr(90), LineAddr(50)]);
    }

    #[test]
    fn repeated_successor_moves_to_front_without_duplication() {
        let mut p = CorrelationPrefetcher::new(256).with_degree(2);
        run(&mut p, 10);
        run(&mut p, 50);
        run(&mut p, 10);
        run(&mut p, 90);
        run(&mut p, 10);
        run(&mut p, 50); // 50 back to MRU
        let got = run(&mut p, 10);
        assert_eq!(got, vec![LineAddr(50), LineAddr(90)]);
    }

    #[test]
    fn degree_one_emits_only_mru() {
        let mut p = CorrelationPrefetcher::new(256);
        run(&mut p, 10);
        run(&mut p, 50);
        run(&mut p, 10);
        run(&mut p, 90);
        assert_eq!(run(&mut p, 10), vec![LineAddr(90)]);
    }

    #[test]
    fn aliasing_retags() {
        let mut p = CorrelationPrefetcher::new(16);
        run(&mut p, 1);
        run(&mut p, 50); // 1 -> 50
        run(&mut p, 17); // aliases slot 1: retag
        assert!(run(&mut p, 1).is_empty());
    }

    #[test]
    fn self_successor_not_learned() {
        let mut p = CorrelationPrefetcher::new(256);
        run(&mut p, 10);
        run(&mut p, 10);
        assert!(run(&mut p, 10).is_empty());
    }
}
