//! The prefetch queue (Table 1: 64 entries).
//!
//! Prefetches that survive the pollution filter wait here for a free L1
//! port (Figure 3: "the prefetch queue contends the L1 cache ports with
//! normal L1 memory references"). The queue drops new requests when full.
//! Its owner squashes duplicates before offering one — "all duplicate
//! prefetches are squashed automatically with no penalty" (§5.1) — by
//! asking [`PrefetchQueue::contains`] before the filter sees the request.

use ppf_types::{Cycle, LineAddr, PrefetchRequest};
use std::collections::VecDeque;

/// Outcome of offering a request to the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// Request enqueued.
    Enqueued,
    /// Queue full: request dropped.
    Overflow,
}

/// Bounded FIFO of pending prefetches, at most one per line.
#[derive(Debug, Clone)]
pub struct PrefetchQueue {
    q: VecDeque<PrefetchRequest>,
    cap: usize,
}

impl PrefetchQueue {
    /// A queue holding at most `cap` requests.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0);
        PrefetchQueue {
            q: VecDeque::with_capacity(cap),
            cap,
        }
    }

    /// Pending requests.
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// True when no requests are pending.
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// True if a request for `line` is already pending. The queue is small
    /// (64 entries) so a linear scan is cheaper than maintaining an index.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.q.iter().any(|r| r.line == line)
    }

    /// Offer a request for a line not already queued (the caller checks
    /// [`PrefetchQueue::contains`] first).
    pub fn push(&mut self, req: PrefetchRequest) -> PushOutcome {
        debug_assert!(!self.contains(req.line), "{:?} already queued", req.line);
        if self.q.len() >= self.cap {
            PushOutcome::Overflow
        } else {
            self.q.push_back(req);
            PushOutcome::Enqueued
        }
    }

    /// Take the oldest pending request.
    pub fn pop(&mut self) -> Option<PrefetchRequest> {
        self.q.pop_front()
    }

    /// Peek at the oldest pending request without removing it.
    pub fn front(&self) -> Option<&PrefetchRequest> {
        self.q.front()
    }

    /// Drop every pending request (the warm-up/measurement boundary).
    pub fn clear(&mut self) {
        self.q.clear();
    }

    /// Next cycle the queue can act, for the skip-ahead kernel: a pending
    /// request wants a port every cycle, so a non-empty queue's next event
    /// is always the very next cycle; an empty queue schedules nothing
    /// (it only refills from core activity, which has its own events).
    pub fn next_event_cycle(&self, now: Cycle) -> Option<Cycle> {
        if self.q.is_empty() {
            None
        } else {
            Some(now + 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppf_types::PrefetchSource;

    fn req(line: u64) -> PrefetchRequest {
        PrefetchRequest {
            line: LineAddr(line),
            trigger_pc: 0x400,
            source: PrefetchSource::Nsp,
            tenant: 0,
            depth: 0,
        }
    }

    #[test]
    fn fifo_order() {
        let mut q = PrefetchQueue::new(4);
        assert_eq!(q.push(req(1)), PushOutcome::Enqueued);
        assert_eq!(q.push(req(2)), PushOutcome::Enqueued);
        assert_eq!(q.pop().unwrap().line, LineAddr(1));
        assert_eq!(q.pop().unwrap().line, LineAddr(2));
        assert!(q.pop().is_none());
    }

    #[test]
    fn overflow_drops() {
        let mut q = PrefetchQueue::new(2);
        q.push(req(1));
        q.push(req(2));
        assert_eq!(q.push(req(3)), PushOutcome::Overflow);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn contains_and_front() {
        let mut q = PrefetchQueue::new(4);
        assert!(!q.contains(LineAddr(9)));
        q.push(req(9));
        assert!(q.contains(LineAddr(9)));
        assert_eq!(q.front().unwrap().line, LineAddr(9));
        q.pop();
        assert!(!q.contains(LineAddr(9)));
    }

    #[test]
    fn clear_empties() {
        let mut q = PrefetchQueue::new(4);
        q.push(req(1));
        q.push(req(2));
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.push(req(1)), PushOutcome::Enqueued);
    }

    #[test]
    fn dup_of_popped_line_is_allowed_again() {
        let mut q = PrefetchQueue::new(4);
        q.push(req(7));
        q.pop();
        assert_eq!(q.push(req(7)), PushOutcome::Enqueued);
    }
}
