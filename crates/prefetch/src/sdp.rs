//! Shadow-Directory Prefetching (SDP).
//!
//! From §3 of the paper: "the SDP maintains a shadow line address in each L2
//! cache line for prefetching purposes along with its resident address. The
//! shadow line is the next line missed after the currently resident line was
//! last accessed. A confirmation bit is added to each L2 cache line
//! indicating if the prefetched line was ever used since it was prefetched
//! last time." (Pomerene et al., U.S. Patent 4,807,110.)
//!
//! The shadow directory here is a direct-mapped side table sized like the
//! L2 (one entry per L2 line), rather than bits physically inside the L2
//! array — behaviourally identical and it keeps `ppf-mem` generic. It is
//! stored as struct-of-arrays over zero-initialized vectors (DESIGN.md §5),
//! so a new directory writes none of its slots until a line claims one.
//!
//! Protocol implemented:
//!
//! 1. On an L2 *miss* to line `X`, the entry of the *previously accessed*
//!    L2 line gets `shadow := X` (learning the miss-successor relation).
//!    A newly learned shadow starts confirmed so it gets one chance.
//! 2. On any L2 access to line `X` whose entry holds a confirmed shadow
//!    `S`, a prefetch for `S` is emitted and the confirmation bit cleared.
//! 3. When a later L2 access actually references a line we shadow-
//!    prefetched, the issuing entry's confirmation bit is set again
//!    (tracked through a small outstanding ring, like the real hardware's
//!    in-flight confirmation path).

use crate::AccessEvent;
use ppf_types::{LineAddr, PrefetchRequest, PrefetchSource};

/// Outstanding shadow prefetches awaiting confirmation.
const PENDING_RING: usize = 64;

/// Free-slot sentinel in `pending_target`. Line addresses are byte
/// addresses shifted right by the line-offset bits, so `u64::MAX` can
/// never name a real line.
const NO_TARGET: u64 = u64::MAX;

/// The shadow-directory prefetcher.
#[derive(Debug, Clone)]
pub struct ShadowDirectoryPrefetcher {
    /// Per slot: 0 = empty, otherwise the L2 line it describes plus one.
    /// Line numbers are byte addresses shifted right by the line-offset
    /// bits, so the `+ 1` never overflows.
    tags: Box<[u64]>,
    /// The slot's learned successor (shadow) line plus one; 0 = none yet.
    /// Only a claimed slot ever holds a shadow.
    shadows: Box<[u64]>,
    /// Was the last shadow prefetch from this slot used?
    confirmed: Box<[bool]>,
    mask: u64,
    last_l2_line: Option<LineAddr>,
    /// Ring of outstanding prefetch targets, struct-of-arrays so the
    /// per-access confirmation probe is a flat compare loop over `u64`s:
    /// `pending_target[i]` is the prefetched line (`NO_TARGET` = free or
    /// already confirmed) and `pending_slot[i]` the directory slot that
    /// issued it.
    pending_target: [u64; PENDING_RING],
    pending_slot: [u32; PENDING_RING],
    pending_next: usize,
    /// Conservative presence filter over `pending` targets: the bit
    /// `hash(line) % 256` is set for every (possibly stale) outstanding
    /// target (256 bits so the 64-deep ring does not saturate it). A clear
    /// bit proves the line is not outstanding, so the per-access
    /// confirmation probe can skip the ring scan; a stale set bit merely
    /// costs one scan. Never changes behaviour.
    pending_sig: [u64; 4],
}

impl ShadowDirectoryPrefetcher {
    /// A directory with `entries` slots — size it like the L2 line count
    /// (the paper's 512KB L2 with 32-byte lines has 16384 lines).
    pub fn new(entries: usize) -> Self {
        assert!(entries.is_power_of_two());
        ShadowDirectoryPrefetcher {
            tags: vec![0; entries].into_boxed_slice(),
            shadows: vec![0; entries].into_boxed_slice(),
            confirmed: vec![false; entries].into_boxed_slice(),
            mask: (entries - 1) as u64,
            last_l2_line: None,
            pending_target: [NO_TARGET; PENDING_RING],
            pending_slot: [0; PENDING_RING],
            pending_next: 0,
            pending_sig: [0; 4],
        }
    }

    /// The presence-filter (word, bit) for `line` (see `pending_sig`).
    #[inline]
    fn sig_slot(line: LineAddr) -> (usize, u64) {
        let h = line.0.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 56;
        ((h >> 6) as usize, 1 << (h & 63))
    }

    /// Directory entry count.
    pub fn entries(&self) -> usize {
        self.tags.len()
    }

    #[inline]
    fn slot_of(&self, line: LineAddr) -> usize {
        (line.0 & self.mask) as usize
    }

    /// Get (claiming/retagging if needed) the slot index for `line`.
    fn lookup_mut(&mut self, line: LineAddr) -> usize {
        let slot = self.slot_of(line);
        let tag = line.0 + 1;
        if self.tags[slot] != tag {
            self.tags[slot] = tag;
            self.shadows[slot] = 0;
            self.confirmed[slot] = false;
        }
        slot
    }

    fn push_pending(&mut self, target: LineAddr, slot: usize) {
        // Rotating overwrite: if the ring is full the oldest outstanding
        // prefetch silently loses its confirmation chance, like a hardware
        // structure of bounded size would.
        self.pending_target[self.pending_next] = target.0;
        self.pending_slot[self.pending_next] = slot as u32;
        self.pending_next = (self.pending_next + 1) % PENDING_RING;
        let (w, b) = Self::sig_slot(target);
        self.pending_sig[w] |= b;
    }

    /// If `line` matches an outstanding shadow prefetch, confirm its issuer.
    fn confirm_if_pending(&mut self, line: LineAddr) {
        let (w, b) = Self::sig_slot(line);
        if self.pending_sig[w] & b == 0 {
            return; // provably not outstanding
        }
        let mut removed = false;
        for i in 0..PENDING_RING {
            if self.pending_target[i] == line.0 {
                let slot = self.pending_slot[i] as usize;
                if self.shadows[slot] == line.0 + 1 {
                    self.confirmed[slot] = true;
                }
                self.pending_target[i] = NO_TARGET;
                removed = true;
            }
        }
        if removed {
            // Re-derive the filter so cleared slots stop costing scans.
            let mut sig = [0u64; 4];
            for &t in self.pending_target.iter().filter(|&&t| t != NO_TARGET) {
                let (w, b) = Self::sig_slot(LineAddr(t));
                sig[w] |= b;
            }
            self.pending_sig = sig;
        }
    }

    /// Observe one demand access; append any candidate prefetch to `out`
    /// without clearing it.
    pub fn on_access(&mut self, ev: &AccessEvent, out: &mut Vec<PrefetchRequest>) {
        // Confirmation watches *all* demand accesses: a successful shadow
        // prefetch makes its target hit in the L1, so the "prefetched line
        // was used" signal (the per-line confirmation bit of the patent)
        // must be taken from L1-level use, not from L2 traffic.
        self.confirm_if_pending(ev.line);
        // Learning and triggering watch the L2 access stream only.
        if !ev.l2_accessed {
            return;
        }

        // Learn: this miss is the successor of the previously accessed line.
        // A shadow that has proven useful (confirmed, or issued and still
        // awaiting its confirmation) is kept — the patent's confirmation
        // bit exists precisely so one interleaved unrelated miss does not
        // wipe a working successor edge.
        if !ev.l2_hit {
            if let Some(prev) = self.last_l2_line {
                if prev != ev.line {
                    let slot = self.lookup_mut(prev);
                    let in_flight = self
                        .pending_target
                        .iter()
                        .zip(&self.pending_slot)
                        .any(|(&t, &s)| t != NO_TARGET && s as usize == slot);
                    let shadow = ev.line.0 + 1;
                    if self.shadows[slot] != shadow && !self.confirmed[slot] && !in_flight {
                        self.shadows[slot] = shadow;
                        self.confirmed[slot] = true; // fresh shadow gets one chance
                    }
                }
            }
        }

        // Trigger: a confirmed shadow for the accessed line is prefetched.
        let slot = self.lookup_mut(ev.line);
        if self.confirmed[slot] && self.shadows[slot] != 0 {
            let shadow = LineAddr(self.shadows[slot] - 1);
            self.confirmed[slot] = false; // must be re-confirmed by use
            out.push(PrefetchRequest {
                line: shadow,
                trigger_pc: ev.pc,
                source: PrefetchSource::Sdp,
                tenant: 0,
                depth: 1,
            });
            self.push_pending(shadow, slot);
        }

        self.last_l2_line = Some(ev.line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::miss_event;

    fn run(p: &mut ShadowDirectoryPrefetcher, pc: u64, line: u64, l2_hit: bool) -> Vec<LineAddr> {
        let mut out = Vec::new();
        p.on_access(&miss_event(pc, line, l2_hit), &mut out);
        out.iter().map(|r| r.line).collect()
    }

    #[test]
    fn learns_miss_successor_and_prefetches_on_revisit() {
        let mut p = ShadowDirectoryPrefetcher::new(1024);
        // Access A (miss), then B (miss): A's shadow becomes B.
        assert!(run(&mut p, 0x100, 10, false).is_empty());
        assert!(run(&mut p, 0x104, 50, false).is_empty());
        // Revisit A: shadow B is confirmed-fresh, so prefetch B.
        let got = run(&mut p, 0x100, 10, false);
        assert_eq!(got, vec![LineAddr(50)]);
    }

    #[test]
    fn unconfirmed_shadow_not_reissued() {
        let mut p = ShadowDirectoryPrefetcher::new(1024);
        run(&mut p, 0x100, 10, false);
        run(&mut p, 0x104, 50, false);
        assert_eq!(run(&mut p, 0x100, 10, false), vec![LineAddr(50)]);
        // Without the prefetch being "used" (line 50 accessed), a further
        // revisit must stay quiet: the confirmation bit is down. Visit some
        // other line in between so the A->50 edge isn't relearned.
        run(&mut p, 0x108, 90, true);
        assert!(run(&mut p, 0x100, 10, true).is_empty());
    }

    #[test]
    fn use_of_prefetched_line_reconfirms() {
        let mut p = ShadowDirectoryPrefetcher::new(1024);
        run(&mut p, 0x100, 10, false);
        run(&mut p, 0x104, 50, false);
        assert_eq!(run(&mut p, 0x100, 10, false), vec![LineAddr(50)]);
        // The program actually touches line 50 (L2 access): confirm.
        run(&mut p, 0x104, 50, true);
        // Intervening access so the shadow isn't just relearned.
        run(&mut p, 0x108, 90, true);
        // Revisit A: confirmed again, prefetch reissued.
        assert_eq!(run(&mut p, 0x100, 10, true), vec![LineAddr(50)]);
    }

    #[test]
    fn confirmed_shadow_resists_one_interloper() {
        let mut p = ShadowDirectoryPrefetcher::new(1024);
        run(&mut p, 0x100, 10, false);
        run(&mut p, 0x104, 50, false); // shadow(10) = 50, confirmed-fresh
                                       // Trigger the shadow prefetch (confirmation is consumed, and the
                                       // prefetch becomes in-flight)...
        assert_eq!(run(&mut p, 0x100, 10, true), vec![LineAddr(50)]);
        // ...then an unrelated miss follows another access to 10. The
        // in-flight protection keeps the edge from being overwritten.
        run(&mut p, 0x108, 70, false);
        // The prefetched line is used: the edge re-confirms...
        run(&mut p, 0x104, 50, true);
        // ...so the next visit to 10 prefetches 50 again — the useful edge
        // survived the interloper.
        let got = run(&mut p, 0x100, 10, true);
        assert_eq!(got, vec![LineAddr(50)], "confirmed shadow kept");
    }

    #[test]
    fn failed_shadow_is_replaced_by_new_successor() {
        let mut p = ShadowDirectoryPrefetcher::new(1024);
        run(&mut p, 0x100, 10, false);
        run(&mut p, 0x104, 50, false); // shadow(10) = 50, confirmed-fresh
                                       // Issue the shadow prefetch (consumes the confirmation)...
        assert_eq!(run(&mut p, 0x100, 10, true), vec![LineAddr(50)]);
        // ...and 50 is never used. Rotate the pending ring with other
        // issued prefetches so the entry stops being in-flight-protected:
        // learn a long miss chain, then trigger each edge once.
        for i in 0..70 {
            run(&mut p, 0x10c, 200 + i, false);
        }
        for i in 0..70 {
            run(&mut p, 0x10c, 200 + i, true);
        }
        // A new miss-successor is observed after an access to 10: with the
        // old shadow unconfirmed and not in flight, it is replaced.
        run(&mut p, 0x100, 10, true);
        run(&mut p, 0x108, 70, false);
        let got = run(&mut p, 0x100, 10, true);
        assert_eq!(got, vec![LineAddr(70)], "failed shadow replaced");
    }

    #[test]
    fn l1_only_traffic_is_invisible() {
        let mut p = ShadowDirectoryPrefetcher::new(1024);
        let mut out = Vec::new();
        p.on_access(&crate::test_util::event(0x100, 10), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn l2_hits_do_not_learn_successors() {
        let mut p = ShadowDirectoryPrefetcher::new(1024);
        run(&mut p, 0x100, 10, false);
        run(&mut p, 0x104, 50, true); // hit: not a miss-successor
        assert!(run(&mut p, 0x100, 10, true).is_empty(), "no shadow learned");
    }

    #[test]
    fn directory_aliasing_retags() {
        let mut p = ShadowDirectoryPrefetcher::new(16);
        run(&mut p, 0x100, 1, false);
        run(&mut p, 0x104, 50, false); // entry[1].shadow = 50
                                       // Line 17 aliases with line 1 in a 16-entry directory: retag wipes
                                       // the old shadow.
        run(&mut p, 0x108, 17, false);
        assert!(
            run(&mut p, 0x100, 1, false).is_empty(),
            "retagged entry lost shadow"
        );
    }

    #[test]
    fn self_successor_not_learned() {
        let mut p = ShadowDirectoryPrefetcher::new(1024);
        run(&mut p, 0x100, 10, false);
        // Same line missing again (e.g. evicted quickly) must not set
        // shadow(A) = A.
        assert!(run(&mut p, 0x100, 10, false).is_empty());
        assert!(run(&mut p, 0x100, 10, false).is_empty());
    }
}
