//! Property-based tests over the prefetch generators: structural sanity of
//! every candidate they emit, under arbitrary access streams; and the
//! struct-of-arrays shadow directory emits exactly what the record-array
//! directory it replaced emitted.

use ppf_prefetch::{
    AccessEvent, ComposedPrefetcher, CorrelationPrefetcher, NextSequencePrefetcher,
    ShadowDirectoryPrefetcher, StridePrefetcher,
};
use ppf_types::{LineAddr, PrefetchRequest, PrefetchSource, SystemConfig};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Access {
    pc: u64,
    line: u64,
    l1_hit: bool,
    nsp_tagged: bool,
    l2_hit: bool,
}

fn access() -> impl Strategy<Value = Access> {
    (
        0u64..64,
        0u64..4096,
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(pc, line, l1_hit, nsp_tagged, l2_hit)| Access {
            pc: 0x1000 + pc * 4,
            line,
            l1_hit,
            nsp_tagged: nsp_tagged && l1_hit,
            l2_hit,
        })
}

fn event(a: &Access) -> AccessEvent {
    AccessEvent {
        pc: a.pc,
        addr: a.line * 32 + (a.pc % 4) * 8,
        line: LineAddr(a.line),
        l1_hit: a.l1_hit,
        nsp_tagged_hit: a.nsp_tagged,
        l2_accessed: !a.l1_hit,
        l2_hit: a.l2_hit,
    }
}

/// The record-array shadow directory the struct-of-arrays
/// [`ShadowDirectoryPrefetcher`] replaced: one entry per slot with an
/// `Option` shadow and a valid bit, and a pending ring scanned in full on
/// every access (no presence filter). Kept as the reference the directory
/// must match event for event.
#[derive(Debug, Clone, Copy)]
struct RefSdpEntry {
    tag: LineAddr,
    shadow: Option<LineAddr>,
    confirmed: bool,
    valid: bool,
}

struct RefSdp {
    entries: Vec<RefSdpEntry>,
    mask: u64,
    last_l2_line: Option<LineAddr>,
    /// Outstanding shadow prefetches: (target, issuing slot).
    pending: [Option<(LineAddr, usize)>; 64],
    pending_next: usize,
}

impl RefSdp {
    fn new(entries: usize) -> Self {
        let empty = RefSdpEntry {
            tag: LineAddr(0),
            shadow: None,
            confirmed: false,
            valid: false,
        };
        RefSdp {
            entries: vec![empty; entries],
            mask: (entries - 1) as u64,
            last_l2_line: None,
            pending: [None; 64],
            pending_next: 0,
        }
    }

    fn lookup_mut(&mut self, line: LineAddr) -> usize {
        let slot = (line.0 & self.mask) as usize;
        let e = &mut self.entries[slot];
        if !e.valid || e.tag != line {
            *e = RefSdpEntry {
                tag: line,
                shadow: None,
                confirmed: false,
                valid: true,
            };
        }
        slot
    }

    fn on_access(&mut self, ev: &AccessEvent, out: &mut Vec<PrefetchRequest>) {
        for p in &mut self.pending {
            if let Some((target, slot)) = *p {
                if target == ev.line {
                    let e = &mut self.entries[slot];
                    if e.valid && e.shadow == Some(ev.line) {
                        e.confirmed = true;
                    }
                    *p = None;
                }
            }
        }
        if !ev.l2_accessed {
            return;
        }
        if !ev.l2_hit {
            if let Some(prev) = self.last_l2_line {
                if prev != ev.line {
                    let slot = self.lookup_mut(prev);
                    let in_flight = self
                        .pending
                        .iter()
                        .any(|p| matches!(*p, Some((_, s)) if s == slot));
                    let e = &mut self.entries[slot];
                    if e.shadow != Some(ev.line) && !e.confirmed && !in_flight {
                        e.shadow = Some(ev.line);
                        e.confirmed = true;
                    }
                }
            }
        }
        let slot = self.lookup_mut(ev.line);
        let e = &mut self.entries[slot];
        if e.confirmed {
            if let Some(shadow) = e.shadow {
                e.confirmed = false;
                out.push(PrefetchRequest {
                    line: shadow,
                    trigger_pc: ev.pc,
                    source: PrefetchSource::Sdp,
                    tenant: 0,
                    depth: 1,
                });
                self.pending[self.pending_next] = Some((shadow, slot));
                self.pending_next = (self.pending_next + 1) % self.pending.len();
            }
        }
        self.last_l2_line = Some(ev.line);
    }
}

/// A dense access stream for the directory check: 48 lines over a small
/// directory alias, retag and re-reference constantly, and every mix of
/// L1 hit, L2 hit and L2 miss occurs.
fn dense_access() -> impl Strategy<Value = Access> {
    (0u64..8, 0u64..48, any::<bool>(), any::<bool>()).prop_map(|(pc, line, l1_hit, l2_hit)| {
        Access {
            pc: 0x1000 + pc * 4,
            line,
            l1_hit,
            nsp_tagged: false,
            l2_hit,
        }
    })
}

/// Feed `accesses` to a generator's `on_access` and log each access with
/// the requests it proposed.
fn drive(
    mut on_access: impl FnMut(&AccessEvent, &mut Vec<PrefetchRequest>),
    accesses: &[Access],
) -> Vec<(Access, Vec<PrefetchRequest>)> {
    let mut log = Vec::new();
    let mut out = Vec::new();
    for a in accesses {
        out.clear();
        on_access(&event(a), &mut out);
        log.push((a.clone(), out.clone()));
    }
    log
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn nsp_emits_only_forward_neighbours(accesses in prop::collection::vec(access(), 1..200)) {
        let mut p = NextSequencePrefetcher::with_degree(2);
        for (a, reqs) in drive(|ev, out| p.on_access(ev, out), &accesses) {
            for r in reqs {
                let delta = r.line.0.wrapping_sub(a.line);
                prop_assert!((1..=2).contains(&delta), "NSP emitted line {delta} away");
                prop_assert_eq!(r.trigger_pc, a.pc);
                prop_assert_eq!(r.source, PrefetchSource::Nsp);
            }
        }
    }

    #[test]
    fn nsp_silent_on_untagged_hits(accesses in prop::collection::vec(access(), 1..200)) {
        let mut p = NextSequencePrefetcher::with_degree(1);
        for (a, reqs) in drive(|ev, out| p.on_access(ev, out), &accesses) {
            if a.l1_hit && !a.nsp_tagged {
                prop_assert!(reqs.is_empty());
            }
        }
    }

    #[test]
    fn sdp_never_prefetches_the_trigger_line(accesses in prop::collection::vec(access(), 1..300)) {
        let mut p = ShadowDirectoryPrefetcher::new(1024);
        for (a, reqs) in drive(|ev, out| p.on_access(ev, out), &accesses) {
            for r in reqs {
                prop_assert_ne!(r.line, LineAddr(a.line), "self-shadow emitted");
                prop_assert_eq!(r.source, PrefetchSource::Sdp);
            }
        }
    }

    #[test]
    fn sdp_only_prefetches_observed_lines(accesses in prop::collection::vec(access(), 1..300)) {
        // Every shadow the SDP emits must be a line that actually missed
        // at some earlier point in the stream (shadows are learned, not
        // synthesized).
        let mut p = ShadowDirectoryPrefetcher::new(1024);
        let mut seen_misses = std::collections::HashSet::new();
        for (a, reqs) in drive(|ev, out| p.on_access(ev, out), &accesses) {
            for r in &reqs {
                prop_assert!(
                    seen_misses.contains(&r.line.0),
                    "shadow {:?} never missed before", r.line
                );
            }
            if !a.l1_hit && !a.l2_hit {
                seen_misses.insert(a.line);
            }
        }
    }

    #[test]
    fn correlation_only_prefetches_observed_miss_successors(
        accesses in prop::collection::vec(access(), 1..300),
    ) {
        let mut p = CorrelationPrefetcher::new(256).with_degree(2);
        let mut seen_misses = std::collections::HashSet::new();
        for (a, reqs) in drive(|ev, out| p.on_access(ev, out), &accesses) {
            for r in &reqs {
                prop_assert!(seen_misses.contains(&r.line.0));
            }
            if !a.l1_hit {
                seen_misses.insert(a.line);
            }
        }
    }

    #[test]
    fn stride_targets_are_always_off_the_trigger_line(
        accesses in prop::collection::vec(access(), 1..300),
    ) {
        let mut p = StridePrefetcher::new(256, 32);
        for (a, reqs) in drive(|ev, out| p.on_access(ev, out), &accesses) {
            for r in reqs {
                prop_assert_ne!(r.line, LineAddr(a.line));
                prop_assert_eq!(r.source, PrefetchSource::Stride);
            }
        }
    }

    #[test]
    fn composition_has_no_same_event_duplicates(
        accesses in prop::collection::vec(access(), 1..200),
    ) {
        let mut cfg = SystemConfig::paper_default();
        cfg.prefetch.nsp_degree = 2;
        cfg.prefetch.stride = true;
        cfg.prefetch.correlation = true;
        let mut c = ComposedPrefetcher::new(&cfg);
        let mut out = Vec::new();
        for a in &accesses {
            out.clear();
            c.on_access(&event(a), &mut out);
            let mut lines: Vec<u64> = out.iter().map(|r| r.line.0).collect();
            lines.sort_unstable();
            let before = lines.len();
            lines.dedup();
            prop_assert_eq!(lines.len(), before, "duplicate line within one event");
        }
    }

    #[test]
    fn sdp_matches_record_array_reference(
        accesses in prop::collection::vec(dense_access(), 1..600),
        entries_log in 2u32..7,
    ) {
        let entries = 1 << entries_log;
        let mut sdp = ShadowDirectoryPrefetcher::new(entries);
        let mut reference = RefSdp::new(entries);
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for (i, a) in accesses.iter().enumerate() {
            got.clear();
            want.clear();
            sdp.on_access(&event(a), &mut got);
            reference.on_access(&event(a), &mut want);
            prop_assert_eq!(&got, &want, "access {} ({:?})", i, a);
        }
    }

    #[test]
    fn generators_are_deterministic(accesses in prop::collection::vec(access(), 1..150)) {
        let run = |accesses: &[Access]| {
            let mut p = ShadowDirectoryPrefetcher::new(512);
            drive(|ev, out| p.on_access(ev, out), accesses)
                .into_iter()
                .map(|(_, reqs)| reqs)
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(run(&accesses), run(&accesses));
    }
}
