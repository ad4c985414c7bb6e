//! Next-Sequence Prefetching (NSP) — tagged next-line prefetch.
//!
//! From §3 of the paper: "the NSP employs a tag bit associated with each
//! cache line. When a cache line is prefetched, its corresponding tag bit is
//! set. The next adjacent cache line is automatically prefetched when a
//! memory access either misses the L1 or hits a tagged cache line."
//!
//! The tag bit itself lives in the L1 line metadata (`ppf-mem` sets it on
//! prefetch fills and reports its consumption in
//! [`AccessEvent::nsp_tagged_hit`]), so this generator is stateless — it is
//! purely a trigger rule. That mirrors the hardware, where NSP is a wire
//! from the L1 miss/tag-hit logic to the prefetch generator.

use crate::AccessEvent;
use ppf_types::{PrefetchRequest, PrefetchSource};

/// The tagged next-line prefetcher.
#[derive(Debug, Clone)]
pub struct NextSequencePrefetcher {
    /// Prefetch degree: how many sequential lines to request per trigger.
    /// The paper's NSP uses degree 1; the ablation benches sweep it.
    pub degree: u32,
}

impl NextSequencePrefetcher {
    /// NSP with prefetch degree `degree` (>= 1; the paper's is 1).
    pub fn with_degree(degree: u32) -> Self {
        assert!(degree >= 1);
        NextSequencePrefetcher { degree }
    }

    /// Observe one demand access; append any candidate prefetches to `out`
    /// without clearing it.
    pub fn on_access(&mut self, ev: &AccessEvent, out: &mut Vec<PrefetchRequest>) {
        let triggered = !ev.l1_hit || ev.nsp_tagged_hit;
        if !triggered {
            return;
        }
        for d in 1..=self.degree as i64 {
            out.push(PrefetchRequest {
                line: ev.line.offset(d),
                trigger_pc: ev.pc,
                source: PrefetchSource::Nsp,
                tenant: 0,
                depth: d.min(u8::MAX as i64) as u8,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{event, miss_event};
    use ppf_types::LineAddr;

    #[test]
    fn miss_triggers_next_line() {
        let mut p = NextSequencePrefetcher::with_degree(1);
        let mut out = Vec::new();
        p.on_access(&miss_event(0x100, 10, true), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, LineAddr(11));
        assert_eq!(out[0].trigger_pc, 0x100);
        assert_eq!(out[0].source, PrefetchSource::Nsp);
    }

    #[test]
    fn plain_hit_is_quiet() {
        let mut p = NextSequencePrefetcher::with_degree(1);
        let mut out = Vec::new();
        p.on_access(&event(0x100, 10), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn tagged_hit_triggers() {
        let mut p = NextSequencePrefetcher::with_degree(1);
        let mut out = Vec::new();
        let mut ev = event(0x100, 20);
        ev.nsp_tagged_hit = true;
        p.on_access(&ev, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, LineAddr(21));
    }

    #[test]
    fn degree_n_emits_n_lines() {
        let mut p = NextSequencePrefetcher::with_degree(3);
        let mut out = Vec::new();
        p.on_access(&miss_event(0x100, 5, false), &mut out);
        let lines: Vec<_> = out.iter().map(|r| r.line).collect();
        assert_eq!(lines, vec![LineAddr(6), LineAddr(7), LineAddr(8)]);
    }

    #[test]
    fn appends_rather_than_clearing() {
        let mut p = NextSequencePrefetcher::with_degree(1);
        let mut out = vec![PrefetchRequest {
            line: LineAddr(1),
            trigger_pc: 0,
            source: PrefetchSource::Sdp,
            tenant: 0,
            depth: 1,
        }];
        p.on_access(&miss_event(0x100, 10, true), &mut out);
        assert_eq!(out.len(), 2, "existing requests preserved");
    }
}
