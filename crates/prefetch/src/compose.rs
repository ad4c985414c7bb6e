//! The machine's hardware prefetchers behind one trigger feed.
//!
//! The paper's machine runs NSP and SDP *simultaneously* (plus software
//! prefetches): "a processor with an aggressive prefetching mechanism ...
//! includes both compiler-inserted prefetch instructions and dynamic
//! prefetches generated by the hardware" (§4). The ablations add the
//! stride RPT or the correlation table behind them. [`ComposedPrefetcher`]
//! holds whichever of the four the config turns on, in that fixed trigger
//! order, and de-duplicates same-line requests produced in the same
//! trigger event (the simulator squashes a line already queued).

use crate::{
    AccessEvent, CorrelationPrefetcher, NextSequencePrefetcher, ShadowDirectoryPrefetcher,
    StridePrefetcher,
};
use ppf_types::{PrefetchRequest, SystemConfig};

/// The configured hardware prefetchers, triggered in the order NSP, SDP,
/// stride, correlation; a generator the config turns off is `None`.
#[derive(Debug, Clone)]
pub struct ComposedPrefetcher {
    nsp: Option<NextSequencePrefetcher>,
    sdp: Option<ShadowDirectoryPrefetcher>,
    stride: Option<StridePrefetcher>,
    correlation: Option<CorrelationPrefetcher>,
}

impl ComposedPrefetcher {
    /// The generators `cfg.prefetch` turns on: NSP at `nsp_degree` (at
    /// least 1), an SDP directory with one entry per L2 line (rounded up to
    /// a power of two), a 256-entry stride RPT over the L1D's lines and a
    /// 4096-entry correlation table.
    pub fn new(cfg: &SystemConfig) -> Self {
        let p = &cfg.prefetch;
        let (degree, l2_lines) = (p.nsp_degree.max(1), cfg.l2.lines().next_power_of_two());
        let line_bytes = cfg.l1.line_bytes;
        ComposedPrefetcher {
            nsp: p.nsp.then(|| NextSequencePrefetcher::with_degree(degree)),
            sdp: p.sdp.then(|| ShadowDirectoryPrefetcher::new(l2_lines)),
            stride: p.stride.then(|| StridePrefetcher::new(256, line_bytes)),
            correlation: p.correlation.then(|| CorrelationPrefetcher::new(4096)),
        }
    }

    /// Feed one demand access to every generator in order, appending their
    /// candidates to `out` minus same-line repeats within this event.
    pub fn on_access(&mut self, ev: &AccessEvent, out: &mut Vec<PrefetchRequest>) {
        let start = out.len();
        if let Some(g) = &mut self.nsp {
            g.on_access(ev, out);
        }
        if let Some(g) = &mut self.sdp {
            g.on_access(ev, out);
        }
        if let Some(g) = &mut self.stride {
            g.on_access(ev, out);
        }
        if let Some(g) = &mut self.correlation {
            g.on_access(ev, out);
        }
        // Same-event same-line de-duplication, first writer wins. The slice
        // is tiny (a few entries), so the quadratic scan beats any set.
        let mut i = start;
        while i < out.len() {
            let dup = out[start..i].iter().any(|r| r.line == out[i].line);
            if dup {
                out.swap_remove(i);
            } else {
                i += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::miss_event;
    use ppf_types::{LineAddr, PrefetchConfig, PrefetchSource};

    /// The paper's NSP+SDP composition with SDP trained so that line 10's
    /// shadow is `succ`: misses on 10 and then `succ` teach the edge.
    fn paper_trained(succ: u64) -> ComposedPrefetcher {
        let mut c = ComposedPrefetcher::new(&SystemConfig::paper_default());
        let mut out = Vec::new();
        c.on_access(&miss_event(0x100, 10, false), &mut out);
        c.on_access(&miss_event(0x104, succ, false), &mut out);
        c
    }

    #[test]
    fn chains_generators() {
        let mut c = paper_trained(50);
        let mut out = Vec::new();
        c.on_access(&miss_event(0x100, 10, true), &mut out);
        let got: Vec<_> = out.iter().map(|r| (r.line.0, r.source)).collect();
        assert_eq!(got, [(11, PrefetchSource::Nsp), (50, PrefetchSource::Sdp)]);
    }

    #[test]
    fn same_event_duplicates_removed_first_wins() {
        // NSP and SDP both propose line 11 on the next miss to 10.
        let mut c = paper_trained(11);
        let mut out = Vec::new();
        c.on_access(&miss_event(0x100, 10, true), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, LineAddr(11));
        assert_eq!(out[0].source, PrefetchSource::Nsp, "first generator wins");
    }

    #[test]
    fn preexisting_out_entries_survive_and_dedup_ignores_them() {
        let mut c = ComposedPrefetcher::new(&SystemConfig::paper_default());
        let mut out = vec![PrefetchRequest {
            line: LineAddr(11),
            trigger_pc: 0,
            source: PrefetchSource::Software,
            tenant: 0,
            depth: 0,
        }];
        c.on_access(&miss_event(0x100, 10, true), &mut out);
        // The composition only de-duplicates within its own event batch:
        // NSP's line 11 is kept next to the software request for it.
        assert_eq!(out.len(), 2);
        assert_eq!(out[1].source, PrefetchSource::Nsp);
    }

    #[test]
    fn empty_composition_is_quiet() {
        let mut cfg = SystemConfig::paper_default();
        cfg.prefetch = PrefetchConfig::disabled();
        let mut c = ComposedPrefetcher::new(&cfg);
        let mut out = Vec::new();
        c.on_access(&miss_event(0x100, 10, false), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn paper_config_builds_nsp_and_an_l2_sized_sdp_only() {
        let c = ComposedPrefetcher::new(&SystemConfig::paper_default());
        assert_eq!(c.nsp.map(|g| g.degree), Some(1));
        assert_eq!(c.sdp.map(|g| g.entries()), Some(16384), "one per L2 line");
        assert!(c.stride.is_none() && c.correlation.is_none());
    }
}
