//! Fan-in of several hardware prefetch generators.
//!
//! The paper's machine runs NSP and SDP *simultaneously* (plus software
//! prefetches): "a processor with an aggressive prefetching mechanism ...
//! includes both compiler-inserted prefetch instructions and dynamic
//! prefetches generated by the hardware" (§4). `ComposedPrefetcher` chains
//! any set of generators and de-duplicates same-line requests produced in
//! the same trigger event (the queue de-duplicates across events).

use crate::{AccessEvent, Prefetcher};
use ppf_types::PrefetchRequest;

/// An ordered collection of hardware prefetchers sharing one trigger feed.
pub struct ComposedPrefetcher {
    generators: Vec<Box<dyn Prefetcher>>,
}

impl ComposedPrefetcher {
    /// Compose the given generators; earlier generators win same-line ties.
    pub fn new(generators: Vec<Box<dyn Prefetcher>>) -> Self {
        ComposedPrefetcher { generators }
    }

    /// A deep copy of the composition at its current training state, or
    /// `None` if any generator is not duplicable (see
    /// [`Prefetcher::clone_box`]).
    pub fn try_clone(&self) -> Option<Self> {
        let generators = self
            .generators
            .iter()
            .map(|g| g.clone_box())
            .collect::<Option<Vec<_>>>()?;
        Some(ComposedPrefetcher { generators })
    }

    /// Feed one demand access to every generator in order, appending their
    /// candidates to `out` minus same-line repeats within this event.
    pub fn on_access(&mut self, ev: &AccessEvent, out: &mut Vec<PrefetchRequest>) {
        let start = out.len();
        for g in &mut self.generators {
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
    use crate::nsp::NextSequencePrefetcher;
    use crate::test_util::miss_event;
    use ppf_types::{LineAddr, PrefetchSource};

    /// A generator that always proposes a fixed line.
    struct Fixed(u64, PrefetchSource);
    impl Prefetcher for Fixed {
        fn on_access(&mut self, ev: &AccessEvent, out: &mut Vec<PrefetchRequest>) {
            out.push(PrefetchRequest {
                line: LineAddr(self.0),
                trigger_pc: ev.pc,
                source: self.1,
                tenant: 0,
                depth: 1,
            });
        }
    }

    #[test]
    fn chains_generators() {
        let mut c = ComposedPrefetcher::new(vec![
            Box::new(NextSequencePrefetcher::new()),
            Box::new(Fixed(999, PrefetchSource::Sdp)),
        ]);
        let mut out = Vec::new();
        c.on_access(&miss_event(0x100, 10, true), &mut out);
        let lines: Vec<_> = out.iter().map(|r| r.line.0).collect();
        assert!(lines.contains(&11));
        assert!(lines.contains(&999));
    }

    #[test]
    fn same_event_duplicates_removed_first_wins() {
        let mut c = ComposedPrefetcher::new(vec![
            Box::new(Fixed(11, PrefetchSource::Sdp)),
            Box::new(NextSequencePrefetcher::new()), // also proposes 11
        ]);
        let mut out = Vec::new();
        c.on_access(&miss_event(0x100, 10, true), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].source, PrefetchSource::Sdp, "first generator wins");
    }

    #[test]
    fn preexisting_out_entries_survive_and_dedup_ignores_them() {
        let mut c = ComposedPrefetcher::new(vec![Box::new(Fixed(5, PrefetchSource::Nsp))]);
        let mut out = vec![PrefetchRequest {
            line: LineAddr(5),
            trigger_pc: 0,
            source: PrefetchSource::Software,
            tenant: 0,
            depth: 0,
        }];
        c.on_access(&miss_event(0x100, 10, true), &mut out);
        // The composition only de-duplicates within its own event batch.
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn empty_composition_is_quiet() {
        let mut c = ComposedPrefetcher::new(Vec::new());
        let mut out = Vec::new();
        c.on_access(&miss_event(0x100, 10, false), &mut out);
        assert!(out.is_empty());
    }
}
