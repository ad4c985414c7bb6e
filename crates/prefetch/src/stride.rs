//! Reference-Prediction-Table stride prefetcher (Chen & Baer, *Effective
//! Hardware-Based Data Prefetching for High Performance Processors*, 1995).
//!
//! Not part of the paper's prefetcher mix — the paper cites it as the
//! family of "more sophisticated hardware-based schemes" — but the ablation
//! benches use it to show the pollution filter composes with a third,
//! differently-shaped generator.
//!
//! Classic RPT: a PC-indexed table of `{last_addr, stride, state}` entries
//! with the four-state automaton *initial → transient → steady ⇄ no-pred*.
//! Prefetches are issued only from the *steady* state.

use crate::AccessEvent;
use ppf_types::{Addr, LineAddr, PrefetchRequest, PrefetchSource};

/// RPT entry automaton state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Initial,
    Transient,
    Steady,
    NoPred,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    pc_tag: u64,
    last_addr: Addr,
    stride: i64,
    state: State,
    valid: bool,
}

const INVALID: Entry = Entry {
    pc_tag: 0,
    last_addr: 0,
    stride: 0,
    state: State::Initial,
    valid: false,
};

/// PC-indexed reference prediction table.
#[derive(Debug, Clone)]
pub struct StridePrefetcher {
    entries: Box<[Entry]>,
    mask: u64,
    line_bytes: u32,
    /// Lookahead: prefetch `addr + degree * stride`.
    degree: i64,
}

impl StridePrefetcher {
    /// An RPT of `entries` slots (power of two) for `line_bytes`-byte lines.
    pub fn new(entries: usize, line_bytes: u32) -> Self {
        assert!(entries.is_power_of_two());
        StridePrefetcher {
            entries: vec![INVALID; entries].into_boxed_slice(),
            mask: (entries - 1) as u64,
            line_bytes,
            degree: 1,
        }
    }

    /// Set the lookahead degree (>= 1).
    pub fn with_degree(mut self, degree: i64) -> Self {
        assert!(degree >= 1);
        self.degree = degree;
        self
    }

    #[inline]
    fn slot(&self, pc: u64) -> usize {
        ((pc >> 2) & self.mask) as usize
    }

    /// Observe one demand access; append any candidate prefetch to `out`
    /// without clearing it.
    pub fn on_access(&mut self, ev: &AccessEvent, out: &mut Vec<PrefetchRequest>) {
        let slot = self.slot(ev.pc);
        let e = &mut self.entries[slot];
        if !e.valid || e.pc_tag != ev.pc {
            *e = Entry {
                pc_tag: ev.pc,
                last_addr: ev.addr,
                stride: 0,
                state: State::Initial,
                valid: true,
            };
            return;
        }
        let delta = ev.addr.wrapping_sub(e.last_addr) as i64;
        let matched = delta == e.stride && delta != 0;
        // Chen & Baer state transitions.
        e.state = match (e.state, matched) {
            (State::Initial, true) => State::Steady,
            (State::Initial, false) => State::Transient,
            (State::Transient, true) => State::Steady,
            (State::Transient, false) => State::NoPred,
            (State::Steady, true) => State::Steady,
            (State::Steady, false) => State::Initial,
            (State::NoPred, true) => State::Transient,
            (State::NoPred, false) => State::NoPred,
        };
        if !matched {
            e.stride = delta;
        }
        e.last_addr = ev.addr;
        if e.state == State::Steady {
            let target = ev.addr.wrapping_add((e.stride * self.degree) as u64);
            let target_line = LineAddr::of(target, self.line_bytes);
            // Same-line strides don't need a prefetch.
            if target_line != ev.line {
                out.push(PrefetchRequest {
                    line: target_line,
                    trigger_pc: ev.pc,
                    source: PrefetchSource::Stride,
                    tenant: 0,
                    depth: self.degree.min(u8::MAX as i64) as u8,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::event;

    fn access(p: &mut StridePrefetcher, pc: u64, addr: u64) -> Vec<LineAddr> {
        let mut out = Vec::new();
        let mut ev = event(pc, addr / 32);
        ev.addr = addr;
        p.on_access(&ev, &mut out);
        out.iter().map(|r| r.line).collect()
    }

    #[test]
    fn constant_stride_reaches_steady_and_prefetches() {
        let mut p = StridePrefetcher::new(256, 32);
        // Stride of 64 bytes (2 lines): addresses 0, 64, 128, ...
        assert!(access(&mut p, 0x100, 0).is_empty()); // allocate
        assert!(access(&mut p, 0x100, 64).is_empty()); // learn stride (transient path)
        let got = access(&mut p, 0x100, 128); // stride confirmed -> steady
        assert_eq!(got, vec![LineAddr::of(192, 32)]);
        let got = access(&mut p, 0x100, 192);
        assert_eq!(got, vec![LineAddr::of(256, 32)]);
    }

    #[test]
    fn irregular_pattern_goes_quiet() {
        let mut p = StridePrefetcher::new(256, 32);
        access(&mut p, 0x100, 0);
        access(&mut p, 0x100, 1000);
        access(&mut p, 0x100, 13);
        access(&mut p, 0x100, 500_000);
        // NoPred: nothing issued even as deltas keep changing.
        assert!(access(&mut p, 0x100, 7).is_empty());
        assert!(access(&mut p, 0x100, 99_999).is_empty());
    }

    #[test]
    fn sub_line_stride_suppressed() {
        let mut p = StridePrefetcher::new(256, 32);
        // 8-byte stride stays within a 32-byte line most accesses: target
        // line == current line must not emit a request.
        access(&mut p, 0x100, 0);
        access(&mut p, 0x100, 8);
        let got = access(&mut p, 0x100, 16);
        assert!(got.is_empty(), "target 24 is in the same line");
    }

    #[test]
    fn different_pcs_use_different_entries() {
        let mut p = StridePrefetcher::new(256, 32);
        access(&mut p, 0x100, 0);
        access(&mut p, 0x104, 77); // different PC: own entry
        access(&mut p, 0x100, 64);
        let got = access(&mut p, 0x100, 128);
        assert_eq!(got.len(), 1, "pc 0x104's access must not disturb 0x100");
    }

    #[test]
    fn negative_stride_works() {
        let mut p = StridePrefetcher::new(256, 32);
        access(&mut p, 0x100, 10_000);
        access(&mut p, 0x100, 10_000 - 64);
        let got = access(&mut p, 0x100, 10_000 - 128);
        assert_eq!(got, vec![LineAddr::of(10_000 - 192, 32)]);
    }

    #[test]
    fn steady_broken_then_relearned() {
        let mut p = StridePrefetcher::new(256, 32);
        access(&mut p, 0x100, 0);
        access(&mut p, 0x100, 64);
        assert!(!access(&mut p, 0x100, 128).is_empty());
        // Break the pattern.
        assert!(access(&mut p, 0x100, 5000).is_empty(), "steady -> initial");
        // One matching delta from initial goes straight back to steady.
        access(&mut p, 0x100, 5064);
        let got = access(&mut p, 0x100, 5128);
        assert!(!got.is_empty());
    }

    #[test]
    fn pc_aliasing_retags() {
        let mut p = StridePrefetcher::new(4, 32);
        access(&mut p, 0x100, 0);
        access(&mut p, 0x100, 64);
        access(&mut p, 0x110, 5); // aliases slot (0x100>>2)&3 == (0x110>>2)&3
        let got = access(&mut p, 0x100, 128);
        assert!(got.is_empty(), "retagged entry forgot the stream");
    }

    #[test]
    fn degree_extends_lookahead() {
        let mut p = StridePrefetcher::new(256, 32).with_degree(4);
        access(&mut p, 0x100, 0);
        access(&mut p, 0x100, 64);
        let got = access(&mut p, 0x100, 128);
        assert_eq!(got, vec![LineAddr::of(128 + 4 * 64, 32)]);
    }
}
