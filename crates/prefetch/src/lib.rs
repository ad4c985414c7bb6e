//! Prefetch generators.
//!
//! The paper evaluates two aggressive hardware prefetchers plus
//! compiler-inserted software prefetches (§3):
//!
//! * [`nsp::NextSequencePrefetcher`] — tagged next-line prefetching
//!   (Smith, *Cache Memories*, 1982): prefetch line *n+1* on a miss to *n*
//!   or on the first hit to a prefetched (tagged) line.
//! * [`sdp::ShadowDirectoryPrefetcher`] — shadow-directory prefetching
//!   (Pomerene et al., U.S. Patent 4,807,110): each L2 line remembers the
//!   *next line missed after it was last accessed* plus a confirmation bit.
//! * [`stride::StridePrefetcher`] — a reference-prediction-table stride
//!   prefetcher (Chen & Baer, 1995). Not part of the paper's mix; used by
//!   the ablation benches.
//! * [`correlation::CorrelationPrefetcher`] — Markov miss-correlation
//!   prefetching (Charney & Reeves, 1995; the paper's reference \[2\]).
//!   Ablations only.
//! * [`software`] — helpers for the software prefetch instructions the
//!   workload streams carry (identified in the LSQ, Figure 3).
//!
//! [`ComposedPrefetcher::new`] builds the hardware generators a
//! [`SystemConfig`](ppf_types::SystemConfig) turns on, and it alone sizes
//! them. The simulator feeds it one [`AccessEvent`] per demand access and
//! collects the candidate [`PrefetchRequest`](ppf_types::PrefetchRequest)s,
//! which then pass through the pollution filter.

#![warn(missing_docs)]

pub mod compose;
pub mod correlation;
pub mod nsp;
pub mod sdp;
pub mod software;
pub mod stride;

use ppf_types::{Addr, LineAddr, Pc};

pub use compose::ComposedPrefetcher;
pub use correlation::CorrelationPrefetcher;
pub use nsp::NextSequencePrefetcher;
pub use sdp::ShadowDirectoryPrefetcher;
pub use stride::StridePrefetcher;

/// What a demand access did, as seen by the prefetch generators.
///
/// Built by the simulator from the hierarchy's
/// [`ppf_mem::hierarchy::AccessResult`]; hardware prefetchers are "triggered
/// by L1 or L2 cache accesses" (§4) so this carries both levels' outcomes.
#[derive(Debug, Clone, Copy)]
pub struct AccessEvent {
    /// PC of the memory instruction.
    pub pc: Pc,
    /// Byte address referenced (stride detection needs sub-line resolution).
    pub addr: Addr,
    /// The referenced cache line.
    pub line: LineAddr,
    /// L1 hit?
    pub l1_hit: bool,
    /// The L1 hit landed on a line whose NSP tag bit was set (and consumed).
    pub nsp_tagged_hit: bool,
    /// Whether the access continued to the L2 (i.e. L1 missed and the
    /// prefetch buffer, if any, missed too).
    pub l2_accessed: bool,
    /// L2 hit? Meaningful only when `l2_accessed`.
    pub l2_hit: bool,
}

#[cfg(test)]
pub(crate) mod test_util {
    use super::*;

    /// Event builder with quiet defaults (L1 hit, load).
    pub fn event(pc: Pc, line: u64) -> AccessEvent {
        AccessEvent {
            pc,
            addr: line * 32,
            line: LineAddr(line),
            l1_hit: true,
            nsp_tagged_hit: false,
            l2_accessed: false,
            l2_hit: false,
        }
    }

    pub fn miss_event(pc: Pc, line: u64, l2_hit: bool) -> AccessEvent {
        AccessEvent {
            l1_hit: false,
            l2_accessed: true,
            l2_hit,
            ..event(pc, line)
        }
    }
}
