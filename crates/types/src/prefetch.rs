//! Prefetch requests and provenance.
//!
//! Every in-flight prefetch carries *where it came from*: the line it
//! targets, the PC of the instruction that triggered it, and which generator
//! produced it. The pollution filter needs the line address (PA-based
//! indexing) and the trigger PC (PC-based indexing) both at issue time (table
//! lookup) and at eviction time (table update), so the provenance travels
//! with the cache line as [`PrefetchOrigin`] — the software analogue of the
//! "separate data path" for the PC that §4.2 of the paper describes.

use crate::addr::{Addr, LineAddr, Pc};
use crate::json_unit_enum;

/// Maximum number of distinct tenants the machine distinguishes. Sized for
/// the adversarial multi-program experiments (victim + aggressor, with two
/// spare IDs); tenant IDs wrap modulo `MAX_TENANTS`.
pub const MAX_TENANTS: usize = 4;

/// Bit position, in a *byte* address, of the tenant ID field. The
/// multi-program interleave workloads place each tenant in its own
/// address-space region by offsetting every address (and PC) of tenant `t`
/// by `t << TENANT_ADDR_SHIFT`; everything below that bit is ordinary
/// workload footprint. Single-program workloads never set these bits, so
/// they are all tenant 0 and behave exactly as before.
pub const TENANT_ADDR_SHIFT: u32 = 41;

/// Saturation bound for [`PrefetchRequest::depth`] when it feeds a filter
/// feature table: depths beyond this are indistinguishable ("very deep").
pub const MAX_PREFETCH_DEPTH: u8 = 15;

/// The tenant ID encoded in a byte address (0 for every pre-existing
/// workload). This is the *only* place a tenant is ever derived; from here
/// it is threaded explicitly through [`PrefetchRequest`] →
/// [`PrefetchOrigin`] → cache-line provenance → eviction feedback.
#[inline]
pub fn tenant_of_addr(addr: Addr) -> u8 {
    ((addr >> TENANT_ADDR_SHIFT) as usize & (MAX_TENANTS - 1)) as u8
}

/// Which generator produced a prefetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrefetchSource {
    /// Next-Sequence Prefetching: tagged next-line prefetch (Smith, 1982).
    Nsp,
    /// Shadow-Directory Prefetching (Pomerene et al., 1989).
    Sdp,
    /// Reference-prediction-table stride prefetcher (Chen & Baer, 1995).
    /// Extension beyond the paper, used in ablations.
    Stride,
    /// Compiler-inserted software prefetch instruction, identified in the LSQ.
    Software,
}

impl PrefetchSource {
    /// Stable index for per-source statistics arrays.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            PrefetchSource::Nsp => 0,
            PrefetchSource::Sdp => 1,
            PrefetchSource::Stride => 2,
            PrefetchSource::Software => 3,
        }
    }

    /// Number of distinct sources (length of per-source stats arrays).
    pub const COUNT: usize = 4;

    /// All sources, in `index()` order.
    pub const ALL: [PrefetchSource; Self::COUNT] = [
        PrefetchSource::Nsp,
        PrefetchSource::Sdp,
        PrefetchSource::Stride,
        PrefetchSource::Software,
    ];

    /// Short human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            PrefetchSource::Nsp => "nsp",
            PrefetchSource::Sdp => "sdp",
            PrefetchSource::Stride => "stride",
            PrefetchSource::Software => "software",
        }
    }
}

json_unit_enum!(PrefetchSource {
    Nsp,
    Sdp,
    Stride,
    Software
});

/// A candidate prefetch emitted by a generator, before filtering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchRequest {
    /// Target cache line.
    pub line: LineAddr,
    /// PC of the triggering instruction (the software prefetch instruction
    /// itself, or the memory instruction that tripped a hardware prefetcher).
    pub trigger_pc: Pc,
    /// Generator that produced the request.
    pub source: PrefetchSource,
    /// Tenant whose demand traffic triggered the request (0 outside the
    /// multi-program experiments). Assigned once at the memory-system
    /// boundary from the triggering access's address region, then carried
    /// unchanged through filtering, queueing and the cache-line provenance
    /// so eviction feedback is charged to the tenant that caused it.
    pub tenant: u8,
    /// Prefetch depth: how far ahead of the triggering access this request
    /// reaches, in generator steps (degree-`d` NSP emits depths `1..=d`,
    /// SDP's shadow step is depth 1, software prefetches are depth 0).
    /// Deeper requests are more speculative; the perceptron filter uses the
    /// depth as a confidence feature (DESIGN.md §15). Clamped to
    /// [`MAX_PREFETCH_DEPTH`] when used as a feature.
    pub depth: u8,
}

impl PrefetchRequest {
    /// Provenance record to attach to the cache line once the prefetch fills.
    #[inline]
    pub fn origin(&self) -> PrefetchOrigin {
        PrefetchOrigin {
            line: self.line,
            trigger_pc: self.trigger_pc,
            source: self.source,
            tenant: self.tenant,
            depth: self.depth,
        }
    }
}

/// Provenance stored with a prefetched cache line for eviction-time feedback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchOrigin {
    /// The line that was prefetched (PA-based filter index).
    pub line: LineAddr,
    /// The triggering PC (PC-based filter index).
    pub trigger_pc: Pc,
    /// Generator that produced the prefetch.
    pub source: PrefetchSource,
    /// Tenant the prefetch is charged to (see [`PrefetchRequest::tenant`]).
    pub tenant: u8,
    /// Prefetch depth at issue (see [`PrefetchRequest::depth`]).
    pub depth: u8,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_indices_are_dense_and_distinct() {
        let mut seen = [false; PrefetchSource::COUNT];
        for s in PrefetchSource::ALL {
            assert!(!seen[s.index()], "duplicate index for {:?}", s);
            seen[s.index()] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn all_is_in_index_order() {
        for (i, s) in PrefetchSource::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
    }

    #[test]
    fn origin_copies_request_fields() {
        let req = PrefetchRequest {
            line: LineAddr(77),
            trigger_pc: 0x4000,
            source: PrefetchSource::Sdp,
            tenant: 2,
            depth: 3,
        };
        let o = req.origin();
        assert_eq!(o.line, req.line);
        assert_eq!(o.trigger_pc, req.trigger_pc);
        assert_eq!(o.source, req.source);
        assert_eq!(o.tenant, req.tenant);
        assert_eq!(o.depth, req.depth);
    }

    #[test]
    fn tenant_derivation_matches_region_layout() {
        assert_eq!(tenant_of_addr(0), 0);
        assert_eq!(tenant_of_addr(0x3000_0000), 0, "ordinary workload region");
        for t in 0..MAX_TENANTS as u64 {
            let base = t << TENANT_ADDR_SHIFT;
            assert_eq!(tenant_of_addr(base), t as u8);
            assert_eq!(tenant_of_addr(base + 0x1234_5678), t as u8);
        }
        // IDs wrap modulo MAX_TENANTS rather than escaping the arrays.
        assert!((tenant_of_addr(u64::MAX) as usize) < MAX_TENANTS);
    }

    #[test]
    fn names_are_unique() {
        let names: Vec<_> = PrefetchSource::ALL.iter().map(|s| s.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }
}
