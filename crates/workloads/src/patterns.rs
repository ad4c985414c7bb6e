//! Reusable address-pattern generators.
//!
//! Each [`PatternSpec`] describes a region of the simulated address space
//! and a traversal discipline over it. The pattern kinds map to the access
//! behaviours of the paper's benchmark families:
//!
//! * [`PatternKind::Strided`] — affine array sweeps (wave5, fpppp, the body
//!   array of bh): perfectly analyzable, so compilers insert software
//!   prefetches and NSP's next-line guesses are usually right.
//! * [`PatternKind::Blocked2d`] — tiled image traversal (ijpeg): strided
//!   within a block row, jumping between rows/blocks.
//! * [`PatternKind::PointerChase`] — linked structures (em3d, perimeter,
//!   mcf, the tree of bh): the next node is unpredictable from the current
//!   address, so next-line prefetches are mostly pollution. Implemented as
//!   a full-period LCG walk over node indices — deterministic, O(1) state,
//!   and as opaque to a stride/next-line predictor as a real heap walk.
//! * [`PatternKind::Uniform`] — irregular accesses with no structure at all
//!   (gcc's symbol tables and allocator).
//! * [`PatternKind::Stream`] — forward streaming with window re-reads
//!   (gzip's dictionary window).

use ppf_types::rng::Threshold;
use ppf_types::{Addr, Pc, SplitMix64};

/// Traversal discipline over a pattern's region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PatternKind {
    /// Affine sweep: `addr += stride`, wrapping within the footprint.
    Strided {
        /// Byte stride per access (may be negative).
        stride: i64,
    },
    /// Several concurrent affine streams advancing in lock-step, the way a
    /// loop body walks `a[i]`, `b[i]`, `c[i]` together. Each stream owns a
    /// slice of the footprint at a seeded, line-aligned jitter offset, so
    /// some stream pairs persistently conflict in a direct-mapped L1 —
    /// the cross-stream eviction that makes some prefetches reliably die
    /// before use while others reliably survive (what a per-address
    /// pollution filter learns).
    MultiStream {
        /// Byte stride per access within each stream.
        stride: i64,
        /// Number of concurrent streams (round-robin).
        streams: u8,
    },
    /// Tiled 2D traversal: sequential `elem`-byte accesses along a block
    /// row, then the next row of the tile (one `row_bytes` jump), then the
    /// next tile.
    Blocked2d {
        /// Bytes per full image row.
        row_bytes: u64,
        /// Tile width in bytes.
        block_w: u64,
        /// Tile height in rows.
        block_h: u64,
        /// Element size in bytes.
        elem: u64,
    },
    /// Linked-structure walk. Nodes are visited in sequential *runs* of
    /// `run` nodes (heap allocators place list/tree nodes in allocation
    /// order, so real pointer chases have bursts of sequentiality); the
    /// runs themselves are visited in a full-period LCG permutation. The
    /// whole traversal is a fixed permutation of the nodes, so each line's
    /// position (run-interior vs run-boundary) — and therefore the fate of
    /// a next-line prefetch for it — is *stable across periods*, which is
    /// the per-address consistency a pollution filter learns. `run = 1`
    /// gives a maximally irregular walk. Each node visit touches `fields`
    /// consecutive 8-byte fields.
    PointerChase {
        /// Bytes per node (node index × this = node offset).
        node_bytes: u64,
        /// 8-byte fields referenced per node visit.
        fields: u8,
        /// Nodes per sequential (allocation-order) run. Power of two.
        run: u16,
    },
    /// Uniformly random accesses within the footprint.
    Uniform,
    /// Random starting points followed by short sequential runs — LZ77
    /// match copying (gzip's dictionary window), string operations, small
    /// struct copies. Next-line prefetches on these are right about half
    /// the time, unlike pure `Uniform` where they are always wrong.
    BurstUniform {
        /// Byte stride within a run.
        stride: u64,
        /// Accesses per run before re-seeding the position.
        run: u16,
    },
    /// Forward byte stream with occasional re-reads of a trailing window.
    Stream {
        /// Bytes advanced per fresh access.
        advance: u64,
        /// Trailing window size for re-reads.
        window: u64,
        /// Probability an access is a window re-read instead of fresh.
        reread_p: f64,
    },
}

/// Software-prefetch behaviour a compiler would attach to a pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwPrefetchSpec {
    /// Prefetch this many bytes ahead of the current position.
    pub lead_bytes: u64,
    /// Emit a prefetch every `every`-th pattern access.
    pub every: u32,
}

/// One address pattern inside a workload mixture.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternSpec {
    /// Diagnostic name ("tree-walk", "pixels", ...).
    pub name: &'static str,
    /// Traversal discipline.
    pub kind: PatternKind,
    /// Region base address (regions must not overlap across patterns).
    pub base: Addr,
    /// Region size in bytes.
    pub footprint: u64,
    /// Relative selection weight among the workload's memory accesses.
    pub weight: f64,
    /// Fraction of this pattern's accesses that are stores.
    pub store_frac: f64,
    /// Base PC of the instructions touching this pattern.
    pub pc_base: Pc,
    /// Number of distinct PCs (rotated round-robin) touching the pattern.
    pub n_pcs: u16,
    /// Pointer loads carry a serial dependency on the previous access of
    /// the same pattern (load-use chains — the pointer-chasing tax).
    pub serial_dep: bool,
    /// Compiler-inserted prefetch behaviour, if the pattern is analyzable.
    pub sw_prefetch: Option<SwPrefetchSpec>,
}

impl PatternSpec {
    /// A convenience constructor with the common defaults (loads only, 4
    /// PCs, no software prefetch, no serial dependency).
    pub fn new(
        name: &'static str,
        kind: PatternKind,
        base: Addr,
        footprint: u64,
        weight: f64,
    ) -> Self {
        PatternSpec {
            name,
            kind,
            base,
            footprint,
            weight,
            store_frac: 0.0,
            pc_base: 0x1000,
            n_pcs: 4,
            serial_dep: false,
            sw_prefetch: None,
        }
    }

    /// Reject what a stream would otherwise trip over mid-run: a zero
    /// footprint, a pointer-chase run that is not a power of two, a
    /// re-read window of zero bytes when re-reads can happen, and a
    /// probability outside \[0, 1\] (or NaN).
    pub(crate) fn validate(&self) -> Result<(), String> {
        let name = self.name;
        if self.footprint == 0 {
            return Err(format!("pattern {name}: zero footprint"));
        }
        probability("store_frac", self.store_frac).map_err(|e| format!("pattern {name}: {e}"))?;
        match self.kind {
            PatternKind::PointerChase { run, .. } if !run.max(1).is_power_of_two() => Err(format!(
                "pattern {name}: chase run {run} is not a power of two"
            )),
            PatternKind::Stream {
                window, reread_p, ..
            } => {
                probability("reread_p", reread_p).map_err(|e| format!("pattern {name}: {e}"))?;
                if window == 0 && reread_p > 0.0 {
                    return Err(format!("pattern {name}: re-reads from a zero-byte window"));
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }
}

/// `Ok` when `p` is a probability in \[0, 1\]; NaN is not.
pub(crate) fn probability(field: &str, p: f64) -> Result<(), String> {
    if (0.0..=1.0).contains(&p) {
        Ok(())
    } else {
        Err(format!("{field} = {p} is not a probability in [0, 1]"))
    }
}

/// One emitted access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatternAccess {
    /// Byte address referenced.
    pub addr: Addr,
    /// PC of the referencing instruction.
    pub pc: Pc,
    /// Store (vs load)?
    pub is_store: bool,
    /// Address a software prefetch should target, when due this access.
    pub prefetch: Option<Addr>,
}

/// `x % m`, without the division when `x` is already in range.
#[inline]
fn wrap(x: u64, m: u64) -> u64 {
    if x < m {
        x
    } else {
        x % m
    }
}

/// `(pos + delta).rem_euclid(m)`, without the division when the step stays
/// in `[0, m)`.
#[inline]
fn step(pos: u64, delta: i64, m: u64) -> u64 {
    let next = pos as i64 + delta;
    if 0 <= next && next < m as i64 {
        next as u64
    } else {
        next.rem_euclid(m as i64) as u64
    }
}

/// Blocked-2D geometry, with the per-band constants worked out once.
#[derive(Debug, Clone, Copy)]
struct Tiling {
    row_bytes: u64,
    block_w: u64,
    block_h: u64,
    elem: u64,
    /// Tiles per band of `block_h` rows: `row_bytes / block_w`, at least 1.
    tiles_per_band: u64,
    /// Bytes per band, reduced modulo the footprint.
    band_bytes: u64,
}

/// A blocked-2D cursor.
#[derive(Debug, Clone, Copy, Default)]
struct Tile {
    /// Offset of the current band, reduced modulo the footprint.
    band: u64,
    /// Tile within the band.
    tile: u64,
    /// Row within the tile.
    row: u64,
    /// Byte column within the tile row.
    col: u64,
}

impl Tiling {
    /// Byte offset of `cursor` within a region of `footprint` bytes.
    #[inline]
    fn offset(&self, cursor: Tile, footprint: u64) -> u64 {
        wrap(
            cursor.band + cursor.row * self.row_bytes + cursor.tile * self.block_w + cursor.col,
            footprint,
        )
    }

    /// Advance `cursor` by one `elem`-byte element: column, then row within
    /// the tile, then the next tile, then the next band.
    #[inline]
    fn advance(&self, mut cursor: Tile, footprint: u64) -> Tile {
        cursor.col += self.elem;
        if cursor.col >= self.block_w {
            cursor.col = 0;
            cursor.row += 1;
            if cursor.row >= self.block_h {
                cursor.row = 0;
                cursor.tile += 1;
                if cursor.tile == self.tiles_per_band {
                    cursor.tile = 0;
                    cursor.band = wrap(cursor.band + self.band_bytes, footprint);
                }
            }
        }
        cursor
    }
}

/// Traversal state of one pattern kind, beside the kind's derived
/// constants, so that an access needs no division.
#[derive(Debug, Clone)]
enum Walk {
    Strided {
        stride: i64,
        /// Current byte offset within the region.
        pos: u64,
    },
    MultiStream {
        stride: i64,
        /// Bytes each stream cycles through: half its slice, at least 1.
        walk: u64,
        /// Stream count, at least 1.
        streams: u8,
        /// Which stream the next access uses.
        rotor: u8,
        /// Per-stream byte offsets within the stream's walk.
        pos: Vec<u64>,
        /// Per-stream base offsets (slice start + seeded jitter).
        base: Vec<u64>,
    },
    Blocked2d {
        tiling: Tiling,
        cursor: Tile,
    },
    PointerChase {
        node_bytes: u64,
        fields: u8,
        /// `run - 1` and `log2(run)`: runs are powers of two.
        run_mask: u64,
        run_shift: u32,
        /// Run count minus one, the LCG's power-of-two modulus mask.
        runs_mask: u64,
        /// Current node index (LCG state).
        node: u64,
        /// Next field to touch; 0 = advance to a new node.
        field: u8,
    },
    Uniform,
    BurstUniform {
        stride: u64,
        run: u16,
        /// Offset the current run started at.
        start: u64,
        /// Accesses made in the current run; 0 = start a new run.
        cursor: u8,
    },
    Stream {
        advance: u64,
        window: u64,
        /// `reread_p` as a draw threshold.
        reread: Threshold,
        /// Current byte offset within the region.
        pos: u64,
    },
}

/// Runtime state for a [`PatternSpec`].
#[derive(Debug, Clone)]
pub struct PatternState {
    spec: PatternSpec,
    walk: Walk,
    /// `spec.store_frac` as a draw threshold.
    store: Threshold,
    /// `spec.n_pcs`, at least 1.
    n_pcs: u16,
    /// Round-robin PC cursor.
    pc_rotor: u16,
    /// Accesses left until a software prefetch is due: counts down from
    /// `SwPrefetchSpec::every`, so every `every`-th access prefetches.
    prefetch_countdown: u32,
}

impl PatternState {
    /// Initialize traversal state for `spec`.
    pub fn new(spec: PatternSpec) -> Self {
        let walk = match spec.kind {
            PatternKind::Strided { stride } => Walk::Strided { stride, pos: 0 },
            PatternKind::MultiStream { stride, streams } => {
                let n = streams.max(1) as u64;
                let slice = spec.footprint / n;
                let base = (0..n)
                    .map(|k| {
                        // Seeded, line-aligned jitter within the first half
                        // of the slice; deterministic per (region, stream).
                        let h = (spec.base ^ (k.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
                            .wrapping_mul(0xff51_afd7_ed55_8ccd);
                        let jitter = (h % (slice / 2).max(1)) & !31;
                        k * slice + jitter
                    })
                    .collect();
                Walk::MultiStream {
                    stride,
                    walk: (slice / 2).max(1),
                    streams: streams.max(1),
                    rotor: 0,
                    pos: vec![0; n as usize],
                    base,
                }
            }
            PatternKind::Blocked2d {
                row_bytes,
                block_w,
                block_h,
                elem,
            } => Walk::Blocked2d {
                tiling: Tiling {
                    row_bytes,
                    block_w,
                    block_h,
                    elem,
                    tiles_per_band: (row_bytes / block_w).max(1),
                    band_bytes: block_h * row_bytes % spec.footprint,
                },
                cursor: Tile::default(),
            },
            PatternKind::PointerChase {
                node_bytes,
                fields,
                run,
            } => {
                assert!(run.max(1).is_power_of_two(), "chase run must be 2^k");
                let run = run.max(1) as u64;
                let n = spec.footprint / node_bytes.max(1);
                // Round down to a power of two so the LCG has full period.
                let n = if n < 2 {
                    2
                } else {
                    1u64 << (63 - n.leading_zeros())
                };
                let node_count = n.max(run * 2);
                let run_shift = run.trailing_zeros();
                Walk::PointerChase {
                    node_bytes,
                    fields,
                    run_mask: run - 1,
                    run_shift,
                    runs_mask: (node_count >> run_shift) - 1,
                    node: 1,
                    field: 0,
                }
            }
            PatternKind::Uniform => Walk::Uniform,
            PatternKind::BurstUniform { stride, run } => Walk::BurstUniform {
                stride,
                run,
                start: 0,
                cursor: 0,
            },
            PatternKind::Stream {
                advance,
                window,
                reread_p,
            } => Walk::Stream {
                advance,
                window,
                reread: Threshold::new(reread_p),
                pos: 0,
            },
        };
        PatternState {
            walk,
            store: Threshold::new(spec.store_frac),
            n_pcs: spec.n_pcs.max(1),
            pc_rotor: 0,
            prefetch_countdown: spec.sw_prefetch.map_or(0, |p| p.every.max(1)),
            spec,
        }
    }

    /// The pattern's spec.
    pub fn spec(&self) -> &PatternSpec {
        &self.spec
    }

    /// Whether accesses carry a serial dependency.
    pub fn serial_dep(&self) -> bool {
        self.spec.serial_dep
    }

    /// Produce the next access of this pattern.
    #[inline]
    pub fn next_access(&mut self, rng: &mut SplitMix64) -> PatternAccess {
        let footprint = self.spec.footprint;
        // The lead of a software prefetch due this access; the lookahead
        // address is only worked out then.
        let lead = match self.spec.sw_prefetch {
            Some(p) => {
                self.prefetch_countdown -= 1;
                if self.prefetch_countdown == 0 {
                    self.prefetch_countdown = p.every.max(1);
                    Some(p.lead_bytes)
                } else {
                    None
                }
            }
            None => None,
        };
        let (offset, lookahead) = match &mut self.walk {
            Walk::Strided { stride, pos } => {
                let off = *pos;
                *pos = step(off, *stride, footprint);
                let ahead = lead.map(|l| step(off, l as i64 * stride.signum(), footprint));
                (off, ahead)
            }
            Walk::MultiStream {
                stride,
                walk,
                streams,
                rotor,
                pos,
                base,
            } => {
                let k = *rotor as usize;
                let next = *rotor + 1;
                *rotor = if next == *streams { 0 } else { next };
                let off_in_stream = pos[k];
                pos[k] = step(off_in_stream, *stride, *walk);
                let ahead = lead.map(|l| {
                    let a = step(off_in_stream, l as i64 * stride.signum(), *walk);
                    wrap(base[k] + a, footprint)
                });
                (wrap(base[k] + off_in_stream, footprint), ahead)
            }
            Walk::Blocked2d { tiling, cursor } => {
                let off = tiling.offset(*cursor, footprint);
                *cursor = tiling.advance(*cursor, footprint);
                // The compiler's lookahead follows the *traversal*, not the
                // linear address space: walk the cursor forward by the lead
                // distance in elements.
                let ahead = lead.map(|l| {
                    let steps = (l / tiling.elem.max(1)).max(1);
                    let mut cur = *cursor;
                    for _ in 1..steps {
                        cur = tiling.advance(cur, footprint);
                    }
                    tiling.offset(cur, footprint)
                });
                (off, ahead)
            }
            Walk::PointerChase {
                node_bytes,
                fields,
                run_mask,
                run_shift,
                runs_mask,
                node,
                field,
            } => {
                // `node` encodes the walk state: low bits = position in the
                // current sequential run, high bits = run index. The next
                // node continues the allocation-order run, or at the run's
                // end jumps to the next run: a full-period LCG over the run
                // indices (multiplier ≡ 1 mod 4, odd increment,
                // power-of-two modulus). Both candidates are computed and
                // selected, as is whether a new node is due at all.
                let next_run = ((*node >> *run_shift)
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407)
                    & *runs_mask)
                    << *run_shift;
                let stepped = if *node & *run_mask == *run_mask {
                    next_run
                } else {
                    *node + 1
                };
                let advance = (*field == 0) | (*field >= *fields);
                *node = if advance { stepped } else { *node };
                *field = if advance { 0 } else { *field };
                let off = *node * *node_bytes + 8 * *field as u64;
                *field += 1;
                // Pointer chains are not statically analyzable: no lookahead.
                (wrap(off, footprint), None)
            }
            Walk::Uniform => (rng.below(footprint), None),
            Walk::BurstUniform {
                stride,
                run,
                start,
                cursor,
            } => {
                // A new run starts at a random offset once `run` accesses
                // are done; the draw is only taken then.
                let restart = (*cursor == 0) | (*cursor as u16 >= *run);
                let fresh = rng.below_if(restart, footprint);
                *start = if restart { fresh } else { *start };
                *cursor = if restart { 0 } else { *cursor };
                let off = wrap(*start + *cursor as u64 * *stride, footprint);
                *cursor += 1;
                (off, None)
            }
            Walk::Stream {
                advance,
                window,
                reread,
                pos,
            } => {
                // The re-read draw is taken on every access.
                if rng.hit(*reread) && *pos > 0 {
                    let back = rng.below((*window).min(*pos)) + 1;
                    (wrap(*pos - back, footprint), None)
                } else {
                    let off = *pos;
                    *pos = wrap(off + *advance, footprint);
                    (off, lead.map(|l| wrap(off + l, footprint)))
                }
            }
        };
        let pc = self.spec.pc_base + 4 * self.pc_rotor as u64;
        let next = self.pc_rotor + 1;
        self.pc_rotor = if next == self.n_pcs { 0 } else { next };
        PatternAccess {
            addr: self.spec.base + offset,
            pc,
            is_store: rng.hit(self.store),
            prefetch: lookahead.map(|o| self.spec.base + o),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SplitMix64 {
        SplitMix64::new(42)
    }

    #[test]
    fn strided_advances_by_stride_and_wraps() {
        let spec = PatternSpec::new("s", PatternKind::Strided { stride: 64 }, 0x1000, 256, 1.0);
        let mut st = PatternState::new(spec);
        let mut r = rng();
        let addrs: Vec<Addr> = (0..6).map(|_| st.next_access(&mut r).addr).collect();
        assert_eq!(addrs, vec![0x1000, 0x1040, 0x1080, 0x10c0, 0x1000, 0x1040]);
    }

    #[test]
    fn strided_negative_stride() {
        let spec = PatternSpec::new("s", PatternKind::Strided { stride: -32 }, 0x0, 128, 1.0);
        let mut st = PatternState::new(spec);
        let mut r = rng();
        let addrs: Vec<Addr> = (0..4).map(|_| st.next_access(&mut r).addr).collect();
        assert_eq!(addrs, vec![0, 96, 64, 32]);
    }

    #[test]
    fn strided_prefetch_leads_position() {
        let mut spec = PatternSpec::new("s", PatternKind::Strided { stride: 32 }, 0, 1 << 20, 1.0);
        spec.sw_prefetch = Some(SwPrefetchSpec {
            lead_bytes: 256,
            every: 1,
        });
        let mut st = PatternState::new(spec);
        let mut r = rng();
        let a = st.next_access(&mut r);
        assert_eq!(a.prefetch, Some(a.addr + 256));
    }

    #[test]
    fn prefetch_every_n() {
        let mut spec = PatternSpec::new("s", PatternKind::Strided { stride: 32 }, 0, 1 << 20, 1.0);
        spec.sw_prefetch = Some(SwPrefetchSpec {
            lead_bytes: 128,
            every: 4,
        });
        let mut st = PatternState::new(spec);
        let mut r = rng();
        let emitted: Vec<bool> = (0..8)
            .map(|_| st.next_access(&mut r).prefetch.is_some())
            .collect();
        assert_eq!(emitted.iter().filter(|&&b| b).count(), 2, "{emitted:?}");
    }

    #[test]
    fn pointer_chase_covers_many_nodes_unpredictably() {
        let spec = PatternSpec::new(
            "chase",
            PatternKind::PointerChase {
                node_bytes: 64,
                fields: 1,
                run: 1,
            },
            0,
            64 * 1024,
            1.0,
        );
        let mut st = PatternState::new(spec);
        let mut r = rng();
        let addrs: Vec<Addr> = (0..1024).map(|_| st.next_access(&mut r).addr).collect();
        // Coverage: visits most of the 1024 nodes within one period.
        let mut nodes: Vec<u64> = addrs.iter().map(|a| a / 64).collect();
        nodes.sort_unstable();
        nodes.dedup();
        assert!(
            nodes.len() == 1024,
            "full-period LCG covers all nodes: {}",
            nodes.len()
        );
        // Unpredictability: consecutive deltas are almost never constant.
        let constant_deltas = addrs
            .windows(3)
            .filter(|w| w[1].wrapping_sub(w[0]) == w[2].wrapping_sub(w[1]))
            .count();
        assert!(constant_deltas < 20, "{constant_deltas} repeated strides");
    }

    #[test]
    fn pointer_chase_fields_share_a_node() {
        let spec = PatternSpec::new(
            "chase",
            PatternKind::PointerChase {
                node_bytes: 64,
                fields: 3,
                run: 1,
            },
            0,
            64 * 1024,
            1.0,
        );
        let mut st = PatternState::new(spec);
        let mut r = rng();
        let addrs: Vec<Addr> = (0..9).map(|_| st.next_access(&mut r).addr).collect();
        // Groups of 3 share the node base.
        for g in addrs.chunks(3) {
            assert_eq!(g[0] / 64, g[1] / 64);
            assert_eq!(g[1] / 64, g[2] / 64);
            assert_eq!(g[1] - g[0], 8);
            assert_eq!(g[2] - g[1], 8);
        }
    }

    #[test]
    fn uniform_stays_in_region() {
        let spec = PatternSpec::new("u", PatternKind::Uniform, 0x10_0000, 4096, 1.0);
        let mut st = PatternState::new(spec);
        let mut r = rng();
        for _ in 0..1000 {
            let a = st.next_access(&mut r).addr;
            assert!((0x10_0000..0x10_1000).contains(&a));
        }
    }

    #[test]
    fn stream_advances_with_rereads_behind() {
        let spec = PatternSpec::new(
            "z",
            PatternKind::Stream {
                advance: 16,
                window: 4096,
                reread_p: 0.5,
            },
            0,
            1 << 24,
            1.0,
        );
        let mut st = PatternState::new(spec);
        let mut r = rng();
        let mut max_fresh = 0u64;
        let mut rereads = 0;
        let mut fresh = 0;
        for _ in 0..4000 {
            let a = st.next_access(&mut r).addr;
            if a >= max_fresh {
                max_fresh = a;
                fresh += 1;
            } else {
                rereads += 1;
                assert!(max_fresh - a <= 4096 + 16, "re-read within window");
            }
        }
        assert!(
            fresh > 1000 && rereads > 1000,
            "fresh={fresh} rereads={rereads}"
        );
    }

    #[test]
    fn blocked2d_walks_tile_rows() {
        let spec = PatternSpec::new(
            "img",
            PatternKind::Blocked2d {
                row_bytes: 1024,
                block_w: 32,
                block_h: 4,
                elem: 8,
            },
            0,
            1 << 20,
            1.0,
        );
        let mut st = PatternState::new(spec);
        let mut r = rng();
        let addrs: Vec<Addr> = (0..8).map(|_| st.next_access(&mut r).addr).collect();
        // First block row: 32/8 = 4 sequential elements...
        assert_eq!(&addrs[0..4], &[0, 8, 16, 24]);
        // ...then the next row of the tile, one image row below.
        assert_eq!(&addrs[4..8], &[1024, 1032, 1040, 1048]);
    }

    #[test]
    fn pc_rotation() {
        let mut spec = PatternSpec::new("s", PatternKind::Strided { stride: 8 }, 0, 4096, 1.0);
        spec.pc_base = 0x4000;
        spec.n_pcs = 3;
        let mut st = PatternState::new(spec);
        let mut r = rng();
        let pcs: Vec<Pc> = (0..6).map(|_| st.next_access(&mut r).pc).collect();
        assert_eq!(pcs, vec![0x4000, 0x4004, 0x4008, 0x4000, 0x4004, 0x4008]);
    }

    #[test]
    fn stores_follow_fraction() {
        let mut spec = PatternSpec::new("s", PatternKind::Strided { stride: 8 }, 0, 1 << 16, 1.0);
        spec.store_frac = 0.3;
        let mut st = PatternState::new(spec);
        let mut r = rng();
        let stores = (0..10_000)
            .filter(|_| st.next_access(&mut r).is_store)
            .count();
        assert!((2_500..3_500).contains(&stores), "{stores}");
    }

    #[test]
    fn multistream_round_robins_lockstep_streams() {
        let spec = PatternSpec::new(
            "ms",
            PatternKind::MultiStream {
                stride: 16,
                streams: 3,
            },
            0,
            3 * 64 * 1024,
            1.0,
        );
        let mut st = PatternState::new(spec);
        let mut r = rng();
        let addrs: Vec<Addr> = (0..9).map(|_| st.next_access(&mut r).addr).collect();
        // Three interleaved streams: every third access advances the same
        // stream by exactly the stride.
        for k in 0..3 {
            assert_eq!(addrs[k + 3] - addrs[k], 16, "stream {k} advances by stride");
            assert_eq!(addrs[k + 6] - addrs[k + 3], 16);
        }
        // Streams occupy disjoint slices.
        let slice = 64 * 1024;
        let slots: Vec<u64> = addrs[..3].iter().map(|a| a / slice).collect();
        assert_eq!(slots, vec![0, 1, 2]);
    }

    #[test]
    fn multistream_prefetch_leads_its_own_stream() {
        let mut spec = PatternSpec::new(
            "ms",
            PatternKind::MultiStream {
                stride: 16,
                streams: 2,
            },
            0,
            2 * 64 * 1024,
            1.0,
        );
        spec.sw_prefetch = Some(SwPrefetchSpec {
            lead_bytes: 64,
            every: 1,
        });
        let mut st = PatternState::new(spec);
        let mut r = rng();
        for _ in 0..8 {
            let a = st.next_access(&mut r);
            let p = a.prefetch.expect("every access prefetches");
            // The lookahead stays in the same stream's slice and leads by
            // lead_bytes * signum(stride) (modulo the stream walk).
            assert_eq!(p / (64 * 1024), a.addr / (64 * 1024), "same slice");
        }
    }

    #[test]
    fn burst_uniform_runs_are_sequential() {
        let spec = PatternSpec::new(
            "burst",
            PatternKind::BurstUniform { stride: 8, run: 4 },
            0,
            1 << 20,
            1.0,
        );
        let mut st = PatternState::new(spec);
        let mut r = rng();
        let addrs: Vec<Addr> = (0..12).map(|_| st.next_access(&mut r).addr).collect();
        // Within each run of 4, consecutive deltas are exactly the stride.
        for run in addrs.chunks(4) {
            assert_eq!(run[1] - run[0], 8);
            assert_eq!(run[2] - run[1], 8);
            assert_eq!(run[3] - run[2], 8);
        }
        // Across runs the jump is (almost surely) not the stride.
        assert_ne!(addrs[4].wrapping_sub(addrs[3]), 8);
    }

    #[test]
    fn chase_runs_are_sequential_in_node_space() {
        let spec = PatternSpec::new(
            "chase",
            PatternKind::PointerChase {
                node_bytes: 32,
                fields: 1,
                run: 4,
            },
            0,
            32 * 1024,
            1.0,
        );
        let mut st = PatternState::new(spec);
        let mut r = rng();
        let nodes: Vec<u64> = (0..64).map(|_| st.next_access(&mut r).addr / 32).collect();
        // Count sequential steps: with run=4, ~3/4 of transitions are +1.
        let seq = nodes.windows(2).filter(|w| w[1] == w[0] + 1).count();
        assert!(seq >= 40, "allocation-order runs visible ({seq}/63)");
        // And the traversal still covers distinct nodes (it is a
        // permutation walk, not a loop).
        let mut uniq = nodes.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert!(uniq.len() >= 60, "{} unique nodes", uniq.len());
    }

    #[test]
    fn determinism_per_seed() {
        let spec = PatternSpec::new("u", PatternKind::Uniform, 0, 1 << 20, 1.0);
        let mut a = PatternState::new(spec.clone());
        let mut b = PatternState::new(spec);
        let mut ra = SplitMix64::new(5);
        let mut rb = SplitMix64::new(5);
        for _ in 0..100 {
            assert_eq!(a.next_access(&mut ra), b.next_access(&mut rb));
        }
    }
}
