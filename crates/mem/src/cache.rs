//! Set-associative cache with the paper's per-line PIB/RIB metadata.
//!
//! Each line carries, beyond the usual valid/tag/dirty state:
//!
//! * **PIB** — Prefetch Indication Bit: line was brought in by a prefetch.
//! * **RIB** — Reference Indication Bit: a prefetched line was referenced at
//!   least once during its residency (valid only while PIB is set).
//! * The full [`PrefetchOrigin`] (target line, trigger PC, source), which is
//!   what lets eviction-time feedback reach the right history-table entry.
//! * The **NSP tag bit** used by next-sequence prefetching: set on prefetch
//!   fill, consumed by the first demand hit to re-trigger the prefetcher.
//! * The **fill-ready cycle**: the cycle the line's data arrives. Every
//!   fill writes it, and the hierarchy holds every hit to it, so a line
//!   that is functionally resident but still in flight is never served
//!   early. Refilling a resident line keeps the later of the two cycles
//!   (the merge rule of an outstanding-miss register).
//!
//! The eviction report [`Evicted`] is the filter's only training input, as in
//! the paper: "Whenever a cache line is replaced and evicted from the L1, its
//! corresponding PIB is checked... The address of the cache line or the PC
//! together with the RIB are passed to the pollution filter" (§4).
//!
//! Storage is struct-of-arrays over zero-initialized primitive vectors
//! (DESIGN.md §5): an all-zero way is an invalid line, so `vec![0; n]`
//! (calloc) builds an empty cache without writing a slot. Provenance lives
//! in an array that only prefetch fills write and that is read only while
//! the line's PIB is set; fill-ready cycles live in an array that the first
//! fill carrying a nonzero cycle sizes.

use ppf_types::{CacheConfig, Cycle, LineAddr, PrefetchOrigin};

/// How a line is being filled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillKind {
    /// Demand miss fill: PIB = 0.
    Demand,
    /// Prefetch fill: PIB = 1, RIB = 0, provenance attached, NSP tag set.
    Prefetch(PrefetchOrigin),
}

/// What a successful probe saw (state *before* the probe's side effects).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeHit {
    /// The line was brought in by a prefetch (PIB set).
    pub was_prefetched: bool,
    /// This probe is the line's first reference since the prefetch fill
    /// (the RIB 0→1 edge) — the paper's "good prefetch" moment.
    pub first_use: bool,
    /// The NSP tag bit was set; the probe consumed (cleared) it.
    pub nsp_tagged: bool,
    /// The line's fill-ready cycle: the hit's data is not usable earlier.
    pub ready: Cycle,
}

/// Eviction report passed to the pollution filter, and the record a side
/// store (prefetch buffer, victim cache) holds for a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// The evicted line.
    pub line: LineAddr,
    /// Line was dirty (writeback needed).
    pub dirty: bool,
    /// If the line was prefetched: its provenance and whether it was ever
    /// referenced (the RIB value at eviction).
    pub prefetch: Option<(PrefetchOrigin, bool)>,
    /// The line's fill-ready cycle, carried wherever the line goes next
    /// (a side store, or back into the L1).
    pub ready: Cycle,
}

/// Bits of a line's flag byte; a demand fill writes 0.
const DIRTY: u8 = 1;
const PIB: u8 = 1 << 1;
const RIB: u8 = 1 << 2;
const NSP_TAG: u8 = 1 << 3;

/// The tag-array encoding of a resident `line` (0 marks an invalid way).
/// Line numbers are byte addresses shifted right by the line-offset bits,
/// so the `+ 1` never overflows.
#[inline]
fn tag_of(line: LineAddr) -> u64 {
    line.0 + 1
}

/// Observable metadata of one resident line — the cache's architectural
/// state minus replacement bookkeeping. The state type for differential
/// checking (`ppf-oracle`) and diagnostics; replacement stamps are
/// deliberately excluded because they are an implementation detail the
/// reference models must not depend on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineState {
    /// The resident line.
    pub line: LineAddr,
    /// Writeback needed on eviction.
    pub dirty: bool,
    /// Prefetch Indication Bit.
    pub pib: bool,
    /// Reference Indication Bit.
    pub rib: bool,
    /// NSP re-trigger tag.
    pub nsp_tag: bool,
    /// Prefetch provenance (set iff PIB).
    pub origin: Option<PrefetchOrigin>,
    /// Fill-ready cycle.
    pub ready: Cycle,
}

/// A set-associative LRU cache with PIB/RIB line metadata. Every array is
/// indexed by way slot, `set * ways + way`.
#[derive(Debug, Clone)]
pub struct Cache {
    /// [`tag_of`] the resident line, 0 for an invalid way.
    tags: Box<[u64]>,
    /// LRU stamps, refreshed by every fill and hit; contiguous per set,
    /// so victim selection reads a set's stamps in place.
    stamps: Box<[u64]>,
    /// `DIRTY | PIB | RIB | NSP_TAG`.
    flags: Box<[u8]>,
    /// Prefetch provenance, read only while the slot's PIB is set. Empty
    /// until the first prefetch fill sizes it: only the L1D ever takes
    /// one, so the L2 and L1I never allocate it.
    origins: Vec<PrefetchOrigin>,
    /// Fill-ready cycles. Empty, and read as 0, until the first fill that
    /// carries a nonzero cycle sizes it.
    ready: Vec<Cycle>,
    sets: usize,
    ways: usize,
    set_mask: u64,
    /// The next LRU stamp (0 marks a way never touched).
    next_stamp: u64,
}

impl Cache {
    /// Build a cache from `cfg` (validated by the caller / `SystemConfig`).
    pub fn new(cfg: &CacheConfig) -> Self {
        let sets = cfg.sets();
        let ways = cfg.ways;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(ways > 0);
        let slots = sets * ways;
        Cache {
            tags: vec![0; slots].into_boxed_slice(),
            stamps: vec![0; slots].into_boxed_slice(),
            flags: vec![0; slots].into_boxed_slice(),
            origins: Vec::new(),
            ready: Vec::new(),
            sets,
            ways,
            set_mask: (sets - 1) as u64,
            next_stamp: 1,
        }
    }

    /// The line resident in valid way slot `idx`.
    #[inline]
    fn line_at(&self, idx: usize) -> LineAddr {
        LineAddr(self.tags[idx] - 1)
    }

    /// Provenance of slot `idx`, present iff its PIB is set.
    #[inline]
    fn origin_at(&self, idx: usize) -> Option<PrefetchOrigin> {
        (self.flags[idx] & PIB != 0).then(|| self.origins[idx])
    }

    /// Fill-ready cycle of slot `idx`.
    #[inline]
    fn ready_at(&self, idx: usize) -> Cycle {
        self.ready.get(idx).copied().unwrap_or(0)
    }

    /// Write slot `idx`'s fill-ready cycle, sizing the array on the first
    /// nonzero cycle (an empty array already reads 0 everywhere).
    #[inline]
    fn set_ready(&mut self, idx: usize, ready_at: Cycle) {
        if self.ready.is_empty() {
            if ready_at == 0 {
                return;
            }
            self.ready = vec![0; self.tags.len()];
        }
        self.ready[idx] = ready_at;
    }

    /// Observable state of valid way slot `idx`.
    fn state_at(&self, idx: usize) -> LineState {
        let f = self.flags[idx];
        LineState {
            line: self.line_at(idx),
            dirty: f & DIRTY != 0,
            pib: f & PIB != 0,
            rib: f & RIB != 0,
            nsp_tag: f & NSP_TAG != 0,
            origin: self.origin_at(idx),
            ready: self.ready_at(idx),
        }
    }

    /// The eviction report of valid way slot `idx`. The caller refills or
    /// invalidates the slot.
    #[inline]
    fn evicted_at(&self, idx: usize) -> Evicted {
        let f = self.flags[idx];
        Evicted {
            line: self.line_at(idx),
            dirty: f & DIRTY != 0,
            prefetch: self.origin_at(idx).map(|o| (o, f & RIB != 0)),
            ready: self.ready_at(idx),
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    #[inline]
    fn set_range(&self, line: LineAddr) -> std::ops::Range<usize> {
        let set = (line.0 & self.set_mask) as usize;
        let base = set * self.ways;
        base..base + self.ways
    }

    #[inline]
    fn find(&self, line: LineAddr) -> Option<usize> {
        let range = self.set_range(line);
        let tag = tag_of(line);
        self.tags[range.clone()]
            .iter()
            .position(|&t| t == tag)
            .map(|way| range.start + way)
    }

    /// A fresh LRU stamp, later than every stamp handed out before.
    #[inline]
    fn stamp(&mut self) -> u64 {
        let s = self.next_stamp;
        self.next_stamp += 1;
        s
    }

    /// Non-mutating presence check (no LRU/RIB side effects). Used for
    /// duplicate-prefetch squashing.
    #[inline]
    pub fn contains(&self, line: LineAddr) -> bool {
        self.find(line).is_some()
    }

    /// Demand reference to `line`. On a hit: refreshes replacement stamp
    /// (LRU), sets RIB on prefetched lines, consumes the NSP tag bit,
    /// optionally marks the line dirty (`is_write`) and reports the line's
    /// fill-ready cycle. Returns `None` on miss.
    pub fn probe(&mut self, line: LineAddr, is_write: bool) -> Option<ProbeHit> {
        let idx = self.find(line)?;
        self.stamps[idx] = self.stamp();
        let f = self.flags[idx];
        let pib = f & PIB != 0;
        let hit = ProbeHit {
            was_prefetched: pib,
            first_use: pib && f & RIB == 0,
            nsp_tagged: f & NSP_TAG != 0,
            ready: self.ready_at(idx),
        };
        let rib = if pib { RIB } else { 0 };
        let dirty = if is_write { DIRTY } else { 0 };
        self.flags[idx] = (f & !NSP_TAG) | rib | dirty;
        Some(hit)
    }

    /// Install `line`, whose data arrives at `ready_at`. Returns the
    /// eviction report if a valid line was displaced. Filling a line that
    /// is already present refreshes its metadata in place (this happens
    /// when a demand miss races a prefetch in the simulator's
    /// functional-immediate model), keeps the later fill-ready cycle and
    /// evicts nothing.
    pub fn fill(&mut self, line: LineAddr, kind: FillKind, ready_at: Cycle) -> Option<Evicted> {
        let stamp = self.stamp();
        if let Some(idx) = self.find(line) {
            // Already resident: a demand fill of a prefetched line counts as
            // a reference; a prefetch fill of a resident line is a no-op
            // (the queue squashes these, but be safe).
            let f = self.flags[idx];
            if matches!(kind, FillKind::Demand) && f & PIB != 0 {
                self.flags[idx] = (f | RIB) & !NSP_TAG;
            }
            self.stamps[idx] = stamp;
            self.set_ready(idx, self.ready_at(idx).max(ready_at));
            return None;
        }
        let range = self.set_range(line);
        // Prefer an invalid way; otherwise evict the least recently used,
        // the smallest stamp.
        let idx = match self.tags[range.clone()].iter().position(|&t| t == 0) {
            Some(way) => range.start + way,
            None => {
                let (way, _) = self.stamps[range.clone()]
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, stamp)| stamp)
                    .expect("a set has at least one way");
                range.start + way
            }
        };
        let report = (self.tags[idx] != 0).then(|| self.evicted_at(idx));
        self.tags[idx] = tag_of(line);
        self.stamps[idx] = stamp;
        self.set_ready(idx, ready_at);
        self.flags[idx] = match kind {
            FillKind::Demand => 0,
            FillKind::Prefetch(origin) => {
                if self.origins.is_empty() {
                    self.origins = vec![origin; self.tags.len()];
                }
                self.origins[idx] = origin;
                PIB | NSP_TAG
            }
        };
        report
    }

    /// Mark a resident line dirty (writeback path from an inner level).
    /// Returns false if the line is not resident.
    pub fn mark_dirty(&mut self, line: LineAddr) -> bool {
        match self.find(line) {
            Some(idx) => {
                self.flags[idx] |= DIRTY;
                true
            }
            None => false,
        }
    }

    /// Remove `line` if present, returning its eviction report.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<Evicted> {
        let idx = self.find(line)?;
        let report = self.evicted_at(idx);
        self.tags[idx] = 0;
        Some(report)
    }

    /// Number of currently valid lines.
    pub fn valid_lines(&self) -> usize {
        self.tags.iter().filter(|&&t| t != 0).count()
    }

    /// Valid lines whose fill is still in flight at `now` (a full scan, for
    /// telemetry sampling only).
    pub fn in_flight(&self, now: Cycle) -> usize {
        self.tags
            .iter()
            .zip(&self.ready)
            .filter(|&(&t, &r)| t != 0 && r > now)
            .count()
    }

    /// A copy of every resident line's observable state, sorted by line
    /// number. Cheap state-inspection hook for the differential oracle.
    pub fn resident_lines(&self) -> Vec<LineState> {
        let mut out: Vec<LineState> = (0..self.tags.len())
            .filter(|&idx| self.tags[idx] != 0)
            .map(|idx| self.state_at(idx))
            .collect();
        out.sort_by_key(|l| l.line.0);
        out
    }

    /// Iterate eviction reports for all resident lines, invalidating them.
    /// Used at end-of-run so the good/bad prefetch census covers lines that
    /// never got evicted (Figure 1's census is over *all* prefetches).
    pub fn drain(&mut self) -> impl Iterator<Item = Evicted> + '_ {
        (0..self.tags.len()).filter_map(move |idx| {
            if self.tags[idx] == 0 {
                return None;
            }
            let report = self.evicted_at(idx);
            self.tags[idx] = 0;
            Some(report)
        })
    }

    /// Debug/test helper: assert internal invariants (no duplicate tags in a
    /// set; every valid line maps to the set it is stored in; RIB implies
    /// PIB).
    pub fn check_invariants(&self) -> Result<(), String> {
        for set in 0..self.sets {
            let base = set * self.ways;
            for i in base..base + self.ways {
                if self.tags[i] == 0 {
                    continue;
                }
                let line = self.line_at(i);
                if (line.0 & self.set_mask) as usize != set {
                    return Err(format!("line {} stored in wrong set {}", line, set));
                }
                if self.flags[i] & (PIB | RIB) == RIB {
                    return Err(format!("RIB without PIB on line {}", line));
                }
                if self.tags[i + 1..base + self.ways].contains(&self.tags[i]) {
                    return Err(format!("duplicate line {} in set {}", line, set));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppf_types::{PrefetchSource, SplitMix64};

    fn cfg(size: usize, ways: usize) -> CacheConfig {
        CacheConfig {
            size_bytes: size,
            line_bytes: 32,
            ways,
            hit_latency: 1,
            ports: 1,
        }
    }

    fn origin(line: LineAddr) -> PrefetchOrigin {
        PrefetchOrigin {
            line,
            trigger_pc: 0x1000,
            source: PrefetchSource::Nsp,
            tenant: 0,
            depth: 0,
        }
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = Cache::new(&cfg(1024, 1));
        let l = LineAddr(5);
        assert!(c.probe(l, false).is_none());
        assert!(c.fill(l, FillKind::Demand, 0).is_none());
        let hit = c.probe(l, false).expect("hit after fill");
        assert!(!hit.was_prefetched);
        assert!(!hit.first_use);
        assert!(!hit.nsp_tagged);
    }

    #[test]
    fn direct_mapped_conflict_evicts() {
        // 1KB direct-mapped, 32B lines => 32 sets; lines 1 and 33 collide.
        let mut c = Cache::new(&cfg(1024, 1));
        c.fill(LineAddr(1), FillKind::Demand, 0);
        let ev = c
            .fill(LineAddr(33), FillKind::Demand, 0)
            .expect("conflict eviction");
        assert_eq!(ev.line, LineAddr(1));
        assert!(!ev.dirty);
        assert!(ev.prefetch.is_none());
        assert!(!c.contains(LineAddr(1)));
        assert!(c.contains(LineAddr(33)));
    }

    #[test]
    fn prefetch_fill_sets_pib_and_nsp_tag() {
        let mut c = Cache::new(&cfg(1024, 1));
        let l = LineAddr(7);
        c.fill(l, FillKind::Prefetch(origin(l)), 0);
        let hit = c.probe(l, false).unwrap();
        assert!(hit.was_prefetched);
        assert!(hit.first_use, "first touch is the RIB 0->1 edge");
        assert!(hit.nsp_tagged, "NSP tag visible to first touch");
        // Second touch: RIB already set, tag consumed.
        let hit2 = c.probe(l, false).unwrap();
        assert!(hit2.was_prefetched);
        assert!(!hit2.first_use);
        assert!(!hit2.nsp_tagged);
    }

    #[test]
    fn evicted_prefetched_line_reports_rib() {
        let mut c = Cache::new(&cfg(1024, 1));
        let a = LineAddr(2);
        let b = LineAddr(34); // same set
                              // Unreferenced prefetch -> bad.
        c.fill(a, FillKind::Prefetch(origin(a)), 0);
        let ev = c.fill(b, FillKind::Demand, 0).unwrap();
        let (o, referenced) = ev.prefetch.expect("prefetched line");
        assert_eq!(o.line, a);
        assert!(!referenced);
        // Referenced prefetch -> good.
        c.fill(a, FillKind::Prefetch(origin(a)), 0);
        c.probe(a, false);
        let ev = c.fill(b, FillKind::Demand, 0).unwrap();
        // b was demand; victim must be a (same set, LRU: b touched later).
        let (_, referenced) = ev.prefetch.expect("prefetched line evicted");
        assert!(referenced);
    }

    #[test]
    fn store_hit_marks_dirty_and_writeback_reported() {
        let mut c = Cache::new(&cfg(1024, 1));
        c.fill(LineAddr(3), FillKind::Demand, 0);
        c.probe(LineAddr(3), true);
        let ev = c.fill(LineAddr(35), FillKind::Demand, 0).unwrap();
        assert!(ev.dirty, "dirty line must request writeback");
    }

    #[test]
    fn lru_prefers_least_recently_used_way() {
        // 2-way, 2 sets: 128 bytes / 32B = 4 lines.
        let mut c = Cache::new(&cfg(128, 2));
        // Set 0 holds even line numbers.
        c.fill(LineAddr(0), FillKind::Demand, 0);
        c.fill(LineAddr(2), FillKind::Demand, 0);
        c.probe(LineAddr(0), false); // 0 is now MRU
        let ev = c.fill(LineAddr(4), FillKind::Demand, 0).unwrap();
        assert_eq!(ev.line, LineAddr(2));
        assert!(c.contains(LineAddr(0)));
        assert!(c.contains(LineAddr(4)));
    }

    #[test]
    fn refill_of_resident_line_evicts_nothing() {
        let mut c = Cache::new(&cfg(1024, 1));
        c.fill(LineAddr(9), FillKind::Demand, 0);
        assert!(c.fill(LineAddr(9), FillKind::Demand, 0).is_none());
        assert_eq!(c.valid_lines(), 1);
    }

    #[test]
    fn demand_refill_of_prefetched_line_counts_as_reference() {
        let mut c = Cache::new(&cfg(1024, 1));
        let l = LineAddr(4);
        c.fill(l, FillKind::Prefetch(origin(l)), 0);
        c.fill(l, FillKind::Demand, 0); // demand touched the prefetched line
        let ev = c.invalidate(l).unwrap();
        let (_, referenced) = ev.prefetch.unwrap();
        assert!(referenced);
    }

    #[test]
    fn fill_ready_cycle_is_reported_and_refill_keeps_the_later() {
        let mut c = Cache::new(&cfg(1024, 1));
        c.fill(LineAddr(1), FillKind::Demand, 0);
        assert!(c.ready.is_empty(), "a zero cycle does not size the array");
        c.fill(LineAddr(1), FillKind::Demand, 100);
        c.fill(LineAddr(1), FillKind::Demand, 80);
        assert_eq!(c.probe(LineAddr(1), false).unwrap().ready, 100);
        assert_eq!(c.in_flight(99), 1);
        assert_eq!(c.in_flight(100), 0);
        let ev = c.fill(LineAddr(33), FillKind::Demand, 7).unwrap();
        assert_eq!(ev.ready, 100, "eviction carries the cycle");
        assert_eq!(c.probe(LineAddr(33), false).unwrap().ready, 7);
    }

    #[test]
    fn invalidate_returns_report_and_clears() {
        let mut c = Cache::new(&cfg(1024, 1));
        assert!(c.invalidate(LineAddr(1)).is_none());
        c.fill(LineAddr(1), FillKind::Demand, 0);
        let ev = c.invalidate(LineAddr(1)).unwrap();
        assert_eq!(ev.line, LineAddr(1));
        assert!(!c.contains(LineAddr(1)));
    }

    #[test]
    fn drain_reports_all_and_empties() {
        let mut c = Cache::new(&cfg(1024, 1));
        c.fill(LineAddr(1), FillKind::Demand, 0);
        let l2 = LineAddr(2);
        c.fill(l2, FillKind::Prefetch(origin(l2)), 0);
        let drained: Vec<Evicted> = c.drain().collect();
        assert_eq!(drained.len(), 2);
        assert_eq!(c.valid_lines(), 0);
        assert_eq!(drained.iter().filter(|e| e.prefetch.is_some()).count(), 1);
    }

    #[test]
    fn mark_dirty() {
        let mut c = Cache::new(&cfg(1024, 1));
        assert!(!c.mark_dirty(LineAddr(8)));
        c.fill(LineAddr(8), FillKind::Demand, 0);
        assert!(c.mark_dirty(LineAddr(8)));
        let ev = c.invalidate(LineAddr(8)).unwrap();
        assert!(ev.dirty);
    }

    #[test]
    fn invariants_hold_under_random_workload() {
        let mut c = Cache::new(&cfg(2048, 4));
        let mut rng = SplitMix64::new(99);
        for i in 0..5_000u64 {
            let line = LineAddr(rng.below(512));
            match rng.below(4) {
                0 => {
                    c.probe(line, rng.chance(0.3));
                }
                1 => {
                    c.fill(line, FillKind::Demand, 0);
                }
                2 => {
                    c.fill(line, FillKind::Prefetch(origin(line)), 0);
                }
                _ => {
                    c.invalidate(line);
                }
            }
            if i % 512 == 0 {
                c.check_invariants().unwrap();
            }
        }
        c.check_invariants().unwrap();
    }

    #[test]
    fn paper_l1_geometry() {
        // 8KB direct-mapped with 32B lines = 256 sets of 1 way.
        let c = Cache::new(&cfg(8 * 1024, 1));
        assert_eq!(c.sets(), 256);
        assert_eq!(c.ways(), 1);
    }
}
