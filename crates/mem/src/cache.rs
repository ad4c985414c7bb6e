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
//! the line's PIB is set.

use crate::replacement::{ReplacementPolicy, ReplacementState};
use ppf_types::{CacheConfig, LineAddr, PrefetchOrigin, MAX_TENANTS, TENANT_ADDR_SHIFT};

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
}

/// Eviction report passed to the pollution filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// The evicted line.
    pub line: LineAddr,
    /// Line was dirty (writeback needed).
    pub dirty: bool,
    /// If the line was prefetched: its provenance and whether it was ever
    /// referenced (the RIB value at eviction).
    pub prefetch: Option<(PrefetchOrigin, bool)>,
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
/// state minus replacement bookkeeping. Snapshot type for differential
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
}

/// Per-tenant attribution of prefetch outcomes and eviction pressure
/// (DESIGN.md §12). Indexed by the tenant IDs carried in prefetch
/// provenance / encoded in the address region, so a hostile tenant's bad
/// prefetches and the conflict evictions it inflicts on other tenants are
/// charged to *it* rather than diluted into global counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantAttribution {
    /// Referenced (RIB=1) prefetched lines retired, per owning tenant.
    pub prefetch_good: [u64; MAX_TENANTS],
    /// Unreferenced (RIB=0) prefetched lines retired, per owning tenant.
    pub prefetch_bad: [u64; MAX_TENANTS],
    /// Conflict evictions: `cross_evictions[victim][evictor]` counts valid
    /// lines of tenant `victim` displaced by a fill from tenant `evictor`.
    /// Off-diagonal mass is inter-tenant interference.
    pub cross_evictions: [[u64; MAX_TENANTS]; MAX_TENANTS],
}

impl TenantAttribution {
    /// Evictions of `victim`'s lines caused by *other* tenants.
    pub fn inflicted_on(&self, victim: u8) -> u64 {
        let v = victim as usize % MAX_TENANTS;
        (0..MAX_TENANTS)
            .filter(|&e| e != v)
            .map(|e| self.cross_evictions[v][e])
            .sum()
    }
}

/// A set-associative cache with PIB/RIB line metadata. Every array is
/// indexed by way slot, `set * ways + way`.
#[derive(Debug, Clone)]
pub struct Cache {
    /// [`tag_of`] the resident line, 0 for an invalid way.
    tags: Box<[u64]>,
    /// Replacement stamps; contiguous per set, so victim selection reads
    /// a set's stamps in place.
    stamps: Box<[u64]>,
    /// `DIRTY | PIB | RIB | NSP_TAG`.
    flags: Box<[u8]>,
    /// Prefetch provenance, read only while the slot's PIB is set. Empty
    /// until the first prefetch fill sizes it: only the L1D ever takes
    /// one, so the L2 and L1I never allocate it.
    origins: Vec<PrefetchOrigin>,
    sets: usize,
    ways: usize,
    set_mask: u64,
    repl: ReplacementState,
    /// Right-shift that exposes the tenant bits of a *line* address
    /// (`TENANT_ADDR_SHIFT` minus the line-offset bits).
    tenant_shift: u32,
    attribution: TenantAttribution,
}

impl Cache {
    /// Build a cache from `cfg` (validated by the caller / `SystemConfig`).
    pub fn new(cfg: &CacheConfig, policy: ReplacementPolicy, seed: u64) -> Self {
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
            sets,
            ways,
            set_mask: (sets - 1) as u64,
            repl: ReplacementState::new(policy, seed),
            tenant_shift: TENANT_ADDR_SHIFT.saturating_sub(cfg.line_bytes.max(1).trailing_zeros()),
            attribution: TenantAttribution::default(),
        }
    }

    /// Tenant owning a resident line: the prefetch provenance when the line
    /// was prefetched (authoritative), else the tenant bits of its address
    /// region — the same derivation [`ppf_types::tenant_of_addr`] performs
    /// on byte addresses.
    #[inline]
    fn tenant_of_line(&self, line: LineAddr) -> u8 {
        ((line.0 >> self.tenant_shift) as usize & (MAX_TENANTS - 1)) as u8
    }

    /// Per-tenant prefetch-outcome and interference counters.
    pub fn tenant_attribution(&self) -> &TenantAttribution {
        &self.attribution
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
        }
    }

    /// Retire valid way slot `idx`: charge a prefetched line's outcome to
    /// its owning tenant and return its eviction report. The caller
    /// refills or invalidates the slot.
    #[inline]
    fn retire(&mut self, idx: usize) -> Evicted {
        let f = self.flags[idx];
        let prefetch = self.origin_at(idx).map(|o| (o, f & RIB != 0));
        if let Some((origin, referenced)) = prefetch {
            let t = origin.tenant as usize % MAX_TENANTS;
            if referenced {
                self.attribution.prefetch_good[t] += 1;
            } else {
                self.attribution.prefetch_bad[t] += 1;
            }
        }
        Evicted {
            line: self.line_at(idx),
            dirty: f & DIRTY != 0,
            prefetch,
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

    /// Non-mutating presence check (no LRU/RIB side effects). Used for
    /// duplicate-prefetch squashing.
    #[inline]
    pub fn contains(&self, line: LineAddr) -> bool {
        self.find(line).is_some()
    }

    /// Demand reference to `line`. On a hit: refreshes replacement stamp
    /// (LRU), sets RIB on prefetched lines, consumes the NSP tag bit, and
    /// optionally marks the line dirty (`is_write`). Returns `None` on miss.
    pub fn probe(&mut self, line: LineAddr, is_write: bool) -> Option<ProbeHit> {
        let idx = self.find(line)?;
        if self.repl.touch_on_hit() {
            self.stamps[idx] = self.repl.stamp();
        }
        let f = self.flags[idx];
        let pib = f & PIB != 0;
        let hit = ProbeHit {
            was_prefetched: pib,
            first_use: pib && f & RIB == 0,
            nsp_tagged: f & NSP_TAG != 0,
        };
        let rib = if pib { RIB } else { 0 };
        let dirty = if is_write { DIRTY } else { 0 };
        self.flags[idx] = (f & !NSP_TAG) | rib | dirty;
        Some(hit)
    }

    /// Install `line`. Returns the eviction report if a valid line was
    /// displaced. Filling a line that is already present refreshes its
    /// metadata in place (this happens when a demand miss races a prefetch
    /// in the simulator's functional-immediate model) and evicts nothing.
    pub fn fill(&mut self, line: LineAddr, kind: FillKind) -> Option<Evicted> {
        let stamp = self.repl.stamp();
        if let Some(idx) = self.find(line) {
            // Already resident: a demand fill of a prefetched line counts as
            // a reference; a prefetch fill of a resident line is a no-op
            // (the queue squashes these, but be safe).
            let f = self.flags[idx];
            if matches!(kind, FillKind::Demand) && f & PIB != 0 {
                self.flags[idx] = (f | RIB) & !NSP_TAG;
            }
            self.stamps[idx] = stamp;
            return None;
        }
        let range = self.set_range(line);
        // Prefer an invalid way; otherwise ask the policy for a victim.
        let idx = match self.tags[range.clone()].iter().position(|&t| t == 0) {
            Some(way) => range.start + way,
            None => range.start + self.repl.victim(&self.stamps[range]),
        };
        let report = (self.tags[idx] != 0).then(|| {
            let report = self.retire(idx);
            let victim = match report.prefetch {
                Some((origin, _)) => origin.tenant,
                None => self.tenant_of_line(report.line),
            };
            let evictor = match kind {
                FillKind::Prefetch(o) => o.tenant,
                FillKind::Demand => self.tenant_of_line(line),
            };
            self.attribution.cross_evictions[victim as usize % MAX_TENANTS]
                [evictor as usize % MAX_TENANTS] += 1;
            report
        });
        self.tags[idx] = tag_of(line);
        self.stamps[idx] = stamp;
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
        let report = self.retire(idx);
        self.tags[idx] = 0;
        Some(report)
    }

    /// Number of currently valid lines.
    pub fn valid_lines(&self) -> usize {
        self.tags.iter().filter(|&&t| t != 0).count()
    }

    /// Snapshot of every resident line's observable state, sorted by line
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
            let report = self.retire(idx);
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
        let mut c = Cache::new(&cfg(1024, 1), ReplacementPolicy::Lru, 0);
        let l = LineAddr(5);
        assert!(c.probe(l, false).is_none());
        assert!(c.fill(l, FillKind::Demand).is_none());
        let hit = c.probe(l, false).expect("hit after fill");
        assert!(!hit.was_prefetched);
        assert!(!hit.first_use);
        assert!(!hit.nsp_tagged);
    }

    #[test]
    fn direct_mapped_conflict_evicts() {
        // 1KB direct-mapped, 32B lines => 32 sets; lines 1 and 33 collide.
        let mut c = Cache::new(&cfg(1024, 1), ReplacementPolicy::Lru, 0);
        c.fill(LineAddr(1), FillKind::Demand);
        let ev = c
            .fill(LineAddr(33), FillKind::Demand)
            .expect("conflict eviction");
        assert_eq!(ev.line, LineAddr(1));
        assert!(!ev.dirty);
        assert!(ev.prefetch.is_none());
        assert!(!c.contains(LineAddr(1)));
        assert!(c.contains(LineAddr(33)));
    }

    #[test]
    fn prefetch_fill_sets_pib_and_nsp_tag() {
        let mut c = Cache::new(&cfg(1024, 1), ReplacementPolicy::Lru, 0);
        let l = LineAddr(7);
        c.fill(l, FillKind::Prefetch(origin(l)));
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
        let mut c = Cache::new(&cfg(1024, 1), ReplacementPolicy::Lru, 0);
        let a = LineAddr(2);
        let b = LineAddr(34); // same set
                              // Unreferenced prefetch -> bad.
        c.fill(a, FillKind::Prefetch(origin(a)));
        let ev = c.fill(b, FillKind::Demand).unwrap();
        let (o, referenced) = ev.prefetch.expect("prefetched line");
        assert_eq!(o.line, a);
        assert!(!referenced);
        // Referenced prefetch -> good.
        c.fill(a, FillKind::Prefetch(origin(a)));
        c.probe(a, false);
        let ev = c.fill(b, FillKind::Demand).unwrap();
        // b was demand; victim must be a (same set, LRU: b touched later).
        let (_, referenced) = ev.prefetch.expect("prefetched line evicted");
        assert!(referenced);
    }

    #[test]
    fn store_hit_marks_dirty_and_writeback_reported() {
        let mut c = Cache::new(&cfg(1024, 1), ReplacementPolicy::Lru, 0);
        c.fill(LineAddr(3), FillKind::Demand);
        c.probe(LineAddr(3), true);
        let ev = c.fill(LineAddr(35), FillKind::Demand).unwrap();
        assert!(ev.dirty, "dirty line must request writeback");
    }

    #[test]
    fn lru_prefers_least_recently_used_way() {
        // 2-way, 2 sets: 128 bytes / 32B = 4 lines.
        let mut c = Cache::new(&cfg(128, 2), ReplacementPolicy::Lru, 0);
        // Set 0 holds even line numbers.
        c.fill(LineAddr(0), FillKind::Demand);
        c.fill(LineAddr(2), FillKind::Demand);
        c.probe(LineAddr(0), false); // 0 is now MRU
        let ev = c.fill(LineAddr(4), FillKind::Demand).unwrap();
        assert_eq!(ev.line, LineAddr(2));
        assert!(c.contains(LineAddr(0)));
        assert!(c.contains(LineAddr(4)));
    }

    #[test]
    fn fifo_ignores_hits() {
        let mut c = Cache::new(&cfg(128, 2), ReplacementPolicy::Fifo, 0);
        c.fill(LineAddr(0), FillKind::Demand);
        c.fill(LineAddr(2), FillKind::Demand);
        c.probe(LineAddr(0), false); // should NOT protect 0 under FIFO
        let ev = c.fill(LineAddr(4), FillKind::Demand).unwrap();
        assert_eq!(ev.line, LineAddr(0), "FIFO evicts oldest fill despite hit");
    }

    #[test]
    fn refill_of_resident_line_evicts_nothing() {
        let mut c = Cache::new(&cfg(1024, 1), ReplacementPolicy::Lru, 0);
        c.fill(LineAddr(9), FillKind::Demand);
        assert!(c.fill(LineAddr(9), FillKind::Demand).is_none());
        assert_eq!(c.valid_lines(), 1);
    }

    #[test]
    fn demand_refill_of_prefetched_line_counts_as_reference() {
        let mut c = Cache::new(&cfg(1024, 1), ReplacementPolicy::Lru, 0);
        let l = LineAddr(4);
        c.fill(l, FillKind::Prefetch(origin(l)));
        c.fill(l, FillKind::Demand); // demand touched the prefetched line
        let ev = c.invalidate(l).unwrap();
        let (_, referenced) = ev.prefetch.unwrap();
        assert!(referenced);
    }

    #[test]
    fn invalidate_returns_report_and_clears() {
        let mut c = Cache::new(&cfg(1024, 1), ReplacementPolicy::Lru, 0);
        assert!(c.invalidate(LineAddr(1)).is_none());
        c.fill(LineAddr(1), FillKind::Demand);
        let ev = c.invalidate(LineAddr(1)).unwrap();
        assert_eq!(ev.line, LineAddr(1));
        assert!(!c.contains(LineAddr(1)));
    }

    #[test]
    fn drain_reports_all_and_empties() {
        let mut c = Cache::new(&cfg(1024, 1), ReplacementPolicy::Lru, 0);
        c.fill(LineAddr(1), FillKind::Demand);
        let l2 = LineAddr(2);
        c.fill(l2, FillKind::Prefetch(origin(l2)));
        let drained: Vec<Evicted> = c.drain().collect();
        assert_eq!(drained.len(), 2);
        assert_eq!(c.valid_lines(), 0);
        assert_eq!(drained.iter().filter(|e| e.prefetch.is_some()).count(), 1);
    }

    #[test]
    fn mark_dirty() {
        let mut c = Cache::new(&cfg(1024, 1), ReplacementPolicy::Lru, 0);
        assert!(!c.mark_dirty(LineAddr(8)));
        c.fill(LineAddr(8), FillKind::Demand);
        assert!(c.mark_dirty(LineAddr(8)));
        let ev = c.invalidate(LineAddr(8)).unwrap();
        assert!(ev.dirty);
    }

    #[test]
    fn invariants_hold_under_random_workload() {
        let mut c = Cache::new(&cfg(2048, 4), ReplacementPolicy::Lru, 1);
        let mut rng = SplitMix64::new(99);
        for i in 0..5_000u64 {
            let line = LineAddr(rng.below(512));
            match rng.below(4) {
                0 => {
                    c.probe(line, rng.chance(0.3));
                }
                1 => {
                    c.fill(line, FillKind::Demand);
                }
                2 => {
                    c.fill(line, FillKind::Prefetch(origin(line)));
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
    fn tenant_attribution_charges_the_causing_tenant() {
        // 32B lines: tenant bits sit at line-address bit 36.
        let t1 = 1u64 << 36;
        let mut c = Cache::new(&cfg(1024, 1), ReplacementPolicy::Lru, 0);
        // Tenant 1 prefetches a line into tenant 0's set, unreferenced...
        let victim = LineAddr(5);
        c.fill(victim, FillKind::Demand);
        let mut o = origin(LineAddr(t1 | 37)); // same set (32 sets): 5 + 32
        o.tenant = 1;
        c.fill(LineAddr(37), FillKind::Prefetch(o));
        // ...then the bad prefetch is itself displaced by tenant 0.
        c.fill(LineAddr(69), FillKind::Demand);
        let a = c.tenant_attribution();
        assert_eq!(a.cross_evictions[0][1], 1, "t1 displaced t0's line");
        assert_eq!(a.cross_evictions[1][0], 1, "t0 displaced t1's prefetch");
        assert_eq!(a.prefetch_bad[1], 1, "bad prefetch charged to tenant 1");
        assert_eq!(a.prefetch_bad[0], 0);
        assert_eq!(a.inflicted_on(0), 1);
    }

    #[test]
    fn drain_attributes_resident_prefetches() {
        let mut c = Cache::new(&cfg(1024, 1), ReplacementPolicy::Lru, 0);
        let mut o = origin(LineAddr(2));
        o.tenant = 2;
        c.fill(LineAddr(2), FillKind::Prefetch(o));
        c.probe(LineAddr(2), false);
        let _ = c.drain().count();
        assert_eq!(c.tenant_attribution().prefetch_good[2], 1);
    }

    #[test]
    fn paper_l1_geometry() {
        // 8KB direct-mapped with 32B lines = 256 sets of 1 way.
        let c = Cache::new(&cfg(8 * 1024, 1), ReplacementPolicy::Lru, 0);
        assert_eq!(c.sets(), 256);
        assert_eq!(c.ways(), 1);
    }
}
