//! The assembled two-level memory hierarchy.
//!
//! Mirrors Figure 3 of the paper: demand accesses from the LSQ and pops from
//! the prefetch queue reach the L1 (port arbitration happens in the
//! simulator loop, which owns the [`crate::ports::PortArbiter`]); misses go
//! to the unified L2 and then over the shared bus to main memory. Prefetch
//! fills carry their provenance into the L1 line metadata; every L1 eviction
//! produces the `(address-or-PC, RIB)` feedback record the pollution filter
//! trains on.
//!
//! With the §5.5 dedicated prefetch buffer enabled, prefetches fill the
//! buffer instead of the L1; demand accesses probe L1 and buffer in
//! parallel, and a buffer hit promotes the line into the L1.

use crate::buffer::{BufferEvicted, PrefetchBuffer};
use crate::bus::Bus;
use crate::cache::{Cache, Evicted, FillKind, ProbeHit};
use crate::classify::MissClassifier;
use crate::dram::MainMemory;
use crate::mshr::MshrFile;
use crate::replacement::ReplacementPolicy;
use crate::victim::VictimCache;
use ppf_types::{Cycle, LineAddr, PrefetchOrigin, PrefetchRequest, SimStats, SystemConfig};

/// Who is looking up the L2 (statistics attribution only; all clients
/// share the port and the array).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum L2Client {
    /// Data-side demand miss (counted in Table 2's L2 statistics).
    DemandData,
    /// Hardware/software prefetch fetch.
    Prefetch,
    /// Instruction-side miss.
    Inst,
}

/// Demand access type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A load (or the access half of a software prefetch turned demand).
    Load,
    /// A store; write-allocate, marks the line dirty.
    Store,
}

/// Everything a demand access produced, for the core (timing) and the
/// prefetchers/filter (events).
#[derive(Debug, Clone, Copy)]
pub struct AccessResult {
    /// Cycle at which the data is available to dependents.
    pub complete_at: Cycle,
    /// L1 hit?
    pub l1_hit: bool,
    /// L2 hit? `None` when the access never reached the L2.
    pub l2_hit: Option<bool>,
    /// L1 probe detail on a hit (PIB/RIB/NSP-tag view).
    pub l1_probe: Option<ProbeHit>,
    /// L1 eviction caused by this access's fill (filter feedback!).
    pub l1_evicted: Option<Evicted>,
    /// L2 eviction caused by this access's fill.
    pub l2_evicted: Option<Evicted>,
    /// Set when the access hit the dedicated prefetch buffer: the promoted
    /// line's provenance (a *good* prefetch).
    pub from_buffer: Option<PrefetchOrigin>,
    /// Set when the access was served by the victim cache (ablation): the
    /// recovered line's carried eviction record. A prefetched line
    /// recovered this way was referenced after all — a *good* prefetch.
    pub from_victim: Option<Evicted>,
}

/// Everything an issued prefetch produced.
#[derive(Debug, Clone, Copy)]
pub struct PrefetchIssue {
    /// Cycle at which the prefetched line is fully resident.
    pub complete_at: Cycle,
    /// True if the target was already resident (squashed; no fill happened).
    pub duplicate: bool,
    /// L1 eviction caused by the prefetch fill.
    pub l1_evicted: Option<Evicted>,
    /// L2 eviction caused by the prefetch fill.
    pub l2_evicted: Option<Evicted>,
    /// Eviction from the dedicated prefetch buffer (always a bad prefetch).
    pub buffer_evicted: Option<BufferEvicted>,
}

/// Two-level hierarchy with bus, memory, MSHRs and optional prefetch buffer.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    /// L1 data cache (public: the simulator and prefetchers probe it).
    pub l1: Cache,
    /// L1 instruction cache (Table 1: "L1 I/D 8KB").
    pub l1i: Cache,
    /// Unified L2 (public for SDP's shadow-directory access).
    pub l2: Cache,
    buffer: Option<PrefetchBuffer>,
    victim: Option<VictimCache>,
    bus: Bus,
    mem: MainMemory,
    mshr: MshrFile,
    l1_lat: u64,
    l2_lat: u64,
    line_bytes: u32,
    /// The L2's ports are a serially-occupied resource (Table 1: one
    /// port): each access holds a port for `l2_occupancy` cycles, so
    /// prefetch lookups queue behind (and in front of!) demand misses —
    /// the paper's "competition for finite bandwidth" (§1.3).
    l2_ports_free: Vec<Cycle>,
    l2_occupancy: u64,
    /// Shadow-tag miss classifiers for the (L1 data, L2 data-side) demand
    /// streams; allocated only when [`ppf_types::DiagnosticsConfig`]
    /// requests classification (see [`crate::classify`]).
    classify: Option<(MissClassifier, MissClassifier)>,
}

impl Hierarchy {
    /// Build the hierarchy described by `cfg`. `seed` feeds the random
    /// replacement policy if selected (the paper's L1 is direct-mapped and
    /// its L2 is LRU, so the default construction is deterministic anyway).
    pub fn new(cfg: &SystemConfig, seed: u64) -> Self {
        Hierarchy {
            l1: Cache::new(&cfg.l1, ReplacementPolicy::Lru, seed ^ 0x11),
            l1i: Cache::new(&cfg.l1i, ReplacementPolicy::Lru, seed ^ 0x33),
            l2: Cache::new(&cfg.l2, ReplacementPolicy::Lru, seed ^ 0x22),
            buffer: cfg
                .buffer
                .enabled
                .then(|| PrefetchBuffer::new(cfg.buffer.entries)),
            victim: cfg
                .victim
                .enabled
                .then(|| VictimCache::new(cfg.victim.entries)),
            bus: Bus::new(&cfg.mem),
            mem: MainMemory::new(&cfg.mem),
            mshr: MshrFile::default(),
            l1_lat: cfg.l1.hit_latency,
            l2_lat: cfg.l2.hit_latency,
            line_bytes: cfg.l1.line_bytes,
            l2_ports_free: vec![0; cfg.l2.ports.max(1)],
            l2_occupancy: 2,
            classify: cfg.diag.classify_misses.then(|| {
                (
                    MissClassifier::new(cfg.l1.lines()),
                    MissClassifier::new(cfg.l2.lines()),
                )
            }),
        }
    }

    /// Claim an L2 port at or after `now`; returns the cycle the access can
    /// begin. Ports are modelled as next-free timestamps (earliest wins).
    fn claim_l2_port(&mut self, now: Cycle) -> Cycle {
        let slot = self
            .l2_ports_free
            .iter_mut()
            .min()
            .expect("at least one L2 port");
        let start = now.max(*slot);
        *slot = start + self.l2_occupancy;
        start
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> u32 {
        self.line_bytes
    }

    /// Fills still in flight at `now` — the interval-telemetry MSHR gauge
    /// (a read-only observation; never affects timing).
    pub fn mshr_live(&self, now: Cycle) -> usize {
        self.mshr.live(now)
    }

    /// Earliest future state change anywhere below the LSQ — MSHR fill
    /// completions, the shared bus freeing up, DRAM banks freeing up — for
    /// the skip-ahead kernel's event calendar. All three structures are
    /// passive (demand accesses *observe* their timestamps; nothing fires
    /// spontaneously), so these wake-ups are conservative: waking on them
    /// can only shorten a jump, never change machine state.
    pub fn next_event_cycle(&self, now: Cycle) -> Option<Cycle> {
        [
            self.mshr.next_event_cycle(now),
            self.bus.next_event_cycle(now),
            self.mem.next_event_cycle(now),
        ]
        .into_iter()
        .flatten()
        .min()
    }

    /// True if `line` is resident in the L1 or the prefetch buffer —
    /// the duplicate-squash predicate for incoming prefetches.
    pub fn prefetch_target_resident(&self, line: LineAddr) -> bool {
        self.l1.contains(line) || self.buffer.as_ref().is_some_and(|b| b.contains(line))
    }

    /// Bring `line` from L2/memory: returns the completion cycle, filling
    /// the L2 on a miss. `stats` L2 counters attribute the access to demand
    /// or prefetch via `is_prefetch`.
    fn fetch_from_l2(
        &mut self,
        line: LineAddr,
        now: Cycle,
        client: L2Client,
        stats: &mut SimStats,
    ) -> (Cycle, Option<bool>, Option<Evicted>) {
        // L1 lookup time is charged by the caller; the access then queues
        // for an L2 port (data, prefetch and instruction lookups share
        // them). Only data-side demand lookups enter the L2 *demand*
        // counters — Table 2's L2 column is data traffic — but every
        // client occupies the port and fills the shared array.
        let l2_start = self.claim_l2_port(now);
        let count = client == L2Client::DemandData;
        // The L2 shadows observe the same demand-data stream the L2 demand
        // counters attribute (hits included — LRU recency needs the full
        // stream); the kind is tallied only if this lookup misses.
        let l2_kind = if count {
            self.classify.as_mut().map(|(_, l2c)| l2c.access(line))
        } else {
            None
        };
        if count {
            stats.l2.demand_accesses += 1;
        }
        if self.l2.probe(line, false).is_some() {
            if count {
                stats.l2.demand_hits += 1;
            }
            return (l2_start + self.l2_lat, Some(true), None);
        }
        if count {
            stats.l2.demand_misses += 1;
            if let Some(kind) = l2_kind {
                kind.tally(&mut stats.l2.miss_class);
            }
        }
        // L2 miss: memory access then line transfer over the shared bus.
        let mem_done = self.mem.access(line, l2_start + self.l2_lat);
        let done = self.bus.request(mem_done, self.line_bytes, stats);
        let l2_evicted = self.l2.fill(line, FillKind::Demand);
        if client == L2Client::Prefetch {
            stats.l2.prefetch_fills += 1;
        }
        if let Some(ev) = &l2_evicted {
            stats.l2.evictions += 1;
            if ev.dirty {
                stats.l2.writebacks += 1;
                // Writeback to memory occupies the bus.
                self.bus.request(done, self.line_bytes, stats);
            }
        }
        (done, Some(false), l2_evicted)
    }

    /// Handle an L1 eviction's writeback: mark the line dirty in the L2, or
    /// send it straight to memory if the L2 no longer holds it. With the
    /// victim-cache ablation enabled, the evicted line parks there and the
    /// *final* eviction record (an older line aging out) is returned for
    /// filter feedback instead; without it, the record is final as-is.
    fn writeback_from_l1(
        &mut self,
        ev: &Evicted,
        now: Cycle,
        stats: &mut SimStats,
    ) -> Option<Evicted> {
        stats.l1.evictions += 1;
        if ev.dirty {
            stats.l1.writebacks += 1;
            if !self.l2.mark_dirty(ev.line) {
                // Victim no longer in L2 (non-inclusive hierarchy): write
                // through to memory.
                self.bus.request(now, self.line_bytes, stats);
            }
        }
        match &mut self.victim {
            Some(v) => v.insert(*ev),
            None => Some(*ev),
        }
    }

    /// An instruction fetch touching `line` at cycle `now`. Hits are free
    /// (fetch overlaps with the 1-cycle I-cache pipeline); misses fetch
    /// through the unified L2 — competing for its port with data traffic —
    /// and return the cycle the fetch group is available.
    pub fn inst_access(&mut self, line: LineAddr, now: Cycle, stats: &mut SimStats) -> Cycle {
        stats.l1i.demand_accesses += 1;
        if self.l1i.probe(line, false).is_some() {
            stats.l1i.demand_hits += 1;
            return now;
        }
        stats.l1i.demand_misses += 1;
        let (data_at, _, l2_evicted) = self.fetch_from_l2(line, now + 1, L2Client::Inst, stats);
        if let Some(ev) = &l2_evicted {
            let _ = ev; // unified L2 eviction already accounted by fetch_from_l2
        }
        if self.l1i.fill(line, FillKind::Demand).is_some() {
            stats.l1i.evictions += 1;
        }
        data_at
    }

    /// A demand load/store to `line` at cycle `now` (the caller has already
    /// won an L1 port for this cycle).
    pub fn demand_access(
        &mut self,
        line: LineAddr,
        kind: AccessKind,
        now: Cycle,
        stats: &mut SimStats,
    ) -> AccessResult {
        let is_write = matches!(kind, AccessKind::Store);
        stats.l1.demand_accesses += 1;
        // Shadow structures see every demand reference up front (their LRU
        // state must track the whole stream); the kind only lands in the
        // counters if the real L1 goes on to miss.
        let l1_kind = self.classify.as_mut().map(|(l1c, _)| l1c.access(line));

        // With the victim-cache ablation, a line can be in L1 *or* parked
        // in the victim cache; L1 is probed first as in Jouppi's design.
        if let Some(probe) = self.l1.probe(line, is_write) {
            stats.l1.demand_hits += 1;
            if probe.first_use {
                stats.l1.prefetch_first_use += 1;
            }
            // A hit on a line whose fill is still in flight waits for it.
            let base = now + self.l1_lat;
            let complete_at = match self.mshr.ready_at(line, now) {
                Some(ready) => base.max(ready),
                None => base,
            };
            return AccessResult {
                complete_at,
                l1_hit: true,
                l2_hit: None,
                l1_probe: Some(probe),
                l1_evicted: None,
                l2_evicted: None,
                from_buffer: None,
                from_victim: None,
            };
        }
        stats.l1.demand_misses += 1;
        if let Some(kind) = l1_kind {
            kind.tally(&mut stats.l1.miss_class);
        }

        // Victim-cache probe (one extra cycle, swap back into the L1).
        if let Some(victim) = &mut self.victim {
            if let Some(record) = victim.take(line) {
                let l1_evicted = self.l1.fill(line, FillKind::Demand);
                if is_write {
                    self.l1.mark_dirty(line);
                }
                let final_evicted = match l1_evicted {
                    Some(ev) => self.writeback_from_l1(&ev, now, stats),
                    None => None,
                };
                return AccessResult {
                    complete_at: now + self.l1_lat + 1,
                    l1_hit: false,
                    l2_hit: None,
                    l1_probe: None,
                    l1_evicted: final_evicted,
                    l2_evicted: None,
                    from_buffer: None,
                    from_victim: Some(record),
                };
            }
        }

        // Probe the dedicated prefetch buffer (parallel probe: no extra
        // latency beyond the L1 lookup).
        if let Some(buffer) = &mut self.buffer {
            if let Some(origin) = buffer.take(line) {
                stats.buffer_hits += 1;
                let l1_evicted = self.l1.fill(line, FillKind::Demand);
                if is_write {
                    self.l1.mark_dirty(line);
                }
                let final_evicted = match l1_evicted {
                    Some(ev) => self.writeback_from_l1(&ev, now, stats),
                    None => None,
                };
                return AccessResult {
                    complete_at: now + self.l1_lat,
                    l1_hit: false,
                    l2_hit: None,
                    l1_probe: None,
                    l1_evicted: final_evicted,
                    l2_evicted: None,
                    from_buffer: Some(origin),
                    from_victim: None,
                };
            }
        }

        // Miss: go to L2 (and memory beyond).
        let (data_at, l2_hit, l2_evicted) =
            self.fetch_from_l2(line, now + self.l1_lat, L2Client::DemandData, stats);
        let l1_evicted = self.l1.fill(line, FillKind::Demand);
        if is_write {
            self.l1.mark_dirty(line);
        }
        let final_evicted = match l1_evicted {
            Some(ev) => self.writeback_from_l1(&ev, now, stats),
            None => None,
        };
        self.mshr.insert(line, data_at, now);
        AccessResult {
            complete_at: data_at,
            l1_hit: false,
            l2_hit,
            l1_probe: None,
            l1_evicted: final_evicted,
            l2_evicted,
            from_buffer: None,
            from_victim: None,
        }
    }

    /// Issue a prefetch that already passed the pollution filter and won an
    /// L1 port at cycle `now`.
    pub fn issue_prefetch(
        &mut self,
        req: &PrefetchRequest,
        now: Cycle,
        stats: &mut SimStats,
    ) -> PrefetchIssue {
        if self.prefetch_target_resident(req.line) {
            // Duplicate slipped between enqueue and issue; squash.
            return PrefetchIssue {
                complete_at: now,
                duplicate: true,
                l1_evicted: None,
                l2_evicted: None,
                buffer_evicted: None,
            };
        }
        let (data_at, _l2_hit, l2_evicted) =
            self.fetch_from_l2(req.line, now + self.l1_lat, L2Client::Prefetch, stats);
        if let Some(ev) = &l2_evicted {
            // If the L2 victim is in the L1 we leave it (non-inclusive).
            let _ = ev;
        }
        let origin = req.origin();
        if let Some(buffer) = &mut self.buffer {
            let buffer_evicted = buffer.insert(req.line, origin);
            if buffer_evicted.is_some() {
                stats.buffer_bad_evictions += 1;
            }
            stats.l1.prefetch_fills += 1; // buffer stands in for the L1
            return PrefetchIssue {
                complete_at: data_at,
                duplicate: false,
                l1_evicted: None,
                l2_evicted,
                buffer_evicted,
            };
        }
        let l1_evicted = self.l1.fill(req.line, FillKind::Prefetch(origin));
        stats.l1.prefetch_fills += 1;
        let final_evicted = match l1_evicted {
            Some(ev) => self.writeback_from_l1(&ev, now, stats),
            None => None,
        };
        self.mshr.insert(req.line, data_at, now);
        PrefetchIssue {
            complete_at: data_at,
            duplicate: false,
            l1_evicted: final_evicted,
            l2_evicted,
            buffer_evicted: None,
        }
    }

    /// End-of-run census: report every resident L1 line and buffered line so
    /// prefetches that were never evicted are classified too. The L1 reports
    /// are routed through the same eviction records the filter trains on.
    pub fn drain_l1(&mut self) -> Vec<Evicted> {
        self.l1.drain().collect()
    }

    /// End-of-run census of the prefetch buffer.
    pub fn drain_buffer(&mut self) -> Vec<BufferEvicted> {
        match &mut self.buffer {
            Some(b) => b.drain().collect(),
            None => Vec::new(),
        }
    }

    /// End-of-run census of the victim cache (records parked there are
    /// final at the end of the run).
    pub fn drain_victim(&mut self) -> Vec<Evicted> {
        match &mut self.victim {
            Some(v) => v.drain().collect(),
            None => Vec::new(),
        }
    }

    /// Victim-cache statistics: (hits, aged-out lines); zeros without one.
    pub fn victim_stats(&self) -> (u64, u64) {
        self.victim
            .as_ref()
            .map(|v| (v.hits, v.final_evictions))
            .unwrap_or((0, 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppf_types::{PrefetchSource, SystemConfig};

    fn hierarchy() -> (Hierarchy, SimStats) {
        let cfg = SystemConfig::paper_default();
        (Hierarchy::new(&cfg, 7), SimStats::default())
    }

    fn pf(line: u64) -> PrefetchRequest {
        PrefetchRequest {
            line: LineAddr(line),
            trigger_pc: 0x4400,
            source: PrefetchSource::Nsp,
            tenant: 0,
            depth: 0,
        }
    }

    #[test]
    fn cold_miss_goes_to_memory() {
        let (mut h, mut s) = hierarchy();
        let r = h.demand_access(LineAddr(10), AccessKind::Load, 0, &mut s);
        assert!(!r.l1_hit);
        assert_eq!(r.l2_hit, Some(false));
        // 1 (L1) + 15 (L2) + 150 (mem) + 1 (bus slot) = 167.
        assert_eq!(r.complete_at, 167);
        assert_eq!(s.l1.demand_misses, 1);
        assert_eq!(s.l2.demand_misses, 1);
        assert_eq!(s.bus_bytes, 32);
    }

    #[test]
    fn second_access_hits_l1_but_waits_for_fill() {
        let (mut h, mut s) = hierarchy();
        let r1 = h.demand_access(LineAddr(10), AccessKind::Load, 0, &mut s);
        // One cycle later the line is functionally present but still in
        // flight: the hit's completion is held to the fill time.
        let r2 = h.demand_access(LineAddr(10), AccessKind::Load, 1, &mut s);
        assert!(r2.l1_hit);
        assert_eq!(r2.complete_at, r1.complete_at);
        // Long after the fill, a hit costs one cycle.
        let r3 = h.demand_access(LineAddr(10), AccessKind::Load, 1000, &mut s);
        assert!(r3.l1_hit);
        assert_eq!(r3.complete_at, 1001);
    }

    #[test]
    fn l2_hit_costs_l1_plus_l2() {
        let (mut h, mut s) = hierarchy();
        h.demand_access(LineAddr(10), AccessKind::Load, 0, &mut s);
        // Evict line 10 from L1 via its direct-mapped conflict (256 sets).
        h.demand_access(LineAddr(10 + 256), AccessKind::Load, 500, &mut s);
        assert!(!h.l1.contains(LineAddr(10)));
        let r = h.demand_access(LineAddr(10), AccessKind::Load, 1000, &mut s);
        assert!(!r.l1_hit);
        assert_eq!(r.l2_hit, Some(true));
        assert_eq!(r.complete_at, 1000 + 1 + 15);
    }

    #[test]
    fn prefetch_fill_sets_provenance_and_feedback() {
        let (mut h, mut s) = hierarchy();
        let r = h.issue_prefetch(&pf(20), 0, &mut s);
        assert!(!r.duplicate);
        assert!(h.l1.contains(LineAddr(20)));
        assert_eq!(s.l1.prefetch_fills, 1);
        // Unreferenced: evict via conflict -> bad feedback record.
        let r2 = h.demand_access(LineAddr(20 + 256), AccessKind::Load, 500, &mut s);
        let ev = r2.l1_evicted.expect("conflict eviction");
        let (origin, referenced) = ev.prefetch.expect("prefetched line");
        assert_eq!(origin.line, LineAddr(20));
        assert_eq!(origin.trigger_pc, 0x4400);
        assert!(!referenced);
    }

    #[test]
    fn referenced_prefetch_reports_good() {
        let (mut h, mut s) = hierarchy();
        h.issue_prefetch(&pf(20), 0, &mut s);
        let r = h.demand_access(LineAddr(20), AccessKind::Load, 400, &mut s);
        assert!(r.l1_hit);
        assert!(r.l1_probe.unwrap().was_prefetched);
        assert!(r.l1_probe.unwrap().first_use);
        assert_eq!(s.l1.prefetch_first_use, 1);
        let r2 = h.demand_access(LineAddr(20 + 256), AccessKind::Load, 800, &mut s);
        let (_, referenced) = r2.l1_evicted.unwrap().prefetch.unwrap();
        assert!(referenced);
    }

    #[test]
    fn duplicate_prefetch_squashed() {
        let (mut h, mut s) = hierarchy();
        h.issue_prefetch(&pf(20), 0, &mut s);
        let r = h.issue_prefetch(&pf(20), 1, &mut s);
        assert!(r.duplicate);
        assert_eq!(s.l1.prefetch_fills, 1);
    }

    #[test]
    fn prefetch_hit_on_in_flight_line_waits() {
        let (mut h, mut s) = hierarchy();
        let p = h.issue_prefetch(&pf(30), 0, &mut s);
        assert!(p.complete_at > 100, "cold prefetch goes to memory");
        let r = h.demand_access(LineAddr(30), AccessKind::Load, 5, &mut s);
        assert!(r.l1_hit, "functionally present");
        assert_eq!(r.complete_at, p.complete_at, "but waits for the fill");
    }

    #[test]
    fn store_allocate_and_writeback_traffic() {
        let (mut h, mut s) = hierarchy();
        h.demand_access(LineAddr(40), AccessKind::Store, 0, &mut s);
        assert!(h.l1.contains(LineAddr(40)));
        let bus_before = s.bus_bytes;
        // Conflict-evict the dirty line: writeback marks L2 dirty (no bus).
        h.demand_access(LineAddr(40 + 256), AccessKind::Load, 500, &mut s);
        assert_eq!(s.l1.writebacks, 1);
        assert_eq!(s.bus_bytes, bus_before + 32, "only the new line's fill");
    }

    #[test]
    fn buffer_mode_prefetch_fills_buffer_not_l1() {
        let mut cfg = SystemConfig::paper_default();
        cfg.buffer.enabled = true;
        let mut h = Hierarchy::new(&cfg, 7);
        let mut s = SimStats::default();
        h.issue_prefetch(&pf(50), 0, &mut s);
        assert!(!h.l1.contains(LineAddr(50)));
        assert!(h.prefetch_target_resident(LineAddr(50)));
        // Demand access hits the buffer, promotes into L1.
        let r = h.demand_access(LineAddr(50), AccessKind::Load, 10, &mut s);
        assert!(!r.l1_hit);
        assert_eq!(r.from_buffer.unwrap().line, LineAddr(50));
        assert!(h.l1.contains(LineAddr(50)));
        assert_eq!(s.buffer_hits, 1);
    }

    #[test]
    fn buffer_overflow_reports_bad() {
        let mut cfg = SystemConfig::paper_default();
        cfg.buffer.enabled = true;
        cfg.buffer.entries = 2;
        let mut h = Hierarchy::new(&cfg, 7);
        let mut s = SimStats::default();
        h.issue_prefetch(&pf(1), 0, &mut s);
        h.issue_prefetch(&pf(2), 1, &mut s);
        let r = h.issue_prefetch(&pf(3), 2, &mut s);
        let ev = r.buffer_evicted.expect("LRU spill");
        assert_eq!(ev.origin.line, LineAddr(1));
        assert_eq!(s.buffer_bad_evictions, 1);
    }

    #[test]
    fn drain_reports_resident_prefetches() {
        let (mut h, mut s) = hierarchy();
        h.issue_prefetch(&pf(60), 0, &mut s);
        h.demand_access(LineAddr(61), AccessKind::Load, 10, &mut s);
        let drained = h.drain_l1();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained.iter().filter(|e| e.prefetch.is_some()).count(), 1);
        assert!(!h.l1.contains(LineAddr(60)));
    }

    #[test]
    fn victim_cache_catches_conflict_evictions() {
        let cfg = SystemConfig::paper_default().with_victim_cache(8);
        let mut h = Hierarchy::new(&cfg, 7);
        let mut s = SimStats::default();
        h.demand_access(LineAddr(10), AccessKind::Load, 0, &mut s);
        // Conflict-evict line 10 (same set, 256 sets apart)...
        h.demand_access(LineAddr(10 + 256), AccessKind::Load, 500, &mut s);
        assert!(!h.l1.contains(LineAddr(10)));
        // ...then re-demand it: served from the victim cache, fast.
        let r = h.demand_access(LineAddr(10), AccessKind::Load, 1000, &mut s);
        assert!(r.from_victim.is_some());
        assert_eq!(r.complete_at, 1000 + 1 + 1, "L1 latency + swap cycle");
        assert!(h.l1.contains(LineAddr(10)));
        assert_eq!(h.victim_stats().0, 1);
    }

    #[test]
    fn victim_cache_finalizes_aged_out_prefetch_records() {
        let mut cfg = SystemConfig::paper_default().with_victim_cache(1);
        cfg.prefetch.nsp = true;
        let mut h = Hierarchy::new(&cfg, 7);
        let mut s = SimStats::default();
        // Prefetch line 20, evict it unused, then push a second eviction
        // through the 1-entry victim cache: 20's record ages out as final.
        h.issue_prefetch(&pf(20), 0, &mut s);
        let r1 = h.demand_access(LineAddr(20 + 256), AccessKind::Load, 100, &mut s);
        assert!(r1.l1_evicted.is_none(), "record parked in the victim cache");
        h.demand_access(LineAddr(30), AccessKind::Load, 200, &mut s);
        let r2 = h.demand_access(LineAddr(30 + 256), AccessKind::Load, 300, &mut s);
        let final_ev = r2.l1_evicted.expect("aged-out record surfaces");
        assert_eq!(final_ev.line, LineAddr(20));
        let (origin, referenced) = final_ev.prefetch.expect("prefetched");
        assert_eq!(origin.line, LineAddr(20));
        assert!(!referenced, "never referenced: finally a bad prefetch");
    }

    #[test]
    fn recovered_prefetched_line_reports_through_from_victim() {
        let cfg = SystemConfig::paper_default().with_victim_cache(8);
        let mut h = Hierarchy::new(&cfg, 7);
        let mut s = SimStats::default();
        h.issue_prefetch(&pf(40), 0, &mut s);
        h.demand_access(LineAddr(40 + 256), AccessKind::Load, 100, &mut s);
        // The prefetched line was evicted unused but is demanded soon
        // after: the victim cache rescues it and the record says so.
        let r = h.demand_access(LineAddr(40), AccessKind::Load, 150, &mut s);
        let record = r.from_victim.expect("victim hit");
        let (origin, referenced) = record.prefetch.expect("prefetched line");
        assert_eq!(origin.line, LineAddr(40));
        assert!(!referenced, "RIB was still 0 when it was evicted");
    }

    #[test]
    fn miss_classification_off_by_default() {
        let (mut h, mut s) = hierarchy();
        h.demand_access(LineAddr(10), AccessKind::Load, 0, &mut s);
        assert_eq!(s.l1.demand_misses, 1);
        assert_eq!(s.l1.miss_class.total(), 0, "diagnostics default off");
    }

    #[test]
    fn miss_classification_splits_the_3cs() {
        let cfg = SystemConfig::paper_default().with_miss_classification();
        let mut h = Hierarchy::new(&cfg, 7);
        let mut s = SimStats::default();
        // Cold miss: compulsory at both levels.
        h.demand_access(LineAddr(10), AccessKind::Load, 0, &mut s);
        assert_eq!(s.l1.miss_class.compulsory, 1);
        assert_eq!(s.l2.miss_class.compulsory, 1);
        // Conflict-evict line 10 (direct-mapped L1, 256 sets), then
        // re-demand it: the 256-line fully-associative shadow still holds
        // both lines, so the re-miss is a conflict miss — and the L2 hit
        // means no new L2 classification.
        h.demand_access(LineAddr(10 + 256), AccessKind::Load, 500, &mut s);
        h.demand_access(LineAddr(10), AccessKind::Load, 1000, &mut s);
        assert_eq!(s.l1.miss_class.compulsory, 2);
        assert_eq!(s.l1.miss_class.conflict, 1);
        assert_eq!(s.l1.miss_class.capacity, 0);
        assert_eq!(s.l2.miss_class.total(), 2, "both cold lines, then a hit");
        // Every classified miss is a real miss.
        assert_eq!(s.l1.miss_class.total(), s.l1.demand_misses);
    }

    #[test]
    fn capacity_misses_need_an_oversubscribed_footprint() {
        let cfg = SystemConfig::paper_default().with_miss_classification();
        let mut h = Hierarchy::new(&cfg, 7);
        let mut s = SimStats::default();
        // Stream 2x the L1's 256 lines round-robin, twice: the second pass
        // misses everywhere, and LRU in the shadow keeps none of them.
        for pass in 0..2 {
            for n in 0..512u64 {
                h.demand_access(
                    LineAddr(n * 257),
                    AccessKind::Load,
                    1 + pass * 10_000 + n,
                    &mut s,
                );
            }
        }
        assert_eq!(s.l1.miss_class.compulsory, 512);
        assert!(
            s.l1.miss_class.capacity > 400,
            "second pass is capacity-bound: {:?}",
            s.l1.miss_class
        );
        assert_eq!(s.l1.miss_class.total(), s.l1.demand_misses);
    }

    #[test]
    fn prefetch_fills_do_not_perturb_classification() {
        let cfg = SystemConfig::paper_default().with_miss_classification();
        let mut h = Hierarchy::new(&cfg, 7);
        let mut s = SimStats::default();
        // A prefetch fills line 20; the later demand access hits the real
        // L1, so nothing is classified — and the shadow never saw the
        // prefetch either.
        h.issue_prefetch(&pf(20), 0, &mut s);
        let r = h.demand_access(LineAddr(20), AccessKind::Load, 400, &mut s);
        assert!(r.l1_hit);
        assert_eq!(s.l1.miss_class.total(), 0);
        // Evict it and demand it again: the shadow saw exactly one prior
        // reference (the demand hit above), so this miss is a conflict.
        h.demand_access(LineAddr(20 + 256), AccessKind::Load, 800, &mut s);
        h.demand_access(LineAddr(20), AccessKind::Load, 1200, &mut s);
        assert_eq!(s.l1.miss_class.conflict, 1);
    }

    #[test]
    fn bus_serializes_concurrent_misses() {
        let (mut h, mut s) = hierarchy();
        let r1 = h.demand_access(LineAddr(100), AccessKind::Load, 0, &mut s);
        let r2 = h.demand_access(LineAddr(200), AccessKind::Load, 0, &mut s);
        assert!(r2.complete_at > r1.complete_at, "second transfer queues");
    }
}
