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
//! parallel, and a buffer hit promotes the line into the L1. With the
//! victim-cache ablation, L1 evictions park in a victim cache first. Both
//! are one [`SideStore`], and a line lives in at most one L1-side place
//! (L1D, buffer or victim cache): a prefetch of a line held in any of them
//! is squashed as a duplicate.
//!
//! One arrival rule covers every structure that holds a line (L1D, L1I,
//! L2, prefetch buffer, victim cache): each fill records the cycle the
//! line's data arrives, and each hit completes at `max(now + that level's
//! latency, fill-ready cycle)`. A line that moves from the buffer or the
//! victim cache into the L1 keeps its cycle.

use crate::bus::Bus;
use crate::cache::{Cache, Evicted, FillKind, ProbeHit};
use crate::classify::MissClassifier;
use crate::dram::MainMemory;
use crate::side::SideStore;
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
    /// Served by the dedicated prefetch buffer, which is probed in parallel
    /// with the L1.
    pub buffer_hit: bool,
    /// The final eviction record this access's L1 fill produced (filter
    /// feedback!): the displaced line, or with the victim cache the record
    /// that aged out of it.
    pub evicted: Option<Evicted>,
    /// Provenance of a prefetched line this access moved from the buffer or
    /// the victim cache into the L1: referenced after all, a *good*
    /// prefetch.
    pub promoted: Option<PrefetchOrigin>,
}

/// Everything an issued prefetch produced.
#[derive(Debug, Clone, Copy)]
pub struct PrefetchIssue {
    /// Cycle at which the prefetched line is fully resident.
    pub complete_at: Cycle,
    /// The final eviction record the fill produced: the L1 line it
    /// displaced (with the victim cache, the record that aged out), or the
    /// buffered prefetch it pushed out of a full buffer (a bad prefetch).
    pub evicted: Option<Evicted>,
}

/// Two-level hierarchy with bus, memory and optional prefetch buffer and
/// victim cache.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    /// L1 data cache (public: the simulator and prefetchers probe it).
    pub l1: Cache,
    /// L1 instruction cache (Table 1: "L1 I/D 8KB").
    pub l1i: Cache,
    /// Unified L2 (public for SDP's shadow-directory access).
    pub l2: Cache,
    buffer: Option<SideStore>,
    victim: Option<SideStore>,
    bus: Bus,
    mem: MainMemory,
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
    /// Build the hierarchy described by `cfg`.
    pub fn new(cfg: &SystemConfig) -> Self {
        Hierarchy {
            l1: Cache::new(&cfg.l1),
            l1i: Cache::new(&cfg.l1i),
            l2: Cache::new(&cfg.l2),
            buffer: (cfg.buffer.entries > 0).then(|| SideStore::new(cfg.buffer.entries)),
            victim: (cfg.victim.entries > 0).then(|| SideStore::new(cfg.victim.entries)),
            bus: Bus::new(&cfg.mem),
            mem: MainMemory::new(&cfg.mem),
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

    /// L1D, prefetch-buffer and victim-cache lines whose fill is still in
    /// flight at `now` — the interval-telemetry gauge. A full scan, so call
    /// it only when a sample is taken; it never affects timing.
    pub fn in_flight(&self, now: Cycle) -> usize {
        let side: usize = [&self.buffer, &self.victim]
            .into_iter()
            .flatten()
            .map(|store| store.in_flight(now))
            .sum();
        self.l1.in_flight(now) + side
    }

    /// Earliest future state change anywhere below the LSQ — the shared bus
    /// freeing up, DRAM banks freeing up — for the skip-ahead kernel's
    /// event calendar. Both structures are passive (demand accesses
    /// *observe* their timestamps; nothing fires spontaneously), so these
    /// wake-ups are conservative: waking on them can only shorten a jump,
    /// never change machine state. In-flight fills need no entry: every
    /// access that waits on one is already in the core's retire or issue
    /// wake-ups.
    pub fn next_event_cycle(&self, now: Cycle) -> Option<Cycle> {
        [
            self.bus.next_event_cycle(now),
            self.mem.next_event_cycle(now),
        ]
        .into_iter()
        .flatten()
        .min()
    }

    /// The dedicated prefetch buffer, if configured.
    pub fn buffer(&self) -> Option<&SideStore> {
        self.buffer.as_ref()
    }

    /// The victim cache, if configured.
    pub fn victim(&self) -> Option<&SideStore> {
        self.victim.as_ref()
    }

    /// True if `line` is resident in the L1, the prefetch buffer or the
    /// victim cache — the duplicate-squash predicate for incoming
    /// prefetches, so a line is held in at most one L1-side place.
    pub fn prefetch_target_resident(&self, line: LineAddr) -> bool {
        self.l1.contains(line)
            || self.buffer.as_ref().is_some_and(|b| b.contains(line))
            || self.victim.as_ref().is_some_and(|v| v.contains(line))
    }

    /// Bring `line` from L2/memory: returns the completion cycle and
    /// whether the L2 hit, filling the L2 on a miss with the memory
    /// arrival cycle. `client` attributes the access in the L2 counters.
    fn fetch_from_l2(
        &mut self,
        line: LineAddr,
        now: Cycle,
        client: L2Client,
        stats: &mut SimStats,
    ) -> (Cycle, Option<bool>) {
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
        if let Some(hit) = self.l2.probe(line, false) {
            if count {
                stats.l2.demand_hits += 1;
            }
            return ((l2_start + self.l2_lat).max(hit.ready), Some(true));
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
        let l2_evicted = self.l2.fill(line, FillKind::Demand, done);
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
        (done, Some(false))
    }

    /// Demand-fill `line` into the L1 with its fill-ready cycle, dirtying
    /// it for a store, and route the displaced line through
    /// [`Self::writeback_from_l1`]; returns the final eviction record.
    fn fill_l1(
        &mut self,
        line: LineAddr,
        is_write: bool,
        ready: Cycle,
        now: Cycle,
        stats: &mut SimStats,
    ) -> Option<Evicted> {
        let l1_evicted = self.l1.fill(line, FillKind::Demand, ready);
        if is_write {
            self.l1.mark_dirty(line);
        }
        l1_evicted.and_then(|ev| self.writeback_from_l1(&ev, now, stats))
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
    /// (fetch overlaps with the 1-cycle I-cache pipeline) once the line has
    /// arrived; misses fetch through the unified L2 — competing for its
    /// port with data traffic — and return the cycle the fetch group is
    /// available.
    pub fn inst_access(&mut self, line: LineAddr, now: Cycle, stats: &mut SimStats) -> Cycle {
        stats.l1i.demand_accesses += 1;
        if let Some(hit) = self.l1i.probe(line, false) {
            stats.l1i.demand_hits += 1;
            return now.max(hit.ready);
        }
        stats.l1i.demand_misses += 1;
        let (data_at, _) = self.fetch_from_l2(line, now + 1, L2Client::Inst, stats);
        if self.l1i.fill(line, FillKind::Demand, data_at).is_some() {
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
            return AccessResult {
                complete_at: (now + self.l1_lat).max(probe.ready),
                l1_hit: true,
                l2_hit: None,
                l1_probe: Some(probe),
                buffer_hit: false,
                evicted: None,
                promoted: None,
            };
        }
        stats.l1.demand_misses += 1;
        if let Some(kind) = l1_kind {
            kind.tally(&mut stats.l1.miss_class);
        }

        // The victim cache costs one extra cycle; the prefetch buffer is
        // probed in parallel with the L1, so it adds no latency. A hit
        // moves the line into the L1 with its fill-ready cycle.
        let side_hit = if let Some(record) = self.victim.as_mut().and_then(|v| v.take(line)) {
            Some((record, self.l1_lat + 1, false))
        } else if let Some(record) = self.buffer.as_mut().and_then(|b| b.take(line)) {
            stats.buffer_hits += 1;
            Some((record, self.l1_lat, true))
        } else {
            None
        };
        if let Some((record, latency, buffer_hit)) = side_hit {
            return AccessResult {
                complete_at: (now + latency).max(record.ready),
                l1_hit: false,
                l2_hit: None,
                l1_probe: None,
                buffer_hit,
                evicted: self.fill_l1(line, is_write, record.ready, now, stats),
                promoted: record.prefetch.map(|(origin, _)| origin),
            };
        }

        // Miss: go to L2 (and memory beyond).
        let (data_at, l2_hit) =
            self.fetch_from_l2(line, now + self.l1_lat, L2Client::DemandData, stats);
        AccessResult {
            complete_at: data_at,
            l1_hit: false,
            l2_hit,
            l1_probe: None,
            buffer_hit: false,
            evicted: self.fill_l1(line, is_write, data_at, now, stats),
            promoted: None,
        }
    }

    /// Issue a prefetch that already passed the pollution filter and won an
    /// L1 port at cycle `now`. The caller has squashed it if its target is
    /// resident ([`Self::prefetch_target_resident`]).
    pub fn issue_prefetch(
        &mut self,
        req: &PrefetchRequest,
        now: Cycle,
        stats: &mut SimStats,
    ) -> PrefetchIssue {
        debug_assert!(
            !self.prefetch_target_resident(req.line),
            "prefetch of resident line {:?}",
            req.line
        );
        let (data_at, _) =
            self.fetch_from_l2(req.line, now + self.l1_lat, L2Client::Prefetch, stats);
        let origin = req.origin();
        stats.l1.prefetch_fills += 1; // the buffer, when present, stands in for the L1
        let evicted = match &mut self.buffer {
            Some(buffer) => {
                let displaced = buffer.insert(Evicted {
                    line: req.line,
                    dirty: false,
                    prefetch: Some((origin, false)),
                    ready: data_at,
                });
                if displaced.is_some() {
                    stats.buffer_bad_evictions += 1;
                }
                displaced
            }
            None => self
                .l1
                .fill(req.line, FillKind::Prefetch(origin), data_at)
                .and_then(|ev| self.writeback_from_l1(&ev, now, stats)),
        };
        PrefetchIssue {
            complete_at: data_at,
            evicted,
        }
    }

    /// End-of-run census: remove and report every line still held on the
    /// L1 side — the L1's, then the victim cache's, then the buffer's — so
    /// prefetches that were never evicted are classified too, through the
    /// same eviction records the filter trains on.
    pub fn drain(&mut self) -> Vec<Evicted> {
        let mut records: Vec<Evicted> = self.l1.drain().collect();
        for store in [&mut self.victim, &mut self.buffer].into_iter().flatten() {
            records.extend(store.drain());
        }
        records
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppf_types::{PrefetchSource, SystemConfig};

    fn hierarchy() -> (Hierarchy, SimStats) {
        let cfg = SystemConfig::paper_default();
        (Hierarchy::new(&cfg), SimStats::default())
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
        h.issue_prefetch(&pf(20), 0, &mut s);
        assert!(h.l1.contains(LineAddr(20)));
        assert_eq!(s.l1.prefetch_fills, 1);
        // Unreferenced: evict via conflict -> bad feedback record.
        let r2 = h.demand_access(LineAddr(20 + 256), AccessKind::Load, 500, &mut s);
        let ev = r2.evicted.expect("conflict eviction");
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
        let (_, referenced) = r2.evicted.unwrap().prefetch.unwrap();
        assert!(referenced);
    }

    #[test]
    fn prefetched_line_is_resident_for_squashing() {
        let (mut h, mut s) = hierarchy();
        assert!(!h.prefetch_target_resident(LineAddr(20)));
        h.issue_prefetch(&pf(20), 0, &mut s);
        assert!(h.prefetch_target_resident(LineAddr(20)));
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
    fn buffer_hit_waits_for_in_flight_prefetch() {
        let cfg = SystemConfig::paper_default().with_prefetch_buffer();
        let mut h = Hierarchy::new(&cfg);
        let mut s = SimStats::default();
        let p = h.issue_prefetch(&pf(50), 0, &mut s);
        assert!(p.complete_at > 100, "cold prefetch goes to memory");
        let r = h.demand_access(LineAddr(50), AccessKind::Load, 1, &mut s);
        assert!(r.buffer_hit);
        assert_eq!(r.complete_at, p.complete_at, "the data is not there yet");
        // The promoted line keeps its cycle in the L1.
        let r2 = h.demand_access(LineAddr(50), AccessKind::Load, 2, &mut s);
        assert!(r2.l1_hit);
        assert_eq!(r2.complete_at, p.complete_at);
    }

    #[test]
    fn l2_hit_on_in_flight_line_waits() {
        let (mut h, mut s) = hierarchy();
        let r1 = h.demand_access(LineAddr(10), AccessKind::Load, 0, &mut s);
        // Conflict-evict line 10 from the direct-mapped L1 while its
        // memory fill is still in flight, then demand it again.
        h.demand_access(LineAddr(10 + 256), AccessKind::Load, 1, &mut s);
        assert!(!h.l1.contains(LineAddr(10)));
        let r = h.demand_access(LineAddr(10), AccessKind::Load, 2, &mut s);
        assert_eq!(r.l2_hit, Some(true));
        assert_eq!(r.complete_at, r1.complete_at, "not at L1 + L2 latency");
    }

    #[test]
    fn victim_hit_on_in_flight_line_waits() {
        let cfg = SystemConfig::paper_default().with_victim_cache(8);
        let mut h = Hierarchy::new(&cfg);
        let mut s = SimStats::default();
        let r1 = h.demand_access(LineAddr(10), AccessKind::Load, 0, &mut s);
        h.demand_access(LineAddr(10 + 256), AccessKind::Load, 1, &mut s);
        let r = h.demand_access(LineAddr(10), AccessKind::Load, 2, &mut s);
        assert_eq!(r.l2_hit, None, "served by the victim cache");
        assert_eq!(r.complete_at, r1.complete_at);
    }

    #[test]
    fn hit_waits_with_more_misses_in_flight_than_sixteen() {
        let (mut h, mut s) = hierarchy();
        let first = h.demand_access(LineAddr(0), AccessKind::Load, 0, &mut s);
        for line in 1..17u64 {
            h.demand_access(LineAddr(line), AccessKind::Load, line, &mut s);
        }
        let r = h.demand_access(LineAddr(0), AccessKind::Load, 17, &mut s);
        assert!(r.l1_hit);
        assert_eq!(r.complete_at, first.complete_at);
    }

    #[test]
    fn inst_fetch_hit_on_in_flight_line_waits() {
        let (mut h, mut s) = hierarchy();
        let first = h.inst_access(LineAddr(70), 0, &mut s);
        assert!(first > 100, "cold fetch goes to memory");
        assert_eq!(h.inst_access(LineAddr(70), 1, &mut s), first);
        assert_eq!(s.l1i.demand_hits, 1);
        assert_eq!(h.inst_access(LineAddr(70), first + 5, &mut s), first + 5);
    }

    #[test]
    fn in_flight_counts_a_cold_miss_until_it_arrives() {
        let (mut h, mut s) = hierarchy();
        assert_eq!(h.in_flight(0), 0);
        let r = h.demand_access(LineAddr(10), AccessKind::Load, 0, &mut s);
        assert_eq!(h.in_flight(1), 1);
        assert_eq!(h.in_flight(r.complete_at), 0);
    }

    #[test]
    fn in_flight_counts_a_victim_parked_line_until_it_arrives() {
        let cfg = SystemConfig::paper_default().with_victim_cache(8);
        let mut h = Hierarchy::new(&cfg);
        let mut s = SimStats::default();
        let r = h.demand_access(LineAddr(10), AccessKind::Load, 0, &mut s);
        // Conflict-evict line 10 into the victim cache before it arrives.
        h.demand_access(LineAddr(10 + 256), AccessKind::Load, 1, &mut s);
        assert!(h.victim().unwrap().contains(LineAddr(10)));
        assert_eq!(h.in_flight(2), 2);
        assert_eq!(h.in_flight(r.complete_at), 1);
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
        let cfg = SystemConfig::paper_default().with_prefetch_buffer();
        let mut h = Hierarchy::new(&cfg);
        let mut s = SimStats::default();
        h.issue_prefetch(&pf(50), 0, &mut s);
        assert!(!h.l1.contains(LineAddr(50)));
        assert!(h.prefetch_target_resident(LineAddr(50)));
        // Demand access hits the buffer, promotes into L1.
        let r = h.demand_access(LineAddr(50), AccessKind::Load, 10, &mut s);
        assert!(!r.l1_hit);
        assert!(r.buffer_hit);
        assert_eq!(r.promoted.unwrap().line, LineAddr(50), "a good prefetch");
        assert!(h.l1.contains(LineAddr(50)));
        assert_eq!(s.buffer_hits, 1);
    }

    #[test]
    fn buffer_overflow_reports_bad() {
        let mut cfg = SystemConfig::paper_default();
        cfg.buffer.entries = 2;
        let mut h = Hierarchy::new(&cfg);
        let mut s = SimStats::default();
        h.issue_prefetch(&pf(1), 0, &mut s);
        h.issue_prefetch(&pf(2), 1, &mut s);
        let r = h.issue_prefetch(&pf(3), 2, &mut s);
        let ev = r.evicted.expect("LRU spill");
        let (origin, referenced) = ev.prefetch.expect("a buffered prefetch");
        assert_eq!(origin.line, LineAddr(1));
        assert!(!referenced, "never referenced: a bad prefetch");
        assert_eq!(s.buffer_bad_evictions, 1);
    }

    #[test]
    fn drain_reports_resident_prefetches() {
        let (mut h, mut s) = hierarchy();
        h.issue_prefetch(&pf(60), 0, &mut s);
        h.demand_access(LineAddr(61), AccessKind::Load, 10, &mut s);
        let drained = h.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained.iter().filter(|e| e.prefetch.is_some()).count(), 1);
        assert!(!h.l1.contains(LineAddr(60)));
    }

    #[test]
    fn drain_reports_l1_then_victim_cache_then_buffer() {
        let cfg = SystemConfig::paper_default()
            .with_prefetch_buffer()
            .with_victim_cache(8);
        let mut h = Hierarchy::new(&cfg);
        let mut s = SimStats::default();
        h.demand_access(LineAddr(10), AccessKind::Load, 0, &mut s);
        h.demand_access(LineAddr(10 + 256), AccessKind::Load, 1, &mut s);
        h.issue_prefetch(&pf(50), 2, &mut s);
        let lines: Vec<u64> = h.drain().iter().map(|e| e.line.0).collect();
        assert_eq!(lines, vec![10 + 256, 10, 50]);
        assert!(h.drain().is_empty());
    }

    #[test]
    fn victim_cache_catches_conflict_evictions() {
        let cfg = SystemConfig::paper_default().with_victim_cache(8);
        let mut h = Hierarchy::new(&cfg);
        let mut s = SimStats::default();
        h.demand_access(LineAddr(10), AccessKind::Load, 0, &mut s);
        // Conflict-evict line 10 (same set, 256 sets apart)...
        h.demand_access(LineAddr(10 + 256), AccessKind::Load, 500, &mut s);
        assert!(!h.l1.contains(LineAddr(10)));
        // ...then re-demand it: served from the victim cache, fast.
        let r = h.demand_access(LineAddr(10), AccessKind::Load, 1000, &mut s);
        assert_eq!(r.l2_hit, None, "served by the victim cache");
        assert_eq!(r.complete_at, 1000 + 1 + 1, "L1 latency + swap cycle");
        assert!(h.l1.contains(LineAddr(10)));
        assert!(!h.victim().unwrap().contains(LineAddr(10)));
    }

    #[test]
    fn victim_cache_finalizes_aged_out_prefetch_records() {
        let mut cfg = SystemConfig::paper_default().with_victim_cache(1);
        cfg.prefetch.nsp = true;
        let mut h = Hierarchy::new(&cfg);
        let mut s = SimStats::default();
        // Prefetch line 20, evict it unused, then push a second eviction
        // through the 1-entry victim cache: 20's record ages out as final.
        h.issue_prefetch(&pf(20), 0, &mut s);
        let r1 = h.demand_access(LineAddr(20 + 256), AccessKind::Load, 100, &mut s);
        assert!(r1.evicted.is_none(), "record parked in the victim cache");
        h.demand_access(LineAddr(30), AccessKind::Load, 200, &mut s);
        let r2 = h.demand_access(LineAddr(30 + 256), AccessKind::Load, 300, &mut s);
        let final_ev = r2.evicted.expect("aged-out record surfaces");
        assert_eq!(final_ev.line, LineAddr(20));
        let (origin, referenced) = final_ev.prefetch.expect("prefetched");
        assert_eq!(origin.line, LineAddr(20));
        assert!(!referenced, "never referenced: finally a bad prefetch");
    }

    #[test]
    fn prefetch_of_a_victim_parked_line_is_a_duplicate() {
        let cfg = SystemConfig::paper_default().with_victim_cache(8);
        let mut h = Hierarchy::new(&cfg);
        let mut s = SimStats::default();
        h.demand_access(LineAddr(10), AccessKind::Load, 0, &mut s);
        h.demand_access(LineAddr(10 + 256), AccessKind::Load, 500, &mut s);
        assert!(!h.l1.contains(LineAddr(10)));
        assert!(
            h.prefetch_target_resident(LineAddr(10)),
            "parked in the victim cache, so a prefetch of it is squashed"
        );
    }

    #[test]
    fn recovered_prefetched_line_is_promoted_from_the_victim_cache() {
        let cfg = SystemConfig::paper_default().with_victim_cache(8);
        let mut h = Hierarchy::new(&cfg);
        let mut s = SimStats::default();
        h.issue_prefetch(&pf(40), 0, &mut s);
        let r1 = h.demand_access(LineAddr(40 + 256), AccessKind::Load, 100, &mut s);
        assert!(r1.evicted.is_none(), "evicted unused, parked, not final");
        // Demanded soon after: the victim cache rescues it, a good
        // prefetch.
        let r = h.demand_access(LineAddr(40), AccessKind::Load, 150, &mut s);
        assert_eq!(r.promoted.expect("prefetched line").line, LineAddr(40));
        assert!(!r.buffer_hit);
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
        let mut h = Hierarchy::new(&cfg);
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
        let mut h = Hierarchy::new(&cfg);
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
        let mut h = Hierarchy::new(&cfg);
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
