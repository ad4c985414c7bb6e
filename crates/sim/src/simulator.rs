//! The machine of Figure 3: core + L1/L2 + prefetchers + pollution filter.
//!
//! Per-cycle schedule (one [`Simulator::run`] loop iteration):
//!
//! 1. The core retires, issues and fetches. Demand memory ops arbitrate for
//!    L1 ports through [`MemSystem::try_access`]; software prefetches are
//!    identified at issue and routed to the filter via
//!    [`MemSystem::software_prefetch`].
//! 2. The prefetch queue drains through whatever L1 ports demand traffic
//!    left free this cycle ([`MemSystem::drain_prefetch_queue`]) — the port
//!    competition at the heart of §5.4.
//!
//! Every prefetch candidate flows: generator → duplicate squash → pollution
//! filter → prefetch queue → port arbitration → L1 fill with provenance.
//! Every prefetched line is classified once, when it leaves the L1 side
//! (an eviction, a demand hit in the prefetch buffer or victim cache, or
//! the end-of-run drain): one function, `MemSystem::census`, feeds the
//! filter's history table and the good/bad census.

use ppf_cpu::{Core, InstStream, MemoryPort};
use ppf_filter::PollutionFilter;
use ppf_mem::hierarchy::{AccessKind, Hierarchy};
use ppf_mem::ports::PortArbiter;
use ppf_mem::queue::{PrefetchQueue, PushOutcome};
use ppf_prefetch::{
    software, AccessEvent, ComposedPrefetcher, CorrelationPrefetcher, NextSequencePrefetcher,
    Prefetcher, ShadowDirectoryPrefetcher, StridePrefetcher,
};
use ppf_types::telemetry::{IntervalRecord, IntervalSampler};
use ppf_types::{
    tenant_of_addr, Addr, Cycle, LineAddr, Pc, PpfError, PrefetchOrigin, PrefetchRequest,
    PrefetchSource, SimStats, SystemConfig,
};

use crate::report::SimReport;

/// Hard ceiling on cycles per retired instruction before the run is
/// declared wedged (indicates a simulator bug, not a slow workload).
const MAX_CPI: u64 = 10_000;

/// Default forward-progress stall window: cycles the core may go without
/// retiring a single instruction before the run is declared wedged. Far
/// above any real memory round-trip in this machine, far below the cycle
/// ceiling, so a fully stalled pipeline is caught early.
const STALL_WINDOW: u64 = 1_000_000;

/// Which cycle kernel drives the machine.
///
/// Both kernels execute the identical per-cycle schedule (alternating-
/// priority prefetch drain, core tick, telemetry close, watchdog checks);
/// the skip-ahead kernel additionally consults the event calendar after a
/// provably quiescent cycle and jumps `now` over the stretch of identical
/// no-op cycles that would follow. The stepping kernel is kept as the
/// executable reference the cycle-identity drill pins the skip-ahead
/// kernel against (DESIGN.md §14).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelMode {
    /// Advance every structure every cycle (reference kernel).
    Stepping,
    /// Event-driven: jump idle stretches via `next_event_cycle` (default).
    #[default]
    SkipAhead,
}

/// Watchdog bounds for a simulation run: a cycle ceiling derived from the
/// instruction budget and a no-retire stall detector. Both abort a wedged
/// cell with a structured [`PpfError`] carrying a pipeline snapshot instead
/// of hanging the worker pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Cycle ceiling per instruction of budget: a run of `n` instructions
    /// may take at most `n * max_cpi` cycles ([`PpfErrorKind::WatchdogTimeout`]
    /// otherwise).
    ///
    /// [`PpfErrorKind::WatchdogTimeout`]: ppf_types::PpfErrorKind::WatchdogTimeout
    pub max_cpi: u64,
    /// Maximum cycles without a single retirement before the run is
    /// declared stalled ([`PpfErrorKind::ForwardProgressStall`]).
    ///
    /// [`PpfErrorKind::ForwardProgressStall`]: ppf_types::PpfErrorKind::ForwardProgressStall
    pub stall_window: u64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            max_cpi: MAX_CPI,
            stall_window: STALL_WINDOW,
        }
    }
}

/// One interaction between the simulator and the pollution filter, in
/// program order — the event stream the differential oracle (`ppf-oracle`)
/// replays against its untimed reference filter. Recording is off by
/// default ([`MemSystem::enable_filter_tap`]) and purely observational: the
/// tap wraps the filter calls without changing any decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterTapEvent {
    /// A `should_prefetch` lookup and the decision the real filter made.
    Lookup {
        /// Prefetch target line.
        line: LineAddr,
        /// Trigger PC.
        pc: Pc,
        /// Generating prefetcher.
        source: PrefetchSource,
        /// Cycle of the lookup.
        now: Cycle,
        /// Tenant the request is charged to (selects salt/partition).
        tenant: u8,
        /// Prefetch depth (lookahead distance) of the request.
        depth: u8,
        /// The real filter's admit/drop decision.
        admitted: bool,
    },
    /// Eviction-time training (`on_eviction`) of a prefetched line.
    Evict {
        /// Prefetched line being evicted (or drained / classified).
        line: LineAddr,
        /// Trigger PC from the line's provenance.
        pc: Pc,
        /// Generating prefetcher from the line's provenance.
        source: PrefetchSource,
        /// Tenant from the line's provenance.
        tenant: u8,
        /// Prefetch depth from the line's provenance.
        depth: u8,
        /// The line's RIB: was it referenced during residency?
        referenced: bool,
    },
    /// Misprediction-recovery probe (`on_demand_miss`).
    DemandMiss {
        /// The missing line.
        line: LineAddr,
        /// Cycle of the miss.
        now: Cycle,
    },
}

/// The memory-side half of the machine (everything below the LSQ).
pub struct MemSystem {
    hierarchy: Hierarchy,
    l1_ports: PortArbiter,
    queue: PrefetchQueue,
    filter: PollutionFilter,
    hw: ComposedPrefetcher,
    software_enabled: bool,
    line_bytes: u32,
    /// Scratch buffer for generator output (reused; hot path stays
    /// allocation-free after warm-up).
    scratch: Vec<PrefetchRequest>,
    /// Last cycle a demand port conflict was counted (one count per cycle).
    last_conflict_cycle: Cycle,
    /// Last instruction line fetched (fetch-group de-duplication).
    last_fetch_line: Option<LineAddr>,
    /// Memory-side statistics (merged with core stats in the report).
    pub stats: SimStats,
    /// When enabled, every filter interaction in program order (see
    /// [`FilterTapEvent`]).
    tap: Option<Vec<FilterTapEvent>>,
}

impl MemSystem {
    /// Build the memory system for `cfg`.
    pub fn new(cfg: &SystemConfig) -> Self {
        let mut generators: Vec<Box<dyn Prefetcher>> = Vec::new();
        if cfg.prefetch.nsp {
            generators.push(Box::new(NextSequencePrefetcher::with_degree(
                cfg.prefetch.nsp_degree.max(1),
            )));
        }
        if cfg.prefetch.sdp {
            generators.push(Box::new(ShadowDirectoryPrefetcher::new(
                cfg.l2.lines().next_power_of_two(),
            )));
        }
        if cfg.prefetch.stride {
            generators.push(Box::new(StridePrefetcher::new(256, cfg.l1.line_bytes)));
        }
        if cfg.prefetch.correlation {
            generators.push(Box::new(CorrelationPrefetcher::new(4096)));
        }
        MemSystem {
            hierarchy: Hierarchy::new(cfg),
            l1_ports: PortArbiter::new(cfg.l1.ports),
            queue: PrefetchQueue::new(cfg.prefetch.queue_len),
            filter: PollutionFilter::new(&cfg.filter),
            hw: ComposedPrefetcher::new(generators),
            software_enabled: cfg.prefetch.software,
            line_bytes: cfg.l1.line_bytes,
            scratch: Vec::with_capacity(8),
            last_conflict_cycle: u64::MAX,
            last_fetch_line: None,
            stats: SimStats::default(),
            tap: None,
        }
    }

    /// A deep copy of the memory system at its current state (caches,
    /// filter tables, prefetcher training state), or `None` when any
    /// composed hardware prefetcher is not duplicable.
    fn try_clone(&self) -> Option<Self> {
        Some(MemSystem {
            hierarchy: self.hierarchy.clone(),
            l1_ports: self.l1_ports.clone(),
            queue: self.queue.clone(),
            filter: self.filter.clone(),
            hw: self.hw.try_clone()?,
            software_enabled: self.software_enabled,
            line_bytes: self.line_bytes,
            scratch: Vec::with_capacity(8),
            last_conflict_cycle: self.last_conflict_cycle,
            last_fetch_line: self.last_fetch_line,
            stats: self.stats.clone(),
            tap: self.tap.clone(),
        })
    }

    /// Start recording every filter interaction (differential testing).
    pub fn enable_filter_tap(&mut self) {
        self.tap = Some(Vec::new());
    }

    /// Take the recorded filter events, leaving the tap enabled and empty.
    /// Empty if the tap was never enabled.
    pub fn take_filter_tap(&mut self) -> Vec<FilterTapEvent> {
        match &mut self.tap {
            Some(tap) => std::mem::take(tap),
            None => Vec::new(),
        }
    }

    /// Filter lookup, recorded through the tap when enabled. All simulator
    /// paths go through these wrappers rather than the filter directly so
    /// the tap sees the complete stream.
    fn filter_lookup(&mut self, req: &PrefetchRequest, now: Cycle) -> bool {
        let admitted = self.filter.should_prefetch(req, now);
        if let Some(tap) = &mut self.tap {
            tap.push(FilterTapEvent::Lookup {
                line: req.line,
                pc: req.trigger_pc,
                source: req.source,
                now,
                tenant: req.tenant,
                depth: req.depth,
                admitted,
            });
        }
        admitted
    }

    /// Eviction-time filter training, recorded through the tap when enabled.
    fn filter_evict(&mut self, origin: &PrefetchOrigin, referenced: bool) {
        self.filter.on_eviction(origin, referenced);
        if let Some(tap) = &mut self.tap {
            tap.push(FilterTapEvent::Evict {
                line: origin.line,
                pc: origin.trigger_pc,
                source: origin.source,
                tenant: origin.tenant,
                depth: origin.depth,
                referenced,
            });
        }
    }

    /// Misprediction-recovery probe, recorded through the tap when enabled.
    fn filter_demand_miss(&mut self, line: LineAddr, now: Cycle) {
        self.filter.on_demand_miss(line, now);
        if let Some(tap) = &mut self.tap {
            tap.push(FilterTapEvent::DemandMiss { line, now });
        }
    }

    /// Immutable view of the pollution filter (for diagnostics).
    pub fn filter(&self) -> &PollutionFilter {
        &self.filter
    }

    /// Prefetches sitting in the queue right now — the funnel's in-flight
    /// residue, needed to balance the conservation invariant mid-run.
    pub fn queue_backlog(&self) -> u64 {
        self.queue.len() as u64
    }

    /// Check the prefetch-funnel conservation invariant against the current
    /// queue backlog: every proposed candidate is accounted for exactly once
    /// (duplicate-squashed, filter-rejected, overflow-dropped, issued, or
    /// still queued).
    pub fn check_funnel(&self) -> Result<(), PpfError> {
        self.stats.check_funnel_conservation(self.queue_backlog())
    }

    /// L1D, prefetch-buffer and victim-cache lines still in flight at
    /// `now` — the interval-telemetry `mshr_live` gauge.
    pub fn in_flight(&self, now: Cycle) -> usize {
        self.hierarchy.in_flight(now)
    }

    /// The good/bad census and the filter's eviction-time training — the
    /// PIB/RIB feedback path of §4, and the only place either happens. It
    /// takes the `(provenance, referenced)` of a prefetched line whose
    /// L1-side lifetime ended: evicted with its RIB, moved into the L1 by
    /// a demand hit in the buffer or the victim cache (`referenced`), or
    /// still held at the end of the run. `None` is a demand-fetched line.
    fn census(&mut self, prefetch: Option<(PrefetchOrigin, bool)>) {
        let Some((origin, referenced)) = prefetch else {
            return;
        };
        if referenced {
            self.stats.prefetch_good.bump(origin.source);
        } else {
            self.stats.prefetch_bad.bump(origin.source);
        }
        self.filter_evict(&origin, referenced);
    }

    /// Offer a candidate prefetch: duplicate squash → filter → queue.
    fn submit_prefetch(&mut self, req: PrefetchRequest, now: Cycle) {
        self.stats.prefetches_proposed.bump(req.source);
        if self.hierarchy.prefetch_target_resident(req.line) || self.queue.contains(req.line) {
            self.stats.prefetches_duplicate.bump(req.source);
            return;
        }
        if !self.filter_lookup(&req, now) {
            self.stats.prefetches_filtered.bump(req.source);
            return;
        }
        match self.queue.push(req) {
            PushOutcome::Enqueued => {}
            PushOutcome::Duplicate => self.stats.prefetches_duplicate.bump(req.source),
            PushOutcome::Overflow => self.stats.prefetches_queue_overflow.bump(req.source),
        }
    }

    /// Pop prefetches into free L1 ports for cycle `now` (sharing the ports
    /// with the core's demand traffic under alternating priority).
    pub fn drain_prefetch_queue(&mut self, now: Cycle) {
        loop {
            let Some(front) = self.queue.front() else {
                return;
            };
            // Squash duplicates for free ("no penalty", §5.1) before
            // spending a port on them.
            if self.hierarchy.prefetch_target_resident(front.line) {
                let req = self.queue.pop().expect("front exists");
                self.stats.prefetches_duplicate.bump(req.source);
                continue;
            }
            if !self.l1_ports.try_acquire(now) {
                // Every request still queued is blocked on ports this
                // cycle: count one retry per blocked request, so the
                // counter measures prefetch-side queuing delay rather
                // than merely how often the drain gave up.
                self.stats.prefetch_port_retries += self.queue.len() as u64;
                return;
            }
            let req = self.queue.pop().expect("front exists");
            let issue = self.hierarchy.issue_prefetch(&req, now, &mut self.stats);
            self.stats.prefetches_issued.bump(req.source);
            // The line allocated in the L1 (or the dedicated buffer): the
            // funnel's "filled" stage. Issued-but-resident targets were
            // squashed above, so issued == filled in this machine — the
            // diagnostics make that equality checkable instead of assumed.
            self.stats.prefetches_filled.bump(req.source);
            self.census(issue.evicted.and_then(|ev| ev.prefetch));
        }
    }

    /// Drop every pending queued prefetch (used at the warm-up/measurement
    /// boundary so the funnel counters start balanced).
    pub fn flush_prefetch_queue(&mut self) {
        self.queue.clear();
    }

    /// The memory side's entry in the skip-ahead kernel's event calendar:
    /// the prefetch queue wants a port next cycle whenever it is non-empty,
    /// and the hierarchy's passive structures (bus, DRAM banks) contribute
    /// their next completion as conservative wake-ups.
    pub fn next_event_cycle(&self, now: Cycle) -> Option<Cycle> {
        match (
            self.queue.next_event_cycle(now),
            self.hierarchy.next_event_cycle(now),
        ) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// End-of-run census: classify lines still held in the L1, the victim
    /// cache and the prefetch buffer so Figure 1's totals cover *all*
    /// prefetches.
    pub fn drain_final(&mut self) {
        for ev in self.hierarchy.drain() {
            self.census(ev.prefetch);
        }
    }
}

impl MemoryPort for MemSystem {
    fn try_access(&mut self, pc: Pc, addr: Addr, is_store: bool, now: Cycle) -> Option<Cycle> {
        if !self.l1_ports.try_acquire(now) {
            self.stats.demand_port_retries += 1;
            if self.last_conflict_cycle != now {
                self.last_conflict_cycle = now;
                self.stats.l1_port_conflict_cycles += 1;
            }
            return None;
        }
        let line = LineAddr::of(addr, self.line_bytes);
        let kind = if is_store {
            AccessKind::Store
        } else {
            AccessKind::Load
        };
        let res = self
            .hierarchy
            .demand_access(line, kind, now, &mut self.stats);
        if !res.l1_hit && !res.buffer_hit {
            // Misprediction recovery: this miss may be a prefetch the
            // filter wrongly rejected (see ppf-filter's recovery module).
            self.filter_demand_miss(line, now);
        }
        self.census(res.evicted.and_then(|ev| ev.prefetch));
        // A promoted line re-enters the L1 as a demand line, so this is
        // its final classification.
        self.census(res.promoted.map(|origin| (origin, true)));
        // Trigger the hardware prefetchers on this access.
        let event = AccessEvent {
            pc,
            addr,
            line,
            l1_hit: res.l1_hit,
            nsp_tagged_hit: res.l1_probe.map(|p| p.nsp_tagged).unwrap_or(false),
            l2_accessed: res.l2_hit.is_some(),
            l2_hit: res.l2_hit.unwrap_or(false),
            is_store,
        };
        // Tenant assignment happens exactly here: every prefetch a demand
        // access triggers is charged to the tenant whose address region the
        // access touched, before the request enters the filter funnel.
        let tenant = tenant_of_addr(addr);
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        self.hw.on_access(&event, &mut scratch);
        for mut req in scratch.drain(..) {
            req.tenant = tenant;
            self.submit_prefetch(req, now);
        }
        self.scratch = scratch;
        Some(res.complete_at)
    }

    fn fetch_access(&mut self, pc: Pc, now: Cycle) -> Cycle {
        let line = LineAddr::of(pc, self.line_bytes);
        // Sequential fetch touches the same line several times per group;
        // only the first lookup per line is architecturally interesting.
        if self.last_fetch_line == Some(line) {
            return now;
        }
        self.last_fetch_line = Some(line);
        self.hierarchy.inst_access(line, now, &mut self.stats)
    }

    fn software_prefetch(&mut self, pc: Pc, addr: Addr, now: Cycle) {
        if !self.software_enabled {
            return;
        }
        let mut req = software::request_for(pc, addr, self.line_bytes);
        req.tenant = tenant_of_addr(addr);
        self.submit_prefetch(req, now);
    }
}

/// One simulated machine plus its workload stream.
pub struct Simulator {
    core: Core,
    mem: MemSystem,
    stream: Box<dyn InstStream>,
    cfg: SystemConfig,
    label: String,
    workload_name: String,
    seed: u64,
    now: Cycle,
    /// Cycle at the last stats reset (IPC is measured from here).
    cycle_base: Cycle,
    core_stats: SimStats,
    watchdog: WatchdogConfig,
    kernel: KernelMode,
    /// Interval telemetry; `None` (the default) is the provably-free-off
    /// state — the per-cycle loop pays one branch on it and nothing else.
    telemetry: Option<IntervalSampler>,
}

impl Simulator {
    /// Build a simulator for `cfg` running `stream`. Fails if the config is
    /// structurally invalid.
    pub fn new(cfg: SystemConfig, stream: impl InstStream + 'static) -> Result<Self, PpfError> {
        Self::with_seed(cfg, Box::new(stream), 0)
    }

    /// Build with an explicit seed, which the report and error frames name.
    pub fn with_seed(
        cfg: SystemConfig,
        stream: Box<dyn InstStream>,
        seed: u64,
    ) -> Result<Self, PpfError> {
        cfg.validate()?;
        Ok(Simulator {
            core: Core::new(&cfg.core),
            mem: MemSystem::new(&cfg),
            stream,
            label: String::new(),
            workload_name: String::new(),
            seed,
            cfg,
            now: 0,
            cycle_base: 0,
            core_stats: SimStats::default(),
            watchdog: WatchdogConfig::default(),
            kernel: KernelMode::default(),
            telemetry: None,
        })
    }

    /// Replace the watchdog bounds (builder form; the default is
    /// [`WatchdogConfig::default`]).
    pub fn with_watchdog(mut self, watchdog: WatchdogConfig) -> Self {
        self.watchdog = watchdog;
        self
    }

    /// Select the cycle kernel (builder form; the default is
    /// [`KernelMode::SkipAhead`]). The stepping kernel exists as the
    /// executable reference for the cycle-identity drill.
    pub fn with_kernel(mut self, kernel: KernelMode) -> Self {
        self.kernel = kernel;
        self
    }

    /// Sample interval telemetry every `interval_cycles` cycles from the
    /// current cycle on (builder form). The sampler only observes, so runs
    /// stay cycle-identical to a telemetry-free build. Fails on a zero
    /// interval.
    pub fn with_telemetry(mut self, interval_cycles: u64) -> Result<Self, PpfError> {
        let mut sampler = IntervalSampler::new(interval_cycles)?;
        sampler.reset(self.now);
        self.telemetry = Some(sampler);
        Ok(self)
    }

    /// The run identity used in error context frames: label, workload, seed.
    fn run_identity(&self) -> String {
        let label = if self.label.is_empty() {
            "?"
        } else {
            &self.label
        };
        let workload = if self.workload_name.is_empty() {
            "?"
        } else {
            &self.workload_name
        };
        format!("run {label}/{workload} seed {}", self.seed)
    }

    /// Drive the machine until `target` cumulative instructions have
    /// retired, under watchdog supervision. The watchdog checks are
    /// read-only observers of the per-cycle loop, so a run that stays
    /// within bounds is cycle-for-cycle identical to an unsupervised one.
    ///
    /// Under [`KernelMode::SkipAhead`], a cycle whose core tick was
    /// provably a no-op ([`TickOutcome::quiescent`]) with an empty prefetch
    /// queue jumps `now` to the event calendar's minimum — the earliest
    /// cycle any structure can act — clamped by the jump barriers: the
    /// telemetry interval close (the sampler must run exactly at its due
    /// cycle), the watchdog stall deadline, and the cycle ceiling. Every
    /// skipped cycle would have executed the identical no-op schedule, so
    /// the two kernels are cycle-identical by construction (DESIGN.md §14).
    fn drive(&mut self, target: u64, phase: &'static str) -> Result<(), PpfError> {
        let budget = target.saturating_sub(self.core_stats.instructions);
        let deadline = self.now + budget.max(1).saturating_mul(self.watchdog.max_cpi);
        let mut last_retired = self.core_stats.instructions;
        let mut last_retire_cycle = self.now;
        while self.core_stats.instructions < target {
            self.now += 1;
            // The prefetch queue and the LSQ share the universal L1 ports
            // (Figure 3). Arbitration alternates priority each cycle so
            // prefetch traffic genuinely competes with demand accesses —
            // the contention the paper's filter exists to relieve (§5.4):
            // even cycles drain before the core's demand traffic claims
            // ports (prefetch priority), odd cycles after (demand
            // priority). Exactly one drain per cycle either way.
            let prefetch_priority = self.now.is_multiple_of(2);
            if prefetch_priority {
                self.mem.drain_prefetch_queue(self.now);
            }
            let tick = self.core.tick(
                self.now,
                &mut *self.stream,
                &mut self.mem,
                &mut self.core_stats,
            );
            if !prefetch_priority {
                self.mem.drain_prefetch_queue(self.now);
            }
            // Interval telemetry: a read-only observer, like the watchdog
            // below. Telemetry-off runs pay exactly this one branch; the
            // `next_due` guard makes a mid-interval cycle one comparison.
            if let Some(t) = &mut self.telemetry {
                if self.now >= t.next_due() {
                    t.sample(
                        self.now,
                        self.core_stats.instructions,
                        &self.mem.stats,
                        self.mem.filter().fraction_good(),
                        self.mem.in_flight(self.now) as u64,
                        self.mem.queue_backlog(),
                    );
                }
            }
            if self.core_stats.instructions > last_retired {
                last_retired = self.core_stats.instructions;
                last_retire_cycle = self.now;
            } else if self.now - last_retire_cycle >= self.watchdog.stall_window {
                return Err(PpfError::forward_progress_stall(format!(
                    "no instruction retired for {} cycles during {phase}: \
                     {}/{} instructions at cycle {} (last retirement at cycle {}, \
                     prefetch queue backlog {})",
                    self.watchdog.stall_window,
                    self.core_stats.instructions,
                    target,
                    self.now,
                    last_retire_cycle,
                    self.mem.queue_backlog(),
                ))
                .context(self.run_identity()));
            }
            if self.now >= deadline {
                return Err(PpfError::watchdog_timeout(format!(
                    "cycle ceiling exceeded during {phase}: {}/{} instructions \
                     after {} cycles (budget {} insts x max CPI {}, last \
                     retirement at cycle {}, prefetch queue backlog {})",
                    self.core_stats.instructions,
                    target,
                    self.now - self.cycle_base,
                    budget.max(1),
                    self.watchdog.max_cpi,
                    last_retire_cycle,
                    self.mem.queue_backlog(),
                ))
                .context(self.run_identity()));
            }
            // Skip-ahead: a quiescent tick with an empty prefetch queue
            // proves every cycle until the next calendar event repeats the
            // same no-op schedule (the queue only refills from core
            // activity, and an empty-queue drain does nothing under either
            // parity). Jump to one cycle before the event; the `+= 1` at
            // the top of the loop lands exactly on it.
            if self.kernel == KernelMode::SkipAhead
                && tick.quiescent()
                && self.mem.queue_backlog() == 0
            {
                if let Some(next) = self.next_wakeup(last_retire_cycle, deadline) {
                    self.now = next - 1;
                }
            }
        }
        Ok(())
    }

    /// The event calendar's minimum over every structure, clamped by the
    /// jump barriers, from a quiescent cycle `self.now`. `None` when the
    /// minimum is the very next cycle (plain stepping; nothing to skip).
    ///
    /// Barriers are cycles the loop body must *execute*, not merely reach:
    /// the telemetry interval close (`IntervalSampler::sample` derives the
    /// interval index from being called exactly at its due cycle), the
    /// watchdog's stall deadline and the cycle ceiling (both must fire at
    /// the same cycle, with the same message, as under stepping). A fully
    /// wedged core (no calendar entry at all) degrades to jumping straight
    /// to the nearest barrier.
    fn next_wakeup(&self, last_retire_cycle: Cycle, deadline: Cycle) -> Option<Cycle> {
        let mut next = self
            .core
            .next_event_cycle(self.now)
            .unwrap_or(Cycle::MAX)
            .min(deadline);
        if let Some(m) = self.mem.next_event_cycle(self.now) {
            next = next.min(m);
        }
        next = next.min(last_retire_cycle.saturating_add(self.watchdog.stall_window));
        if let Some(t) = &self.telemetry {
            next = next.min(t.next_due());
        }
        (next > self.now + 1).then_some(next)
    }

    /// Run `n` instructions as cache/predictor/filter warm-up, then zero
    /// all statistics. Steady-state measurement after warm-up is the
    /// standard methodology for short simulations standing in for the
    /// paper's 300M-instruction runs (compulsory misses would otherwise
    /// dominate the L2 numbers).
    pub fn warmup(&mut self, n: u64) {
        self.warmup_checked(n).unwrap_or_else(|e| panic!("{e}"));
    }

    /// [`Simulator::warmup`] with the watchdog error surfaced instead of
    /// panicking — the form the fault-tolerant grid runner uses.
    pub fn warmup_checked(&mut self, n: u64) -> Result<(), PpfError> {
        let target = self.core_stats.instructions + n;
        self.drive(target, "warmup")?;
        self.core_stats = SimStats::default();
        self.mem.stats = SimStats::default();
        // Requests enqueued before the reset would otherwise surface as
        // issued-but-never-proposed and break funnel conservation; warm-up
        // ends with an empty queue so measurement starts balanced.
        self.mem.flush_prefetch_queue();
        self.cycle_base = self.now;
        // Telemetry intervals are measured from the same origin as the
        // stats (warm-up records are dropped, interval 0 starts here).
        if let Some(t) = &mut self.telemetry {
            t.reset(self.now);
        }
        Ok(())
    }

    /// Take ownership of the collected interval records (empty when
    /// telemetry is off).
    pub fn take_telemetry_records(&mut self) -> Vec<IntervalRecord> {
        self.telemetry
            .as_mut()
            .map_or_else(Vec::new, |t| t.take_records())
    }

    /// Attach report labels (experiment + workload names).
    pub fn labeled(mut self, label: impl Into<String>, workload: impl Into<String>) -> Self {
        self.label = label.into();
        self.workload_name = workload.into();
        self
    }

    /// A deep copy of the whole machine at its current state — core,
    /// caches, filter tables, prefetcher training state and stream
    /// position — or `None` when the stream or a prefetcher is not
    /// duplicable, or when telemetry is attached (samplers are per-run).
    /// Running the copy on gives exactly the report the original would
    /// give. The grid runner shares no warm-ups (the cell store shares
    /// whole cells instead); the benchmark's `sim.snapshot_ms` probe times
    /// this copy.
    pub fn try_snapshot(&self) -> Option<Self> {
        if self.telemetry.is_some() {
            return None;
        }
        Some(Simulator {
            core: self.core.clone(),
            mem: self.mem.try_clone()?,
            stream: self.stream.clone_box()?,
            cfg: self.cfg.clone(),
            label: self.label.clone(),
            workload_name: self.workload_name.clone(),
            seed: self.seed,
            now: self.now,
            cycle_base: self.cycle_base,
            core_stats: self.core_stats.clone(),
            watchdog: self.watchdog,
            kernel: self.kernel,
            telemetry: None,
        })
    }

    /// The machine configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The memory-side half of the machine (diagnostics: filter state,
    /// queue occupancy).
    pub fn mem_system(&self) -> &MemSystem {
        &self.mem
    }

    /// Mutable access to the memory system (diagnostics: turn on the
    /// filter tap before a run with [`MemSystem::enable_filter_tap`]).
    pub fn mem_system_mut(&mut self) -> &mut MemSystem {
        &mut self.mem
    }

    /// Run until `n_instructions` have retired (cumulative across calls);
    /// returns the report including the end-of-run prefetch census.
    ///
    /// # Panics
    ///
    /// Panics if the watchdog trips (cycle ceiling or forward-progress
    /// stall — a simulator bug, surfaced loudly rather than looping
    /// forever) or, in debug builds, on a funnel-conservation violation.
    /// The panic message is the rendered [`PpfError`], including the run
    /// label, workload and seed. Use [`Simulator::run_checked`] to get the
    /// structured error instead.
    pub fn run(&mut self, n_instructions: u64) -> SimReport {
        self.run_checked(n_instructions)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Simulator::run`] with watchdog and funnel failures surfaced as
    /// structured errors instead of panics — the form the fault-tolerant
    /// grid runner uses.
    pub fn run_checked(&mut self, n_instructions: u64) -> Result<SimReport, PpfError> {
        let target = self.core_stats.instructions + n_instructions;
        self.drive(target, "run")?;
        self.mem.drain_final();
        // Funnel conservation: every proposed prefetch must be accounted
        // for. Debug builds (and the opt-level=2 test profile) pay the
        // check; release sweeps do not.
        if cfg!(debug_assertions) {
            self.mem
                .check_funnel()
                .map_err(|e| e.context(self.run_identity()))?;
        }
        // Core and memory stats touch disjoint counters; merging adds the
        // memory side into the core-side snapshot.
        let mut stats = self.core_stats.clone();
        stats.merge(&self.mem.stats);
        stats.instructions = self.core_stats.instructions;
        stats.cycles = self.now - self.cycle_base;
        Ok(SimReport {
            label: self.label.clone(),
            workload: self.workload_name.clone(),
            seed: self.seed,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppf_types::FilterKind;
    use ppf_workloads::Workload;

    const N: u64 = 60_000;

    fn run(cfg: SystemConfig, w: Workload) -> SimReport {
        let mut sim = Simulator::with_seed(cfg, Box::new(w.stream(42)), 42).expect("valid config");
        sim.run(N)
    }

    #[test]
    fn baseline_machine_runs_and_reports() {
        let r = run(SystemConfig::paper_default(), Workload::Em3d);
        assert!(r.stats.instructions >= N);
        assert!(r.stats.cycles > 0);
        let ipc = r.stats.ipc();
        assert!(ipc > 0.05 && ipc < 8.0, "ipc={ipc}");
        assert!(r.stats.l1.demand_accesses > 0);
    }

    #[test]
    fn prefetchers_generate_traffic() {
        let r = run(SystemConfig::paper_default(), Workload::Wave5);
        assert!(
            r.stats.prefetches_proposed.total() > 100,
            "{:?}",
            r.stats.prefetches_proposed
        );
        assert!(r.stats.prefetches_issued.total() > 100);
        // Census covers every issued prefetch (good + bad = classified).
        let classified = r.stats.good_total() + r.stats.bad_total();
        assert!(classified > 0);
    }

    #[test]
    fn census_conservation() {
        // Without a warm-up, every issued prefetch is classified good or
        // bad exactly once: evicted, moved into the L1 from the buffer or
        // the victim cache, or drained at the end.
        for cfg in [
            SystemConfig::paper_default(),
            SystemConfig::paper_default().with_prefetch_buffer(),
            SystemConfig::paper_default().with_victim_cache(8),
            SystemConfig::paper_default()
                .with_prefetch_buffer()
                .with_victim_cache(8),
        ] {
            let r = run(cfg, Workload::Mcf);
            let issued = r.stats.prefetches_issued.total();
            assert!(issued > 0);
            assert_eq!(r.stats.good_total() + r.stats.bad_total(), issued);
        }
    }

    #[test]
    fn filter_reduces_bad_prefetches_on_pointer_chase() {
        // Longer run than the other tests: the history table only starts
        // rejecting once most line addresses have been trained at least
        // twice (em3d's footprint is 4096 lines).
        let n = 400_000;
        let run = |cfg: SystemConfig| {
            Simulator::with_seed(cfg, Box::new(Workload::Em3d.stream(42)), 42)
                .expect("valid config")
                .run(n)
        };
        let base = run(SystemConfig::paper_default());
        let pa = run(SystemConfig::paper_default().with_filter(FilterKind::Pa));
        assert!(base.stats.bad_total() > 0);
        assert!(
            (pa.stats.bad_total() as f64) < 0.5 * base.stats.bad_total() as f64,
            "PA filter must kill most bad prefetches: {} vs {}",
            pa.stats.bad_total(),
            base.stats.bad_total()
        );
        assert!(pa.stats.prefetches_filtered.total() > 0);
    }

    #[test]
    fn prefetch_off_machine_issues_nothing() {
        let mut cfg = SystemConfig::paper_default();
        cfg.prefetch = ppf_types::PrefetchConfig::disabled();
        let r = run(cfg, Workload::Gzip);
        assert_eq!(r.stats.prefetches_proposed.total(), 0);
        assert_eq!(r.stats.prefetches_issued.total(), 0);
        assert_eq!(r.stats.good_total() + r.stats.bad_total(), 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run(SystemConfig::paper_default(), Workload::Gcc);
        let b = run(SystemConfig::paper_default(), Workload::Gcc);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn buffer_machine_uses_buffer() {
        let cfg = SystemConfig::paper_default().with_prefetch_buffer();
        let r = run(cfg, Workload::Wave5);
        assert!(
            r.stats.buffer_hits > 0 || r.stats.buffer_bad_evictions > 0,
            "buffer must see traffic"
        );
    }

    #[test]
    fn funnel_conserves_every_candidate() {
        for kind in [FilterKind::None, FilterKind::Pa, FilterKind::Pc] {
            let mut sim = Simulator::with_seed(
                SystemConfig::paper_default().with_filter(kind),
                Box::new(Workload::Mcf.stream(42)),
                42,
            )
            .unwrap();
            sim.warmup(30_000);
            sim.run(N);
            sim.mem_system().check_funnel().expect("funnel conserved");
        }
    }

    #[test]
    fn miss_classification_totals_match_misses() {
        let cfg = SystemConfig::paper_default().with_miss_classification();
        let r = run(cfg, Workload::Mcf);
        assert_eq!(r.stats.l1.miss_class.total(), r.stats.l1.demand_misses);
        assert_eq!(r.stats.l2.miss_class.total(), r.stats.l2.demand_misses);
        assert!(
            r.stats.l1.miss_class.conflict > 0,
            "the paper's direct-mapped L1 must show conflict misses: {:?}",
            r.stats.l1.miss_class
        );
        // Classification must not change what the machine does: counters
        // other than the class split match a diagnostics-off run.
        let base = run(SystemConfig::paper_default(), Workload::Mcf);
        assert_eq!(base.stats.l1.demand_misses, r.stats.l1.demand_misses);
        assert_eq!(base.stats.cycles, r.stats.cycles);
    }

    #[test]
    fn telemetry_on_does_not_change_stats() {
        let plain = run(SystemConfig::paper_default(), Workload::Mcf);
        let mut sim = Simulator::with_seed(
            SystemConfig::paper_default(),
            Box::new(Workload::Mcf.stream(42)),
            42,
        )
        .unwrap()
        .with_telemetry(1_000)
        .unwrap();
        let on = sim.run(N);
        assert_eq!(on.stats, plain.stats, "telemetry must be a pure observer");
        let records = sim.take_telemetry_records();
        assert!(!records.is_empty());
        // Intervals tile the measured run: contiguous, instruction-complete.
        let covered: u64 = records.iter().map(|r| r.instructions).sum();
        assert!(covered <= on.stats.instructions);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.interval, i as u64);
            assert_eq!(r.start_cycle, i as u64 * 1_000);
            assert_eq!(r.end_cycle, (i as u64 + 1) * 1_000);
        }
    }

    #[test]
    fn telemetry_restarts_at_warmup_boundary() {
        let mut sim = Simulator::with_seed(
            SystemConfig::paper_default(),
            Box::new(Workload::Wave5.stream(42)),
            42,
        )
        .unwrap()
        .with_telemetry(500)
        .unwrap();
        sim.warmup(20_000);
        assert!(
            sim.take_telemetry_records().is_empty(),
            "warm-up records are dropped at the measurement boundary"
        );
        sim.run(30_000);
        let records = sim.take_telemetry_records();
        assert!(!records.is_empty());
        assert_eq!(records[0].interval, 0);
        assert_eq!(records[0].start_cycle, 0);
    }

    #[test]
    fn telemetry_rejects_invalid_config() {
        let sim = Simulator::with_seed(
            SystemConfig::paper_default(),
            Box::new(Workload::Gzip.stream(1)),
            1,
        )
        .unwrap();
        assert!(sim.with_telemetry(0).is_err());
    }

    #[test]
    fn warm_snapshot_run_is_bit_identical_to_fresh_run() {
        // A copy taken right after warm-up must finish with the exact
        // report a fresh end-to-end run produces, and taking the copy must
        // not perturb the original.
        let (warmup, n) = (12_000, 20_000);
        let warmed = || {
            let mut sim = Simulator::with_seed(
                SystemConfig::paper_default(),
                Box::new(Workload::Mcf.stream(42)),
                42,
            )
            .expect("valid config");
            sim.warmup(warmup);
            sim
        };
        let fresh = warmed().run(n);
        let mut donor = warmed();
        let mut copy = donor.try_snapshot().expect("paper config is duplicable");
        assert_eq!(copy.run(n), fresh);
        assert_eq!(donor.run(n), fresh);
    }

    #[test]
    fn run_is_resumable() {
        let mut sim = Simulator::with_seed(
            SystemConfig::paper_default(),
            Box::new(Workload::Bh.stream(7)),
            7,
        )
        .unwrap();
        let r1 = sim.run(10_000);
        let r2 = sim.run(10_000);
        assert!(r2.stats.instructions >= 2 * 10_000);
        assert!(r2.stats.cycles > r1.stats.cycles);
    }
}
