//! The out-of-order pipeline model.
//!
//! Per-cycle phases (in [`Core::tick`]):
//!
//! 1. **Retire** — up to `retire_width` completed instructions leave the
//!    ROB in program order.
//! 2. **Issue/execute** — any window instruction whose producer's result is
//!    ready may issue, bounded by `issue_width`, per-cycle ALU slots, and —
//!    for memory ops — L1 port arbitration through [`MemoryPort`]. A memory
//!    op denied a port stays in the window and retries next cycle.
//! 3. **Fetch/dispatch** — up to `fetch_width` instructions enter the ROB
//!    (and LSQ) unless fetch is squashed by an unresolved mispredicted
//!    branch; fetch resumes `mispredict_penalty` cycles after the branch
//!    resolves.
//!
//! Software prefetches occupy an LSQ slot and are handed to the memory side
//! via [`MemoryPort::software_prefetch`] at issue; being non-blocking, they
//! complete in one cycle and nothing ever depends on them.

use crate::branch::FrontEnd;
use crate::inst::{InstStream, Op};
use ppf_types::{Addr, CoreConfig, Cycle, Pc, SimStats};

/// The core's window into the memory hierarchy (implemented by `ppf-sim`).
pub trait MemoryPort {
    /// Try to start a demand access in cycle `now`. `None` means no L1 port
    /// was available this cycle (structural hazard: retry next cycle);
    /// otherwise the cycle the data is ready.
    fn try_access(&mut self, pc: Pc, addr: Addr, is_store: bool, now: Cycle) -> Option<Cycle>;

    /// Hand a software prefetch (identified in the LSQ) to the prefetch
    /// machinery. Non-blocking; consumes no L1 port at this point — the
    /// prefetch queue arbitrates for ports later.
    fn software_prefetch(&mut self, pc: Pc, addr: Addr, now: Cycle);

    /// Instruction-side access for the fetch of `pc` at cycle `now`:
    /// returns the cycle the instruction bytes are available (`now` on an
    /// I-cache hit). Default: a perfect I-cache.
    fn fetch_access(&mut self, pc: Pc, now: Cycle) -> Cycle {
        let _ = pc;
        now
    }
}

/// A no-op memory port: every access hits in one cycle. Used by unit tests
/// and by the "perfect cache" calibration mode.
#[derive(Debug, Default, Clone)]
pub struct PerfectMemory;

impl MemoryPort for PerfectMemory {
    fn try_access(&mut self, _pc: Pc, _addr: Addr, _is_store: bool, now: Cycle) -> Option<Cycle> {
        Some(now + 1)
    }
    fn software_prefetch(&mut self, _pc: Pc, _addr: Addr, _now: Cycle) {}
}

#[derive(Debug, Clone, Copy)]
struct RobEntry {
    pc: Pc,
    op: Op,
    dep_seq: Option<u64>,
    /// Result-ready cycle; final once the entry has issued (retire also
    /// waits for it).
    done_at: Cycle,
    is_mem: bool,
    /// This entry is a mispredicted branch fetch is waiting on.
    blocks_fetch: bool,
}

/// What one call to [`Core::tick`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickOutcome {
    /// Instructions retired this cycle.
    pub retired: u64,
    /// Instructions issued this cycle.
    pub issued: u64,
    /// Memory ops that failed port arbitration this cycle.
    pub port_rejections: u64,
    /// Fetch changed machine state this cycle: it dispatched, consumed the
    /// stream, or probed the I-cache (which advances hierarchy state).
    pub fetch_changed: bool,
}

impl TickOutcome {
    /// True when the tick provably changed nothing — no retirement, no
    /// issue, no port traffic (denied ports bump memory-side counters),
    /// no fetch-side state change. A quiescent tick is a pure function of
    /// the cycle number, which is what licenses the skip-ahead kernel to
    /// jump over the identical ticks that would follow.
    pub fn quiescent(&self) -> bool {
        self.retired == 0 && self.issued == 0 && self.port_rejections == 0 && !self.fetch_changed
    }
}

/// Fixed-capacity power-of-two ring backing the ROB — the ShadowLru slab
/// pattern applied to the pipeline window. A mask-indexed flat slab keeps
/// the per-cycle issue and retire work free of the wrap branch `VecDeque`
/// pays per access.
///
/// Two parallel hot arrays let the issue scan skip the 56-byte entries of
/// everything that has already issued:
///
/// * `waiting_bits` holds one bit per physical slot, set at dispatch and
///   cleared at issue. A clear bit means the slot's entry has issued (its
///   `done_at` is final) or the slot is dead. [`WaitingSlots`] walks the
///   set bits in program order, a 64-slot word at a time, so a scan costs
///   the waiting entries plus one step per word instead of the window.
///   `waiting` counts the set bits.
/// * `gate` holds, for a waiting slot, the entry's cached issue wake-up
///   bound: a sound lower bound on the first cycle it could possibly
///   issue (0 = unknown, try now). The bound is derived from the
///   producer's fixed `done_at` (exact) or, while the producer is itself
///   still waiting, from the earliest cycle the producer could issue plus
///   its minimum latency (conservative). Purely an optimization: it
///   changes how fast the scan skips an entry, never *when* the entry
///   issues. The word is stale once the slot's bit is clear.
#[derive(Clone)]
struct RobRing {
    buf: Box<[RobEntry]>,
    gate: Box<[u64]>,
    waiting_bits: Box<[u64]>,
    waiting: usize,
    mask: usize,
    head: usize,
    len: usize,
}

impl RobRing {
    fn with_capacity(cap: usize) -> Self {
        let cap = cap.max(1).next_power_of_two();
        let empty = RobEntry {
            pc: 0,
            op: Op::IntAlu,
            dep_seq: None,
            done_at: 0,
            is_mem: false,
            blocks_fetch: false,
        };
        RobRing {
            buf: vec![empty; cap].into_boxed_slice(),
            gate: vec![0; cap].into_boxed_slice(),
            waiting_bits: vec![0; cap.div_ceil(64)].into_boxed_slice(),
            waiting: 0,
            mask: cap - 1,
            head: 0,
            len: 0,
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.len
    }

    /// The physical slot of logical entry `i` (0 = oldest).
    #[inline]
    fn slot(&self, i: usize) -> usize {
        (self.head + i) & self.mask
    }

    /// Has the entry in `slot` not issued yet? (False for a dead slot.)
    #[inline]
    fn is_waiting(&self, slot: usize) -> bool {
        self.waiting_bits[slot / 64] >> (slot % 64) & 1 != 0
    }

    /// The oldest entry, once it has issued.
    #[inline]
    fn issued_front(&self) -> Option<&RobEntry> {
        (self.len > 0 && !self.is_waiting(self.head)).then(|| &self.buf[self.head])
    }

    /// A program-order walk over the waiting slots, from the oldest.
    #[inline]
    fn waiting_slots(&self) -> WaitingSlots {
        WaitingSlots {
            next: self.head,
            left: self.len,
            base: 0,
            bits: 0,
        }
    }

    /// Issue the waiting entry in `slot`: fix its result cycle and clear
    /// its bit.
    #[inline]
    fn issue(&mut self, slot: usize, done_at: Cycle) {
        debug_assert!(self.is_waiting(slot));
        self.buf[slot].done_at = done_at;
        self.waiting_bits[slot / 64] &= !(1 << (slot % 64));
        self.waiting -= 1;
    }

    /// Drop the oldest entry, which must have issued.
    #[inline]
    fn pop_front(&mut self) {
        debug_assert!(self.issued_front().is_some());
        self.head = (self.head + 1) & self.mask;
        self.len -= 1;
    }

    /// Append a waiting entry; its gate starts at 0 ("try now").
    #[inline]
    fn push_back(&mut self, e: RobEntry) {
        debug_assert!(self.len <= self.mask, "logical capacity exceeded");
        let slot = self.slot(self.len);
        debug_assert!(!self.is_waiting(slot));
        self.buf[slot] = e;
        self.gate[slot] = 0;
        self.waiting_bits[slot / 64] |= 1 << (slot % 64);
        self.waiting += 1;
        self.len += 1;
    }
}

/// A program-order walk over a [`RobRing`]'s waiting slots. It copies one
/// word of `waiting_bits` at a time, so the ring may change under it: the
/// issue scan clears each slot's bit as the slot issues. Each copied word
/// is masked to the part of the live window it holds — from the current
/// slot to the word's end, the ring's end or the window's end, whichever
/// comes first — so a window that wraps into the word it started in never
/// revisits its oldest entries.
struct WaitingSlots {
    /// Physical slot the next word copy starts at.
    next: usize,
    /// Live slots not yet copied.
    left: usize,
    /// Physical slot of bit 0 of `bits`.
    base: usize,
    /// Waiting slots of the current copy not yet visited.
    bits: u64,
}

impl WaitingSlots {
    /// The next waiting slot in program order, or `None` past the window.
    #[inline]
    fn next_slot(&mut self, rob: &RobRing) -> Option<usize> {
        while self.bits == 0 {
            if self.left == 0 {
                return None;
            }
            let (word, bit) = (self.next / 64, self.next % 64);
            let end = ((word + 1) * 64)
                .min(rob.mask + 1)
                .min(self.next + self.left);
            let n = end - self.next;
            self.bits = (rob.waiting_bits[word] >> bit) & (u64::MAX >> (64 - n));
            self.base = self.next;
            self.left -= n;
            self.next = end & rob.mask;
        }
        let k = self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        Some(self.base + k)
    }
}

/// The out-of-order core.
#[derive(Clone)]
pub struct Core {
    cfg: CoreConfig,
    front: FrontEnd,
    rob: RobRing,
    /// Earliest cycle any waiting entry could possibly issue. When a full
    /// scan proves every waiting entry is bounded past `now` (their cached
    /// gate wake-ups), the scans until this cycle are skipped entirely —
    /// the dominant cost while the window drains a long miss.
    /// Conservative: any unbounded outcome (slot or port pressure, a new
    /// dispatch) resets it to "scan next cycle".
    issue_scan_at: Cycle,
    /// Sequence number of the next dispatched instruction. Numbers are
    /// dense, so the ROB holds `next_seq - len .. next_seq` in order.
    next_seq: u64,
    lsq_used: usize,
    /// Fetch is stalled until this cycle (mispredict redirect).
    fetch_resume_at: Cycle,
    /// Fetch waits on an unresolved mispredicted branch: the one waiting
    /// ROB entry with `blocks_fetch` set (fetch dispatches nothing after
    /// it, so there is never a second).
    fetch_blocked: bool,
    /// An instruction fetched from the stream but not yet dispatched
    /// (it arrived while the LSQ was full). Streams are consumed exactly
    /// once, so it is buffered rather than regenerated.
    pending: Option<crate::inst::Inst>,
}

impl Core {
    /// Build a core from its configuration.
    pub fn new(cfg: &CoreConfig) -> Self {
        Core {
            front: FrontEnd::new(&cfg.branch),
            rob: RobRing::with_capacity(cfg.rob_entries),
            issue_scan_at: 0,
            cfg: cfg.clone(),
            next_seq: 0,
            lsq_used: 0,
            fetch_resume_at: 0,
            fetch_blocked: false,
            pending: None,
        }
    }

    /// Current ROB occupancy.
    pub fn rob_occupancy(&self) -> usize {
        self.rob.len()
    }

    /// Current LSQ occupancy.
    pub fn lsq_occupancy(&self) -> usize {
        self.lsq_used
    }

    /// If producer `seq`'s result is not ready at `now`, the earliest cycle
    /// its consumer could possibly issue — a sound lower bound the issue
    /// scan caches in the consumer's gate. `None` when the producer is
    /// ready (retired, or complete by `now`).
    fn producer_gate(&self, seq: u64, now: Cycle) -> Option<Cycle> {
        // Sequence numbers are dense in the window, so the oldest entry's
        // is the next one minus the occupancy.
        let front_seq = self.next_seq - self.rob.len() as u64;
        if seq < front_seq {
            return None; // already retired
        }
        let idx = (seq - front_seq) as usize;
        debug_assert!(idx < self.rob.len(), "producers precede consumers");
        let slot = self.rob.slot(idx);
        if self.rob.is_waiting(slot) {
            // Producers precede consumers in the window, so this producer
            // was already covered by the current scan and stayed waiting:
            // it issues no earlier than next cycle (or its own cached
            // bound) and completes no earlier than that plus its op's
            // minimum latency.
            let issue_at = (now + 1).max(self.rob.gate[slot]);
            Some(issue_at.saturating_add(self.min_latency(self.rob.buf[slot].op)))
        } else {
            let done_at = self.rob.buf[slot].done_at;
            (done_at > now).then_some(done_at)
        }
    }

    /// The smallest completion latency `op` can possibly have — used only
    /// for the conservative wake-up bound above. Memory timing lives below
    /// the core, so memory ops assume results could be ready the same
    /// cycle the access starts.
    fn min_latency(&self, op: Op) -> u64 {
        match op {
            Op::IntAlu | Op::Branch { .. } => self.cfg.int_latency,
            Op::FpAlu => self.cfg.fp_latency,
            Op::Load { .. } | Op::Store { .. } | Op::SoftPrefetch { .. } => 0,
        }
    }

    fn retire(&mut self, now: Cycle, stats: &mut SimStats) -> u64 {
        let mut retired = 0;
        while retired < self.cfg.retire_width as u64 {
            match self.rob.issued_front() {
                Some(e) if e.done_at <= now => {
                    self.lsq_used -= e.is_mem as usize;
                    stats.loads += matches!(e.op, Op::Load { .. }) as u64;
                    stats.stores += matches!(e.op, Op::Store { .. }) as u64;
                    stats.branches += matches!(e.op, Op::Branch { .. }) as u64;
                    self.rob.pop_front();
                    retired += 1;
                }
                _ => break,
            }
        }
        stats.instructions += retired;
        retired
    }

    /// The issue stage: visit the waiting entries oldest first, through the
    /// ROB's waiting-slot bitmask, and issue each one whose producer is
    /// ready, up to `issue_width`, within the cycle's ALU slots and — for
    /// loads and stores — the L1 ports [`MemoryPort::try_access`] grants.
    /// An entry that cannot issue keeps its bit and is visited again by a
    /// later scan; an entry that issues clears it. Returns the entries
    /// issued and the port rejections.
    ///
    /// The scan also maintains `issue_scan_at`: when it visits every
    /// waiting entry and each one is held back by a producer bound (not by
    /// a slot or a port), the earliest bound is the next cycle a scan can
    /// do anything, and the scans before it are skipped outright.
    fn issue(&mut self, now: Cycle, mem: &mut dyn MemoryPort) -> (u64, u64) {
        if self.rob.waiting == 0 || now < self.issue_scan_at {
            // Every waiting entry is provably gated past `now` — the last
            // full scan bounded each one, so this cycle's scan would visit
            // them all and issue nothing.
            return (0, 0);
        }
        let mut issued = 0usize;
        let mut int_slots = self.cfg.int_alus;
        let mut fp_slots = self.cfg.fp_alus;
        let mut rejections = 0u64;
        // If the scan leaves a wake-up bound on every entry still waiting
        // when it ends, their minimum becomes the next scan cycle; any
        // unbounded outcome (slot or port pressure, an unvisited tail)
        // forces a re-scan next cycle.
        let mut all_bounded = true;
        let mut min_bound = Cycle::MAX;

        let mut slots = self.rob.waiting_slots();
        while let Some(slot) = slots.next_slot(&self.rob) {
            if issued >= self.cfg.issue_width {
                all_bounded = false; // unvisited waiting entries may be ready
                break;
            }
            let g = self.rob.gate[slot];
            if g > now {
                // Producer provably not ready yet (cached bound).
                min_bound = min_bound.min(g);
                continue;
            }
            if let Some(dep) = self.rob.buf[slot].dep_seq {
                if let Some(bound) = self.producer_gate(dep, now) {
                    // Remember the earliest possible issue cycle so the
                    // scans until then skip this entry with one compare.
                    self.rob.gate[slot] = bound;
                    min_bound = min_bound.min(bound);
                    continue;
                }
            }
            let done_at = match self.rob.buf[slot].op {
                Op::IntAlu => {
                    if int_slots == 0 {
                        all_bounded = false;
                        continue;
                    }
                    int_slots -= 1;
                    now + self.cfg.int_latency
                }
                Op::FpAlu => {
                    if fp_slots == 0 {
                        all_bounded = false;
                        continue;
                    }
                    fp_slots -= 1;
                    now + self.cfg.fp_latency
                }
                Op::Branch { .. } => {
                    if int_slots == 0 {
                        all_bounded = false;
                        continue;
                    }
                    int_slots -= 1;
                    let done = now + self.cfg.int_latency;
                    if self.rob.buf[slot].blocks_fetch {
                        self.fetch_blocked = false;
                        self.fetch_resume_at = done + self.front.mispredict_penalty;
                    }
                    done
                }
                op @ (Op::Load { addr } | Op::Store { addr }) => {
                    let is_store = matches!(op, Op::Store { .. });
                    match mem.try_access(self.rob.buf[slot].pc, addr, is_store, now) {
                        Some(ready) => ready,
                        None => {
                            rejections += 1;
                            all_bounded = false;
                            continue; // structural hazard: retry next cycle
                        }
                    }
                }
                Op::SoftPrefetch { addr } => {
                    mem.software_prefetch(self.rob.buf[slot].pc, addr, now);
                    now + 1
                }
            };
            self.rob.issue(slot, done_at);
            issued += 1;
        }
        self.issue_scan_at = if all_bounded { min_bound } else { now + 1 };
        (issued as u64, rejections)
    }

    fn fetch(
        &mut self,
        now: Cycle,
        stream: &mut dyn InstStream,
        mem: &mut dyn MemoryPort,
        stats: &mut SimStats,
    ) -> bool {
        if self.fetch_blocked || now < self.fetch_resume_at {
            return false;
        }
        let mut changed = false;
        for _ in 0..self.cfg.fetch_width {
            if self.rob.len() >= self.cfg.rob_entries {
                break;
            }
            let inst = match self.pending.take() {
                Some(i) => i,
                None => {
                    changed = true; // the stream advanced
                    stream.next_inst()
                }
            };
            if inst.op.is_mem() && self.lsq_used >= self.cfg.lsq_entries {
                // LSQ full: hold the instruction and stall fetch this cycle.
                // A held instruction going back where it came from is the
                // one early exit that leaves the machine untouched.
                self.pending = Some(inst);
                break;
            }
            // Instruction-side access: an I-cache miss stalls fetch until
            // the line arrives from the unified L2 (or memory). The probe
            // itself advances hierarchy state, so from here on the cycle
            // counts as active whether or not the instruction dispatches.
            changed = true;
            let bytes_at = mem.fetch_access(inst.pc, now);
            if bytes_at > now {
                self.pending = Some(inst);
                self.fetch_resume_at = self.fetch_resume_at.max(bytes_at);
                break;
            }
            let seq = self.next_seq;
            self.next_seq += 1;
            let mut blocks_fetch = false;
            if let Op::Branch { taken, target } = inst.op {
                let correct = self.front.predict_and_train(inst.pc, taken, target);
                if !correct {
                    stats.branch_mispredicts += 1;
                    blocks_fetch = true;
                }
            }
            if inst.op.is_mem() {
                self.lsq_used += 1;
            }
            let dep_seq = if inst.dep == 0 {
                None
            } else {
                seq.checked_sub(inst.dep as u64)
            };
            self.rob.push_back(RobEntry {
                pc: inst.pc,
                op: inst.op,
                dep_seq,
                done_at: 0,
                is_mem: inst.op.is_mem(),
                blocks_fetch,
            });
            // The new entry may be issue-ready immediately (issue runs
            // before fetch within a tick, so "immediately" is next cycle).
            self.issue_scan_at = self.issue_scan_at.min(now + 1);
            if blocks_fetch {
                self.fetch_blocked = true;
                break; // wrong-path fetch is not modelled
            }
        }
        changed
    }

    /// Advance the core by one cycle.
    pub fn tick(
        &mut self,
        now: Cycle,
        stream: &mut dyn InstStream,
        mem: &mut dyn MemoryPort,
        stats: &mut SimStats,
    ) -> TickOutcome {
        let retired = self.retire(now, stats);
        let (issued, port_rejections) = self.issue(now, mem);
        let fetch_changed = self.fetch(now, stream, mem, stats);
        TickOutcome {
            retired,
            issued,
            port_rejections,
            fetch_changed,
        }
    }

    /// The next cycle at which this core can possibly act, given that the
    /// current tick was quiescent ([`TickOutcome::quiescent`]) — the core's
    /// entry in the skip-ahead kernel's event calendar. Every cycle strictly
    /// between `now` and the returned cycle is provably another quiescent
    /// tick, so the kernel may jump straight to it.
    ///
    /// The calendar has three sources:
    ///
    /// * **Retire** — once the ROB head has issued (its waiting bit is
    ///   clear), it retires at its `done_at`.
    /// * **Issue wake-up** — while any entry is waiting (the ROB's O(1)
    ///   count of set waiting bits), `issue_scan_at`, the issue scan's own
    ///   gate: a sound lower bound on the first cycle any waiting entry
    ///   could issue, kept current by every full scan. A quiescent tick
    ///   cannot move it (the scan either proved a bound past `now` for
    ///   every waiting entry, or there are no waiting entries at all).
    /// * **Fetch** — resumes at `fetch_resume_at` unless structurally gated
    ///   (unresolved mispredicted branch, full ROB, LSQ-full pending memory
    ///   op); every gate is lifted only by an issue or retire event, which
    ///   the calendar already contains.
    ///
    /// Events in the past are clamped to `now + 1` (the conservative "act
    /// next cycle"), so the kernel falls back to plain stepping rather than
    /// ever jumping backwards. A bound that proves merely "not before X"
    /// rather than "acts at X" only shortens jumps, never skips an active
    /// cycle: landing on a still-quiescent cycle re-computes the calendar
    /// and jumps again.
    pub fn next_event_cycle(&self, now: Cycle) -> Option<Cycle> {
        let soon = now + 1;
        let mut next: Option<Cycle> = None;
        let consider = |next: &mut Option<Cycle>, at: Cycle| {
            let at = at.max(soon);
            *next = Some(next.map_or(at, |n| n.min(at)));
        };
        if let Some(front) = self.rob.issued_front() {
            consider(&mut next, front.done_at);
        }
        if self.rob.waiting > 0 {
            consider(&mut next, self.issue_scan_at);
        }
        if !self.fetch_blocked && self.rob.len() < self.cfg.rob_entries {
            let lsq_gated = self
                .pending
                .as_ref()
                .is_some_and(|i| i.op.is_mem() && self.lsq_used >= self.cfg.lsq_entries);
            if !lsq_gated {
                consider(&mut next, self.fetch_resume_at);
            }
        }
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Inst;

    fn core() -> Core {
        Core::new(&CoreConfig::default())
    }

    /// Run `n` instructions through the core with `mem`, returning stats.
    fn run(
        core: &mut Core,
        stream: &mut dyn InstStream,
        mem: &mut dyn MemoryPort,
        n: u64,
    ) -> SimStats {
        let mut stats = SimStats::default();
        let mut now = 0;
        while stats.instructions < n {
            core.tick(now, stream, mem, &mut stats);
            now += 1;
            assert!(now < 10_000_000, "runaway simulation");
        }
        stats.cycles = now;
        stats
    }

    #[test]
    fn independent_alu_stream_reaches_wide_ipc() {
        let mut c = core();
        let mut pc = 0u64;
        let mut stream = move || {
            pc += 4;
            Inst::new(pc, Op::IntAlu)
        };
        let stats = run(&mut c, &mut stream, &mut PerfectMemory, 10_000);
        let ipc = stats.instructions as f64 / stats.cycles as f64;
        assert!(ipc > 4.0, "independent ALU ops should flow wide, ipc={ipc}");
    }

    #[test]
    fn serial_dependency_chain_limits_ipc_to_one() {
        let mut c = core();
        let mut pc = 0u64;
        let mut stream = move || {
            pc += 4;
            Inst::with_dep(pc, Op::IntAlu, 1)
        };
        let stats = run(&mut c, &mut stream, &mut PerfectMemory, 5_000);
        let ipc = stats.instructions as f64 / stats.cycles as f64;
        assert!(ipc <= 1.05, "1-deep chain cannot exceed IPC 1, ipc={ipc}");
        assert!(ipc > 0.8, "but should approach 1, ipc={ipc}");
    }

    #[test]
    fn fp_latency_slows_chains() {
        let mut c = core();
        let mut pc = 0u64;
        let mut stream = move || {
            pc += 4;
            Inst::with_dep(pc, Op::FpAlu, 1)
        };
        let stats = run(&mut c, &mut stream, &mut PerfectMemory, 2_000);
        let ipc = stats.instructions as f64 / stats.cycles as f64;
        // 4-cycle FP chain: IPC ~ 0.25.
        assert!(ipc < 0.3, "ipc={ipc}");
    }

    /// Memory port that rejects every other access and completes after a
    /// fixed latency.
    struct FlakyMemory {
        latency: u64,
        count: u64,
    }
    impl MemoryPort for FlakyMemory {
        fn try_access(&mut self, _pc: Pc, _a: Addr, _s: bool, now: Cycle) -> Option<Cycle> {
            self.count += 1;
            if self.count.is_multiple_of(2) {
                None
            } else {
                Some(now + self.latency)
            }
        }
        fn software_prefetch(&mut self, _pc: Pc, _a: Addr, _now: Cycle) {}
    }

    impl RobRing {
        /// The logical indices the issue scan visits, in visit order.
        fn scan_order(&self) -> Vec<usize> {
            let mut slots = self.waiting_slots();
            std::iter::from_fn(|| slots.next_slot(self))
                .map(|slot| slot.wrapping_sub(self.head) & self.mask)
                .collect()
        }
    }

    /// After every tick, the bitmask walk the issue scan uses must visit
    /// exactly the live entries a per-slot check finds waiting, oldest
    /// first, and no dead slot may keep its bit. The runs reject every
    /// other port request and wrap rings of one, two and more words with
    /// the head mid-word, so a walk that ignored the window's end would
    /// revisit the oldest entries of the head's word.
    #[test]
    fn waiting_walk_matches_per_slot_check() {
        for rob_entries in [5, 64, 100, 128, 200] {
            let cfg = CoreConfig {
                rob_entries,
                ..CoreConfig::default()
            };
            let mut c = Core::new(&cfg);
            let mut i = 0u64;
            let mut stream = move || {
                i += 1;
                match i % 5 {
                    0 => Inst::new(i * 4, Op::Load { addr: i * 64 }),
                    1 => Inst::with_dep(i * 4, Op::FpAlu, 1),
                    _ => Inst::with_dep(i * 4, Op::IntAlu, (i % 7) as u8),
                }
            };
            let mut mem = FlakyMemory {
                latency: 40,
                count: 0,
            };
            let mut stats = SimStats::default();
            let cap = c.rob.mask + 1;
            let (mut wrapped_mid_word, mut rejections) = (false, 0);
            for now in 0..20_000 {
                rejections += c
                    .tick(now, &mut stream, &mut mem, &mut stats)
                    .port_rejections;
                let rob = &c.rob;
                let per_slot: Vec<usize> = (0..rob.len())
                    .filter(|&i| rob.is_waiting(rob.slot(i)))
                    .collect();
                assert_eq!(rob.scan_order(), per_slot, "ROB {rob_entries}, cycle {now}");
                let set_bits: u32 = rob.waiting_bits.iter().map(|w| w.count_ones()).sum();
                assert_eq!(
                    set_bits as usize,
                    per_slot.len(),
                    "a dead slot kept its bit"
                );
                assert_eq!(rob.waiting, per_slot.len(), "waiting count drifted");
                wrapped_mid_word |= !rob.head.is_multiple_of(64) && rob.head + rob.len() > cap;
            }
            assert!(
                wrapped_mid_word,
                "ROB {rob_entries}: ring never wrapped mid-word"
            );
            assert!(rejections > 0 && stats.loads > 100, "ROB {rob_entries}");
        }
    }

    #[test]
    fn port_rejections_cause_retries_not_loss() {
        let mut c = core();
        let mut pc = 0u64;
        let mut stream = move || {
            pc += 4;
            Inst::new(pc, Op::Load { addr: pc * 8 })
        };
        let mut mem = FlakyMemory {
            latency: 1,
            count: 0,
        };
        let stats = run(&mut c, &mut stream, &mut mem, 1_000);
        // Wide retirement can overshoot the threshold by up to a group.
        assert!(stats.loads >= 1_000, "every load eventually issues");
        assert_eq!(stats.loads, stats.instructions, "loads only, none lost");
    }

    #[test]
    fn memory_latency_shows_in_load_use_chains() {
        // load -> dependent alu -> load ... with 20-cycle memory.
        struct SlowMem;
        impl MemoryPort for SlowMem {
            fn try_access(&mut self, _pc: Pc, _a: Addr, _s: bool, now: Cycle) -> Option<Cycle> {
                Some(now + 20)
            }
            fn software_prefetch(&mut self, _p: Pc, _a: Addr, _n: Cycle) {}
        }
        let mut c = core();
        let mut i = 0u64;
        let mut stream = move || {
            i += 1;
            if i.is_multiple_of(2) {
                Inst::with_dep(i * 4, Op::IntAlu, 1)
            } else {
                Inst::with_dep(i * 4, Op::Load { addr: i * 64 }, 1)
            }
        };
        let stats = run(&mut c, &mut stream, &mut SlowMem, 1_000);
        let ipc = stats.instructions as f64 / stats.cycles as f64;
        assert!(ipc < 0.15, "serialized 20-cycle loads dominate, ipc={ipc}");
    }

    #[test]
    fn mispredicted_branches_stall_fetch() {
        // Alternating taken/not-taken defeats the bimodal predictor.
        let mut c = core();
        let mut i = 0u64;
        let mut stream = move || {
            i += 1;
            if i.is_multiple_of(4) {
                Inst::new(
                    0x100,
                    Op::Branch {
                        taken: i.is_multiple_of(8),
                        target: 0x900,
                    },
                )
            } else {
                Inst::new(i * 4 + 0x1000, Op::IntAlu)
            }
        };
        let stats = run(&mut c, &mut stream, &mut PerfectMemory, 8_000);
        assert!(
            stats.branch_mispredicts > 500,
            "{}",
            stats.branch_mispredicts
        );
        let ipc = stats.instructions as f64 / stats.cycles as f64;
        // Each mispredict costs ~8 cycles on a 4-instruction gap.
        assert!(ipc < 3.0, "mispredicts must hurt, ipc={ipc}");
    }

    #[test]
    fn well_predicted_branches_are_cheap() {
        let mut c = core();
        let mut i = 0u64;
        let mut stream = move || {
            i += 1;
            if i.is_multiple_of(4) {
                // Always taken to a fixed target: perfectly predictable.
                Inst::new(
                    0x100,
                    Op::Branch {
                        taken: true,
                        target: 0x900,
                    },
                )
            } else {
                Inst::new(i * 4 + 0x1000, Op::IntAlu)
            }
        };
        let stats = run(&mut c, &mut stream, &mut PerfectMemory, 8_000);
        assert!(stats.branch_mispredicts < 10);
        let ipc = stats.instructions as f64 / stats.cycles as f64;
        assert!(
            ipc > 4.0,
            "predictable branches should not stall, ipc={ipc}"
        );
    }

    #[test]
    fn software_prefetch_is_nonblocking_and_counted_via_port() {
        struct CountPf(u64);
        impl MemoryPort for CountPf {
            fn try_access(&mut self, _p: Pc, _a: Addr, _s: bool, now: Cycle) -> Option<Cycle> {
                Some(now + 1)
            }
            fn software_prefetch(&mut self, _p: Pc, _a: Addr, _n: Cycle) {
                self.0 += 1;
            }
        }
        let mut c = core();
        let mut i = 0u64;
        let mut stream = move || {
            i += 1;
            if i.is_multiple_of(10) {
                Inst::new(i * 4, Op::SoftPrefetch { addr: i * 32 })
            } else {
                Inst::new(i * 4, Op::IntAlu)
            }
        };
        let mut mem = CountPf(0);
        let stats = run(&mut c, &mut stream, &mut mem, 1_000);
        assert_eq!(mem.0, 100);
        let ipc = stats.instructions as f64 / stats.cycles as f64;
        assert!(ipc > 4.0, "prefetches must not stall the pipe, ipc={ipc}");
    }

    #[test]
    fn rob_and_lsq_occupancy_bounded() {
        struct NeverReady;
        impl MemoryPort for NeverReady {
            fn try_access(&mut self, _p: Pc, _a: Addr, _s: bool, _n: Cycle) -> Option<Cycle> {
                None
            }
            fn software_prefetch(&mut self, _p: Pc, _a: Addr, _n: Cycle) {}
        }
        let cfg = CoreConfig::default();
        let mut c = Core::new(&cfg);
        let mut i = 0u64;
        let mut stream = move || {
            i += 1;
            Inst::new(i * 4, Op::Load { addr: i * 64 })
        };
        let mut stats = SimStats::default();
        for now in 0..1000 {
            c.tick(now, &mut stream, &mut NeverReady, &mut stats);
            assert!(c.rob_occupancy() <= cfg.rob_entries);
            assert!(c.lsq_occupancy() <= cfg.lsq_entries);
        }
        assert_eq!(stats.instructions, 0, "nothing can retire");
        assert_eq!(c.lsq_occupancy(), cfg.lsq_entries, "LSQ fills and holds");
    }

    #[test]
    fn retire_is_in_order() {
        // A slow load followed by fast ALUs: nothing retires before the load.
        struct SlowOnce {
            used: bool,
        }
        impl MemoryPort for SlowOnce {
            fn try_access(&mut self, _p: Pc, _a: Addr, _s: bool, now: Cycle) -> Option<Cycle> {
                if self.used {
                    Some(now + 1)
                } else {
                    self.used = true;
                    Some(now + 100)
                }
            }
            fn software_prefetch(&mut self, _p: Pc, _a: Addr, _n: Cycle) {}
        }
        let mut c = core();
        let mut i = 0u64;
        let mut stream = move || {
            i += 1;
            if i == 1 {
                Inst::new(4, Op::Load { addr: 64 })
            } else {
                Inst::new(i * 4, Op::IntAlu)
            }
        };
        let mut mem = SlowOnce { used: false };
        let mut stats = SimStats::default();
        for now in 0..50 {
            c.tick(now, &mut stream, &mut mem, &mut stats);
        }
        assert_eq!(stats.instructions, 0, "head-of-ROB load blocks retirement");
    }
}
