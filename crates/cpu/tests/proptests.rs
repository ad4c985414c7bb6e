//! Property-based tests for the core model: structural bounds hold and no
//! instruction is ever lost or double-retired under arbitrary streams and
//! arbitrary (even hostile) memory-port behaviour; and the struct-of-arrays
//! BTB answers every call like the record-array table it replaced.

use ppf_cpu::{Btb, Core, Inst, InstStream, MemoryPort, Op};
use ppf_types::{Addr, CoreConfig, Cycle, Pc, SimStats};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct ScriptedInst {
    kind: u8,
    addr: Addr,
    taken: bool,
    dep: u8,
}

fn scripted_inst() -> impl Strategy<Value = ScriptedInst> {
    (0u8..6, any::<u64>(), any::<bool>(), 0u8..16).prop_map(|(kind, addr, taken, dep)| {
        ScriptedInst {
            kind,
            addr: addr % (1 << 30),
            taken,
            dep,
        }
    })
}

struct ScriptStream {
    script: Vec<ScriptedInst>,
    pos: usize,
    pc: Pc,
}

impl InstStream for ScriptStream {
    fn next_inst(&mut self) -> Inst {
        let s = &self.script[self.pos % self.script.len()];
        self.pos += 1;
        self.pc += 4;
        let op = match s.kind {
            0 => Op::IntAlu,
            1 => Op::FpAlu,
            2 => Op::Load { addr: s.addr },
            3 => Op::Store { addr: s.addr },
            4 => Op::SoftPrefetch { addr: s.addr },
            _ => Op::Branch {
                taken: s.taken,
                target: 0x9000 + (s.addr % 64) * 4,
            },
        };
        Inst::with_dep(self.pc, op, s.dep)
    }
}

/// A memory port that accepts a configurable fraction of accesses with a
/// configurable latency (deterministic pattern, not random).
struct PatternedMemory {
    period: u64,
    reject_below: u64,
    latency: u64,
    calls: u64,
}

impl MemoryPort for PatternedMemory {
    fn try_access(&mut self, _pc: Pc, _addr: Addr, _s: bool, now: Cycle) -> Option<Cycle> {
        self.calls += 1;
        if self.calls % self.period < self.reject_below {
            None
        } else {
            Some(now + self.latency)
        }
    }
    fn software_prefetch(&mut self, _pc: Pc, _addr: Addr, _now: Cycle) {}
}

/// The record-array BTB the struct-of-arrays [`Btb`] replaced: one entry
/// per way with an explicit valid bit, LRU victim among valid ways after
/// any invalid one. Kept as the reference the table must match call for
/// call.
#[derive(Debug, Clone, Copy)]
struct RefBtbEntry {
    tag: u64,
    target: Pc,
    lru: u64,
    valid: bool,
}

struct RefBtb {
    entries: Vec<RefBtbEntry>,
    ways: usize,
    set_mask: u64,
    next_lru: u64,
}

impl RefBtb {
    fn new(sets: usize, ways: usize) -> Self {
        let empty = RefBtbEntry {
            tag: 0,
            target: 0,
            lru: 0,
            valid: false,
        };
        RefBtb {
            entries: vec![empty; sets * ways],
            ways,
            set_mask: (sets - 1) as u64,
            next_lru: 1,
        }
    }

    fn set_base(&self, pc: Pc) -> usize {
        (((pc >> 2) & self.set_mask) as usize) * self.ways
    }

    fn lookup(&mut self, pc: Pc) -> Option<Pc> {
        let base = self.set_base(pc);
        let key = pc >> 2;
        let lru = self.next_lru;
        for e in &mut self.entries[base..base + self.ways] {
            if e.valid && e.tag == key {
                e.lru = lru;
                self.next_lru += 1;
                return Some(e.target);
            }
        }
        None
    }

    fn update(&mut self, pc: Pc, target: Pc) {
        let base = self.set_base(pc);
        let key = pc >> 2;
        let lru = self.next_lru;
        self.next_lru += 1;
        if let Some(e) = self.entries[base..base + self.ways]
            .iter_mut()
            .find(|e| e.valid && e.tag == key)
        {
            e.target = target;
            e.lru = lru;
            return;
        }
        let way = self.entries[base..base + self.ways]
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| if e.valid { e.lru } else { 0 })
            .map(|(i, _)| i)
            .unwrap_or(0);
        self.entries[base + way] = RefBtbEntry {
            tag: key,
            target,
            lru,
            valid: true,
        };
    }
}

#[derive(Debug, Clone)]
struct BtbOp {
    update: bool,
    pc: Pc,
    target: Pc,
}

/// PCs from a pool of eight branches, each in two address regions that
/// share set bits but not tags, so a BTB of up to 20 entries sees hits,
/// conflicts and retargets.
fn btb_op() -> impl Strategy<Value = BtbOp> {
    (any::<bool>(), 0u64..8, 0u64..2, 0u64..4).prop_map(|(update, k, region, t)| BtbOp {
        update,
        pc: (region << 40) | (0x1000 + 4 * k),
        target: 0x9000 + 4 * t,
    })
}

/// ROB sizes the bounds property draws from: one- and two-entry windows,
/// a partial first word, exact and off-by-one word sizes, partial second
/// words and multi-word rings, each rounded up to a power-of-two ring.
const ROB_SIZES: [usize; 11] = [1, 2, 5, 32, 63, 64, 65, 96, 128, 200, 256];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn rob_lsq_bounds_and_progress(
        script in prop::collection::vec(scripted_inst(), 4..64),
        period in 2u64..8,
        reject_below in 0u64..4,
        latency in 1u64..200,
        rob_pick in 0usize..ROB_SIZES.len(),
        lsq_pick in 0usize..256,
    ) {
        prop_assume!(reject_below < period);
        let rob_entries = ROB_SIZES[rob_pick];
        let cfg = CoreConfig {
            rob_entries,
            lsq_entries: 1 + lsq_pick % rob_entries,
            ..CoreConfig::default()
        };
        let mut core = Core::new(&cfg);
        let mut stream = ScriptStream { script, pos: 0, pc: 0x1000 };
        let mut mem = PatternedMemory { period, reject_below, latency, calls: 0 };
        let mut stats = SimStats::default();
        let mut last_retired = 0u64;
        let mut stagnant = 0u32;
        for now in 1..30_000u64 {
            core.tick(now, &mut stream, &mut mem, &mut stats);
            prop_assert!(core.rob_occupancy() <= cfg.rob_entries);
            prop_assert!(core.lsq_occupancy() <= cfg.lsq_entries);
            if stats.instructions == last_retired {
                stagnant += 1;
                // Longest legitimate stall: memory latency plus redirect.
                prop_assert!(
                    stagnant < 2_000,
                    "no retirement for {stagnant} cycles at {now}"
                );
            } else {
                prop_assert!(stats.instructions > last_retired, "retirement went backwards");
                stagnant = 0;
                last_retired = stats.instructions;
            }
            if stats.instructions > 5_000 {
                break;
            }
        }
        prop_assert!(stats.instructions > 0, "core must make progress");
    }

    #[test]
    fn retired_class_counts_are_consistent(
        script in prop::collection::vec(scripted_inst(), 8..64),
    ) {
        let cfg = CoreConfig::default();
        let mut core = Core::new(&cfg);
        let mut stream = ScriptStream { script, pos: 0, pc: 0x1000 };
        let mut mem = ppf_cpu::core::PerfectMemory;
        let mut stats = SimStats::default();
        for now in 1..20_000u64 {
            core.tick(now, &mut stream, &mut mem, &mut stats);
            if stats.instructions > 4_000 {
                break;
            }
        }
        // Class counters never exceed the retired total. Mispredicts are
        // counted at dispatch while branch counts are counted at retire,
        // so in-flight instructions (bounded by the ROB) are the only
        // allowed excess.
        let classified = stats.loads + stats.stores + stats.branches;
        prop_assert!(classified <= stats.instructions);
        prop_assert!(stats.branch_mispredicts <= stats.branches + cfg.rob_entries as u64);
    }

    #[test]
    fn btb_matches_record_array_reference(
        ops in prop::collection::vec(btb_op(), 1..400),
        sets_log in 0u32..3,
        ways in 1usize..6,
    ) {
        let sets = 1 << sets_log;
        let mut btb = Btb::new(sets, ways);
        let mut reference = RefBtb::new(sets, ways);
        for (i, op) in ops.iter().enumerate() {
            if op.update {
                btb.update(op.pc, op.target);
                reference.update(op.pc, op.target);
            } else {
                prop_assert_eq!(
                    btb.lookup(op.pc),
                    reference.lookup(op.pc),
                    "op {} looks up {:#x}", i, op.pc
                );
            }
        }
        // The final contents agree too: probe every branch of every region.
        for pc in ops.iter().map(|op| op.pc) {
            prop_assert_eq!(btb.lookup(pc), reference.lookup(pc), "final lookup of {:#x}", pc);
        }
    }
}
