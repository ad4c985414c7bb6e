//! Adversarial instruction streams that attack the pollution filter.
//!
//! Each [`AttackKind`] is a worst-case workload aimed at a specific
//! weakness of the paper's filter design (DESIGN.md §12 threat model):
//!
//! * [`AttackKind::Poison`] — *counter poisoning*: demand loads trigger
//!   next-line prefetches whose targets the attacker conflict-evicts before
//!   use, sweeping the address space so the resulting bad-eviction feedback
//!   drives the whole history table toward "bad" and the filter starts
//!   vetoing the victim's good prefetches.
//! * [`AttackKind::AliasFlood`] — *hash aliasing*: the plain XOR-fold index
//!   hash is public and linear, so the attacker constructs an unbounded
//!   family of distinct lines that all fold onto a small band of table
//!   indices and keeps the counters there pinned bad. Defeated by the
//!   salted hash (the crafted collisions scatter under an unknown key).
//! * [`AttackKind::PhaseShift`] — *regime oscillation*: alternates a
//!   calibrated all-good prefetch regime (sequential streaming) with an
//!   all-bad one (sparse jumps) over the same region, so the filter's
//!   training always lags the current phase.
//! * [`AttackKind::Interleave`] — *multi-tenant interference*: context-
//!   switches the victim workload with a pollution-heavy aggressor program
//!   rebased into its own tenant address region, so the aggressor's
//!   eviction feedback lands in the shared table the victim indexes.
//!   Defeated by per-tenant partitioning / tag-mixing.
//!
//! All attack traffic lives in tenant 1's address region (bit
//! [`TENANT_ADDR_SHIFT`]), so the hardened table configurations can
//! isolate it. Streams
//! are pure functions of `(spec, workload, seed)` — attacks replay
//! bit-identically under a pinned seed.

use crate::suite::Workload;
use ppf_cpu::{Inst, InstStream, Op};
use ppf_types::{json_struct, json_unit_enum, TENANT_ADDR_SHIFT};

/// The attacker's tenant ID: all adversarial traffic is emitted in this
/// tenant's address region (the victim workload stays tenant 0).
pub const ATTACK_TENANT: u8 = 1;

/// Base byte address of the attacker's region (tenant 1).
const ATTACK_BASE: u64 = 1 << TENANT_ADDR_SHIFT;

/// Line size the attack address arithmetic is calibrated for (the paper
/// machine's 32-byte lines; the attacks still run, merely less surgically,
/// under other geometries).
const LINE: u64 = 32;

/// L1 bytes the conflict-evictor offsets assume (8KB direct-mapped).
const L1_BYTES: u64 = 8 * 1024;

/// Poison sweep footprint: 8192 lines = 256KiB, covering every L1 set many
/// times over and ~8K distinct filter indices per pass.
const POISON_LINES: u64 = 8192;

/// Number of table indices the aliasing flood targets (a band wide enough
/// to collide with any victim working set under the unsalted fold).
const FLOOD_TARGETS: u64 = 1024;

/// Consecutive flood iterations aimed at one index before advancing.
const FLOOD_DWELL: u64 = 4;

/// Instructions per phase-shift half-period (good regime, then bad).
const PHASE_HALF: u64 = 3000;

/// Phase-shift region footprint in bytes (1MiB: larger than the L2 share
/// the attacker can hold, so bad-phase jumps always miss).
const PHASE_FOOT: u64 = 1 << 20;

/// Context-switch quantum of the interleave attack, in instructions.
const INTERLEAVE_QUANTUM: u64 = 1000;

/// In-window duty cycle: out of every [`DUTY_PERIOD`] instructions, this
/// many are attack traffic; the rest advance the victim workload so its
/// under-attack behaviour stays measurable.
const DUTY_ATTACK: u64 = 3;
const DUTY_PERIOD: u64 = 4;

/// Which adversarial campaign to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackKind {
    /// Counter poisoning via prefetch-then-evict conflict sets.
    Poison,
    /// Aliasing flood against the table's index hash.
    AliasFlood,
    /// Alternating calibrated good/bad prefetch regimes.
    PhaseShift,
    /// Context-switch interleaving with a pollution-heavy co-tenant.
    Interleave,
}

json_unit_enum!(AttackKind {
    Poison,
    AliasFlood,
    PhaseShift,
    Interleave
});

impl AttackKind {
    /// All attacks, in declaration order.
    pub const ALL: [AttackKind; 4] = [
        AttackKind::Poison,
        AttackKind::AliasFlood,
        AttackKind::PhaseShift,
        AttackKind::Interleave,
    ];

    /// Short CLI/report name.
    pub fn name(self) -> &'static str {
        match self {
            AttackKind::Poison => "poison",
            AttackKind::AliasFlood => "alias-flood",
            AttackKind::PhaseShift => "phase-shift",
            AttackKind::Interleave => "interleave",
        }
    }

    /// Parse a CLI/report name.
    pub fn from_name(name: &str) -> Option<AttackKind> {
        AttackKind::ALL.iter().copied().find(|a| a.name() == name)
    }

    /// The tenant the attack's traffic is charged to.
    pub fn attacking_tenant(self) -> u8 {
        ATTACK_TENANT
    }
}

impl std::fmt::Display for AttackKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// An adversarial campaign: which attack runs and over which instruction
/// window (0-based indices over emitted instructions; attack traffic is
/// mixed in for `start <= n < stop`, the victim runs alone outside it so
/// post-attack recovery is measurable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdversarySpec {
    /// The attack to mount.
    pub attack: AttackKind,
    /// First instruction index under attack.
    pub start: u64,
    /// First instruction index after the attack stops.
    pub stop: u64,
}

json_struct!(AdversarySpec {
    attack,
    start,
    stop,
});

impl AdversarySpec {
    /// A campaign over an explicit instruction window.
    pub fn window(attack: AttackKind, start: u64, stop: u64) -> Self {
        AdversarySpec {
            attack,
            start,
            stop,
        }
    }

    /// The default trimmed campaign used by CI drills and the attack-matrix
    /// figures: attack-free lead-in, a sustained attack, then a recovery
    /// tail (sized for runs of ~10⁵ instructions).
    pub fn campaign(attack: AttackKind) -> Self {
        AdversarySpec::window(attack, 8_000, 40_000)
    }

    /// Stable identity string for checkpoint keys and report labels,
    /// e.g. `alias-flood@8000..40000`.
    pub fn describe(&self) -> String {
        format!("{}@{}..{}", self.attack.name(), self.start, self.stop)
    }
}

/// Rebase a stream into another address region: every PC and memory
/// address is offset by a fixed amount. Used to move the interleave
/// aggressor into its own tenant region.
struct Rebase<S> {
    inner: S,
    offset: u64,
}

impl<S: InstStream> InstStream for Rebase<S> {
    fn next_inst(&mut self) -> Inst {
        let mut i = self.inner.next_inst();
        i.pc = i.pc.wrapping_add(self.offset);
        i.op = match i.op {
            Op::Load { addr } => Op::Load {
                addr: addr.wrapping_add(self.offset),
            },
            Op::Store { addr } => Op::Store {
                addr: addr.wrapping_add(self.offset),
            },
            Op::SoftPrefetch { addr } => Op::SoftPrefetch {
                addr: addr.wrapping_add(self.offset),
            },
            Op::Branch { taken, target } => Op::Branch {
                taken,
                target: target.wrapping_add(self.offset),
            },
            other => other,
        };
        i
    }
}

/// An [`InstStream`] that runs a victim workload and mounts an
/// [`AdversarySpec`] campaign against it.
pub struct AdversaryStream {
    base: Box<dyn InstStream>,
    /// The interleave attack's co-tenant program (rebased); `None` for the
    /// single-stream attacks.
    aggressor: Option<Box<dyn InstStream>>,
    spec: AdversarySpec,
    emitted: u64,
    /// Completed attack iterations (one iteration = [`ATTACK_STEPS`]
    /// emitted attack instructions).
    iter: u64,
    /// Step within the current attack iteration.
    step: u64,
    /// Per-phase positions of the phase-shift attack.
    good_pos: u64,
    bad_pos: u64,
}

/// Instructions per poison / alias-flood attack iteration
/// (trigger load, spacer, conflict evictor).
const ATTACK_STEPS: u64 = 3;

impl AdversaryStream {
    /// Mount `spec` against `workload` (the victim, tenant 0). The
    /// interleave aggressor is a fixed pollution-heavy program (mcf's
    /// pointer chasing) rebased into the attacker's tenant region with a
    /// decorrelated seed.
    pub fn new(spec: AdversarySpec, workload: Workload, seed: u64) -> Self {
        let aggressor: Option<Box<dyn InstStream>> = match spec.attack {
            AttackKind::Interleave => Some(Box::new(Rebase {
                inner: Workload::Mcf.stream(seed ^ 0xA66E_5500),
                offset: ATTACK_BASE,
            })),
            _ => None,
        };
        AdversaryStream {
            base: Box::new(workload.stream(seed)),
            aggressor,
            spec,
            emitted: 0,
            iter: 0,
            step: 0,
            good_pos: 0,
            bad_pos: 0,
        }
    }

    /// The line (address / 32) the aliasing flood aims at index `t` with
    /// disambiguator `h`: under the *unsalted* XOR-fold every such line
    /// hashes to exactly `t`, for any `h` — the linearity the salted hash
    /// destroys. The construction keeps the tenant bit (line bit
    /// `TENANT_ADDR_SHIFT - 5`) set and folds it back out via the low half.
    fn flood_line(t: u64, h: u64) -> u64 {
        let region = ATTACK_BASE / LINE; // line-address tenant bit
        let r16 = (region >> 32) & 0xffff;
        let h = h & 0xffff;
        ((t ^ h ^ r16) & 0xffff) | (h << 16) | (region & 0xffff_0000_0000)
    }

    /// One instruction of the poison campaign: load a trigger line (NSP
    /// prefetches its successor), wait a step, then load the line that
    /// conflict-evicts the unreferenced prefetch in a direct-mapped L1.
    fn poison_inst(&mut self) -> Inst {
        let line = (self.iter * 2) % POISON_LINES;
        let trigger = ATTACK_BASE + line * LINE;
        let pc = ATTACK_BASE + 0x100 + self.step * 4;
        match self.step {
            0 => Inst::new(pc, Op::Load { addr: trigger }),
            1 => Inst::new(pc, Op::IntAlu),
            // Same L1 set as the prefetched `trigger + LINE`, different line.
            _ => Inst::new(
                pc,
                Op::Load {
                    addr: trigger + LINE + L1_BYTES,
                },
            ),
        }
    }

    /// One instruction of the aliasing flood: like the poison iteration,
    /// but the prefetched-then-evicted lines are crafted collision sets
    /// (see [`Self::flood_line`]), so all the bad feedback concentrates on
    /// [`FLOOD_TARGETS`] table indices.
    fn flood_inst(&mut self) -> Inst {
        let t = (self.iter / FLOOD_DWELL) % FLOOD_TARGETS;
        let h = 1 + (self.iter % 0xffff);
        let target = Self::flood_line(t, h);
        let pc = ATTACK_BASE + 0x2000 + self.step * 4;
        match self.step {
            // Demand-load the predecessor so NSP prefetches the crafted line.
            0 => Inst::new(
                pc,
                Op::Load {
                    addr: (target - 1) * LINE,
                },
            ),
            1 => Inst::new(pc, Op::IntAlu),
            // Conflict-evict the crafted line before any use.
            _ => Inst::new(
                pc,
                Op::Load {
                    addr: (target + L1_BYTES / LINE) * LINE,
                },
            ),
        }
    }

    /// One instruction of the phase shifter: half a period of sequential
    /// streaming (every next-line prefetch is referenced → trains good),
    /// half a period of sparse serial jumps over the same region (every
    /// next-line prefetch dies unreferenced → trains bad).
    fn phase_inst(&mut self, k: u64) -> Inst {
        let region = ATTACK_BASE + 0x0100_0000;
        let good = (k / PHASE_HALF).is_multiple_of(2);
        if good {
            let addr = region + (self.good_pos * LINE) % PHASE_FOOT;
            self.good_pos += 1;
            Inst::new(ATTACK_BASE + 0x3000, Op::Load { addr })
        } else {
            // Stride of 129 lines: coprime with the 256-set L1, so the
            // jumps sweep every set and steadily evict their own
            // unreferenced next-line prefetches.
            let addr = region + (self.bad_pos * 129 * LINE) % PHASE_FOOT;
            self.bad_pos += 1;
            Inst::with_dep(ATTACK_BASE + 0x3004, Op::Load { addr }, 1)
        }
    }
}

impl InstStream for AdversaryStream {
    fn next_inst(&mut self) -> Inst {
        let n = self.emitted;
        self.emitted += 1;
        if n < self.spec.start || n >= self.spec.stop {
            return self.base.next_inst();
        }
        let k = n - self.spec.start;
        match self.spec.attack {
            AttackKind::Interleave => {
                if (k / INTERLEAVE_QUANTUM).is_multiple_of(2) {
                    self.base.next_inst()
                } else {
                    self.aggressor
                        .as_mut()
                        .expect("interleave has an aggressor")
                        .next_inst()
                }
            }
            attack => {
                // Duty-cycled: the victim keeps running under attack.
                if k % DUTY_PERIOD >= DUTY_ATTACK {
                    return self.base.next_inst();
                }
                let inst = match attack {
                    AttackKind::Poison => self.poison_inst(),
                    AttackKind::AliasFlood => self.flood_inst(),
                    AttackKind::PhaseShift => self.phase_inst(k),
                    AttackKind::Interleave => unreachable!("handled above"),
                };
                self.step += 1;
                if self.step == ATTACK_STEPS {
                    self.step = 0;
                    self.iter += 1;
                }
                inst
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppf_types::{tenant_of_addr, FromJson, ToJson};

    /// The plain fold the flood construction targets (mirror of
    /// `ppf_filter::hash::fold16`; duplicated here so the workload crate
    /// stays independent of the filter crate).
    fn fold16(v: u64) -> u64 {
        (v ^ (v >> 16) ^ (v >> 32) ^ (v >> 48)) & 0xffff
    }

    fn drain(stream: &mut dyn InstStream, n: usize) -> Vec<Inst> {
        (0..n).map(|_| stream.next_inst()).collect()
    }

    #[test]
    fn names_round_trip() {
        for a in AttackKind::ALL {
            assert_eq!(AttackKind::from_name(a.name()), Some(a));
        }
        assert_eq!(AttackKind::from_name("nosuch"), None);
    }

    #[test]
    fn spec_json_round_trips() {
        let spec = AdversarySpec::window(AttackKind::AliasFlood, 100, 2000);
        let back = AdversarySpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
        assert_eq!(spec.describe(), "alias-flood@100..2000");
    }

    #[test]
    fn streams_are_deterministic() {
        for attack in AttackKind::ALL {
            let spec = AdversarySpec::window(attack, 50, 5_000);
            let mut a = AdversaryStream::new(spec, Workload::Em3d, 7);
            let mut b = AdversaryStream::new(spec, Workload::Em3d, 7);
            for _ in 0..8_000 {
                assert_eq!(a.next_inst(), b.next_inst(), "{attack} diverged");
            }
        }
    }

    #[test]
    fn victim_runs_alone_outside_the_window() {
        let spec = AdversarySpec::window(AttackKind::Poison, 200, 400);
        let mut clean = Workload::Gzip.stream(3);
        let mut attacked = AdversaryStream::new(spec, Workload::Gzip, 3);
        for _ in 0..200 {
            assert_eq!(clean.next_inst(), attacked.next_inst());
        }
        // In-window instructions mix in attack traffic...
        let in_window = drain(&mut attacked, 200);
        assert!(in_window.iter().any(|i| {
            matches!(i.op, Op::Load { addr } if tenant_of_addr(addr) == ATTACK_TENANT)
        }));
        // ...and afterwards the victim stream resumes exactly where its
        // own instruction count left off.
        let after = attacked.next_inst();
        let mut replay = Workload::Gzip.stream(3);
        let victim_served = 200
            + in_window
                .iter()
                .filter(|i| match i.op {
                    Op::Load { addr } | Op::Store { addr } | Op::SoftPrefetch { addr } => {
                        tenant_of_addr(addr) == 0
                    }
                    _ => tenant_of_addr(i.pc) == 0,
                })
                .count();
        for _ in 0..victim_served {
            replay.next_inst();
        }
        assert_eq!(after, replay.next_inst());
    }

    #[test]
    fn flood_lines_collide_under_the_plain_fold_only() {
        let t = 0x2a5;
        let lines: Vec<u64> = (1..64).map(|h| AdversaryStream::flood_line(t, h)).collect();
        for &l in &lines {
            assert_eq!(fold16(l), t, "crafted line {l:#x} misses index {t:#x}");
            assert_eq!(
                tenant_of_addr(l * LINE),
                ATTACK_TENANT,
                "flood traffic must stay in the attacker's region"
            );
        }
        // All distinct lines (a real flood, not one line repeated).
        let mut dedup = lines.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), lines.len());
    }

    #[test]
    fn attack_traffic_is_in_the_attacker_region() {
        for attack in [
            AttackKind::Poison,
            AttackKind::AliasFlood,
            AttackKind::PhaseShift,
        ] {
            let spec = AdversarySpec::window(attack, 0, 4_000);
            let mut s = AdversaryStream::new(spec, Workload::Em3d, 1);
            let insts = drain(&mut s, 4_000);
            let (mut attacker, mut victim) = (0usize, 0usize);
            for i in &insts {
                if let Op::Load { addr } | Op::Store { addr } = i.op {
                    match tenant_of_addr(addr) {
                        0 => victim += 1,
                        t if t == ATTACK_TENANT => attacker += 1,
                        t => panic!("unexpected tenant {t}"),
                    }
                }
            }
            assert!(attacker > 1_000, "{attack}: attacker loads = {attacker}");
            assert!(victim > 0, "{attack}: victim must keep running");
        }
    }

    #[test]
    fn interleave_context_switches_by_quantum() {
        let spec = AdversarySpec::window(AttackKind::Interleave, 0, 4 * INTERLEAVE_QUANTUM);
        let mut s = AdversaryStream::new(spec, Workload::Gzip, 5);
        let insts = drain(&mut s, (4 * INTERLEAVE_QUANTUM) as usize);
        for (q, chunk) in insts.chunks(INTERLEAVE_QUANTUM as usize).enumerate() {
            let expect = if q % 2 == 0 { 0 } else { ATTACK_TENANT };
            // PCs carry the tenant region too (the aggressor is fully
            // rebased), so every instruction in the quantum is attributable.
            for i in chunk {
                assert_eq!(
                    tenant_of_addr(i.pc),
                    expect,
                    "quantum {q} leaked the wrong tenant"
                );
            }
        }
    }

    #[test]
    fn phase_shift_alternates_regimes() {
        let spec = AdversarySpec::window(AttackKind::PhaseShift, 0, 4 * PHASE_HALF);
        let mut s = AdversaryStream::new(spec, Workload::Em3d, 2);
        // Collect the attacker's loads from each half-period.
        let all = drain(&mut s, (2 * PHASE_HALF) as usize);
        let halves: Vec<Vec<u64>> = all
            .chunks(PHASE_HALF as usize)
            .map(|c| {
                c.iter()
                    .filter_map(|i| match i.op {
                        Op::Load { addr } if tenant_of_addr(addr) == ATTACK_TENANT => Some(addr),
                        _ => None,
                    })
                    .collect()
            })
            .collect();
        // Good phase: consecutive attacker loads advance by one line.
        let good_sequential = halves[0].windows(2).filter(|w| w[1] == w[0] + LINE).count();
        assert!(
            good_sequential * 10 > halves[0].len() * 8,
            "good phase must stream sequentially"
        );
        // Bad phase: no two consecutive loads are line-sequential.
        let bad_sequential = halves[1].windows(2).filter(|w| w[1] == w[0] + LINE).count();
        assert_eq!(bad_sequential, 0, "bad phase must jump");
    }
}
