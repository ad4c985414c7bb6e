//! The workload mixture model and its instruction stream.
//!
//! A [`WorkloadSpec`] is a complete synthetic program description: an
//! instruction mix (memory / branch / FP fractions), a set of weighted
//! address patterns, branch-site predictability, and dependency behaviour.
//! [`MixStream`] turns a spec plus a seed into the endless deterministic
//! instruction stream the core consumes.
//!
//! ## How instructions are produced
//!
//! Each `next_inst` draw picks an instruction class by the mix fractions.
//! Memory instructions select a pattern by weight and take its next access;
//! pointer-chase patterns attach a serial dependency on the pattern's
//! previous load (that is what makes mcf/em3d latency-bound). Pattern
//! accesses that are due a compiler prefetch enqueue an `Op::SoftPrefetch`
//! immediately after the triggering access. Branches come from a set of
//! per-workload branch sites, each deterministically predictable (loop
//! back-edge style) or data-dependent (coin flip), in proportion to the
//! spec's `branch_predictability`.
//!
//! Every probability is turned into an integer [`Threshold`] once, at
//! construction, so a draw is one integer compare with the outcome the
//! float compare had. The compute and branch paths select their results
//! instead of branching on draws; the instruction class is the one
//! data-dependent branch left. The streams are a committed contract
//! (`tests/golden/stream_digest.json`): a change meant to be host-time only
//! must leave them byte-identical.

use crate::patterns::{probability, PatternSpec, PatternState};
use ppf_cpu::{Inst, InstStream, Op};
use ppf_types::rng::Threshold;
use ppf_types::{Pc, SplitMix64};

/// Number of distinct branch sites per workload: one bit each in
/// `MixStream::loop_sites`.
const BRANCH_SITES: u64 = 64;
/// Cap on dependency distance (beyond the ROB it cannot stall anyway).
const MAX_DEP: u64 = 120;

/// A complete synthetic program description.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Benchmark name as in Table 2.
    pub name: &'static str,
    /// Weighted address patterns (weights need not sum to 1; they are
    /// normalized over the memory-access stream).
    pub patterns: Vec<PatternSpec>,
    /// Fraction of instructions that are loads/stores.
    pub frac_mem: f64,
    /// Fraction of instructions that are conditional branches.
    pub frac_branch: f64,
    /// Fraction of the remaining (compute) instructions that are FP.
    pub frac_fp: f64,
    /// Probability a branch site behaves predictably (loop-style).
    pub branch_predictability: f64,
    /// Probability a compute instruction depends on a recent producer.
    pub dep_p: f64,
    /// Static code footprint in KB. Compute instructions mostly loop in a
    /// hot 4KB region; a `cold_code_frac` fraction walks the full
    /// footprint, which is what exercises the L1 instruction cache (gcc
    /// and fpppp are the famous I-side stressors).
    pub code_kb: u64,
    /// Fraction of compute instructions fetched from the cold code walk.
    pub cold_code_frac: f64,
    /// Table 2 target L1 miss rate with prefetching off (documentation and
    /// calibration-test target).
    pub expect_l1_miss: f64,
    /// Table 2 target L2 miss rate with prefetching off.
    pub expect_l2_miss: f64,
}

impl WorkloadSpec {
    /// Validate mixture sanity (fractions and probabilities in range,
    /// weights positive, every pattern well-formed, pattern regions
    /// disjoint).
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.frac_mem)
            || !(0.0..=1.0).contains(&self.frac_branch)
            || self.frac_mem + self.frac_branch > 1.0
        {
            return Err(format!("{}: bad instruction mix", self.name));
        }
        for (field, p) in [
            ("frac_fp", self.frac_fp),
            ("branch_predictability", self.branch_predictability),
            ("dep_p", self.dep_p),
            ("cold_code_frac", self.cold_code_frac),
        ] {
            probability(field, p).map_err(|e| format!("{}: {e}", self.name))?;
        }
        if self.patterns.is_empty() {
            return Err(format!("{}: no patterns", self.name));
        }
        for p in &self.patterns {
            p.validate().map_err(|e| format!("{}: {e}", self.name))?;
        }
        let mut regions: Vec<(u64, u64)> = self
            .patterns
            .iter()
            .map(|p| (p.base, p.base + p.footprint))
            .collect();
        regions.sort_unstable();
        for w in regions.windows(2) {
            if w[0].1 > w[1].0 {
                return Err(format!("{}: overlapping pattern regions", self.name));
            }
        }
        if self
            .patterns
            .iter()
            .any(|p| p.weight.is_nan() || p.weight <= 0.0)
        {
            return Err(format!("{}: non-positive pattern weight", self.name));
        }
        Ok(())
    }
}

/// The endless instruction stream for one workload instance.
#[derive(Clone)]
pub struct MixStream {
    spec: WorkloadSpec,
    patterns: Vec<PatternState>,
    /// Cut points of the weighted pattern choice.
    pattern_cuts: Vec<Threshold>,
    /// Cut points of the class choice: below the first a memory access,
    /// below the second a branch, else compute.
    class_cuts: [Threshold; 2],
    /// `cold_code_frac`, `frac_fp` and `dep_p` as draw thresholds.
    cold_code: Threshold,
    fp: Threshold,
    dep: Threshold,
    /// Compute-instruction PC walks, indexed by the cold-code draw: the
    /// hot loop region, then the cold walk over `code_kb`.
    code: [CodeWalk; 2],
    rng: SplitMix64,
    /// Bit `i` set when branch site `i` is predictable (a loop back-edge)
    /// rather than data-dependent; fixed at stream construction.
    loop_sites: u64,
    /// A software prefetch waiting to follow its trigger.
    pending: Option<Inst>,
    /// Global instruction counter (for dependency distances).
    seq: u64,
    /// Per-pattern seq of the pattern's previous access.
    last_access_seq: Vec<u64>,
}

/// A sequential PC walk that wraps within a power-of-two span.
#[derive(Debug, Clone, Copy)]
struct CodeWalk {
    base: Pc,
    /// Span in bytes minus one.
    mask: u64,
    /// Last PC handed out.
    pc: Pc,
}

impl MixStream {
    /// Build the stream for `spec` with the given seed.
    pub fn new(spec: WorkloadSpec, seed: u64) -> Self {
        spec.validate().expect("invalid workload spec");
        let mut rng = SplitMix64::new(seed ^ 0x9e37_79b9);
        let patterns: Vec<PatternState> = spec
            .patterns
            .iter()
            .cloned()
            .map(PatternState::new)
            .collect();
        let weights: Vec<f64> = spec.patterns.iter().map(|p| p.weight).collect();
        let mut site_rng = rng.split();
        let loop_sites = (0..BRANCH_SITES).fold(0, |bits, i| {
            bits | (site_rng.chance(spec.branch_predictability) as u64) << i
        });
        let n = patterns.len();
        MixStream {
            patterns,
            pattern_cuts: Threshold::cuts(&weights),
            class_cuts: [
                Threshold::new(spec.frac_mem),
                Threshold::new(spec.frac_mem + spec.frac_branch),
            ],
            cold_code: Threshold::new(spec.cold_code_frac),
            fp: Threshold::new(spec.frac_fp),
            dep: Threshold::new(spec.dep_p),
            // Hot inner loops: a 4KB region that lives in the I-cache (sets
            // 128-255 of the 8KB direct-mapped array). The cold walk covers
            // the full code footprint, so the I-cache sees a new line every
            // 8 of its instructions.
            code: [
                CodeWalk {
                    base: 0x2_1000,
                    mask: 0xfff,
                    pc: 0x2_1000,
                },
                CodeWalk {
                    base: 0x40_0000,
                    mask: (spec.code_kb.max(4) * 1024).next_power_of_two() - 1,
                    pc: 0x40_0000,
                },
            ],
            spec,
            rng,
            loop_sites,
            pending: None,
            seq: 0,
            last_access_seq: vec![u64::MAX; n],
        }
    }

    /// The spec this stream was built from.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    fn gen_mem(&mut self) -> Inst {
        let idx = self.rng.rank(&self.pattern_cuts);
        let pattern = &mut self.patterns[idx];
        let access = pattern.next_access(&mut self.rng);
        // Serial dependency on this pattern's previous access (pointer
        // chasing): distance in instructions, capped at the ROB horizon.
        let last = std::mem::replace(&mut self.last_access_seq[idx], self.seq);
        let dep = if pattern.serial_dep() && last != u64::MAX {
            (self.seq - last).min(MAX_DEP) as u8
        } else {
            0
        };
        // The compiler schedules the prefetch right after the access
        // that made the lookahead address computable.
        self.pending = access.prefetch.map(|pf_addr| {
            Inst::new(
                access.pc + 0x400, // the prefetch instruction's own PC
                Op::SoftPrefetch { addr: pf_addr },
            )
        });
        let op = if access.is_store {
            Op::Store { addr: access.addr }
        } else {
            Op::Load { addr: access.addr }
        };
        Inst::with_dep(access.pc, op, dep)
    }

    fn gen_branch(&mut self) -> Inst {
        let site = self.rng.below(BRANCH_SITES);
        // A loop back-edge is not taken on a 1/16 hit; a data-dependent
        // branch is taken on a fair coin.
        let looping = self.loop_sites >> site & 1 == 1;
        let coin = if looping {
            Threshold::new(1.0 / 16.0)
        } else {
            Threshold::new(0.5)
        };
        let taken = self.rng.hit(coin) != looping;
        // Region bases are staggered modulo the 8KB I-cache so the small
        // hot PC groups do not all alias onto set 0 (a synthetic-layout
        // artifact; real linkers spread code arbitrarily).
        Inst::new(
            0x8_0e00 + site * 4,
            Op::Branch {
                taken,
                target: 0x9_0000 + site * 16,
            },
        )
    }

    fn gen_compute(&mut self) -> Inst {
        // The draw indexes the walk that moves rather than branching.
        let walk = &mut self.code[self.rng.hit(self.cold_code) as usize];
        walk.pc = walk.base + ((walk.pc + 4) & walk.mask);
        let pc = walk.pc;
        let op = if self.rng.hit(self.fp) {
            Op::FpAlu
        } else {
            Op::IntAlu
        };
        // A dependent instruction reads one of the two previous results.
        let dependent = self.rng.hit(self.dep);
        let dep = dependent as u8 + self.rng.below_if(dependent, 2) as u8;
        Inst::with_dep(pc, op, dep)
    }
}

impl InstStream for MixStream {
    fn clone_box(&self) -> Option<Box<dyn InstStream>> {
        Some(Box::new(self.clone()))
    }

    fn next_inst(&mut self) -> Inst {
        let inst = match self.pending.take() {
            Some(prefetch) => prefetch,
            None => match self.rng.rank(&self.class_cuts) {
                0 => self.gen_mem(),
                1 => self.gen_branch(),
                _ => self.gen_compute(),
            },
        };
        self.seq += 1;
        inst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns::PatternKind;

    fn spec() -> WorkloadSpec {
        WorkloadSpec {
            name: "test",
            patterns: vec![
                PatternSpec {
                    pc_base: 0x1000,
                    ..PatternSpec::new("hot", PatternKind::Strided { stride: 8 }, 0, 4096, 0.7)
                },
                PatternSpec {
                    pc_base: 0x3000,
                    serial_dep: true,
                    ..PatternSpec::new(
                        "chase",
                        PatternKind::PointerChase {
                            node_bytes: 64,
                            fields: 1,
                            run: 1,
                        },
                        1 << 32,
                        1 << 16,
                        0.3,
                    )
                },
            ],
            frac_mem: 0.4,
            frac_branch: 0.15,
            frac_fp: 0.2,
            branch_predictability: 0.8,
            dep_p: 0.4,
            code_kb: 16,
            cold_code_frac: 0.05,
            expect_l1_miss: 0.05,
            expect_l2_miss: 0.0,
        }
    }

    #[test]
    fn mix_fractions_roughly_respected() {
        let mut s = MixStream::new(spec(), 1);
        let n = 50_000;
        let mut mem = 0;
        let mut br = 0;
        for _ in 0..n {
            match s.next_inst().op {
                Op::Load { .. } | Op::Store { .. } => mem += 1,
                Op::Branch { .. } => br += 1,
                _ => {}
            }
        }
        let fm = mem as f64 / n as f64;
        let fb = br as f64 / n as f64;
        assert!((fm - 0.4).abs() < 0.03, "mem fraction {fm}");
        assert!((fb - 0.15).abs() < 0.02, "branch fraction {fb}");
    }

    #[test]
    fn pattern_weights_respected() {
        let mut s = MixStream::new(spec(), 1);
        let mut hot = 0u64;
        let mut chase = 0u64;
        for _ in 0..50_000 {
            if let Op::Load { addr } | Op::Store { addr } = s.next_inst().op {
                if addr < 1 << 20 {
                    hot += 1;
                } else {
                    chase += 1;
                }
            }
        }
        let frac = hot as f64 / (hot + chase) as f64;
        assert!((frac - 0.7).abs() < 0.05, "hot fraction {frac}");
    }

    #[test]
    fn chase_loads_carry_serial_deps() {
        let mut s = MixStream::new(spec(), 1);
        let mut dep_count = 0;
        let mut chase_count = 0;
        for _ in 0..20_000 {
            let inst = s.next_inst();
            if let Op::Load { addr } | Op::Store { addr } = inst.op {
                if addr >= 1 << 32 {
                    chase_count += 1;
                    if inst.dep > 0 {
                        dep_count += 1;
                    }
                }
            }
        }
        assert!(chase_count > 1000);
        // All but the first chase access depend on a predecessor.
        assert!(dep_count >= chase_count - 1, "{dep_count}/{chase_count}");
    }

    #[test]
    fn determinism() {
        let mut a = MixStream::new(spec(), 7);
        let mut b = MixStream::new(spec(), 7);
        for _ in 0..1000 {
            assert_eq!(a.next_inst(), b.next_inst());
        }
    }

    #[test]
    fn seeds_differ() {
        let mut a = MixStream::new(spec(), 1);
        let mut b = MixStream::new(spec(), 2);
        let same = (0..200).filter(|_| a.next_inst() == b.next_inst()).count();
        assert!(same < 100, "streams should diverge, same={same}");
    }

    #[test]
    fn software_prefetches_emitted_when_configured() {
        let mut sp = spec();
        sp.patterns[0].sw_prefetch = Some(crate::patterns::SwPrefetchSpec {
            lead_bytes: 256,
            every: 2,
        });
        let mut s = MixStream::new(sp, 1);
        let mut prefetches = 0;
        for _ in 0..20_000 {
            if matches!(s.next_inst().op, Op::SoftPrefetch { .. }) {
                prefetches += 1;
            }
        }
        assert!(prefetches > 1000, "{prefetches}");
    }

    #[test]
    fn branch_sites_have_stable_behavior() {
        // With 0.8 predictability, overall taken-rate should be far from
        // 50% (predictable sites are ~94% taken).
        let mut s = MixStream::new(spec(), 3);
        let mut taken = 0u64;
        let mut total = 0u64;
        for _ in 0..50_000 {
            if let Op::Branch { taken: t, .. } = s.next_inst().op {
                total += 1;
                if t {
                    taken += 1;
                }
            }
        }
        let rate = taken as f64 / total as f64;
        assert!(rate > 0.7, "taken rate {rate}");
    }

    #[test]
    fn validate_catches_overlap() {
        let mut sp = spec();
        sp.patterns[1].base = 100; // overlaps pattern 0
        assert!(sp.validate().is_err());
    }

    #[test]
    fn validate_catches_bad_mix() {
        let mut sp = spec();
        sp.frac_mem = 0.9;
        sp.frac_branch = 0.3;
        assert!(sp.validate().is_err());
    }

    fn validate_err(sp: &WorkloadSpec) -> String {
        sp.validate().expect_err("malformed spec accepted")
    }

    #[test]
    fn validate_rejects_zero_footprint() {
        // A zero-footprint strided pattern would divide by zero on its
        // first access.
        let mut sp = spec();
        sp.patterns[0].footprint = 0;
        assert!(validate_err(&sp).contains("zero footprint"));
    }

    #[test]
    fn validate_rejects_chase_run_not_power_of_two() {
        let mut sp = spec();
        sp.patterns[1].kind = PatternKind::PointerChase {
            node_bytes: 64,
            fields: 1,
            run: 3,
        };
        assert!(validate_err(&sp).contains("not a power of two"));
    }

    #[test]
    fn validate_rejects_rereads_from_empty_window() {
        let stream = |reread_p| PatternKind::Stream {
            advance: 32,
            window: 0,
            reread_p,
        };
        let mut sp = spec();
        sp.patterns[1].kind = stream(0.1);
        assert!(validate_err(&sp).contains("zero-byte window"));
        // Without re-reads the window is never read.
        sp.patterns[1].kind = stream(0.0);
        assert_eq!(sp.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_probabilities_outside_unit_interval() {
        type Setter = fn(&mut WorkloadSpec, f64);
        let setters: [(&str, Setter); 6] = [
            ("frac_fp", |s, p| s.frac_fp = p),
            ("dep_p", |s, p| s.dep_p = p),
            ("branch_predictability", |s, p| s.branch_predictability = p),
            ("cold_code_frac", |s, p| s.cold_code_frac = p),
            ("store_frac", |s, p| s.patterns[0].store_frac = p),
            ("reread_p", |s, p| {
                s.patterns[1].kind = PatternKind::Stream {
                    advance: 32,
                    window: 4096,
                    reread_p: p,
                }
            }),
        ];
        for (field, set) in setters {
            for p in [1.5, -0.2, f64::NAN, f64::INFINITY] {
                let mut sp = spec();
                set(&mut sp, p);
                assert!(validate_err(&sp).contains(field), "{field} = {p}");
            }
            for p in [0.0, 1.0] {
                let mut sp = spec();
                set(&mut sp, p);
                assert_eq!(sp.validate(), Ok(()), "{field} = {p}");
            }
        }
    }

    #[test]
    fn validate_rejects_nan_weight() {
        let mut sp = spec();
        sp.patterns[1].weight = f64::NAN;
        assert!(validate_err(&sp).contains("pattern weight"));
    }
}
