//! Cycle-identity drill for the skip-ahead kernel (DESIGN.md §14).
//!
//! The event-driven kernel is only allowed to *skip* cycles it can prove
//! the stepping kernel would have executed as no-ops, so the two kernels
//! must agree bit-for-bit on every statistic, every telemetry record and
//! every watchdog verdict. This drill pins that contract three ways:
//!
//! 1. The full 10-workload pinned-seed mix runs under the stepping kernel
//!    and must reproduce the committed golden JSON byte-for-byte — the
//!    reference semantics cannot drift silently.
//! 2. The same mix runs under the skip-ahead kernel and must match the
//!    same golden byte-for-byte.
//! 3. A property test throws randomized configurations at both kernels —
//!    fault injection, adversarial campaigns, telemetry intervals (jump
//!    barriers!), banked memory, prefetch buffers — and requires identical
//!    outcomes, successful or not.
//!
//! Regenerate the golden after an *intentional* semantic change with:
//! `cargo test --test kernel_identity -- --ignored regenerate`

mod common;

use ppf_sim::{KernelMode, Simulator, WatchdogConfig};
use ppf_types::telemetry::IntervalRecord;
use ppf_types::{FilterKind, JsonValue, PpfError, SimStats, SystemConfig, ToJson};
use ppf_workloads::{AdversarySpec, AdversaryStream, AttackKind, FaultSpec, FaultStream, Workload};
use proptest::prelude::*;

/// Pinned drill budget: long enough that every workload's prefetch funnel,
/// branch predictor and DRAM timing are exercised, short enough that the
/// stepping reference stays cheap in CI.
const DRILL_WARMUP: u64 = 20_000;
const DRILL_INSTRUCTIONS: u64 = 60_000;
const DRILL_SEED: u64 = 42;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/kernel_identity.json"
);

/// The drill machine: the paper's default with the PA filter, so the run
/// exercises the full funnel (generators → filter → queue → ports).
fn drill_config() -> SystemConfig {
    SystemConfig::paper_default().with_filter(FilterKind::Pa)
}

/// Run one drill cell under `kernel` and return its measured stats.
fn drill_stats(workload: Workload, kernel: KernelMode) -> SimStats {
    let mut sim = Simulator::with_seed(
        drill_config(),
        Box::new(workload.stream(DRILL_SEED)),
        DRILL_SEED,
    )
    .expect("valid config")
    .labeled("kernel-identity", workload.name())
    .with_kernel(kernel);
    sim.warmup(DRILL_WARMUP);
    sim.run(DRILL_INSTRUCTIONS).stats
}

/// Render the whole 10-workload mix as the golden JSON document.
fn mix_json(kernel: KernelMode) -> String {
    let cells: Vec<JsonValue> = Workload::ALL
        .iter()
        .map(|&w| {
            JsonValue::Object(vec![
                ("workload".to_string(), JsonValue::Str(w.name().to_string())),
                ("stats".to_string(), drill_stats(w, kernel).to_json()),
            ])
        })
        .collect();
    let doc = JsonValue::Object(vec![
        (
            "drill".to_string(),
            JsonValue::Str("kernel-identity".to_string()),
        ),
        ("seed".to_string(), JsonValue::UInt(DRILL_SEED)),
        ("warmup".to_string(), JsonValue::UInt(DRILL_WARMUP)),
        (
            "instructions".to_string(),
            JsonValue::UInt(DRILL_INSTRUCTIONS),
        ),
        ("cells".to_string(), JsonValue::Array(cells)),
    ]);
    let mut text = doc.pretty();
    text.push('\n');
    text
}

#[test]
fn stepping_kernel_matches_committed_golden() {
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect(
        "golden missing — regenerate with \
         `cargo test --test kernel_identity -- --ignored regenerate`",
    );
    assert_eq!(
        mix_json(KernelMode::Stepping),
        golden,
        "stepping (reference) kernel drifted from the committed golden"
    );
}

#[test]
fn skip_ahead_kernel_matches_committed_golden() {
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect(
        "golden missing — regenerate with \
         `cargo test --test kernel_identity -- --ignored regenerate`",
    );
    assert_eq!(
        mix_json(KernelMode::SkipAhead),
        golden,
        "skip-ahead kernel diverged from the stepping golden"
    );
}

#[test]
#[ignore = "writes tests/golden/kernel_identity.json from the stepping kernel"]
fn regenerate() {
    std::fs::write(GOLDEN_PATH, mix_json(KernelMode::Stepping)).expect("write golden");
}

/// One randomized scenario, run to completion (or structured failure)
/// under `kernel`.
struct Outcome {
    result: Result<SimStats, PpfError>,
    telemetry: Vec<IntervalRecord>,
}

#[derive(Debug, Clone)]
struct Scenario {
    workload: Workload,
    seed: u64,
    banked_memory: bool,
    prefetch_buffer: bool,
    filter: FilterKind,
    telemetry_interval: Option<u64>,
    adversary: Option<AdversarySpec>,
    /// Hang fault at this emitted-instruction index (the stream degrades
    /// into serially-dependent cold loads, tripping the stall watchdog —
    /// both kernels must report the identical verdict).
    hang_at: Option<u64>,
    warmup: u64,
    instructions: u64,
}

impl Scenario {
    fn config(&self) -> SystemConfig {
        let mut cfg = SystemConfig::paper_default().with_filter(self.filter);
        if self.banked_memory {
            cfg.mem.banks = 4;
            cfg.mem.bank_busy = 40;
        }
        if self.prefetch_buffer {
            cfg = cfg.with_prefetch_buffer();
        }
        cfg
    }

    fn run(&self, kernel: KernelMode) -> Outcome {
        let stream: Box<dyn ppf_cpu::InstStream> = match (self.adversary, self.hang_at) {
            (Some(adv), Some(at)) => Box::new(FaultStream::new(
                AdversaryStream::new(adv, self.workload, self.seed),
                FaultSpec::hang_at(at),
            )),
            (Some(adv), None) => Box::new(AdversaryStream::new(adv, self.workload, self.seed)),
            (None, Some(at)) => Box::new(FaultStream::new(
                self.workload.stream(self.seed),
                FaultSpec::hang_at(at),
            )),
            (None, None) => Box::new(self.workload.stream(self.seed)),
        };
        let mut sim = Simulator::with_seed(self.config(), stream, self.seed)
            .expect("valid config")
            .labeled("kernel-prop", self.workload.name())
            .with_kernel(kernel)
            .with_watchdog(WatchdogConfig {
                max_cpi: 10_000,
                stall_window: 20_000,
            });
        if let Some(interval) = self.telemetry_interval {
            sim = sim.with_telemetry(interval).expect("nonzero interval");
        }
        let result = sim
            .warmup_checked(self.warmup)
            .and_then(|()| sim.run_checked(self.instructions).map(|r| r.stats));
        Outcome {
            result,
            telemetry: sim.take_telemetry_records(),
        }
    }
}

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    // The vendored proptest caps tuple strategies at 8 elements and has no
    // `option` module, so the ten dimensions are nested into two sub-tuples
    // and each Option is a (enabled, value) pair folded in `prop_map`.
    (
        (
            0..Workload::ALL.len(),
            0u64..1_000,
            any::<bool>(),
            any::<bool>(),
            prop_oneof![
                Just(FilterKind::None),
                Just(FilterKind::Pa),
                Just(FilterKind::Pc),
                Just(FilterKind::Perceptron)
            ],
            0u64..20_000,
            5_000u64..40_000,
        ),
        (
            (any::<bool>(), 64u64..4_096),
            (
                any::<bool>(),
                0..AttackKind::ALL.len(),
                0u64..20_000,
                1u64..30_000,
            ),
            (any::<bool>(), 5_000u64..40_000),
        ),
    )
        .prop_map(
            |(
                (w, seed, banked, buffer, filter, warmup, insts),
                ((telemetry_on, interval), (adv_on, kind, start, len), (hang_on, hang)),
            )| Scenario {
                workload: Workload::ALL[w],
                seed,
                banked_memory: banked,
                prefetch_buffer: buffer,
                filter,
                telemetry_interval: telemetry_on.then_some(interval),
                adversary: adv_on
                    .then(|| AdversarySpec::window(AttackKind::ALL[kind], start, start + len)),
                hang_at: hang_on.then_some(hang),
                warmup,
                instructions: insts,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Whatever the scenario — fault, adversary, telemetry barriers,
    /// banked DRAM — the two kernels agree on the complete outcome:
    /// identical stats and telemetry on success, the identical structured
    /// error (same message, same cycle numbers) on a watchdog verdict.
    #[test]
    fn kernels_never_diverge(scenario in scenario_strategy()) {
        let stepping = scenario.run(KernelMode::Stepping);
        let skip = scenario.run(KernelMode::SkipAhead);
        match (&stepping.result, &skip.result) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "stats diverged: {:?}", scenario),
            (Err(a), Err(b)) => {
                prop_assert_eq!(a.to_string(), b.to_string(), "errors diverged: {:?}", scenario)
            }
            (a, b) => prop_assert!(
                false,
                "verdicts diverged for {:?}: stepping {:?} vs skip-ahead {:?}",
                scenario,
                a.as_ref().map(|_| "ok"),
                b.as_ref().map(|_| "ok")
            ),
        }
        prop_assert_eq!(
            &stepping.telemetry,
            &skip.telemetry,
            "telemetry records diverged: {:?}",
            scenario
        );
    }
}
