//! Fault drills for the experiment engine: panic isolation, the simulator
//! watchdog, seed fan-out, and structured-error plumbing — the acceptance
//! scenario of the robustness layer (DESIGN.md §9).

mod common;

use common::{drill_watchdog, wedged_config};
use ppf_sim::experiments::{fan_seeds, merge_seed_outcomes, CellOutcome};
use ppf_sim::{fanned_seed, run_grid, run_grid_outcomes, RunSpec, Simulator, WatchdogConfig};
use ppf_types::{FromJson, PpfErrorKind, SystemConfig, ToJson};
use ppf_workloads::{FaultSpec, Workload};

const N: u64 = 8_000;

/// The acceptance drill: a 10-workload grid with one injected panicking
/// cell and one wedged cell completes with 8 Ok / 2 Failed structured
/// outcomes, and the surviving cells' reports are byte-identical to a
/// clean run of the same 8 specs.
#[test]
fn grid_survives_panicking_and_wedged_cells() {
    let panic_victim = Workload::ALL[2];
    let hang_victim = Workload::ALL[5];
    let grid: Vec<RunSpec> = Workload::ALL
        .iter()
        .map(|&w| {
            let spec = RunSpec::new("drill", SystemConfig::paper_default(), w).instructions(N);
            if w == panic_victim {
                spec.with_fault(FaultSpec::panic_at(1_000))
            } else if w == hang_victim {
                RunSpec::new("drill", wedged_config(), w)
                    .instructions(N)
                    .with_fault(FaultSpec::hang_at(0))
                    .with_watchdog(drill_watchdog())
            } else {
                spec
            }
        })
        .collect();
    let clean: Vec<RunSpec> = grid.iter().filter(|s| s.fault.is_none()).cloned().collect();

    let outcomes = run_grid_outcomes(grid);
    assert_eq!(outcomes.len(), 10);
    assert_eq!(outcomes.iter().filter(|o| o.is_ok()).count(), 8);

    // Outcome order matches input order, so the two failures sit at the
    // injected indices with the expected error kinds.
    let panic_failure = outcomes[2].failure().expect("panic cell failed");
    assert_eq!(panic_failure.error.kind, PpfErrorKind::CellPanic);
    assert_eq!(panic_failure.workload, panic_victim.name());
    assert_eq!(
        panic_failure.attempts, 2,
        "deterministic failure retried once"
    );
    assert!(
        panic_failure.error.message.contains("injected fault"),
        "panic payload preserved: {}",
        panic_failure.error
    );

    let hang_failure = outcomes[5].failure().expect("wedged cell failed");
    assert_eq!(hang_failure.error.kind, PpfErrorKind::ForwardProgressStall);
    assert_eq!(hang_failure.workload, hang_victim.name());
    assert_eq!(hang_failure.attempts, 2);
    // The pipeline snapshot names the stall and the run identity.
    let rendered = hang_failure.error.to_string();
    assert!(rendered.contains("no instruction retired"), "{rendered}");
    assert!(rendered.contains(hang_victim.name()), "{rendered}");

    // The 8 survivors are byte-identical to a clean run of the same specs.
    let survivors: Vec<_> = outcomes.iter().filter_map(CellOutcome::report).collect();
    let clean_reports = run_grid(clean);
    assert_eq!(survivors.len(), clean_reports.len());
    for (s, c) in survivors.iter().zip(clean_reports.iter()) {
        assert_eq!(s.workload, c.workload);
        assert_eq!(
            s.stats, c.stats,
            "fault isolation must not perturb {}",
            c.workload
        );
    }
}

/// The cycle-ceiling half of the watchdog: a healthy workload under an
/// absurdly tight CPI bound times out with a `watchdog-timeout` error
/// carrying the run identity and progress snapshot.
#[test]
fn watchdog_cycle_ceiling_trips() {
    let mut sim = Simulator::with_seed(
        SystemConfig::paper_default(),
        Box::new(Workload::Gzip.stream(7)),
        7,
    )
    .expect("valid config")
    .labeled("ceiling", Workload::Gzip.name())
    .with_watchdog(WatchdogConfig {
        max_cpi: 1,
        stall_window: u64::MAX,
    });
    let err = sim.run_checked(50_000).expect_err("CPI 1 is unreachable");
    assert_eq!(err.kind, PpfErrorKind::WatchdogTimeout);
    let rendered = err.to_string();
    assert!(rendered.contains("cycle ceiling exceeded"), "{rendered}");
    assert!(rendered.contains("ceiling/gzip seed 7"), "{rendered}");
}

/// Within bounds, the watchdogged loop is cycle-for-cycle identical to
/// the pre-watchdog machine: run_checked and run agree.
#[test]
fn watchdog_is_invisible_to_healthy_runs() {
    let mk = || {
        Simulator::with_seed(
            SystemConfig::paper_default(),
            Box::new(Workload::Em3d.stream(11)),
            11,
        )
        .expect("valid config")
    };
    let a = mk().run_checked(N).expect("healthy run");
    let b = mk().run(N);
    assert_eq!(a.stats, b.stats);
}

/// Seed fan-out regression: the old `base + 1_000·s` scheme collided for
/// base seeds differing by small multiples of 1000 (42+1000 == 1042+0);
/// SplitMix64 derivation keeps every (base, s) pair distinct, and s=0 is
/// the base itself so single-seed grids are unchanged.
#[test]
fn fanned_seeds_are_pairwise_distinct() {
    let bases = [42u64, 1_042, 2_042];
    let mut seen = Vec::new();
    for &base in &bases {
        assert_eq!(fanned_seed(base, 0), base, "s=0 must be the base seed");
        for s in 0..5u32 {
            seen.push(fanned_seed(base, s));
        }
    }
    let mut deduped = seen.clone();
    deduped.sort_unstable();
    deduped.dedup();
    assert_eq!(
        deduped.len(),
        seen.len(),
        "fanned seeds must be pairwise distinct: {seen:?}"
    );
}

/// A cell that fails under one fanned seed fails the merged outcome while
/// its healthy neighbours still merge normally.
#[test]
fn seed_fanout_propagates_cell_failure() {
    let healthy =
        RunSpec::new("seeds", SystemConfig::paper_default(), Workload::Gzip).instructions(N);
    let faulty = RunSpec::new("seeds", SystemConfig::paper_default(), Workload::Mcf)
        .instructions(N)
        .with_fault(FaultSpec::panic_at(500));
    let fanned = run_grid_outcomes(fan_seeds(&[healthy, faulty], 2));
    let merged = merge_seed_outcomes(fanned, 2, 2);
    assert_eq!(merged.len(), 2);
    let ok = merged[0].report().expect("healthy cell merges");
    assert!(ok.stats.instructions >= 2 * N, "both seeds merged");
    let failure = merged[1].failure().expect("faulty cell fails");
    assert_eq!(failure.error.kind, PpfErrorKind::CellPanic);
}

/// Structured errors round-trip through the in-repo JSON layer with kind,
/// message and context chain intact (the checkpoint appendix relies on
/// this).
#[test]
fn cell_failure_errors_serialize() {
    let outcomes = run_grid_outcomes(vec![RunSpec::new(
        "json",
        SystemConfig::paper_default(),
        Workload::Bh,
    )
    .instructions(2_000)
    .with_fault(FaultSpec::panic_at(100))]);
    let failure = outcomes[0].failure().expect("fault fails the cell");
    let back =
        ppf_types::PpfError::from_json_str(&failure.error.to_json_string()).expect("round trip");
    assert_eq!(back, failure.error);
    assert_eq!(back.kind, PpfErrorKind::CellPanic);
    assert!(!back.context.is_empty(), "context chain preserved");
}

#[test]
fn invalid_config_surfaces_structured_error() {
    let mut cfg = SystemConfig::paper_default();
    cfg.prefetch.queue_len = 0;
    let err = Simulator::with_seed(cfg, Box::new(Workload::Gcc.stream(1)), 1)
        .err()
        .expect("invalid config rejected");
    assert_eq!(err.kind, PpfErrorKind::ConfigInvalid);
    assert!(err.to_string().contains("queue length"), "{err}");
}
