//! Checkpoint/resume integration drills: fresh runs persist every healthy
//! cell, resumes execute only the missing or failed ones, a config or
//! watchdog change invalidates the old entries, corrupt files are re-run,
//! repeats within one call execute once, and fault or telemetry cells
//! bypass both store backends.

use ppf_bench::checkpoint::cell_path;
use ppf_bench::memo::{CellStore, StoredRun};
use ppf_sim::experiments::CellOutcome;
use ppf_sim::{RunSpec, WatchdogConfig};
use ppf_types::telemetry::TelemetryConfig;
use ppf_types::{PpfErrorKind, SystemConfig};
use ppf_workloads::{AdversarySpec, AttackKind, FaultSpec, Workload};
use std::path::{Path, PathBuf};

const N: u64 = 4_000;

/// A scratch checkpoint directory unique to this test process.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ppf-ckpt-{}-{name}", std::process::id()))
}

/// Run `specs` at one seed through the checkpoint store under `dir`.
fn checkpointed(specs: Vec<RunSpec>, dir: &Path) -> StoredRun {
    CellStore::Dir(dir).run(specs, 1).unwrap()
}

/// The acceptance drill grid: 10 workloads, one panicking and one wedged.
fn drill_grid() -> Vec<RunSpec> {
    Workload::ALL
        .iter()
        .map(|&w| {
            let spec = RunSpec::new("drill", SystemConfig::paper_default(), w).instructions(N);
            match w {
                Workload::Perimeter => spec.with_fault(FaultSpec::panic_at(500)),
                Workload::Gcc => {
                    let mut cfg = SystemConfig::paper_default();
                    cfg.mem.latency = 1_000_000_000;
                    RunSpec::new("drill", cfg, w)
                        .instructions(N)
                        .with_fault(FaultSpec::hang_at(0))
                        .with_watchdog(WatchdogConfig {
                            max_cpi: 10_000,
                            stall_window: 20_000,
                        })
                }
                _ => spec,
            }
        })
        .collect()
}

/// The same grid with every fault healed (what a fixed re-run looks like).
fn healed_grid() -> Vec<RunSpec> {
    drill_grid()
        .into_iter()
        .map(|mut s| {
            s.fault = None;
            if s.config.mem.latency > 1_000 {
                s.config = SystemConfig::paper_default();
            }
            s
        })
        .collect()
}

/// Fresh run: every cell executes, only healthy cells leave files, and a
/// resume of the fixed grid reloads exactly those and runs the rest.
#[test]
fn resume_executes_only_failed_cells() {
    let dir = scratch("resume");
    std::fs::remove_dir_all(&dir).ok();

    let first = checkpointed(drill_grid(), &dir);
    assert_eq!(first.hits, 0, "fresh directory has nothing to reload");
    assert_eq!(first.executed, 10);
    assert_eq!(first.corrupt, 0);
    assert!(first.write_errors.is_empty());
    assert_eq!(first.outcomes.iter().filter(|o| o.is_ok()).count(), 8);
    // Only the 8 healthy cells were persisted; failures are never
    // checkpointed so a resume retries them.
    let files = std::fs::read_dir(&dir).unwrap().count();
    assert_eq!(files, 8);
    for (spec, outcome) in drill_grid().iter().zip(&first.outcomes) {
        // The two faulted cells always execute, so they have no file name.
        let path = cell_path(&dir, spec);
        assert_eq!(path.is_none(), spec.fault.is_some());
        assert_eq!(path.is_some_and(|p| p.exists()), outcome.is_ok());
    }

    // Resume with the faults fixed: the 8 checkpointed cells reload, only
    // the 2 previously-failed cells execute. The wedged cell's config
    // changed when it was healed, so its old key never existed anyway.
    let second = checkpointed(healed_grid(), &dir);
    assert_eq!(second.hits, 8);
    assert_eq!(second.executed, 2);
    assert!(second.outcomes.iter().all(CellOutcome::is_ok));

    // The reloaded cells are identical to the first run's survivors.
    for (a, b) in first
        .outcomes
        .iter()
        .zip(&second.outcomes)
        .filter_map(|(a, b)| Some((a.report()?, b.report()?)))
    {
        assert_eq!(a.stats, b.stats);
    }

    // Third run: everything reloads, nothing executes.
    let third = checkpointed(healed_grid(), &dir);
    assert_eq!(third.hits, 10);
    assert_eq!(third.executed, 0);

    std::fs::remove_dir_all(&dir).ok();
}

/// Watchdog bounds tight enough to fail a 4000-instruction mcf cell.
fn tight_watchdog() -> WatchdogConfig {
    WatchdogConfig {
        max_cpi: 1,
        ..WatchdogConfig::default()
    }
}

/// The watchdog bounds are part of the key: a report stored under the
/// default bounds must not serve a spec whose tighter bounds it fails.
#[test]
fn watchdog_bounds_are_part_of_the_key() {
    let dir = scratch("watchdog");
    std::fs::remove_dir_all(&dir).ok();

    let spec = RunSpec::new("w", SystemConfig::paper_default(), Workload::Mcf).instructions(N);
    let tight = spec.clone().with_watchdog(tight_watchdog());
    assert!(tight.run_checked().is_err(), "tight bounds fail run alone");
    let stored = checkpointed(vec![spec], &dir);
    assert!(stored.outcomes[0].is_ok());

    let run = checkpointed(vec![tight], &dir);
    assert_eq!((run.hits, run.executed), (0, 1), "tight spec must execute");
    let failure = run.outcomes[0].failure().expect("tight spec fails");
    assert_eq!(failure.error.kind, PpfErrorKind::WatchdogTimeout);

    std::fs::remove_dir_all(&dir).ok();
}

/// Repeats of one key within a call execute once, on both backends: each
/// repeat counts as a hit and gets the first run's outcome under its own
/// label, failures included.
#[test]
fn repeats_in_one_call_execute_once_under_their_own_labels() {
    let dir = scratch("repeats");
    std::fs::remove_dir_all(&dir).ok();

    let cell = |label: &str| {
        RunSpec::new(label, SystemConfig::paper_default(), Workload::Mcf)
            .instructions(N)
            .with_watchdog(tight_watchdog())
    };
    for store in [CellStore::Dir(&dir), CellStore::Memo] {
        let run = store.run(vec![cell("a"), cell("b"), cell("a")], 2).unwrap();
        assert_eq!((run.hits, run.executed), (4, 2), "{store:?}");
        let labels: Vec<&str> = run
            .outcomes
            .iter()
            .map(|o| o.failure().expect("tight bounds fail").label.as_str())
            .collect();
        assert_eq!(labels, ["a", "b", "a"], "{store:?}");
    }
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);

    std::fs::remove_dir_all(&dir).ok();
}

/// Any config change produces different cell keys, so a checkpoint from
/// the old sweep is invisible to the new one.
#[test]
fn config_change_invalidates_checkpoint() {
    let dir = scratch("invalidate");
    std::fs::remove_dir_all(&dir).ok();

    let grid = || {
        vec![
            RunSpec::new("base", SystemConfig::paper_default(), Workload::Gzip).instructions(N),
            RunSpec::new("base", SystemConfig::paper_default(), Workload::Mcf).instructions(N),
        ]
    };
    let first = checkpointed(grid(), &dir);
    assert_eq!((first.hits, first.executed), (0, 2));

    let mut changed = grid();
    for spec in &mut changed {
        spec.config.prefetch.nsp_degree += 1;
    }
    for spec in &changed {
        let path = cell_path(&dir, spec).expect("plain cells are stored");
        assert!(!path.exists(), "changed config must hash to fresh keys");
    }
    let second = checkpointed(changed, &dir);
    assert_eq!(
        (second.hits, second.executed),
        (0, 2),
        "old entries must not satisfy the new sweep"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// A checkpoint file that exists but does not parse is counted corrupt and
/// the cell is transparently re-run (and re-persisted).
#[test]
fn corrupt_checkpoint_entry_is_rerun() {
    let dir = scratch("corrupt");
    std::fs::remove_dir_all(&dir).ok();

    let grid =
        || vec![RunSpec::new("c", SystemConfig::paper_default(), Workload::Bh).instructions(N)];
    checkpointed(grid(), &dir);
    let path = cell_path(&dir, &grid()[0]).expect("plain cells are stored");
    std::fs::write(&path, "{ not json").unwrap();

    let rerun = checkpointed(grid(), &dir);
    assert_eq!(rerun.corrupt, 1);
    assert_eq!((rerun.hits, rerun.executed), (0, 1));
    assert!(rerun.outcomes[0].is_ok());
    // The re-run rewrote a valid entry.
    let healed = checkpointed(grid(), &dir);
    assert_eq!((healed.hits, healed.executed), (1, 0));

    std::fs::remove_dir_all(&dir).ok();
}

/// The multi-seed form checkpoints each fanned (cell, seed) run under its
/// own key and merges on reload exactly like a live run.
#[test]
fn seed_fanout_checkpoints_every_fanned_cell() {
    let dir = scratch("seeds");
    std::fs::remove_dir_all(&dir).ok();

    let grid =
        || vec![RunSpec::new("s", SystemConfig::paper_default(), Workload::Em3d).instructions(N)];
    let first = CellStore::Dir(&dir).run(grid(), 3).unwrap();
    assert_eq!((first.hits, first.executed), (0, 3));
    assert_eq!(
        first.outcomes.len(),
        1,
        "outcomes are merged per input cell"
    );
    let merged = first.outcomes[0].report().unwrap();
    assert!(merged.stats.instructions >= 3 * N);
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 3);

    let second = CellStore::Dir(&dir).run(grid(), 3).unwrap();
    assert_eq!((second.hits, second.executed), (3, 0));
    assert_eq!(
        second.outcomes[0].report().unwrap().stats,
        merged.stats,
        "reloaded merge must match the live merge"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// An attack cell that also faults mid-campaign must not checkpoint its
/// poisoned partial state: the failure leaves no file, the healed re-run
/// executes from scratch, and its result is identical to a run that never
/// faulted — resumed state cannot smuggle in a half-trained filter.
#[test]
fn faulting_attack_cell_is_not_cached_poisoned() {
    let dir = scratch("attack-fault");
    std::fs::remove_dir_all(&dir).ok();

    let attack = AdversarySpec::window(AttackKind::Poison, 500, 3_000);
    let attacked = |fault: Option<FaultSpec>| {
        let spec = RunSpec::new("atk", SystemConfig::paper_default(), Workload::Em3d)
            .instructions(N)
            .with_adversary(attack);
        match fault {
            // Panic inside the attack window: the filter has already eaten
            // poisoned feedback when the cell dies.
            Some(f) => spec.with_fault(f),
            None => spec,
        }
    };

    let faulted = checkpointed(vec![attacked(Some(FaultSpec::panic_at(1_500)))], &dir);
    let failure = faulted.outcomes[0].failure().expect("attacked cell faults");
    assert_eq!(failure.error.kind, PpfErrorKind::CellPanic);
    assert_eq!(
        std::fs::read_dir(&dir).unwrap().count(),
        0,
        "a faulted attack cell must leave no checkpoint behind"
    );

    // Healed re-run executes fresh (nothing to reload) and persists.
    let healed = checkpointed(vec![attacked(None)], &dir);
    assert_eq!((healed.hits, healed.executed), (0, 1));
    let healed_report = healed.outcomes[0].report().unwrap().clone();

    // A pristine directory gives the identical result: whatever the faulted
    // attempt computed before dying is invisible to the resume.
    let pristine_dir = scratch("attack-fault-pristine");
    std::fs::remove_dir_all(&pristine_dir).ok();
    let pristine = checkpointed(vec![attacked(None)], &pristine_dir);
    assert_eq!(
        pristine.outcomes[0].report().unwrap().stats,
        healed_report.stats
    );

    // And the healed checkpoint reloads cleanly under the same attack key.
    let resumed = checkpointed(vec![attacked(None)], &dir);
    assert_eq!((resumed.hits, resumed.executed), (1, 0));
    assert_eq!(
        resumed.outcomes[0].report().unwrap().stats,
        healed_report.stats
    );

    // The attack is part of the cell key: the same cell without the
    // adversary must NOT be satisfied by the attacked checkpoint.
    let clean_spec =
        RunSpec::new("atk", SystemConfig::paper_default(), Workload::Em3d).instructions(N);
    let clean_path = cell_path(&dir, &clean_spec).expect("plain cells are stored");
    assert!(
        !clean_path.exists(),
        "attack-free cell must hash to a different key than the attacked one"
    );

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&pristine_dir).ok();
}

/// Failures come back as structured outcomes from the checkpointed path
/// too (the figures layer renders them in the appendix).
#[test]
fn checkpointed_failures_are_structured() {
    let dir = scratch("failures");
    std::fs::remove_dir_all(&dir).ok();

    let spec = RunSpec::new("f", SystemConfig::paper_default(), Workload::Gap)
        .instructions(N)
        .with_fault(FaultSpec::panic_at(50));
    let run = checkpointed(vec![spec], &dir);
    let failure = run.outcomes[0].failure().expect("cell fails");
    assert_eq!(failure.error.kind, PpfErrorKind::CellPanic);
    assert_eq!(failure.attempts, 2);
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);

    std::fs::remove_dir_all(&dir).ok();
}

/// The bypass rule, on both backends: a telemetry cell and a fault-injected
/// cell (here one whose fault never fires, so it succeeds) execute on every
/// call and are never stored, so a resume still writes telemetry streams.
#[test]
fn fault_and_telemetry_cells_bypass_both_backends() {
    let dir = scratch("bypass");
    let streams = scratch("bypass-telemetry");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&streams).ok();
    let grid = || {
        let spec =
            RunSpec::new("bypass", SystemConfig::paper_default(), Workload::Bh).instructions(N);
        vec![
            spec.clone()
                .with_telemetry(TelemetryConfig::every(1_000), &streams),
            spec.with_fault(FaultSpec::panic_at(u64::MAX)),
        ]
    };
    let stream = grid()[0].telemetry_path().unwrap();
    for store in [CellStore::Dir(&dir), CellStore::Memo] {
        for _ in 0..2 {
            std::fs::remove_file(&stream).ok();
            let run = store.run(grid(), 1).unwrap();
            assert_eq!((run.hits, run.executed), (0, 2), "{store:?}");
            assert!(run.outcomes.iter().all(CellOutcome::is_ok));
            assert!(stream.exists(), "{store:?}: telemetry stream written");
        }
    }
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&streams).ok();
}
