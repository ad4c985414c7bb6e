//! Tier-1 coverage for the throughput bench harness: determinism of the
//! simulated counters, the `BENCH_*.json` schema round-trip, the CI
//! regression-gate arithmetic, and the in-process cell memo.

use ppf_bench::memo;
use ppf_bench::throughput::{
    compare, load_report, run, store_report, BenchReport, BenchSettings, LayerStat, LAYERS,
    SCHEMA_VERSION,
};
use ppf_sim::experiments::RunSpec;
use ppf_types::SystemConfig;
use ppf_workloads::Workload;

/// A mix small enough to run all four layers twice inside a unit test.
fn tiny_settings() -> BenchSettings {
    let mut s = BenchSettings::quick();
    s.insts_per_cell = 20_000;
    s.workloads.truncate(1);
    s
}

#[test]
fn same_seed_runs_have_identical_counters() {
    let settings = tiny_settings();
    let a = run(&settings).expect("first bench run");
    let b = run(&settings).expect("second bench run");
    assert_eq!(a.layers.len(), LAYERS.len());
    for (la, lb) in a.layers.iter().zip(&b.layers) {
        assert_eq!(la.name, lb.name);
        assert!(la.instructions > 0, "layer {} retired nothing", la.name);
        assert_eq!(
            (la.instructions, la.cycles),
            (lb.instructions, lb.cycles),
            "layer {} counters drifted between same-seed runs",
            la.name
        );
    }
}

fn sample_report() -> BenchReport {
    BenchReport {
        schema_version: SCHEMA_VERSION,
        rev: "abc1234".into(),
        quick: true,
        seed: 42,
        insts_per_cell: 150_000,
        trials: 3,
        workloads: vec!["mcf-like".into(), "stream-like".into()],
        layers: vec![LayerStat {
            name: "core".into(),
            instructions: 300_000,
            cycles: 456_789,
            wall_ms: 123.456789,
            mips: 2.431,
            mcps: 3.700123,
        }],
        total_mips: 2.431,
    }
}

#[test]
fn report_round_trips_through_json() {
    let report = sample_report();
    let text = ppf_types::ToJson::to_json_pretty(&report);
    let parsed: BenchReport = ppf_types::FromJson::from_json_str(&text).expect("parse");
    assert_eq!(parsed, report);
}

#[test]
fn report_round_trips_through_file() {
    let report = sample_report();
    let dir = std::env::temp_dir().join(format!("ppf_bench_rt_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("BENCH_test.json");
    store_report(&path, &report).expect("store");
    let loaded = load_report(&path).expect("load");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(loaded, report);
}

fn report_with_mips(mips: &[f64]) -> BenchReport {
    let mut r = sample_report();
    r.layers = mips
        .iter()
        .zip(LAYERS)
        .map(|(&m, name)| LayerStat {
            name: name.into(),
            instructions: 300_000,
            cycles: 456_789,
            wall_ms: 100.0,
            mips: m,
            mcps: m,
        })
        .collect();
    r.total_mips = mips.iter().sum::<f64>() / mips.len() as f64;
    r
}

#[test]
fn compare_detects_a_regression_past_the_threshold() {
    let base = report_with_mips(&[2.0, 2.0, 2.0, 2.0]);
    let new = report_with_mips(&[2.0, 1.5, 2.0, 2.0]); // -25% on "+mem"
    let cmp = compare(&base, &new);
    assert_eq!(cmp.rows.len(), LAYERS.len() + 1, "four layers plus total");
    let mem = cmp.rows.iter().find(|r| r.name == "+mem").unwrap();
    assert!((mem.delta_pct - -25.0).abs() < 1e-9);
    assert!((cmp.worst_pct - -25.0).abs() < 1e-9);
    assert!(cmp.regression_exceeds(20.0));
    assert!(!cmp.regression_exceeds(30.0));
    assert!(cmp.warnings.is_empty());
}

#[test]
fn compare_tolerates_noise_within_the_threshold() {
    let base = report_with_mips(&[2.0, 2.0, 2.0, 2.0]);
    let new = report_with_mips(&[1.8, 2.1, 1.9, 2.2]); // worst -10%
    let cmp = compare(&base, &new);
    assert!(!cmp.regression_exceeds(20.0));
}

#[test]
fn compare_warns_on_incomparable_mixes() {
    let base = report_with_mips(&[2.0; 4]);
    let mut new = report_with_mips(&[2.0; 4]);
    new.quick = false;
    new.insts_per_cell += 1;
    let cmp = compare(&base, &new);
    assert_eq!(cmp.warnings.len(), 2, "quick-flag and mix warnings");
    assert!(!cmp.regression_exceeds(20.0), "warnings are not failures");
}

#[test]
fn memo_serves_repeat_cells_with_identical_reports() {
    let spec = || {
        let mut s = RunSpec::new(
            "memo-test-unique-label",
            SystemConfig::paper_default(),
            Workload::ALL[0],
        )
        .instructions(5_000);
        s.warmup = 0;
        s
    };
    // Both copies execute on the first call: the memo only serves cells
    // that *completed* before the grid started.
    let first = memo::run_grid_seeds_memoized(vec![spec(), spec()], 1);
    assert_eq!(first.executed, 2);
    assert_eq!(first.hits, 0);
    // The second call is served entirely from the memo, byte-for-byte.
    let second = memo::run_grid_seeds_memoized(vec![spec()], 1);
    assert_eq!(second.executed, 0);
    assert_eq!(second.hits, 1);
    assert_eq!(
        first.outcomes[0].report().expect("first run ok"),
        second.outcomes[0].report().expect("memo hit ok"),
    );
}
