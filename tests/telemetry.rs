//! Integration tests for the interval-telemetry subsystem.
//!
//! The load-bearing guarantee: telemetry is an observer, never an actor.
//! A run with telemetry at *any* sampling interval must produce the same
//! `SimStats` as the same run with telemetry off — the property the
//! figures pipeline relies on when it instruments sweeps, and the one the
//! bench-smoke throughput gate protects on the off path.

mod common;

use ppf_types::telemetry;
use ppf_types::{write_atomic, SimStats, SystemConfig};
use ppf_workloads::Workload;
use proptest::prelude::*;

const N: u64 = 40_000;

fn run_with(interval: Option<u64>, workload: Workload, seed: u64) -> SimStats {
    common::run_with_telemetry(interval, workload, seed, N)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // The tentpole property: no sampling interval, however pathological,
    // perturbs the simulation.
    #[test]
    fn any_sampling_interval_leaves_stats_unchanged(
        interval in 1u64..20_000,
        seed in 0u64..1_000,
    ) {
        let baseline = run_with(None, Workload::Mcf, seed);
        let sampled = run_with(Some(interval), Workload::Mcf, seed);
        prop_assert_eq!(baseline, sampled);
    }
}

#[test]
fn real_run_records_round_trip_through_jsonl_sink() {
    let mut sim = common::sim(SystemConfig::paper_default(), Workload::Wave5, 7)
        .with_telemetry(2_000)
        .unwrap();
    sim.run(N);
    let records = sim.take_telemetry_records();
    assert!(!records.is_empty());

    // Text round trip.
    let text = telemetry::to_jsonl(&records);
    assert_eq!(telemetry::parse_jsonl(&text).unwrap(), records);

    // Disk round trip through the atomic writer every stream takes.
    let dir = std::env::temp_dir().join("ppf-telemetry-integration-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("run.jsonl");
    write_atomic(&path, &text).unwrap();
    let back = std::fs::read_to_string(&path).unwrap();
    assert_eq!(telemetry::parse_jsonl(&back).unwrap(), records);
    std::fs::remove_dir_all(&dir).ok();
}
