//! Table 2 calibration: with prefetching off, every workload model's L1 and
//! L2 miss rates must land near the paper's measurements. This is the
//! validity test for the whole synthetic-workload substitution — if it
//! drifts, every downstream figure drifts with it.

use ppf::sim::experiments::{self, within_band, CALIBRATION_L1_BAND, CALIBRATION_L2_BAND};
use ppf::sim::run_grid;
use ppf::workloads::Workload;
use std::sync::OnceLock;

/// Measured rates for one benchmark, prefetch off, after warm-up. Routed
/// through the same [`experiments::calibration`] grid (RunSpec seeding,
/// warm-up scaling, parallel `run_grid`) that `figures calibrate` uses, so
/// the test and the diagnostic subcommand can never disagree about
/// methodology. Memoized: three tests share the measurements.
fn measure(w: Workload) -> (f64, f64) {
    static CACHE: OnceLock<Vec<(f64, f64)>> = OnceLock::new();
    let all = CACHE.get_or_init(|| {
        run_grid(experiments::calibration(1_000_000))
            .into_iter()
            .map(|r| (r.stats.l1.miss_rate(), r.stats.l2.miss_rate()))
            .collect()
    });
    let idx = Workload::ALL.iter().position(|&x| x == w).expect("known");
    all[idx]
}

#[test]
fn table2_l1_miss_rates_match_paper() {
    let mut failures = Vec::new();
    for w in Workload::ALL {
        let (l1, _) = measure(w);
        let target = w.spec().expect_l1_miss;
        if !within_band(l1, target, CALIBRATION_L1_BAND) {
            failures.push(format!("{w}: L1 {l1:.4} vs paper {target:.4}"));
        }
    }
    assert!(
        failures.is_empty(),
        "L1 calibration drift:\n{}",
        failures.join("\n")
    );
}

#[test]
fn table2_l2_miss_rates_match_paper() {
    let mut failures = Vec::new();
    for w in Workload::ALL {
        let (_, l2) = measure(w);
        let target = w.spec().expect_l2_miss;
        if !within_band(l2, target, CALIBRATION_L2_BAND) {
            failures.push(format!("{w}: L2 {l2:.4} vs paper {target:.4}"));
        }
    }
    assert!(
        failures.is_empty(),
        "L2 calibration drift:\n{}",
        failures.join("\n")
    );
}

#[test]
fn miss_rates_ordering_matches_paper() {
    // Relative ordering is sturdier than absolute values: em3d must be the
    // L1-miss outlier; gzip the L2-miss leader; bh/gap near the L1 bottom.
    let rates: Vec<(Workload, f64, f64)> = Workload::ALL
        .iter()
        .map(|&w| {
            let (l1, l2) = measure(w);
            (w, l1, l2)
        })
        .collect();
    let l1_max = rates.iter().max_by(|a, b| a.1.total_cmp(&b.1)).unwrap();
    assert_eq!(l1_max.0, Workload::Em3d, "em3d has the worst L1 miss rate");
    let l2_max = rates.iter().max_by(|a, b| a.2.total_cmp(&b.2)).unwrap();
    assert!(
        matches!(l2_max.0, Workload::Gzip | Workload::Perimeter),
        "gzip/perimeter lead L2 misses, got {}",
        l2_max.0
    );
    let wave5_l1 = rates.iter().find(|r| r.0 == Workload::Wave5).unwrap().1;
    let gap_l1 = rates.iter().find(|r| r.0 == Workload::Gap).unwrap().1;
    assert!(wave5_l1 > 2.0 * gap_l1, "wave5 L1 misses dwarf gap's");
}
