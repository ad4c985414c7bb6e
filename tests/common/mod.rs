//! Shared support for the integration test suite.
//!
//! Every `tests/*.rs` integration binary compiles this module separately
//! (`mod common;`), so helpers here must stay dependency-light. The module
//! collects the RunSpec/grid/census idioms that used to be copy-pasted
//! across the suite; each test file keeps only its own budgets and
//! assertions.

#![allow(dead_code)] // each test binary uses a different subset

use ppf_sim::{RunSpec, SimReport, Simulator, WatchdogConfig};
use ppf_types::{SimStats, SystemConfig};
use ppf_workloads::Workload;

/// One run of `workload` on `cfg` at `n` instructions, labeled.
pub fn run_one(label: &str, cfg: SystemConfig, workload: Workload, n: u64) -> SimReport {
    RunSpec::new(label, cfg, workload).instructions(n).run()
}

/// A simulator seeded the standard way (workload stream and simulator share
/// `seed`).
pub fn sim(cfg: SystemConfig, workload: Workload, seed: u64) -> Simulator {
    Simulator::with_seed(cfg, Box::new(workload.stream(seed)), seed).expect("valid config")
}

/// The reports in `reports` carrying `label`, in input order.
pub fn by<'a>(reports: &'a [SimReport], label: &str) -> Vec<&'a SimReport> {
    reports.iter().filter(|r| r.label == label).collect()
}

/// Slack for the prefetch-census conservation check on `cfg`: warmup
/// prefetches classified post-reset overshoot, bounded by resident
/// capacity (L1 + buffer + victim entries, `0` for an absent structure)
/// plus the prefetch queue.
pub fn census_slack(cfg: &SystemConfig) -> u64 {
    (cfg.l1.lines() + cfg.buffer.entries + cfg.victim.entries + 64) as u64
}

/// Assert every issued prefetch was classified exactly once (good or bad),
/// within `slack` (see [`census_slack`]).
pub fn assert_census_conserved(r: &SimReport, slack: u64) {
    let issued = r.stats.prefetches_issued.total();
    let classified = r.stats.good_total() + r.stats.bad_total();
    assert!(
        classified + slack >= issued && classified <= issued + slack,
        "{}: issued {issued} vs classified {classified} (slack {slack})",
        r.workload
    );
}

/// A watchdog tight enough that a wedged cell trips in well under a
/// second, loose enough that healthy small cells never notice.
pub fn drill_watchdog() -> WatchdogConfig {
    WatchdogConfig {
        max_cpi: 10_000,
        stall_window: 20_000,
    }
}

/// A config whose memory never answers within the stall window: fault
/// streams' serially-dependent cold loads then wedge the pipeline.
pub fn wedged_config() -> SystemConfig {
    let mut cfg = SystemConfig::paper_default();
    cfg.mem.latency = 1_000_000_000;
    cfg
}

/// Run `workload` with telemetry sampled every `interval` cycles, or off
/// for `None` — the telemetry suite's "observer, never actor" comparisons
/// all go through this single path.
pub fn run_with_telemetry(
    interval: Option<u64>,
    workload: Workload,
    seed: u64,
    n: u64,
) -> SimStats {
    let mut s = sim(SystemConfig::paper_default(), workload, seed);
    if let Some(interval) = interval {
        s = s.with_telemetry(interval).expect("nonzero interval");
    }
    s.run(n).stats
}
