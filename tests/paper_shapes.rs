//! Shape assertions for the paper's main results: not exact numbers (the
//! substrate is a synthetic model, see EXPERIMENTS.md) but the direction
//! and rough magnitude of every headline claim.

mod common;

use common::{by, run_one};
use ppf::sim::{experiments, run_grid, RunSpec, SimReport};
use ppf::types::{FilterKind, SystemConfig};
use ppf::workloads::Workload;
use std::sync::OnceLock;

const N: u64 = 400_000;

/// The registry's Figure 4–6 grid (none/PA/PC on the 8KB machine),
/// simulated once: every test below reads its cells.
fn fig4_5_6() -> &'static [SimReport] {
    static RUNS: OnceLock<Vec<SimReport>> = OnceLock::new();
    RUNS.get_or_init(|| run_grid(experiments::fig4_5_6(N)))
}

/// The registry's Figure 7–9 grid (the same comparison with the 32KB L1),
/// simulated once.
fn fig7_8_9() -> &'static [SimReport] {
    static RUNS: OnceLock<Vec<SimReport>> = OnceLock::new();
    RUNS.get_or_init(|| run_grid(experiments::fig7_8_9(N)))
}

/// The 8KB grid's `label` cell for `workload`.
fn cell(label: &str, workload: Workload) -> &'static SimReport {
    fig4_5_6()
        .iter()
        .find(|r| r.label == label && r.workload == workload.name())
        .expect("cell of the Figure 4-6 grid")
}

#[test]
fn filters_cut_bad_more_than_good() {
    // The paper's core claim (Figure 4): both filters eliminate a large
    // share of bad prefetches while keeping proportionally more good ones.
    let reports = fig4_5_6();
    let none = by(reports, "no-filter");
    for label in ["PA", "PC"] {
        let filt = by(reports, label);
        let mut bad_kept = 0.0;
        let mut good_kept = 0.0;
        for i in 0..none.len() {
            bad_kept += filt[i].stats.bad_total() as f64 / none[i].stats.bad_total().max(1) as f64;
            good_kept +=
                filt[i].stats.good_total() as f64 / none[i].stats.good_total().max(1) as f64;
        }
        bad_kept /= none.len() as f64;
        good_kept /= none.len() as f64;
        assert!(
            bad_kept < 0.75,
            "{label}: should remove a large share of bad prefetches, kept {bad_kept:.2}"
        );
        assert!(
            good_kept > bad_kept + 0.1,
            "{label}: must keep clearly more good than bad (good {good_kept:.2}, bad {bad_kept:.2})"
        );
    }
}

#[test]
fn filters_reduce_prefetch_bandwidth() {
    // §5.2.1: large reduction in total prefetch traffic.
    let reports = fig4_5_6();
    let none = by(reports, "no-filter");
    for label in ["PA", "PC"] {
        let filt = by(reports, label);
        let base: u64 = none.iter().map(|r| r.stats.prefetches_issued.total()).sum();
        let kept: u64 = filt.iter().map(|r| r.stats.prefetches_issued.total()).sum();
        assert!(
            (kept as f64) < 0.85 * base as f64,
            "{label}: issued prefetch traffic should drop materially ({kept} vs {base})"
        );
    }
}

#[test]
fn filter_helps_pollution_dominated_benchmarks() {
    // Where bad prefetches dominate (pointer-chasing with big cold
    // footprints), the filter's pollution relief must show up as IPC gain —
    // the sign of the paper's Figure 6 for its worst polluters.
    let reports = fig4_5_6();
    let none = by(reports, "no-filter");
    let pa = by(reports, "PA");
    for (i, r) in none.iter().enumerate() {
        if matches!(
            Workload::from_name(&r.workload),
            Some(Workload::Perimeter) | Some(Workload::Mcf)
        ) {
            let gain = pa[i].ipc() / r.ipc();
            assert!(
                gain > 1.0,
                "{}: PA filter should improve IPC, got {:.3}x",
                r.workload,
                gain
            );
        }
    }
}

#[test]
fn pointer_codes_have_mostly_bad_prefetches() {
    // Figure 1's split: next-line prefetching is mostly wrong on pointer
    // chasing and mostly right on strided FP.
    let frac_bad = |w: Workload| {
        let r = cell("no-filter", w);
        r.stats.bad_total() as f64 / (r.stats.bad_total() + r.stats.good_total()).max(1) as f64
    };
    assert!(frac_bad(Workload::Perimeter) > 0.5, "perimeter mostly bad");
    assert!(frac_bad(Workload::Gcc) > 0.5, "gcc mostly bad");
    assert!(frac_bad(Workload::Wave5) < 0.3, "wave5 mostly good");
    assert!(frac_bad(Workload::Fpppp) < 0.3, "fpppp mostly good");
}

#[test]
fn larger_cache_preserves_more_good_prefetches() {
    // §5.2.2: with a 32KB L1 the filters keep more good prefetches than
    // with 8KB (less eviction pressure, better-behaved feedback).
    let keep = |reports: &[SimReport]| {
        let none = by(reports, "no-filter");
        let pa = by(reports, "PA");
        let mut k = 0.0;
        for i in 0..none.len() {
            k += pa[i].stats.good_total() as f64 / none[i].stats.good_total().max(1) as f64;
        }
        k / none.len() as f64
    };
    let keep8 = keep(fig4_5_6());
    let keep32 = keep(fig7_8_9());
    assert!(
        keep32 > keep8 - 0.02,
        "32KB keeps at least as many good prefetches (8KB {keep8:.2}, 32KB {keep32:.2})"
    );
}

#[test]
fn bigger_l1_reduces_miss_rate_at_a_latency_cost() {
    // §5.2.1's comparison point: the 16KB L1 (2-cycle) halves conflict and
    // capacity misses relative to the 8KB machine. (The paper reports a
    // ~20% IPC win for 16KB; in this model the extra hit cycle absorbs
    // most of that — see EXPERIMENTS.md — but the miss-rate effect, which
    // drives the paper's argument, must hold.)
    let r16 = run_grid(
        Workload::ALL
            .iter()
            .map(|&w| {
                RunSpec::new("16KB", SystemConfig::paper_default().with_l1_16k(), w).instructions(N)
            })
            .collect(),
    );
    let r8 = by(fig4_5_6(), "no-filter");
    let mut better = 0;
    for (small, big) in r8.iter().zip(&r16) {
        if big.stats.l1.miss_rate() <= small.stats.l1.miss_rate() + 1e-6 {
            better += 1;
        }
    }
    assert!(
        better >= 9,
        "16KB must not raise the L1 miss rate ({better}/10 improved)"
    );
}

#[test]
fn prefetch_buffer_degrades_filter_classification_on_pointer_codes() {
    // §5.5 / Figure 15: "in most of the programs, adding a dedicated
    // prefetch buffer degrades the effectiveness of pollution filters" —
    // the 16-entry buffer's short lifetime misclassifies prefetches, and
    // the bad/good ratio under the filter gets *worse* for the
    // pointer-chasing programs. (The paper's companion IPC claim depends
    // on its 3-4x higher prefetch traffic; see EXPERIMENTS.md.)
    let buffered_cfg = SystemConfig::paper_default()
        .with_filter(FilterKind::Pa)
        .with_prefetch_buffer();
    let pointer_codes = [Workload::Perimeter, Workload::Mcf];
    let reports = run_grid(
        pointer_codes
            .iter()
            .map(|&w| RunSpec::new("PA+buf", buffered_cfg.clone(), w).instructions(N))
            .collect(),
    );
    for (w, r) in pointer_codes.into_iter().zip(&reports) {
        let plain = cell("PA", w).stats.bad_good_ratio();
        let buffered = r.stats.bad_good_ratio();
        assert!(
            buffered > plain,
            "{}: buffer should worsen the bad/good ratio ({plain:.2} -> {buffered:.2})",
            r.workload
        );
    }
}

#[test]
fn port_starved_machine_shows_contention() {
    // §5.4 foundation: with a single L1 port, demand accesses visibly
    // contend with prefetch traffic.
    let mut cfg = SystemConfig::paper_default();
    cfg.l1.ports = 1;
    let r = run_one("1port", cfg, Workload::Em3d, N);
    assert!(r.stats.demand_port_retries > 0);
    assert!(r.stats.l1_port_conflict_cycles > 0);
    let r3 = cell("no-filter", Workload::Em3d);
    assert!(
        r3.ipc() > r.ipc(),
        "three ports must beat one ({:.3} vs {:.3})",
        r3.ipc(),
        r.ipc()
    );
}
