//! Cross-crate behaviour a downstream user depends on: the public API
//! composes, runs resume, counters stay conserved, and every machine
//! variant in the paper's evaluation space completes sanely.

mod common;

use common::{assert_census_conserved, census_slack, run_one, sim};
use ppf::cpu::InstStream;
use ppf::sim::Simulator;
use ppf::types::{FilterKind, FromJson, JsonValue, PrefetchConfig, SystemConfig, ToJson};
use ppf::workloads::{trace, Workload};

const N: u64 = 150_000;

#[test]
fn census_conservation_across_machines() {
    // Every issued prefetch must be classified exactly once (good or bad)
    // by the end-of-run drain — over several machine variants.
    let variants = [
        SystemConfig::paper_default(),
        SystemConfig::paper_default().with_filter(FilterKind::Pa),
        SystemConfig::paper_default()
            .with_l1_32k()
            .with_filter(FilterKind::Pc),
        SystemConfig::paper_default().with_prefetch_buffer(),
    ];
    for cfg in variants {
        for w in [Workload::Em3d, Workload::Gzip] {
            let r = run_one("x", cfg.clone(), w, N);
            // Warmup-issued prefetches classified post-reset make
            // `classified` overshoot slightly, bounded by the resident
            // capacity (every resident line is classified at most once).
            assert_census_conserved(&r, census_slack(&cfg));
        }
    }
}

#[test]
fn funnel_accounting_adds_up() {
    let r = run_one(
        "x",
        SystemConfig::paper_default().with_filter(FilterKind::Pa),
        Workload::Mcf,
        N,
    );
    let s = &r.stats;
    let proposed = s.prefetches_proposed.total();
    let accounted = s.prefetches_duplicate.total()
        + s.prefetches_filtered.total()
        + s.prefetches_queue_overflow.total()
        + s.prefetches_issued.total();
    // Requests still sitting in the prefetch queue at the end of the run
    // are the only unaccounted remainder.
    assert!(
        accounted <= proposed && proposed - accounted <= 64,
        "proposed {proposed} vs accounted {accounted}"
    );
}

#[test]
fn runs_resume_and_accumulate() {
    let mut sim = Simulator::new(SystemConfig::paper_default(), Workload::Wave5.stream(3)).unwrap();
    let r1 = sim.run(50_000);
    let r2 = sim.run(50_000);
    assert!(r2.stats.instructions >= 100_000);
    assert!(r2.stats.cycles > r1.stats.cycles);
    assert!(r2.stats.l1.demand_accesses > r1.stats.l1.demand_accesses);
}

#[test]
fn prefetch_off_machine_is_quiet_everywhere() {
    let mut cfg = SystemConfig::paper_default();
    cfg.prefetch = PrefetchConfig::disabled();
    for w in [Workload::Ijpeg, Workload::Mcf] {
        let r = run_one("off", cfg.clone(), w, N);
        assert_eq!(r.stats.prefetches_proposed.total(), 0, "{w}");
        assert_eq!(r.stats.l1.prefetch_fills, 0, "{w}");
        assert_eq!(r.stats.good_total() + r.stats.bad_total(), 0, "{w}");
    }
}

#[test]
fn recorded_trace_replays_identically() {
    // Record a trace prefix, then drive the simulator with the replayed
    // trace: the memory behaviour must match the live stream's.
    let mut live_stream = Workload::Gap.stream(11);
    let trace_bytes = trace::record(&mut Workload::Gap.stream(11), 200_000).unwrap();
    let replayed = trace::TraceStream::from_bytes(trace_bytes);

    let mut live_sim = Simulator::new(SystemConfig::paper_default(), {
        // Box the pre-built stream through a closure adaptor.
        move || live_stream.next_inst()
    })
    .unwrap();
    let mut replay_sim = Simulator::new(SystemConfig::paper_default(), replayed).unwrap();
    let a = live_sim.run(N);
    let b = replay_sim.run(N);
    assert_eq!(a.stats, b.stats);
}

#[test]
fn all_workloads_complete_on_all_figure_variants() {
    // Smoke over the whole evaluation space at a small budget: nothing
    // wedges, IPC stays in a plausible band.
    let variants = [
        SystemConfig::paper_default(),
        SystemConfig::paper_default().with_l1_32k(),
        SystemConfig::paper_default().with_l1_ports(4),
        SystemConfig::paper_default().with_l1_ports(5),
        SystemConfig::paper_default().with_prefetch_buffer(),
    ];
    for cfg in variants {
        for &w in &Workload::ALL {
            let r = run_one("smoke", cfg.clone(), w, 20_000);
            let ipc = r.ipc();
            assert!(ipc > 0.05 && ipc < 8.0, "{w}: ipc {ipc}");
        }
    }
}

#[test]
fn every_cache_setting_is_read_or_rejected() {
    // Doubling any one settable field of the L1D, L1I or L2 from the paper
    // default either fails validation or changes a short run's statistics:
    // a setting the machine never reads would silently simulate the
    // default. gcc stresses the L1I, mcf the L1D and the L2.
    const INSTS: u64 = 300_000;
    let paper = SystemConfig::paper_default();
    let stats = |cfg: SystemConfig, w: Workload| sim(cfg, w, 42).run(INSTS).stats;
    let (gcc, mcf) = (
        stats(paper.clone(), Workload::Gcc),
        stats(paper.clone(), Workload::Mcf),
    );
    let json = paper.to_json();
    let mut dead = Vec::new();
    for (level, workload, default) in [
        ("l1", Workload::Mcf, &mcf),
        ("l1i", Workload::Gcc, &gcc),
        ("l2", Workload::Mcf, &mcf),
    ] {
        let Some(JsonValue::Object(fields)) = json.get(level) else {
            panic!("no {level} object in {json}");
        };
        for (field, _) in fields {
            let cfg = SystemConfig::from_json(&doubled(&json, level, field)).expect("decodes");
            if cfg.validate().is_ok() && stats(cfg, workload) == *default {
                dead.push(format!("{level}.{field}"));
            }
        }
    }
    assert!(dead.is_empty(), "doubling these changes nothing: {dead:?}");
}

/// `json` with the integer at `level.field` doubled.
fn doubled(json: &JsonValue, level: &str, field: &str) -> JsonValue {
    let mut json = json.clone();
    let JsonValue::Object(levels) = &mut json else {
        unreachable!("a config is an object")
    };
    let (_, JsonValue::Object(fields)) = levels.iter_mut().find(|(k, _)| k == level).unwrap()
    else {
        unreachable!("{level} is an object")
    };
    let (_, JsonValue::UInt(v)) = fields.iter_mut().find(|(k, _)| k == field).unwrap() else {
        unreachable!("{level}.{field} is an integer")
    };
    *v *= 2;
    json
}
