//! Turn experiment grids into the paper's tables and figures.
//!
//! [`EXPERIMENTS`] is the registry: one `(name, grid, render)` entry per
//! experiment, read by `figures --list`, `all` and name validation.
//! [`run_experiment_full`] runs an entry's grid through the cell store and
//! renders an aligned text table with the same rows and series the paper's
//! figure plots, plus the mean the paper quotes in its prose.

// The figure formatters walk several per-label report vectors in lock-step
// by benchmark index; an iterator rewrite would zip four-plus vectors and
// read worse than the index.
#![allow(clippy::needless_range_loop)]

use crate::memo::CellStore;
use crate::shard::{
    ExperimentFragment, FragmentEntry, ManifestExperiment, ShardSpec, SHARD_SCHEMA_VERSION,
};
use ppf_sim::experiments::{
    self, ablations, CellOutcome, RunSpec, TelemetrySpec, PORT_COUNTS, TABLE_SIZES,
};
use ppf_sim::report::{f3, geomean, mean, pct, TextTable};
use ppf_sim::{cell_key, CellFailure, SimReport};
use ppf_types::telemetry::{TelemetryConfig, DEFAULT_INTERVAL_CYCLES};
use ppf_types::{json_struct, PpfError, ToJson};
use ppf_workloads::{AttackKind, FaultSpec, Workload};
use std::fmt::Write as _;
use std::path::PathBuf;

/// One registry entry: the name `figures` accepts, the grid it runs at a
/// given instruction budget (`None` for the static `table1`), and the
/// renderer for a grid whose every cell completed.
pub struct Experiment {
    /// The command-line name, also the stem of the JSON document.
    pub name: &'static str,
    grid: Option<fn(u64) -> Vec<RunSpec>>,
    render: fn(&[SimReport]) -> String,
}

/// A grid experiment.
const fn exp(
    name: &'static str,
    grid: fn(u64) -> Vec<RunSpec>,
    render: fn(&[SimReport]) -> String,
) -> Experiment {
    Experiment {
        name,
        grid: Some(grid),
        render,
    }
}

/// Every experiment, in `--list` and `all` order.
pub static EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "table1",
        grid: None,
        render: |_| table1(),
    },
    exp("table2", experiments::table2, table2),
    exp("calibrate", experiments::calibration, calibrate),
    exp("fig1", experiments::fig1_2, fig1),
    exp("fig2", experiments::fig1_2, fig2),
    exp("fig4", experiments::fig4_5_6, |r| fig4_style(r, "8KB")),
    exp("fig5", experiments::fig4_5_6, |r| fig5_style(r, "8KB")),
    exp("fig6", experiments::fig4_5_6, |r| fig6_style(r, "8KB")),
    exp("fig7", experiments::fig7_8_9, |r| fig4_style(r, "32KB")),
    exp("fig8", experiments::fig7_8_9, |r| fig5_style(r, "32KB")),
    exp("fig9", experiments::fig7_8_9, |r| fig6_style(r, "32KB")),
    exp("fig10", experiments::fig10_11_12, fig10),
    exp("fig11", experiments::fig10_11_12, fig11),
    exp("fig12", experiments::fig10_11_12, fig12),
    exp("fig13", experiments::fig13_14, fig13),
    exp("fig14", experiments::fig13_14, fig14),
    exp("fig15", experiments::fig15_16, fig15),
    exp("fig16", experiments::fig15_16, fig16),
    exp("nsp-sdp", experiments::nsp_sdp_solo, nsp_sdp),
    exp(
        "cache-vs-table",
        experiments::cache_vs_table,
        cache_vs_table,
    ),
    exp("ablate-counter", ablations::counter_width, |r| {
        ablation_summary(r, "Ablation: saturating-counter width (PA filter)")
    }),
    exp("ablate-init", ablations::counter_init, |r| {
        ablation_summary(
            r,
            "Ablation: counter initialization (assumed-good vs alternatives)",
        )
    }),
    exp("ablate-split", ablations::split_tables, |r| {
        ablation_summary(r, "Ablation: shared vs per-source history tables")
    }),
    exp("ablate-recovery", ablations::recovery, |r| {
        ablation_summary(
            r,
            "Ablation: misprediction recovery vs strict (absorbing) filter",
        )
    }),
    exp("ablate-adaptive", ablations::adaptive, |r| {
        ablation_summary(
            r,
            "Ablation: adaptive filter engagement (section 5.2.1 remark)",
        )
    }),
    exp("ablate-assoc", ablations::associativity, |r| {
        ablation_summary(r, "Ablation: L1 associativity (no filter)")
    }),
    exp("ablate-victim", ablations::victim_cache, |r| {
        ablation_summary(r, "Ablation: victim cache vs pollution filter")
    }),
    exp("ablate-degree", ablations::nsp_degree, |r| {
        ablation_summary(r, "Ablation: NSP degree vs PA filter and prefetch buffer")
    }),
    exp("ablate-banks", ablations::dram_banks, |r| {
        ablation_summary(r, "Ablation: DRAM banking (memory-level-parallelism limit)")
    }),
    exp("ablate-hybrid", ablations::hybrid, |r| {
        ablation_summary(
            r,
            "Ablation: PA vs PC vs tournament hybrid (same counter budget)",
        )
    }),
    exp("ablate-mix", ablations::prefetcher_mix, |r| {
        ablation_summary(
            r,
            "Ablation: prefetcher mix (stride RPT, Markov correlation)",
        )
    }),
    exp("filter-family", experiments::filter_family, filter_family),
    exp("attack-matrix", experiments::attack_matrix, attack_matrix),
];

/// The registry entry named `name`.
pub fn experiment(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// Options for one experiment invocation beyond the instruction budget.
#[derive(Debug, Clone)]
pub struct ExperimentOptions {
    /// Workload seeds to average over (counters are summed per cell, so
    /// rates become instruction-weighted averages). Minimum 1.
    pub seeds: u32,
    /// Dump raw reports of completed cells to `<json_dir>/<name>.json`.
    pub json_dir: Option<String>,
    /// Checkpoint/resume directory: completed cells are persisted as
    /// `<dir>/<key>.json`, one file per distinct cell whichever
    /// experiments run it, and reloaded on the next invocation.
    pub checkpoint: Option<PathBuf>,
    /// Interval-telemetry directory: every cell streams its per-interval
    /// records to `<dir>/<experiment>/<cell>.jsonl` (default sampling
    /// interval; telemetry stays off when `None`).
    pub telemetry: Option<PathBuf>,
    /// Fault drill: inject a panic at this instruction into the first cell
    /// of every grid (CI and tests only — exercises the partial-results
    /// path end to end through the binary).
    pub inject_fault: Option<u64>,
    /// Sharded-sweep mode: run only the cells owned by this shard and emit
    /// an [`ExperimentFragment`] (requires `json_dir`) instead of a full
    /// [`ExperimentDoc`].
    pub shard: Option<ShardSpec>,
}

impl Default for ExperimentOptions {
    fn default() -> Self {
        ExperimentOptions {
            seeds: 1,
            json_dir: None,
            checkpoint: None,
            telemetry: None,
            inject_fault: None,
            shard: None,
        }
    }
}

/// The result of one experiment invocation.
#[derive(Debug, Default)]
pub struct ExperimentOutput {
    /// Rendered table — the figure's table when every cell completed, a
    /// partial-results grid when some failed, or a one-line coverage
    /// summary in sharded mode.
    pub body: String,
    /// Raw (cell × seed) runs served from the cell store: reloaded from the
    /// checkpoint directory, hits in the in-process memo, or repeats of a
    /// run earlier in the same grid.
    pub loaded_cells: usize,
    /// Raw (cell × seed) runs executed this invocation.
    pub executed_cells: usize,
    /// Structured failures of the cells that failed every attempt.
    pub failures: Vec<CellFailure>,
    /// Sharded mode only: this experiment's coverage record, for the
    /// caller to accumulate into the shard's `MANIFEST.json`. `None` when
    /// unsharded or when the experiment has no grid (`table1`).
    pub manifest: Option<ManifestExperiment>,
}

/// Run one named experiment: build its grid, apply `--telemetry` and
/// `--inject-fault`, keep this shard's cells (all of them when unsharded),
/// run them through the cell store (the checkpoint directory when one is
/// set, else the in-process memo), and render the figure, the
/// partial-results table or the shard summary. With `json_dir` set, the
/// experiment's document — or, sharded, its fragment — is written too.
pub fn run_experiment_full(
    name: &str,
    insts: u64,
    opts: &ExperimentOptions,
) -> Result<ExperimentOutput, PpfError> {
    let exp = experiment(name)
        .ok_or_else(|| PpfError::config_invalid(format!("unknown experiment '{name}'")))?;
    let Some(grid) = exp.grid else {
        // Static table: no grid, no cells, nothing to checkpoint and
        // nothing to shard (every shard prints it; none claims it).
        return Ok(ExperimentOutput {
            body: (exp.render)(&[]),
            ..ExperimentOutput::default()
        });
    };
    let mut grid = grid(insts);
    if let Some(base) = &opts.telemetry {
        let dir = base.join(name);
        for spec in &mut grid {
            spec.telemetry = Some(TelemetrySpec {
                config: TelemetryConfig::every(DEFAULT_INTERVAL_CYCLES),
                dir: dir.clone(),
            });
        }
    }
    if let (Some(at), Some(first)) = (opts.inject_fault, grid.first_mut()) {
        first.fault = Some(FaultSpec::panic_at(at));
    }
    // This shard's cells, chosen by content-hash key so the partition is
    // machine- and order-independent.
    let total = grid.len() as u64;
    let mut owned: Vec<(u64, String)> = Vec::new();
    let mut cells = Vec::new();
    for (index, spec) in (0..).zip(grid) {
        let key = cell_key(&spec);
        if opts.shard.is_none_or(|shard| shard.contains(&key)) {
            owned.push((index, key));
            cells.push(spec);
        }
    }
    let store = opts
        .checkpoint
        .as_deref()
        .map_or(CellStore::Memo, CellStore::Dir);
    let run = store.run(cells, opts.seeds.max(1))?;
    for e in &run.write_errors {
        eprintln!("warning: {e}");
    }
    let failures: Vec<CellFailure> = run
        .outcomes
        .iter()
        .filter_map(CellOutcome::failure)
        .cloned()
        .collect();
    let reports: Vec<SimReport> = run
        .outcomes
        .iter()
        .filter_map(|o| o.report().cloned())
        .collect();
    let body = match opts.shard {
        // A shard holds an arbitrary subset of rows, which no figure
        // formatter can typeset.
        Some(shard) => header(&format!(
            "{name}: shard {shard} — ran {}/{total} cells, {} failed",
            owned.len(),
            failures.len()
        )),
        None if failures.is_empty() => (exp.render)(&reports),
        None => partial_results(name, &run.outcomes),
    };
    let mut manifest = None;
    if let Some(dir) = &opts.json_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| PpfError::io(e.to_string()).context(format!("creating json dir {dir}")))?;
        let (path, json) = match opts.shard {
            // Sharded mode: this invocation owns only part of the grid, so
            // it writes a self-describing fragment for `figures merge`
            // instead of posing as the full experiment document.
            Some(shard) => {
                let entries = owned
                    .iter()
                    .zip(&run.outcomes)
                    .map(|((index, key), o)| FragmentEntry {
                        index: *index,
                        key: key.clone(),
                        report: o.report().cloned(),
                        failure: o.failure().cloned(),
                    })
                    .collect();
                let fragment = ExperimentFragment {
                    schema_version: SHARD_SCHEMA_VERSION,
                    experiment: name.to_string(),
                    shard_index: shard.index,
                    shard_count: shard.count,
                    total_cells: total,
                    entries,
                };
                let (indices, keys) = owned.into_iter().unzip();
                manifest = Some(ManifestExperiment {
                    experiment: name.to_string(),
                    total_cells: total,
                    indices,
                    keys,
                });
                (
                    format!("{dir}/{name}.fragment.json"),
                    fragment.to_json_pretty(),
                )
            }
            // One self-describing document per experiment: reports of the
            // surviving cells plus structured failures — so a partial run
            // still dumps machine-parseable JSON instead of a bare array
            // missing rows with no explanation.
            None => {
                let doc = ExperimentDoc {
                    experiment: name.to_string(),
                    reports,
                    failures: failures.clone(),
                };
                (format!("{dir}/{name}.json"), doc.to_json_pretty())
            }
        };
        std::fs::write(&path, json)
            .map_err(|e| PpfError::io(e.to_string()).context(format!("writing {path}")))?;
    }
    Ok(ExperimentOutput {
        body,
        loaded_cells: run.hits,
        executed_cells: run.executed,
        failures,
        manifest,
    })
}

/// The on-disk JSON document `figures --json` writes per experiment:
/// surviving reports plus the structured failures of any cells that did
/// not complete (empty on a fully green run).
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentDoc {
    /// Experiment name (matches the filename stem).
    pub experiment: String,
    /// Reports of the cells that completed.
    pub reports: Vec<SimReport>,
    /// Structured failures of the cells that did not.
    pub failures: Vec<CellFailure>,
}

json_struct!(ExperimentDoc {
    experiment,
    reports,
    failures,
});

/// Rendering for a grid with failed cells. The figure formatters walk
/// per-label report groups in lock-step by workload index and cannot
/// tolerate holes, so a partial run falls back to a generic per-cell IPC
/// grid — failed cells shown as `—` — plus an appendix with each failed
/// cell's structured error.
fn partial_results(name: &str, outcomes: &[CellOutcome]) -> String {
    let failed = outcomes.iter().filter(|o| !o.is_ok()).count();
    let mut out = header(&format!(
        "{name}: partial results — {failed}/{} cells failed",
        outcomes.len()
    ));
    let mut t = TextTable::new(vec!["config", "benchmark", "IPC", "status"]);
    for o in outcomes {
        match o {
            CellOutcome::Ok(r) => t.row(vec![
                r.label.clone(),
                r.workload.clone(),
                f3(r.ipc()),
                "ok".to_string(),
            ]),
            CellOutcome::Failed(f) => t.row(vec![
                f.label.clone(),
                f.workload.clone(),
                "—".to_string(),
                f.error.kind.label().to_string(),
            ]),
        }
    }
    out.push_str(&t.render());
    out
}

/// The human-readable appendix for failed cells. Kept out of the rendered
/// body (which goes to stdout) so `figures --json`-style machine consumers
/// can parse stdout while the diagnostics land on stderr.
pub fn failure_appendix(failures: &[CellFailure]) -> String {
    let mut out = String::from("failed cells:\n");
    for f in failures {
        // Under-attack cells name the attacking tenant, so an operator
        // triaging a partial adversarial sweep knows who was hammering
        // the machine when the cell died.
        let tenant = f
            .attacking_tenant
            .map(|t| format!(" [under attack by tenant {t}]"))
            .unwrap_or_default();
        let _ = writeln!(
            out,
            "  {}/{} seed {} ({} attempts){tenant}: {}",
            f.label, f.workload, f.seed, f.attempts, f.error
        );
    }
    out
}

/// Reports for one experiment label, in workload order.
fn with_label<'a>(reports: &'a [SimReport], label: &str) -> Vec<&'a SimReport> {
    reports.iter().filter(|r| r.label == label).collect()
}

fn header(title: &str) -> String {
    format!("== {title} ==\n")
}

/// Table 1: the system configuration (static; printed for completeness).
pub fn table1() -> String {
    let cfg = ppf_types::SystemConfig::paper_default();
    let mut out = header("Table 1: system configuration");
    let mut t = TextTable::new(vec!["parameter", "value"]);
    t.row(vec![
        "issue/retire".to_string(),
        format!("{} inst/cycle", cfg.core.issue_width),
    ]);
    t.row(vec![
        "reorder buffer".to_string(),
        format!("{} entries", cfg.core.rob_entries),
    ]);
    t.row(vec![
        "load/store queue".to_string(),
        format!("{} entries", cfg.core.lsq_entries),
    ]);
    t.row(vec![
        "branch predictor".to_string(),
        format!("bimodal, {} entries", cfg.core.branch.bimodal_entries),
    ]);
    t.row(vec![
        "BTB".to_string(),
        format!(
            "{}-way, {} sets",
            cfg.core.branch.btb_ways, cfg.core.branch.btb_sets
        ),
    ]);
    t.row(vec![
        "L1 D".to_string(),
        format!(
            "{}KB, {}B line, {}-way, {} cycle, {} ports",
            cfg.l1.size_bytes / 1024,
            cfg.l1.line_bytes,
            cfg.l1.ways,
            cfg.l1.hit_latency,
            cfg.l1.ports
        ),
    ]);
    t.row(vec![
        "L2".to_string(),
        format!(
            "{}KB, {}B line, {}-way, {} cycles, {} port",
            cfg.l2.size_bytes / 1024,
            cfg.l2.line_bytes,
            cfg.l2.ways,
            cfg.l2.hit_latency,
            cfg.l2.ports
        ),
    ]);
    t.row(vec![
        "memory latency".to_string(),
        format!("{} cycles", cfg.mem.latency),
    ]);
    t.row(vec![
        "bus".to_string(),
        format!("{}-byte wide", cfg.mem.bus_bytes),
    ]);
    t.row(vec![
        "prefetch queue".to_string(),
        format!("{} entries", cfg.prefetch.queue_len),
    ]);
    t.row(vec![
        "history table".to_string(),
        format!(
            "{} entries ({}B)",
            cfg.filter.table_entries,
            cfg.filter.table_entries * cfg.filter.counter_bits as usize / 8
        ),
    ]);
    out.push_str(&t.render());
    out
}

/// Table 2: measured vs paper miss rates, prefetch off.
pub fn table2(reports: &[SimReport]) -> String {
    let mut out = header("Table 2: benchmark properties (prefetch off)");
    let mut t = TextTable::new(vec![
        "benchmark",
        "L1 miss%",
        "paper L1",
        "L2 miss%",
        "paper L2",
    ]);
    for r in reports {
        let w = Workload::from_name(&r.workload).expect("known workload");
        let spec = w.spec();
        t.row(vec![
            r.workload.clone(),
            pct(r.stats.l1.miss_rate()),
            pct(spec.expect_l1_miss),
            pct(r.stats.l2.miss_rate()),
            pct(spec.expect_l2_miss),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// `figures calibrate` tolerances — the same bands `tests/calibration.rs`
/// enforces: a workload is "ok" when its measured miss rate is within the
/// relative band of the Table 2 target *or* within the absolute band.
const CAL_L1_REL: f64 = 0.25;
const CAL_L1_ABS: f64 = 0.015;
const CAL_L2_REL: f64 = 0.35;
const CAL_L2_ABS: f64 = 0.03;

fn within_band(measured: f64, target: f64, rel: f64, abs: f64) -> bool {
    (measured - target).abs() <= target * rel || (measured - target).abs() <= abs
}

/// Drift cell: signed percentage-point delta, flagged when outside both the
/// relative and absolute tolerance bands.
fn drift_cell(measured: f64, target: f64, rel: f64, abs: f64) -> String {
    let mark = if within_band(measured, target, rel, abs) {
        ""
    } else {
        " !"
    };
    format!("{:+.2}pt{mark}", 100.0 * (measured - target))
}

/// Percentage shares of one level's 3C miss breakdown ("cm/cp/cf %").
fn class_cell(mc: &ppf_types::MissClass) -> String {
    if mc.total() == 0 {
        return "-".to_string();
    }
    format!(
        "{:.0}/{:.0}/{:.0}",
        100.0 * mc.compulsory_frac(),
        100.0 * mc.capacity_frac(),
        100.0 * mc.conflict_frac()
    )
}

/// `figures calibrate`: per-workload drift against the Table 2 targets with
/// the shadow-tag compulsory/capacity/conflict breakdown. Rows flagged `!`
/// fall outside the calibration-test tolerance for that level.
pub fn calibrate(reports: &[SimReport]) -> String {
    let mut out = header("Calibration: measured vs Table 2 targets (prefetch off)");
    let mut t = TextTable::new(vec![
        "benchmark",
        "L1 miss%",
        "paper L1",
        "L1 drift",
        "L2 miss%",
        "paper L2",
        "L2 drift",
        "L1 3C%",
        "L2 3C%",
    ]);
    let mut ok = 0usize;
    for r in reports {
        let w = Workload::from_name(&r.workload).expect("known workload");
        let spec = w.spec();
        let l1 = r.stats.l1.miss_rate();
        let l2 = r.stats.l2.miss_rate();
        if within_band(l1, spec.expect_l1_miss, CAL_L1_REL, CAL_L1_ABS)
            && within_band(l2, spec.expect_l2_miss, CAL_L2_REL, CAL_L2_ABS)
        {
            ok += 1;
        }
        t.row(vec![
            r.workload.clone(),
            pct(l1),
            pct(spec.expect_l1_miss),
            drift_cell(l1, spec.expect_l1_miss, CAL_L1_REL, CAL_L1_ABS),
            pct(l2),
            pct(spec.expect_l2_miss),
            drift_cell(l2, spec.expect_l2_miss, CAL_L2_REL, CAL_L2_ABS),
            class_cell(&r.stats.l1.miss_class),
            class_cell(&r.stats.l2.miss_class),
        ]);
    }
    let total = t.len();
    out.push_str(&t.render());
    let _ = writeln!(
        out,
        "{ok}/{total} workloads within the calibration tolerance \
         (L1: {}% rel or {}pt; L2: {}% rel or {}pt)",
        100.0 * CAL_L1_REL,
        100.0 * CAL_L1_ABS,
        100.0 * CAL_L2_REL,
        100.0 * CAL_L2_ABS
    );
    let _ = writeln!(
        out,
        "3C% columns: compulsory/capacity/conflict shares of demand misses \
         (shadow infinite-tag + fully-associative tag)"
    );
    out
}

/// Figure 1: good/bad prefetch distribution, no filtering.
pub fn fig1(reports: &[SimReport]) -> String {
    let mut out = header("Figure 1: effectiveness of prefetches (no filter)");
    let mut t = TextTable::new(vec!["benchmark", "good%", "bad%", "good", "bad"]);
    let mut bad_fracs = Vec::new();
    for r in reports {
        let good = r.stats.good_total();
        let bad = r.stats.bad_total();
        let total = (good + bad).max(1);
        bad_fracs.push(bad as f64 / total as f64);
        t.row(vec![
            r.workload.clone(),
            pct(good as f64 / total as f64),
            pct(bad as f64 / total as f64),
            good.to_string(),
            bad.to_string(),
        ]);
    }
    t.row(vec![
        "mean".to_string(),
        pct(1.0 - mean(&bad_fracs)),
        pct(mean(&bad_fracs)),
        String::new(),
        String::new(),
    ]);
    out.push_str(&t.render());
    let _ = writeln!(
        out,
        "(paper: on average 48% of prefetches are never referenced)"
    );
    out
}

/// Figure 2: L1 traffic split between demand and prefetch accesses.
/// "Probes" counts every prefetch offered to the L1 (including those
/// squashed as duplicates after the tag check — they still occupied the
/// tag array); "fills" counts prefetches that actually allocated a line.
pub fn fig2(reports: &[SimReport]) -> String {
    let mut out = header("Figure 2: traffic distribution of L1 cache");
    let mut t = TextTable::new(vec![
        "benchmark",
        "demand",
        "pf probes",
        "pf fills",
        "probes/demand",
        "fills/demand",
    ]);
    let mut probe_ratios = Vec::new();
    let mut fill_ratios = Vec::new();
    for r in reports {
        let demand = r.stats.l1.demand_accesses.max(1) as f64;
        let probes = r.stats.prefetches_proposed.total();
        let fills = r.stats.prefetches_issued.total();
        probe_ratios.push(probes as f64 / demand);
        fill_ratios.push(fills as f64 / demand);
        t.row(vec![
            r.workload.clone(),
            r.stats.l1.demand_accesses.to_string(),
            probes.to_string(),
            fills.to_string(),
            f3(probes as f64 / demand),
            f3(fills as f64 / demand),
        ]);
    }
    t.row(vec![
        "mean".to_string(),
        String::new(),
        String::new(),
        String::new(),
        f3(mean(&probe_ratios)),
        f3(mean(&fill_ratios)),
    ]);
    out.push_str(&t.render());
    let _ = writeln!(out, "(paper: mean ratio 0.41, max 0.57, min 0.29)");
    out
}

const FILTER_LABELS: [&str; 3] = ["no-filter", "PA", "PC"];

/// Figures 4/7: bad and good prefetch counts for none/PA/PC, normalized to
/// the good count without filtering.
pub fn fig4_style(reports: &[SimReport], cache: &str) -> String {
    let mut out = header(&format!(
        "Figure {}: prefetch counts, none/PA/PC ({cache} L1), normalized to good@no-filter",
        if cache == "8KB" { "4" } else { "7" }
    ));
    let mut t = TextTable::new(vec![
        "benchmark",
        "bad:none",
        "bad:PA",
        "bad:PC",
        "good:none",
        "good:PA",
        "good:PC",
    ]);
    let grouped: Vec<Vec<&SimReport>> = FILTER_LABELS
        .iter()
        .map(|l| with_label(reports, l))
        .collect();
    let mut bad_red_pa = Vec::new();
    let mut bad_red_pc = Vec::new();
    let mut good_red_pa = Vec::new();
    let mut good_red_pc = Vec::new();
    for i in 0..grouped[0].len() {
        let base_good = grouped[0][i].stats.good_total().max(1) as f64;
        let cells: Vec<f64> = (0..3)
            .flat_map(|f| {
                [
                    grouped[f][i].stats.bad_total() as f64 / base_good,
                    grouped[f][i].stats.good_total() as f64 / base_good,
                ]
            })
            .collect();
        // cells = [bad_none, good_none, bad_pa, good_pa, bad_pc, good_pc]
        if cells[0] > 0.0 {
            bad_red_pa.push(1.0 - cells[2] / cells[0]);
            bad_red_pc.push(1.0 - cells[4] / cells[0]);
        }
        good_red_pa.push(1.0 - cells[3] / cells[1]);
        good_red_pc.push(1.0 - cells[5] / cells[1]);
        t.row(vec![
            grouped[0][i].workload.clone(),
            f3(cells[0]),
            f3(cells[2]),
            f3(cells[4]),
            f3(cells[1]),
            f3(cells[3]),
            f3(cells[5]),
        ]);
    }
    out.push_str(&t.render());
    let _ = writeln!(
        out,
        "bad-prefetch reduction: PA {} / PC {}   good-prefetch loss: PA {} / PC {}",
        pct(mean(&bad_red_pa)),
        pct(mean(&bad_red_pc)),
        pct(mean(&good_red_pa)),
        pct(mean(&good_red_pc)),
    );
    let paper = if cache == "8KB" {
        "(paper @8KB: bad reduced 97%/98%; good lost 51%/48%)"
    } else {
        "(paper @32KB: bad reduced 91%/92%; good lost 35%/27%)"
    };
    let _ = writeln!(out, "{paper}");
    out
}

/// Figures 5/8: bad/good prefetch ratio for none/PA/PC.
pub fn fig5_style(reports: &[SimReport], cache: &str) -> String {
    let mut out = header(&format!(
        "Figure {}: bad/good prefetch ratios ({cache} L1)",
        if cache == "8KB" { "5" } else { "8" }
    ));
    let mut t = TextTable::new(vec!["benchmark", "none", "PA", "PC"]);
    let grouped: Vec<Vec<&SimReport>> = FILTER_LABELS
        .iter()
        .map(|l| with_label(reports, l))
        .collect();
    let mut red_pa = Vec::new();
    let mut red_pc = Vec::new();
    for i in 0..grouped[0].len() {
        let ratios: Vec<f64> = (0..3)
            .map(|f| grouped[f][i].stats.bad_good_ratio())
            .collect();
        if ratios[0] > 0.0 && ratios[0].is_finite() {
            if ratios[1].is_finite() {
                red_pa.push((1.0 - ratios[1] / ratios[0]).max(-5.0));
            }
            if ratios[2].is_finite() {
                red_pc.push((1.0 - ratios[2] / ratios[0]).max(-5.0));
            }
        }
        t.row(vec![
            grouped[0][i].workload.clone(),
            f3(ratios[0]),
            f3(ratios[1]),
            f3(ratios[2]),
        ]);
    }
    out.push_str(&t.render());
    let _ = writeln!(
        out,
        "mean ratio reduction: PA {} / PC {}",
        pct(mean(&red_pa)),
        pct(mean(&red_pc))
    );
    let paper = if cache == "8KB" {
        "(paper @8KB: reduced 70% PA / 91% PC)"
    } else {
        "(paper @32KB: reduced 75% PA / 93% PC)"
    };
    let _ = writeln!(out, "{paper}");
    out
}

/// Figures 6/9: IPC for none/PA/PC.
pub fn fig6_style(reports: &[SimReport], cache: &str) -> String {
    let mut out = header(&format!(
        "Figure {}: IPC comparison ({cache} L1)",
        if cache == "8KB" { "6" } else { "9" }
    ));
    let mut t = TextTable::new(vec!["benchmark", "none", "PA", "PC", "PA gain", "PC gain"]);
    let grouped: Vec<Vec<&SimReport>> = FILTER_LABELS
        .iter()
        .map(|l| with_label(reports, l))
        .collect();
    let mut gain_pa = Vec::new();
    let mut gain_pc = Vec::new();
    for i in 0..grouped[0].len() {
        let ipc: Vec<f64> = (0..3).map(|f| grouped[f][i].ipc()).collect();
        gain_pa.push(ipc[1] / ipc[0]);
        gain_pc.push(ipc[2] / ipc[0]);
        t.row(vec![
            grouped[0][i].workload.clone(),
            f3(ipc[0]),
            f3(ipc[1]),
            f3(ipc[2]),
            pct(ipc[1] / ipc[0] - 1.0),
            pct(ipc[2] / ipc[0] - 1.0),
        ]);
    }
    out.push_str(&t.render());
    let _ = writeln!(
        out,
        "mean IPC gain: PA {} / PC {}",
        pct(geomean(&gain_pa) - 1.0),
        pct(geomean(&gain_pc) - 1.0)
    );
    let paper = if cache == "8KB" {
        "(paper @8KB: +8.2% PA / +9.1% PC)"
    } else {
        "(paper @32KB: +7.0% PA / +8.1% PC)"
    };
    let _ = writeln!(out, "{paper}");
    out
}

fn size_labels() -> Vec<String> {
    TABLE_SIZES.iter().map(|s| format!("{s}-entry")).collect()
}

/// Figure 10: good prefetches vs history-table size (normalized to 4K).
pub fn fig10(reports: &[SimReport]) -> String {
    table_sweep(
        reports,
        "Figure 10: good prefetches vs table size (PA, normalized to 4K entries)",
        |r| r.stats.good_total() as f64,
    )
}

/// Figure 11: bad prefetches vs history-table size (normalized to 4K).
pub fn fig11(reports: &[SimReport]) -> String {
    table_sweep(
        reports,
        "Figure 11: bad prefetches vs table size (PA, normalized to 4K entries)",
        |r| r.stats.bad_total() as f64,
    )
}

fn table_sweep(reports: &[SimReport], title: &str, metric: impl Fn(&SimReport) -> f64) -> String {
    let mut out = header(title);
    let labels = size_labels();
    let mut cols = vec!["benchmark".to_string()];
    cols.extend(labels.clone());
    let mut t = TextTable::new(cols);
    let grouped: Vec<Vec<&SimReport>> = labels.iter().map(|l| with_label(reports, l)).collect();
    let norm_idx = TABLE_SIZES
        .iter()
        .position(|&s| s == 4096)
        .expect("4K in sweep");
    for i in 0..grouped[0].len() {
        let base = metric(grouped[norm_idx][i]).max(1.0);
        let mut row = vec![grouped[0][i].workload.clone()];
        for g in &grouped {
            row.push(f3(metric(g[i]) / base));
        }
        t.row(row);
    }
    out.push_str(&t.render());
    out
}

/// Figure 12: IPC vs history-table size.
pub fn fig12(reports: &[SimReport]) -> String {
    let mut out = header("Figure 12: IPC for different history table sizes (PA)");
    let labels = size_labels();
    let mut cols = vec!["benchmark".to_string()];
    cols.extend(labels.clone());
    let mut t = TextTable::new(cols);
    let grouped: Vec<Vec<&SimReport>> = labels.iter().map(|l| with_label(reports, l)).collect();
    let mut means: Vec<Vec<f64>> = vec![Vec::new(); labels.len()];
    for i in 0..grouped[0].len() {
        let mut row = vec![grouped[0][i].workload.clone()];
        for (j, g) in grouped.iter().enumerate() {
            row.push(f3(g[i].ipc()));
            means[j].push(g[i].ipc());
        }
        t.row(row);
    }
    let mut mean_row = vec!["geomean".to_string()];
    for m in &means {
        mean_row.push(f3(geomean(m)));
    }
    t.row(mean_row);
    out.push_str(&t.render());
    let _ = writeln!(
        out,
        "(paper: ~6% gain from 2048 to 4096 entries, <1% beyond)"
    );
    out
}

fn port_labels() -> Vec<String> {
    PORT_COUNTS.iter().map(|p| format!("{p}-port")).collect()
}

/// Figure 13: bad/good ratio vs L1 port count (PA filter).
pub fn fig13(reports: &[SimReport]) -> String {
    let mut out = header("Figure 13: bad/good prefetch ratios vs number of L1 ports (PA)");
    let labels = port_labels();
    let mut cols = vec!["benchmark".to_string()];
    cols.extend(labels.clone());
    let mut t = TextTable::new(cols);
    let grouped: Vec<Vec<&SimReport>> = labels.iter().map(|l| with_label(reports, l)).collect();
    let mut per_port_means: Vec<Vec<f64>> = vec![Vec::new(); labels.len()];
    for i in 0..grouped[0].len() {
        let mut row = vec![grouped[0][i].workload.clone()];
        for (j, g) in grouped.iter().enumerate() {
            let ratio = g[i].stats.bad_good_ratio();
            row.push(f3(ratio));
            if ratio.is_finite() {
                per_port_means[j].push(ratio);
            }
        }
        t.row(row);
    }
    let mut mean_row = vec!["mean".to_string()];
    for m in &per_port_means {
        mean_row.push(f3(mean(m)));
    }
    t.row(mean_row);
    out.push_str(&t.render());
    let _ = writeln!(out, "(paper: ratio drops ~6% 3->4 ports, ~2% 4->5)");
    out
}

/// Figure 14: IPC vs L1 port count (PA filter).
pub fn fig14(reports: &[SimReport]) -> String {
    let mut out = header("Figure 14: IPC vs number of L1 ports (PA)");
    let labels = port_labels();
    let mut cols = vec!["benchmark".to_string()];
    cols.extend(labels.clone());
    let mut t = TextTable::new(cols);
    let grouped: Vec<Vec<&SimReport>> = labels.iter().map(|l| with_label(reports, l)).collect();
    let mut means: Vec<Vec<f64>> = vec![Vec::new(); labels.len()];
    for i in 0..grouped[0].len() {
        let mut row = vec![grouped[0][i].workload.clone()];
        for (j, g) in grouped.iter().enumerate() {
            row.push(f3(g[i].ipc()));
            means[j].push(g[i].ipc());
        }
        t.row(row);
    }
    let mut mean_row = vec!["geomean".to_string()];
    for m in &means {
        mean_row.push(f3(geomean(m)));
    }
    t.row(mean_row);
    out.push_str(&t.render());
    let _ = writeln!(
        out,
        "(paper: +4% IPC 3->4 ports, <1% 4->5; latency grows with ports)"
    );
    out
}

const BUFFER_LABELS: [&str; 4] = ["PA", "PA+buffer", "PC", "PC+buffer"];

/// Figure 15: bad/good ratio with and without the dedicated prefetch buffer.
pub fn fig15(reports: &[SimReport]) -> String {
    let mut out = header("Figure 15: bad/good prefetch ratios with prefetch buffer");
    let mut cols = vec!["benchmark".to_string()];
    cols.extend(BUFFER_LABELS.iter().map(|s| s.to_string()));
    let mut t = TextTable::new(cols);
    let grouped: Vec<Vec<&SimReport>> = BUFFER_LABELS
        .iter()
        .map(|l| with_label(reports, l))
        .collect();
    for i in 0..grouped[0].len() {
        let mut row = vec![grouped[0][i].workload.clone()];
        for g in &grouped {
            row.push(f3(g[i].stats.bad_good_ratio()));
        }
        t.row(row);
    }
    out.push_str(&t.render());
    let _ = writeln!(
        out,
        "(paper: the dedicated buffer degrades the filters' effectiveness)"
    );
    out
}

/// Figure 16: IPC with and without the dedicated prefetch buffer.
pub fn fig16(reports: &[SimReport]) -> String {
    let mut out = header("Figure 16: IPC comparison with prefetch buffer");
    let mut cols = vec!["benchmark".to_string()];
    cols.extend(BUFFER_LABELS.iter().map(|s| s.to_string()));
    let mut t = TextTable::new(cols);
    let grouped: Vec<Vec<&SimReport>> = BUFFER_LABELS
        .iter()
        .map(|l| with_label(reports, l))
        .collect();
    let mut pa_loss = Vec::new();
    let mut pc_loss = Vec::new();
    for i in 0..grouped[0].len() {
        let mut row = vec![grouped[0][i].workload.clone()];
        let ipcs: Vec<f64> = grouped.iter().map(|g| g[i].ipc()).collect();
        pa_loss.push(ipcs[1] / ipcs[0]);
        pc_loss.push(ipcs[3] / ipcs[2]);
        for v in &ipcs {
            row.push(f3(*v));
        }
        t.row(row);
    }
    out.push_str(&t.render());
    let _ = writeln!(
        out,
        "IPC change from adding the buffer: PA {} / PC {}",
        pct(geomean(&pa_loss) - 1.0),
        pct(geomean(&pc_loss) - 1.0)
    );
    let _ = writeln!(out, "(paper: buffer costs 9% IPC under PA, 10% under PC)");
    out
}

const SOLO_LABELS: [&str; 4] = ["NSP/no-filter", "NSP/PA", "SDP/no-filter", "SDP/PA"];

/// §5.2.1: NSP-only and SDP-only machines, with and without the PA filter.
pub fn nsp_sdp(reports: &[SimReport]) -> String {
    let mut out = header("Section 5.2.1: per-prefetcher analysis (hardware prefetcher alone)");
    let mut t = TextTable::new(vec![
        "config",
        "good/bad",
        "bad reduction",
        "good loss",
        "geomean IPC",
    ]);
    let grouped: Vec<Vec<&SimReport>> =
        SOLO_LABELS.iter().map(|l| with_label(reports, l)).collect();
    for pair in [(0usize, 1usize), (2, 3)] {
        let (base, filt) = pair;
        let mut gb_ratios = Vec::new();
        let mut bad_red = Vec::new();
        let mut good_loss = Vec::new();
        let mut ipcs_base = Vec::new();
        let mut ipcs_filt = Vec::new();
        for i in 0..grouped[base].len() {
            let b = &grouped[base][i].stats;
            let f = &grouped[filt][i].stats;
            if b.bad_total() > 0 {
                gb_ratios.push(b.good_total() as f64 / b.bad_total() as f64);
                bad_red.push(1.0 - f.bad_total() as f64 / b.bad_total() as f64);
            }
            if b.good_total() > 0 {
                good_loss.push(1.0 - f.good_total() as f64 / b.good_total() as f64);
            }
            ipcs_base.push(grouped[base][i].ipc());
            ipcs_filt.push(grouped[filt][i].ipc());
        }
        t.row(vec![
            SOLO_LABELS[base].to_string(),
            f3(mean(&gb_ratios)),
            "-".to_string(),
            "-".to_string(),
            f3(geomean(&ipcs_base)),
        ]);
        t.row(vec![
            SOLO_LABELS[filt].to_string(),
            "-".to_string(),
            pct(mean(&bad_red)),
            pct(mean(&good_loss)),
            f3(geomean(&ipcs_filt)),
        ]);
    }
    out.push_str(&t.render());
    let _ = writeln!(
        out,
        "(paper: NSP good/bad 1.8, filter kills 97.5% bad / 48.1% good;\n SDP good/bad 11.7, filter kills 68.3% bad / 61.9% good)"
    );
    out
}

const CVT_LABELS: [&str; 3] = ["8KB/no-filter", "8KB+PA-1KB", "16KB/no-filter"];

/// §5.2.1: is a 1KB history table worth more than more cache?
pub fn cache_vs_table(reports: &[SimReport]) -> String {
    let mut out = header("Section 5.2.1: 1KB history table vs larger cache");
    let mut cols = vec!["benchmark".to_string()];
    cols.extend(CVT_LABELS.iter().map(|s| s.to_string()));
    let mut t = TextTable::new(cols);
    let grouped: Vec<Vec<&SimReport>> = CVT_LABELS.iter().map(|l| with_label(reports, l)).collect();
    let mut means: Vec<Vec<f64>> = vec![Vec::new(); CVT_LABELS.len()];
    for i in 0..grouped[0].len() {
        let mut row = vec![grouped[0][i].workload.clone()];
        for (j, g) in grouped.iter().enumerate() {
            row.push(f3(g[i].ipc()));
            means[j].push(g[i].ipc());
        }
        t.row(row);
    }
    let mut mean_row = vec!["geomean".to_string()];
    for m in &means {
        mean_row.push(f3(geomean(m)));
    }
    t.row(mean_row);
    out.push_str(&t.render());
    let _ = writeln!(
        out,
        "(paper: 16KB L1 gains ~20%; adding the 1KB table to 8KB is the\n cheaper alternative per byte)"
    );
    out
}

/// Filter kinds in the family head-to-head, in column order. The first
/// label is the no-filter baseline the IPC deltas compare against.
const FAMILY_LABELS: [&str; 5] = ["no-filter", "PA", "PC", "hybrid", "perceptron"];

/// Prefetch coverage: the fraction of would-be demand misses the
/// prefetcher turned into hits (good prefetches over good prefetches plus
/// the demand misses that still got through).
fn coverage(r: &SimReport) -> f64 {
    let good = r.stats.good_total();
    let misses = r.stats.l1.demand_misses;
    if good + misses == 0 {
        0.0
    } else {
        good as f64 / (good + misses) as f64
    }
}

/// The equal-bit-budget filter family head-to-head (DESIGN.md §15): every
/// filter kind on every workload at the same storage budget. The first
/// table shows per-workload `fraction_good` (the pollution-filtering
/// quality the paper optimizes); the second aggregates each kind's geomean
/// IPC delta against the unfiltered machine, mean coverage, and the bits
/// the design actually spends (history/weight tables via [`FilterCost`](ppf_filter::cost::FilterCost)).
pub fn filter_family(reports: &[SimReport]) -> String {
    use ppf_filter::cost::FilterCost;
    use ppf_filter::recovery::DEFAULT_REJECT_LOG;
    use ppf_types::{FilterKind, SystemConfig};

    let mut out = header("Filter family: fraction_good per workload at one storage budget");
    let mut cols = vec!["benchmark".to_string()];
    cols.extend(FAMILY_LABELS.iter().map(|s| s.to_string()));
    let mut t = TextTable::new(cols);
    let grouped: Vec<Vec<&SimReport>> = FAMILY_LABELS
        .iter()
        .map(|l| with_label(reports, l))
        .collect();
    for i in 0..grouped[0].len() {
        let mut row = vec![grouped[0][i].workload.clone()];
        for g in &grouped {
            row.push(f3(fraction_good(g[i])));
        }
        t.row(row);
    }
    out.push_str(&t.render());

    let mut s = TextTable::new(vec![
        "filter",
        "geomean IPC",
        "vs no-filter",
        "mean fraction_good",
        "mean coverage",
        "table bits",
    ]);
    let kinds = [
        FilterKind::None,
        FilterKind::Pa,
        FilterKind::Pc,
        FilterKind::Hybrid,
        FilterKind::Perceptron,
    ];
    let base_ipc = geomean(&grouped[0].iter().map(|r| r.ipc()).collect::<Vec<_>>());
    for (j, label) in FAMILY_LABELS.iter().enumerate() {
        let rows = &grouped[j];
        let g = geomean(&rows.iter().map(|r| r.ipc()).collect::<Vec<_>>());
        let cfg = SystemConfig::paper_default().with_filter(kinds[j]);
        let cost = FilterCost::of(&cfg.filter, &cfg.l1, DEFAULT_REJECT_LOG);
        s.row(vec![
            label.to_string(),
            f3(g),
            if j == 0 {
                "base".to_string()
            } else {
                pct(g / base_ipc - 1.0)
            },
            f3(mean(
                &rows.iter().map(|r| fraction_good(r)).collect::<Vec<_>>(),
            )),
            f3(mean(&rows.iter().map(|r| coverage(r)).collect::<Vec<_>>())),
            cost.history_table_bits.to_string(),
        ]);
    }
    out.push_str(&s.render());
    let _ = writeln!(
        out,
        "all filtering cells share the {}x{}-bit counter budget; the\n \
         perceptron spends it on 5-bit signed feature weights instead",
        SystemConfig::paper_default().filter.table_entries,
        SystemConfig::paper_default().filter.counter_bits,
    );
    out
}

/// Hardening levels in the attack matrix, in the order the summary walks
/// them (mirrors `experiments::HARDENINGS`).
const HARDENING_ORDER: [&str; 4] = ["unhardened", "salted", "partitioned", "hardened"];

/// Filters covered by the attack matrix (`FilterKind::label` spellings).
const ATTACK_FILTERS: [&str; 4] = ["PA", "PC", "hybrid", "perceptron"];

/// Fraction of classified prefetches that were good (1.0 when the cell
/// classified nothing — no pollution observed).
fn fraction_good(r: &SimReport) -> f64 {
    let good = r.stats.good_total();
    let bad = r.stats.bad_total();
    if good + bad == 0 {
        1.0
    } else {
        good as f64 / (good + bad) as f64
    }
}

/// The adversarial attack-vs-hardening matrix (DESIGN.md §12): one row per
/// filter × attack (plus the clean baseline), one column per hardening
/// level, cells showing `fraction_good` over the whole run. The footer
/// compares fully hardened (salt + partitions) against unhardened across
/// every attacked cell.
pub fn attack_matrix(reports: &[SimReport]) -> String {
    let mut out = header("Attack matrix: fraction_good per attack and hardening level");
    let mut cols = vec!["filter".to_string(), "attack".to_string()];
    cols.extend(HARDENING_ORDER.iter().map(|h| h.to_string()));
    let mut t = TextTable::new(cols);
    let find = |label: String| reports.iter().find(|r| r.label == label);
    let mut unhardened = Vec::new();
    let mut hardened = Vec::new();
    let attacks: Vec<String> = std::iter::once("clean".to_string())
        .chain(AttackKind::ALL.iter().map(|a| a.to_string()))
        .collect();
    for filter in ATTACK_FILTERS {
        for attack in &attacks {
            let mut row = vec![filter.to_string(), attack.clone()];
            let mut cells: Vec<Option<f64>> = Vec::new();
            for h in HARDENING_ORDER {
                let fg = find(format!("{filter}/{h}/{attack}")).map(fraction_good);
                row.push(fg.map(f3).unwrap_or_else(|| "—".to_string()));
                cells.push(fg);
            }
            if attack != "clean" {
                if let (Some(u), Some(hd)) = (cells[0], cells[3]) {
                    unhardened.push(u);
                    hardened.push(hd);
                }
            }
            t.row(row);
        }
    }
    out.push_str(&t.render());
    let _ = writeln!(
        out,
        "mean under-attack fraction_good: unhardened {} vs hardened (salt+partition) {} ({:+.1}pt)",
        f3(mean(&unhardened)),
        f3(mean(&hardened)),
        100.0 * (mean(&hardened) - mean(&unhardened)),
    );
    let _ = writeln!(
        out,
        "clean rows are the attack-free baseline of each configuration; \
         attacks run from an eighth to the midpoint of the measured window"
    );
    out
}

/// Generic ablation summary: one row per config label with geomean IPC,
/// mean L1 miss rate, prefetch outcome counts and relative traffic.
pub fn ablation_summary(reports: &[SimReport], title: &str) -> String {
    let mut out = header(title);
    // Collect labels in first-appearance order.
    let mut labels: Vec<String> = Vec::new();
    for r in reports {
        if !labels.contains(&r.label) {
            labels.push(r.label.clone());
        }
    }
    let mut t = TextTable::new(vec![
        "config",
        "geomean IPC",
        "vs base",
        "L1 miss%",
        "good pf",
        "bad pf",
        "issued",
    ]);
    let mut base_ipc = 0.0;
    for (i, label) in labels.iter().enumerate() {
        let rows = with_label(reports, label);
        let ipcs: Vec<f64> = rows.iter().map(|r| r.ipc()).collect();
        let g = geomean(&ipcs);
        if i == 0 {
            base_ipc = g;
        }
        let miss = mean(
            &rows
                .iter()
                .map(|r| r.stats.l1.miss_rate())
                .collect::<Vec<_>>(),
        );
        let good: u64 = rows.iter().map(|r| r.stats.good_total()).sum();
        let bad: u64 = rows.iter().map(|r| r.stats.bad_total()).sum();
        let issued: u64 = rows.iter().map(|r| r.stats.prefetches_issued.total()).sum();
        t.row(vec![
            label.clone(),
            f3(g),
            if i == 0 {
                "base".to_string()
            } else {
                pct(g / base_ipc - 1.0)
            },
            pct(miss),
            good.to_string(),
            bad.to_string(),
            issued.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: u64 = 4_000;

    /// Run `name` at budget `N`, returning its rendered body.
    fn run_experiment(name: &str, json_dir: Option<&str>) -> Result<String, PpfError> {
        let opts = ExperimentOptions {
            json_dir: json_dir.map(str::to_string),
            ..ExperimentOptions::default()
        };
        run_experiment_full(name, N, &opts).map(|out| out.body)
    }

    #[test]
    fn experiments_list_is_dispatchable() {
        for (i, exp) in EXPERIMENTS.iter().enumerate() {
            let name = exp.name;
            assert!(
                EXPERIMENTS[..i].iter().all(|e| e.name != name),
                "{name} listed twice"
            );
            // table1 is static; everything else runs a tiny grid.
            let out = run_experiment(name, None).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(out.contains("=="), "{name} missing header");
        }
    }

    #[test]
    fn unknown_experiment_errors() {
        assert!(experiment("fig99").is_none());
        assert!(run_experiment("fig99", None).is_err());
    }

    #[test]
    fn table1_mentions_key_parameters() {
        let t = table1();
        assert!(t.contains("8KB"));
        assert!(t.contains("512KB"));
        assert!(t.contains("4096 entries"));
        assert!(t.contains("150 cycles"));
    }

    #[test]
    fn json_dump_written() {
        let dir = std::env::temp_dir().join("ppf-fig-test");
        let dir_s = dir.to_str().unwrap();
        run_experiment("fig2", Some(dir_s)).unwrap();
        let data = std::fs::read_to_string(dir.join("fig2.json")).unwrap();
        assert!(data.contains("\"workload\""));
        std::fs::remove_dir_all(&dir).ok();
    }
}
