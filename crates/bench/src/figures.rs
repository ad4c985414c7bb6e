//! Turn experiment grids into the paper's tables and figures.
//!
//! [`EXPERIMENTS`] is the registry: one `(name, grid, render)` entry per
//! experiment, read by `figures --list`, `all` and name validation.
//! [`run_experiment_full`] runs an entry's grid through the cell store and
//! renders an aligned text table with the same rows and series the paper's
//! figure plots, plus the mean the paper quotes in its prose.

use crate::memo::{memo_key, CellStore};
use crate::shard::ShardSpec;
use ppf_sim::experiments::{
    self, ablations, CellOutcome, RunSpec, TelemetrySpec, ATTACKED_FILTERS, FAMILY_FILTERS,
    HARDENINGS, TABLE_SIZES,
};
use ppf_sim::report::{f3, geomean, mean, pct, TextTable};
use ppf_sim::{CellFailure, SimReport};
use ppf_types::telemetry::{TelemetryConfig, DEFAULT_INTERVAL_CYCLES};
use ppf_types::{json_struct, write_atomic, FilterKind, PpfError, SystemConfig, ToJson};
use ppf_workloads::{AttackKind, FaultSpec, Workload};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

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
    exp("fig4", experiments::fig4_5_6, |r| fig4_style(r, &L1_8KB)),
    exp("fig5", experiments::fig4_5_6, |r| fig5_style(r, &L1_8KB)),
    exp("fig6", experiments::fig4_5_6, |r| fig6_style(r, &L1_8KB)),
    exp("fig7", experiments::fig7_8_9, |r| fig4_style(r, &L1_32KB)),
    exp("fig8", experiments::fig7_8_9, |r| fig5_style(r, &L1_32KB)),
    exp("fig9", experiments::fig7_8_9, |r| fig6_style(r, &L1_32KB)),
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
    /// Sharded-sweep mode: run only the cells whose store key this shard
    /// owns, into the `checkpoint` directory, and render a coverage line
    /// instead of the figure. `figures` requires `checkpoint` with it and
    /// rejects `json_dir`, `telemetry` and `inject_fault`: keyless cells
    /// are never stored, and a shard's document would hold part of a grid.
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
}

/// Run one named experiment: build its grid, apply `--telemetry` and
/// `--inject-fault`, keep this shard's cells (all of them when unsharded),
/// run them through the cell store (the checkpoint directory when one is
/// set, else the in-process memo), and render the figure, the
/// partial-results table or the shard summary. With `json_dir` set, the
/// experiment's document is written too.
pub fn run_experiment_full(
    name: &str,
    insts: u64,
    opts: &ExperimentOptions,
) -> Result<ExperimentOutput, PpfError> {
    let exp = experiment(name)
        .ok_or_else(|| PpfError::config_invalid(format!("unknown experiment '{name}'")))?;
    let Some(grid) = exp.grid else {
        // Static table: no grid, no cells, nothing to checkpoint and
        // nothing to shard.
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
    let total = grid.len();
    if let Some(shard) = opts.shard {
        // A keyless cell belongs to no shard; `figures` never shards one.
        grid.retain(|spec| memo_key(spec).is_some_and(|key| shard.contains(&key)));
    }
    let owned = grid.len();
    let store = opts
        .checkpoint
        .as_deref()
        .map_or(CellStore::Memo, CellStore::Dir);
    let run = store.run(grid, opts.seeds.max(1))?;
    for e in run.corrupt.iter().chain(&run.write_errors) {
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
            "{name}: shard {shard} — owns {owned}/{total} cells, {} failed",
            failures.len()
        )),
        None if failures.is_empty() => (exp.render)(&reports),
        None => partial_results(name, &run.outcomes),
    };
    if let Some(dir) = &opts.json_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| PpfError::io(e.to_string()).context(format!("creating json dir {dir}")))?;
        // One self-describing document per experiment: reports of the
        // surviving cells plus structured failures — so a partial run
        // still dumps machine-parseable JSON instead of a bare array
        // missing rows with no explanation.
        let doc = ExperimentDoc {
            experiment: name.to_string(),
            reports,
            failures: failures.clone(),
        };
        let path = format!("{dir}/{name}.json");
        write_atomic(Path::new(&path), &doc.to_json_pretty())?;
    }
    Ok(ExperimentOutput {
        body,
        loaded_cells: run.hits,
        executed_cells: run.executed,
        failures,
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

fn header(title: &str) -> String {
    format!("== {title} ==\n")
}

/// A grid's reports grouped by label in first-appearance order, which is
/// the grid's order: one `(label, reports in workload order)` column per
/// configuration.
fn columns(reports: &[SimReport]) -> Vec<(&str, Vec<&SimReport>)> {
    let mut cols: Vec<(&str, Vec<&SimReport>)> = Vec::new();
    for r in reports {
        match cols.iter_mut().find(|(label, _)| *label == r.label) {
            Some((_, col)) => col.push(r),
            None => cols.push((&r.label, vec![r])),
        }
    }
    cols
}

/// The columns transposed: one row per workload, holding its report from
/// every column in column order.
fn rows<'a>(cols: &[(&str, Vec<&'a SimReport>)]) -> Vec<Vec<&'a SimReport>> {
    let n = cols.first().map_or(0, |(_, col)| col.len());
    (0..n)
        .map(|i| cols.iter().map(|(_, col)| col[i]).collect())
        .collect()
}

/// The closing row of a [`column_table`]: its name and how it reduces a
/// column's values.
struct Footer(&'static str, fn(&[f64]) -> f64);

/// `mean` of each column's finite values: a workload with bad prefetches
/// and no good ones has an infinite bad/good ratio.
const MEAN: Option<Footer> = Some(Footer("mean", finite_mean));

/// `geomean` of each column.
const GEOMEAN: Option<Footer> = Some(Footer("geomean", geomean));

/// The table Figs 10–16, the cache-vs-table comparison and the filter
/// family share: one row per workload and one column per grid label,
/// headed by the label. `row` maps a workload's reports, one per column,
/// to the row's values; `footer` may close the table with a summary row.
fn column_table(
    reports: &[SimReport],
    title: &str,
    footer: Option<Footer>,
    row: impl Fn(&[&SimReport]) -> Vec<f64>,
) -> String {
    let cols = columns(reports);
    let mut head = vec!["benchmark"];
    head.extend(cols.iter().map(|(label, _)| *label));
    let mut t = TextTable::new(head);
    let mut values = vec![Vec::new(); cols.len()];
    for cells in rows(&cols) {
        let mut line = vec![cells[0].workload.clone()];
        for (col, v) in values.iter_mut().zip(row(&cells)) {
            line.push(f3(v));
            col.push(v);
        }
        t.row(line);
    }
    if let Some(Footer(name, reduce)) = footer {
        let mut line = vec![name.to_string()];
        line.extend(values.iter().map(|col| f3(reduce(col))));
        t.row(line);
    }
    header(title) + &t.render()
}

/// Arithmetic mean of the finite values.
fn finite_mean(values: &[f64]) -> f64 {
    mean(
        &values
            .iter()
            .copied()
            .filter(|v| v.is_finite())
            .collect::<Vec<_>>(),
    )
}

/// A [`column_table`] row applying `metric` to every column's report.
fn each(metric: impl Fn(&SimReport) -> f64) -> impl Fn(&[&SimReport]) -> Vec<f64> {
    move |cells| cells.iter().map(|r| metric(r)).collect()
}

/// Mean of `metric` over one column.
fn column_mean(col: &[&SimReport], metric: impl Fn(&SimReport) -> f64) -> f64 {
    mean(&col.iter().map(|r| metric(r)).collect::<Vec<_>>())
}

/// Geometric-mean IPC of one column.
fn geomean_ipc(col: &[&SimReport]) -> f64 {
    geomean(&col.iter().map(|r| r.ipc()).collect::<Vec<_>>())
}

/// The "vs base" cell of a summary row: `base` for the first column, else
/// the geomean IPC change against it.
fn vs_base(j: usize, ipc: f64, base_ipc: f64) -> String {
    if j == 0 {
        "base".to_string()
    } else {
        pct(ipc / base_ipc - 1.0)
    }
}

/// Table 1: the system configuration (static; printed for completeness).
fn table1() -> String {
    let cfg = SystemConfig::paper_default();
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
fn table2(reports: &[SimReport]) -> String {
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
fn calibrate(reports: &[SimReport]) -> String {
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
fn fig1(reports: &[SimReport]) -> String {
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
fn fig2(reports: &[SimReport]) -> String {
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

/// One L1 size of the none/PA/PC comparison, whose grid columns are the
/// no-filter, PA and PC machines: what Figs 4–6 (8KB) or 7–9 (32KB)
/// print besides the data.
struct FilterFigures {
    /// L1 size label.
    cache: &'static str,
    /// Figure number and the paper's quoted result of the counts, ratio
    /// and IPC figures, in that order.
    figs: [(u8, &'static str); 3],
}

const L1_8KB: FilterFigures = FilterFigures {
    cache: "8KB",
    figs: [
        (4, "bad reduced 97%/98%; good lost 51%/48%"),
        (5, "reduced 70% PA / 91% PC"),
        (6, "+8.2% PA / +9.1% PC"),
    ],
};

const L1_32KB: FilterFigures = FilterFigures {
    cache: "32KB",
    figs: [
        (7, "bad reduced 91%/92%; good lost 35%/27%"),
        (8, "reduced 75% PA / 93% PC"),
        (9, "+7.0% PA / +8.1% PC"),
    ],
};

/// Figures 4/7: bad and good prefetch counts for none/PA/PC, normalized to
/// the good count without filtering.
fn fig4_style(reports: &[SimReport], l1: &FilterFigures) -> String {
    let (number, paper) = l1.figs[0];
    let mut out = header(&format!(
        "Figure {number}: prefetch counts, none/PA/PC ({} L1), normalized to good@no-filter",
        l1.cache
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
    // PA's and PC's reductions against no filter.
    let mut bad_red = [Vec::new(), Vec::new()];
    let mut good_loss = [Vec::new(), Vec::new()];
    for cells in rows(&columns(reports)) {
        let base_good = cells[0].stats.good_total().max(1) as f64;
        let bad: Vec<f64> = cells
            .iter()
            .map(|r| r.stats.bad_total() as f64 / base_good)
            .collect();
        let good: Vec<f64> = cells
            .iter()
            .map(|r| r.stats.good_total() as f64 / base_good)
            .collect();
        for f in 0..2 {
            if bad[0] > 0.0 {
                bad_red[f].push(1.0 - bad[f + 1] / bad[0]);
            }
            good_loss[f].push(1.0 - good[f + 1] / good[0]);
        }
        let mut row = vec![cells[0].workload.clone()];
        row.extend(bad.iter().chain(&good).map(|&v| f3(v)));
        t.row(row);
    }
    out.push_str(&t.render());
    let _ = writeln!(
        out,
        "bad-prefetch reduction: PA {} / PC {}   good-prefetch loss: PA {} / PC {}",
        pct(mean(&bad_red[0])),
        pct(mean(&bad_red[1])),
        pct(mean(&good_loss[0])),
        pct(mean(&good_loss[1])),
    );
    let _ = writeln!(out, "(paper @{}: {paper})", l1.cache);
    out
}

/// Figures 5/8: bad/good prefetch ratio for none/PA/PC.
fn fig5_style(reports: &[SimReport], l1: &FilterFigures) -> String {
    let (number, paper) = l1.figs[1];
    let mut out = header(&format!(
        "Figure {number}: bad/good prefetch ratios ({} L1)",
        l1.cache
    ));
    let mut t = TextTable::new(vec!["benchmark", "none", "PA", "PC"]);
    // PA's and PC's ratio reductions, over finite ratios only.
    let mut red = [Vec::new(), Vec::new()];
    for cells in rows(&columns(reports)) {
        let ratios: Vec<f64> = cells.iter().map(|r| r.stats.bad_good_ratio()).collect();
        if ratios[0] > 0.0 && ratios[0].is_finite() {
            for f in 0..2 {
                if ratios[f + 1].is_finite() {
                    red[f].push((1.0 - ratios[f + 1] / ratios[0]).max(-5.0));
                }
            }
        }
        let mut row = vec![cells[0].workload.clone()];
        row.extend(ratios.iter().map(|&v| f3(v)));
        t.row(row);
    }
    out.push_str(&t.render());
    let _ = writeln!(
        out,
        "mean ratio reduction: PA {} / PC {}",
        pct(mean(&red[0])),
        pct(mean(&red[1]))
    );
    let _ = writeln!(out, "(paper @{}: {paper})", l1.cache);
    out
}

/// Figures 6/9: IPC for none/PA/PC.
fn fig6_style(reports: &[SimReport], l1: &FilterFigures) -> String {
    let (number, paper) = l1.figs[2];
    let mut out = header(&format!(
        "Figure {number}: IPC comparison ({} L1)",
        l1.cache
    ));
    let mut t = TextTable::new(vec!["benchmark", "none", "PA", "PC", "PA gain", "PC gain"]);
    // PA's and PC's IPC over no filter.
    let mut gain = [Vec::new(), Vec::new()];
    for cells in rows(&columns(reports)) {
        let ipc: Vec<f64> = cells.iter().map(|r| r.ipc()).collect();
        let mut row = vec![cells[0].workload.clone()];
        row.extend(ipc.iter().map(|&v| f3(v)));
        for f in 0..2 {
            gain[f].push(ipc[f + 1] / ipc[0]);
            row.push(pct(ipc[f + 1] / ipc[0] - 1.0));
        }
        t.row(row);
    }
    out.push_str(&t.render());
    let _ = writeln!(
        out,
        "mean IPC gain: PA {} / PC {}",
        pct(geomean(&gain[0]) - 1.0),
        pct(geomean(&gain[1]) - 1.0)
    );
    let _ = writeln!(out, "(paper @{}: {paper})", l1.cache);
    out
}

/// Figures 10/11's row: `metric` of every table size over its value at the
/// paper's 4096 entries (the grid's columns are `TABLE_SIZES` in order).
fn per_4k_entries(metric: fn(&SimReport) -> f64) -> impl Fn(&[&SimReport]) -> Vec<f64> {
    let at = TABLE_SIZES
        .iter()
        .position(|&s| s == 4096)
        .expect("4K in sweep");
    move |cells| {
        let base = metric(cells[at]).max(1.0);
        cells.iter().map(|r| metric(r) / base).collect()
    }
}

/// Figure 10: good prefetches vs history-table size (normalized to 4K).
fn fig10(reports: &[SimReport]) -> String {
    column_table(
        reports,
        "Figure 10: good prefetches vs table size (PA, normalized to 4K entries)",
        None,
        per_4k_entries(|r| r.stats.good_total() as f64),
    )
}

/// Figure 11: bad prefetches vs history-table size (normalized to 4K).
fn fig11(reports: &[SimReport]) -> String {
    column_table(
        reports,
        "Figure 11: bad prefetches vs table size (PA, normalized to 4K entries)",
        None,
        per_4k_entries(|r| r.stats.bad_total() as f64),
    )
}

/// Figure 12: IPC vs history-table size.
fn fig12(reports: &[SimReport]) -> String {
    column_table(
        reports,
        "Figure 12: IPC for different history table sizes (PA)",
        GEOMEAN,
        each(SimReport::ipc),
    ) + "(paper: ~6% gain from 2048 to 4096 entries, <1% beyond)\n"
}

/// Figure 13: bad/good ratio vs L1 port count (PA filter).
fn fig13(reports: &[SimReport]) -> String {
    column_table(
        reports,
        "Figure 13: bad/good prefetch ratios vs number of L1 ports (PA)",
        MEAN,
        each(|r| r.stats.bad_good_ratio()),
    ) + "(paper: ratio drops ~6% 3->4 ports, ~2% 4->5)\n"
}

/// Figure 14: IPC vs L1 port count (PA filter).
fn fig14(reports: &[SimReport]) -> String {
    column_table(
        reports,
        "Figure 14: IPC vs number of L1 ports (PA)",
        GEOMEAN,
        each(SimReport::ipc),
    ) + "(paper: +4% IPC 3->4 ports, <1% 4->5; latency grows with ports)\n"
}

/// Figure 15: bad/good ratio with and without the dedicated prefetch buffer.
fn fig15(reports: &[SimReport]) -> String {
    column_table(
        reports,
        "Figure 15: bad/good prefetch ratios with prefetch buffer",
        None,
        each(|r| r.stats.bad_good_ratio()),
    ) + "(paper: the dedicated buffer degrades the filters' effectiveness)\n"
}

/// Figure 16: IPC with and without the dedicated prefetch buffer.
fn fig16(reports: &[SimReport]) -> String {
    let mut out = column_table(
        reports,
        "Figure 16: IPC comparison with prefetch buffer",
        None,
        each(SimReport::ipc),
    );
    // Each filter's column is followed by its +buffer column.
    let change: Vec<String> = columns(reports)
        .chunks(2)
        .map(|pair| {
            let ratios: Vec<f64> = pair[0]
                .1
                .iter()
                .zip(&pair[1].1)
                .map(|(alone, buffered)| buffered.ipc() / alone.ipc())
                .collect();
            format!("{} {}", pair[0].0, pct(geomean(&ratios) - 1.0))
        })
        .collect();
    let _ = writeln!(
        out,
        "IPC change from adding the buffer: {}",
        change.join(" / ")
    );
    out + "(paper: buffer costs 9% IPC under PA, 10% under PC)\n"
}

/// §5.2.1: NSP-only and SDP-only machines, with and without the PA filter.
fn nsp_sdp(reports: &[SimReport]) -> String {
    let mut out = header("Section 5.2.1: per-prefetcher analysis (hardware prefetcher alone)");
    let mut t = TextTable::new(vec![
        "config",
        "good/bad",
        "bad reduction",
        "good loss",
        "geomean IPC",
    ]);
    // Each prefetcher's no-filter column is followed by its PA column.
    for pair in columns(reports).chunks(2) {
        let ((base_label, base), (filt_label, filt)) = (&pair[0], &pair[1]);
        let mut gb_ratios = Vec::new();
        let mut bad_red = Vec::new();
        let mut good_loss = Vec::new();
        for (b, f) in base.iter().zip(filt) {
            let (b, f) = (&b.stats, &f.stats);
            if b.bad_total() > 0 {
                gb_ratios.push(b.good_total() as f64 / b.bad_total() as f64);
                bad_red.push(1.0 - f.bad_total() as f64 / b.bad_total() as f64);
            }
            if b.good_total() > 0 {
                good_loss.push(1.0 - f.good_total() as f64 / b.good_total() as f64);
            }
        }
        t.row(vec![
            base_label.to_string(),
            f3(mean(&gb_ratios)),
            "-".to_string(),
            "-".to_string(),
            f3(geomean_ipc(base)),
        ]);
        t.row(vec![
            filt_label.to_string(),
            "-".to_string(),
            pct(mean(&bad_red)),
            pct(mean(&good_loss)),
            f3(geomean_ipc(filt)),
        ]);
    }
    out.push_str(&t.render());
    let _ = writeln!(
        out,
        "(paper: NSP good/bad 1.8, filter kills 97.5% bad / 48.1% good;\n SDP good/bad 11.7, filter kills 68.3% bad / 61.9% good)"
    );
    out
}

/// §5.2.1: is a 1KB history table worth more than more cache?
fn cache_vs_table(reports: &[SimReport]) -> String {
    column_table(
        reports,
        "Section 5.2.1: 1KB history table vs larger cache",
        GEOMEAN,
        each(SimReport::ipc),
    ) + "(paper: 16KB L1 gains ~20%; adding the 1KB table to 8KB is the\n cheaper alternative per byte)\n"
}

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
/// the design actually spends (history/weight tables, from
/// [`PollutionFilter::storage_bits`](ppf_filter::PollutionFilter::storage_bits)).
fn filter_family(reports: &[SimReport]) -> String {
    let mut out = column_table(
        reports,
        "Filter family: fraction_good per workload at one storage budget",
        None,
        each(fraction_good),
    );
    let mut s = TextTable::new(vec![
        "filter",
        "geomean IPC",
        "vs no-filter",
        "mean fraction_good",
        "mean coverage",
        "table bits",
    ]);
    let cols = columns(reports);
    let base_ipc = cols.first().map_or(0.0, |(_, col)| geomean_ipc(col));
    // The grid's columns are `FAMILY_FILTERS` in order.
    for (j, ((label, col), kind)) in cols.iter().zip(FAMILY_FILTERS).enumerate() {
        let g = geomean_ipc(col);
        let filter = SystemConfig::paper_default().with_filter(kind).filter;
        let bits = ppf_filter::PollutionFilter::new(&filter).storage_bits();
        s.row(vec![
            label.to_string(),
            f3(g),
            vs_base(j, g, base_ipc),
            f3(column_mean(col, fraction_good)),
            f3(column_mean(col, coverage)),
            bits.to_string(),
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
/// compares fully hardened (salt + partitions, the last level) against
/// unhardened (the first) across every attacked cell.
fn attack_matrix(reports: &[SimReport]) -> String {
    let mut out = header("Attack matrix: fraction_good per attack and hardening level");
    let mut head = vec!["filter", "attack"];
    head.extend(HARDENINGS.iter().map(|(h, _, _)| *h));
    let mut t = TextTable::new(head);
    let find = |label: String| reports.iter().find(|r| r.label == label);
    let mut unhardened = Vec::new();
    let mut hardened = Vec::new();
    let attacks: Vec<String> = std::iter::once("clean".to_string())
        .chain(AttackKind::ALL.iter().map(|a| a.to_string()))
        .collect();
    for filter in ATTACKED_FILTERS.map(FilterKind::label) {
        for attack in &attacks {
            let mut row = vec![filter.to_string(), attack.clone()];
            let mut cells: Vec<Option<f64>> = Vec::new();
            for (h, _, _) in HARDENINGS {
                let fg = find(format!("{filter}/{h}/{attack}")).map(fraction_good);
                row.push(fg.map(f3).unwrap_or_else(|| "—".to_string()));
                cells.push(fg);
            }
            if attack != "clean" {
                if let [Some(u), .., Some(hd)] = cells[..] {
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
fn ablation_summary(reports: &[SimReport], title: &str) -> String {
    let mut out = header(title);
    let mut t = TextTable::new(vec![
        "config",
        "geomean IPC",
        "vs base",
        "L1 miss%",
        "good pf",
        "bad pf",
        "issued",
    ]);
    let cols = columns(reports);
    let base_ipc = cols.first().map_or(0.0, |(_, col)| geomean_ipc(col));
    for (j, (label, col)) in cols.iter().enumerate() {
        let g = geomean_ipc(col);
        let sum = |count: fn(&SimReport) -> u64| col.iter().map(|r| count(r)).sum::<u64>();
        t.row(vec![
            label.to_string(),
            f3(g),
            vs_base(j, g, base_ipc),
            pct(column_mean(col, |r| r.stats.l1.miss_rate())),
            sum(|r| r.stats.good_total()).to_string(),
            sum(|r| r.stats.bad_total()).to_string(),
            sum(|r| r.stats.prefetches_issued.total()).to_string(),
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

    /// A report of `label` on `workload` at IPC 1 with `good` and `bad`
    /// classified prefetches.
    fn report(label: &str, workload: &str, good: u64, bad: u64) -> SimReport {
        let mut stats = ppf_types::SimStats {
            instructions: 1_000,
            cycles: 1_000,
            ..Default::default()
        };
        stats.prefetch_good.by_source[0] = good;
        stats.prefetch_bad.by_source[0] = bad;
        SimReport {
            label: label.to_string(),
            workload: workload.to_string(),
            seed: 1,
            stats,
        }
    }

    /// The cells of the line of `out` whose first cell is `first`.
    fn row<'a>(out: &'a str, first: &str) -> Vec<&'a str> {
        out.lines()
            .map(|line| line.split_whitespace().collect::<Vec<_>>())
            .find(|cells| cells.first() == Some(&first))
            .unwrap_or_else(|| panic!("no `{first}` row in\n{out}"))
    }

    #[test]
    fn footers_skip_infinite_bad_good_ratios() {
        // gzip has bad prefetches and no good ones on the 4-port machine:
        // its ratio prints as `inf` and stays out of Fig 13's mean row.
        let mut reports = Vec::new();
        for (label, gzip) in [
            ("3-port", (10, 10)),
            ("4-port", (0, 7)),
            ("5-port", (10, 10)),
        ] {
            reports.push(report(label, "em3d", 10, 5));
            reports.push(report(label, "gzip", gzip.0, gzip.1));
        }
        let out = fig13(&reports);
        assert_eq!(row(&out, "gzip"), ["gzip", "1.000", "inf", "1.000"]);
        assert_eq!(row(&out, "mean"), ["mean", "0.750", "0.500", "0.750"]);

        // Fig 5's reduction skips a filter with an infinite ratio (gzip
        // under PA) and a workload with an infinite baseline (mcf).
        let mut reports = Vec::new();
        for (label, cells) in [
            ("no-filter", [(10, 10), (10, 10), (0, 4)]),
            ("PA", [(10, 5), (0, 7), (10, 5)]),
            ("PC", [(10, 5), (8, 2), (10, 5)]),
        ] {
            for (w, (good, bad)) in ["em3d", "gzip", "mcf"].into_iter().zip(cells) {
                reports.push(report(label, w, good, bad));
            }
        }
        let out = fig5_style(&reports, &L1_8KB);
        assert_eq!(row(&out, "mcf"), ["mcf", "inf", "0.500", "0.500"]);
        assert!(
            out.contains("mean ratio reduction: PA 50.0% / PC 62.5%"),
            "{out}"
        );
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
