//! `bench throughput` — simulator throughput measurement per model layer.
//!
//! Runs a fixed, pinned-seed workload mix through four cumulative model
//! layers — `core` (near-perfect L1, no prefetch), `+mem` (the paper's
//! hierarchy, prefetch off), `+prefetch` (NSP+SDP mix, no filter) and
//! `+filter` (PA pollution filter) — and reports instructions/sec and
//! cycles/sec for each. The per-layer split is the profile: the cost of a
//! subsystem is the MIPS drop between adjacent layers.
//!
//! Results serialize as a [`BenchReport`] in a stable JSON schema
//! (`BENCH_<rev>.json`), so the repo accumulates a perf trajectory, and
//! [`compare`] diffs two reports for the CI regression gate. Instruction
//! and cycle counters are cycle-exact deterministic; only the wall-clock
//! derived fields (`wall_ms`, `mips`, `mcps`) vary between runs.

use ppf_sim::experiments::{RunSpec, DEFAULT_INSTRUCTIONS, DEFAULT_SEED};
use ppf_sim::report::TextTable;
use ppf_types::{
    json_struct, write_atomic, FilterKind, PpfError, PrefetchConfig, SystemConfig, ToJson,
};
use ppf_workloads::Workload;
use std::time::Instant;

/// Version of the `BENCH_*.json` schema. Bump on any field change so a
/// reader can reject files it does not understand.
pub const SCHEMA_VERSION: u64 = 2;

/// The model layers, innermost first. Each adds one subsystem on top of
/// the previous, so adjacent MIPS deltas attribute simulation cost.
pub const LAYERS: [&str; 4] = ["core", "+mem", "+prefetch", "+filter"];

/// Default CI regression threshold: fail when any layer's MIPS drops by
/// more than this percentage against the committed baseline.
pub const DEFAULT_MAX_REGRESS_PCT: f64 = 15.0;

/// The machine configuration for one layer.
///
/// `core` approximates a perfect memory system with a 4MB L1 (the mix's
/// working sets fit, so nearly every access hits in one cycle); the other
/// layers are the paper's Table 1 machine with prefetch/filter toggled.
pub fn layer_config(layer: &str) -> SystemConfig {
    let base = SystemConfig::paper_default();
    match layer {
        "core" => {
            let mut c = base;
            c.prefetch = PrefetchConfig::disabled();
            c.l1.size_bytes = 4 * 1024 * 1024;
            c.l1i.size_bytes = 1024 * 1024;
            c
        }
        "+mem" => {
            let mut c = base;
            c.prefetch = PrefetchConfig::disabled();
            c
        }
        "+prefetch" => base,
        "+filter" => base.with_filter(FilterKind::Pa),
        other => panic!("unknown bench layer '{other}'"),
    }
}

/// What to run: workload mix, per-cell instruction budget, stream seed.
#[derive(Debug, Clone)]
pub struct BenchSettings {
    /// True for the reduced CI mix (`--quick`).
    pub quick: bool,
    /// Pinned stream seed (all cells use the same one).
    pub seed: u64,
    /// Measured instructions per (layer, workload) cell. Warm-up is zero:
    /// throughput measures simulator speed, not steady-state CPI, and a
    /// zero warm-up makes executed == measured so MIPS is exact.
    pub insts_per_cell: u64,
    /// Timed passes per layer; the fastest wall time is reported. The
    /// simulated work is deterministic, so extra passes only reject host
    /// scheduling noise — essential for the sub-second `--quick` mix,
    /// where one preempted slice otherwise halves the reported MIPS.
    pub trials: u32,
    /// The workload mix.
    pub workloads: Vec<Workload>,
}

impl BenchSettings {
    /// The full mix: every suite workload, 1M instructions each.
    pub fn full() -> Self {
        BenchSettings {
            quick: false,
            seed: DEFAULT_SEED,
            insts_per_cell: DEFAULT_INSTRUCTIONS,
            trials: 3,
            workloads: Workload::ALL.to_vec(),
        }
    }

    /// The CI smoke mix: three workloads with distinct access characters
    /// (pointer-chasing, streaming, mixed), 150k instructions each —
    /// seconds, not minutes, while still exercising every layer.
    pub fn quick() -> Self {
        let mut s = BenchSettings::full();
        s.quick = true;
        s.insts_per_cell = 150_000;
        s.workloads.truncate(3);
        s
    }
}

/// One layer's measurement. `instructions`/`cycles` are deterministic;
/// the wall-clock fields are not.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerStat {
    /// Layer name (one of [`LAYERS`]).
    pub name: String,
    /// Instructions retired across the mix (deterministic).
    pub instructions: u64,
    /// Core cycles elapsed across the mix (deterministic).
    pub cycles: u64,
    /// Wall-clock milliseconds for the whole mix.
    pub wall_ms: f64,
    /// Millions of simulated instructions per wall second.
    pub mips: f64,
    /// Millions of simulated cycles per wall second.
    pub mcps: f64,
}

json_struct!(LayerStat {
    name,
    instructions,
    cycles,
    wall_ms,
    mips,
    mcps,
});

/// A full throughput measurement: the `BENCH_*.json` schema.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// [`SCHEMA_VERSION`] at write time.
    pub schema_version: u64,
    /// Git revision the measurement was taken at ("unknown" outside git).
    pub rev: String,
    /// True if this was a `--quick` run (mixes are not comparable across
    /// this flag; [`compare`] warns on a mismatch).
    pub quick: bool,
    /// Pinned stream seed.
    pub seed: u64,
    /// Measured instructions per (layer, workload) cell.
    pub insts_per_cell: u64,
    /// Timed passes per layer (fastest kept).
    pub trials: u32,
    /// Workload names in the mix, in run order.
    pub workloads: Vec<String>,
    /// Per-layer measurements, in [`LAYERS`] order.
    pub layers: Vec<LayerStat>,
    /// Aggregate MIPS: total instructions over total wall time.
    pub total_mips: f64,
}

json_struct!(BenchReport {
    schema_version,
    rev,
    quick,
    seed,
    insts_per_cell,
    trials,
    workloads,
    layers,
    total_mips,
});

/// The short git revision of HEAD, or "unknown" outside a git checkout.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Run the benchmark: every layer over the mix, timed per layer.
pub fn run(settings: &BenchSettings) -> Result<BenchReport, PpfError> {
    let mut layers = Vec::with_capacity(LAYERS.len());
    let mut total_insts = 0u64;
    let mut total_secs = 0f64;
    for layer in LAYERS {
        let config = layer_config(layer);
        let mut instructions = 0u64;
        let mut cycles = 0u64;
        let mut secs = f64::MAX;
        // Each pass simulates the identical deterministic mix; the fastest
        // pass is the measurement least distorted by host preemption.
        for _ in 0..settings.trials.max(1) {
            instructions = 0;
            cycles = 0;
            let start = Instant::now();
            for &w in &settings.workloads {
                let mut spec = RunSpec::new(format!("bench-{layer}"), config.clone(), w)
                    .instructions(settings.insts_per_cell);
                spec.seed = settings.seed;
                spec.warmup = 0;
                let report = spec.run_checked()?;
                instructions += report.stats.instructions;
                cycles += report.stats.cycles;
            }
            secs = secs.min(start.elapsed().as_secs_f64().max(1e-9));
        }
        total_insts += instructions;
        total_secs += secs;
        layers.push(LayerStat {
            name: layer.to_string(),
            instructions,
            cycles,
            wall_ms: secs * 1e3,
            mips: instructions as f64 / secs / 1e6,
            mcps: cycles as f64 / secs / 1e6,
        });
    }
    Ok(BenchReport {
        schema_version: SCHEMA_VERSION,
        rev: git_rev(),
        quick: settings.quick,
        seed: settings.seed,
        insts_per_cell: settings.insts_per_cell,
        trials: settings.trials.max(1),
        workloads: settings.workloads.iter().map(|w| w.name().into()).collect(),
        layers,
        total_mips: total_insts as f64 / total_secs.max(1e-9) / 1e6,
    })
}

/// Render a report as an aligned human table.
pub fn render(report: &BenchReport) -> String {
    let mut t = TextTable::new(vec![
        "layer", "insts", "cycles", "wall_ms", "MIPS", "Mcyc/s",
    ]);
    for l in &report.layers {
        t.row(vec![
            l.name.clone(),
            l.instructions.to_string(),
            l.cycles.to_string(),
            format!("{:.1}", l.wall_ms),
            format!("{:.3}", l.mips),
            format!("{:.3}", l.mcps),
        ]);
    }
    format!(
        "throughput @ {} ({} mix, seed {}, {} insts/cell)\n{}total: {:.3} MIPS",
        report.rev,
        if report.quick { "quick" } else { "full" },
        report.seed,
        report.insts_per_cell,
        t.render(),
        report.total_mips,
    )
}

/// One row of a baseline comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerDelta {
    /// Layer name ("total" for the aggregate row).
    pub name: String,
    /// Baseline MIPS.
    pub base_mips: f64,
    /// Current MIPS.
    pub new_mips: f64,
    /// Relative change in percent; negative is a regression.
    pub delta_pct: f64,
}

/// The result of diffing a measurement against a baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Per-layer rows (layers present in both reports), plus "total".
    pub rows: Vec<LayerDelta>,
    /// The most negative `delta_pct` across all rows (0 if none negative).
    pub worst_pct: f64,
    /// Non-fatal comparability warnings (quick-flag or mix mismatches).
    pub warnings: Vec<String>,
}

impl Comparison {
    /// True when the worst regression exceeds `max_pct` percent.
    pub fn regression_exceeds(&self, max_pct: f64) -> bool {
        self.worst_pct < -max_pct
    }
}

fn delta_row(name: &str, base: f64, new: f64) -> LayerDelta {
    LayerDelta {
        name: name.to_string(),
        base_mips: base,
        new_mips: new,
        delta_pct: if base > 0.0 {
            (new - base) / base * 100.0
        } else {
            0.0
        },
    }
}

/// Diff `new` against `base`, matching layers by name.
pub fn compare(base: &BenchReport, new: &BenchReport) -> Comparison {
    let mut warnings = Vec::new();
    if base.quick != new.quick {
        warnings.push(format!(
            "baseline is a {} run but this is a {} run; MIPS are not directly comparable",
            if base.quick { "quick" } else { "full" },
            if new.quick { "quick" } else { "full" },
        ));
    }
    if base.workloads != new.workloads || base.insts_per_cell != new.insts_per_cell {
        warnings
            .push("baseline mix differs (workloads or insts/cell); refresh the baseline".into());
    }
    let mut rows = Vec::new();
    for l in &new.layers {
        if let Some(b) = base.layers.iter().find(|b| b.name == l.name) {
            rows.push(delta_row(&l.name, b.mips, l.mips));
        }
    }
    rows.push(delta_row("total", base.total_mips, new.total_mips));
    let worst_pct = rows.iter().map(|r| r.delta_pct).fold(0.0, f64::min);
    Comparison {
        rows,
        worst_pct,
        warnings,
    }
}

/// Render a comparison as an aligned delta table.
pub fn render_comparison(cmp: &Comparison) -> String {
    let mut t = TextTable::new(vec!["layer", "base MIPS", "new MIPS", "delta"]);
    for r in &cmp.rows {
        t.row(vec![
            r.name.clone(),
            format!("{:.3}", r.base_mips),
            format!("{:.3}", r.new_mips),
            format!("{:+.1}%", r.delta_pct),
        ]);
    }
    let mut out = t.render();
    for w in &cmp.warnings {
        out.push_str(&format!("warning: {w}\n"));
    }
    out
}

/// Load a `BENCH_*.json` file.
pub fn load_report(path: &std::path::Path) -> Result<BenchReport, PpfError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| PpfError::io(e.to_string()).context(format!("reading {}", path.display())))?;
    ppf_types::FromJson::from_json_str(&text)
        .map_err(|e| PpfError::io(e).context(format!("parsing {}", path.display())))
}

/// Write a report as pretty JSON, atomically.
pub fn store_report(path: &std::path::Path, report: &BenchReport) -> Result<(), PpfError> {
    write_atomic(path, &report.to_json_pretty())
}
