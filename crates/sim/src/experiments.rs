//! Experiment grids for every table and figure in the paper, plus a
//! parallel sweep runner.
//!
//! Each `figN_*` function returns the grid of [`RunSpec`]s whose reports
//! regenerate that figure's rows; the `figures` binary's experiment
//! registry is built from these definitions, so the paper index in
//! DESIGN.md has a single source of truth. Grid cells are independent pure
//! functions of `(config, workload, seed)`, so [`run_grid`] fans them out
//! across threads with the scheduler in [`crate::schedule`]: workers take
//! cells from one list sorted by predicted cost (longest first), and each
//! cell builds, warms up and runs its own simulator. Output order always
//! matches input order regardless of schedule. Sharing work between
//! identical cells is the job of the cell store in `ppf-bench`, which runs
//! each distinct cell once and serves its repeats.
//!
//! The runner is fault tolerant: each cell executes under
//! [`std::panic::catch_unwind`], a failed cell is retried once to
//! distinguish deterministic from transient failure, and
//! [`run_grid_outcomes`] reports per-cell [`CellOutcome`]s so one bad cell
//! cannot take down a 300-cell sweep. The panicking [`run_grid`] wrapper
//! keeps the original all-green semantics.

use crate::report::SimReport;
use crate::schedule::CostModel;
use crate::simulator::{Simulator, WatchdogConfig};
use ppf_cpu::InstStream;
use ppf_types::telemetry::to_jsonl;
use ppf_types::{
    json_struct, write_atomic, FilterKind, PpfError, PrefetchConfig, SplitMix64, SystemConfig,
};
use ppf_workloads::{AdversarySpec, AdversaryStream, AttackKind, FaultSpec, FaultStream, Workload};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

/// Default per-run instruction budget for full experiments. The paper runs
/// 300M instructions per benchmark; the models reach steady state orders of
/// magnitude sooner, and all reported metrics are rates/ratios.
pub const DEFAULT_INSTRUCTIONS: u64 = 1_000_000;

/// Default warm-up budget: caches, predictors and the filter's history
/// table reach steady state before measurement begins, standing in for the
/// paper's 300M-instruction runs.
pub const DEFAULT_WARMUP: u64 = 600_000;

/// Default stream seed (any fixed value; results are seed-stable).
pub const DEFAULT_SEED: u64 = 42;

/// One grid cell: a fully specified simulation run.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Configuration label for the report ("PA", "no-filter@32KB", ...).
    pub label: String,
    /// Machine configuration.
    pub config: SystemConfig,
    /// Benchmark.
    pub workload: Workload,
    /// Stream seed.
    pub seed: u64,
    /// Instructions to retire (measured, after warm-up).
    pub n_instructions: u64,
    /// Warm-up instructions before statistics reset.
    pub warmup: u64,
    /// Watchdog bounds for this cell (cycle ceiling, stall window).
    pub watchdog: WatchdogConfig,
    /// Fault to inject into the instruction stream (tests and CI fault
    /// drills only; `None` everywhere else).
    pub fault: Option<FaultSpec>,
    /// Adversarial campaign mounted against this cell's workload
    /// (attack-matrix figures, CI attack drills; `None` everywhere else).
    pub adversary: Option<AdversarySpec>,
    /// Interval-telemetry stream for this cell (`None` everywhere except
    /// explicitly instrumented runs — telemetry is off by default).
    pub telemetry: Option<TelemetrySpec>,
}

/// Where a cell's interval-telemetry stream goes: the sampling interval
/// plus a destination *directory*. The filename is derived from the cell's
/// final `(label, workload, seed)` inside [`RunSpec::run_checked`], after
/// seed fan-out has assigned the real seed — a pre-computed path would
/// collide across fanned seeds.
#[derive(Debug, Clone)]
pub struct TelemetrySpec {
    /// Cycles per sampling interval (nonzero).
    pub interval_cycles: u64,
    /// Directory receiving `<label>-<workload>-<seed>.jsonl` streams.
    pub dir: PathBuf,
}

impl RunSpec {
    /// A spec with default seed and instruction budget.
    pub fn new(label: impl Into<String>, config: SystemConfig, workload: Workload) -> Self {
        RunSpec {
            label: label.into(),
            config,
            workload,
            seed: DEFAULT_SEED,
            n_instructions: DEFAULT_INSTRUCTIONS,
            warmup: DEFAULT_WARMUP,
            watchdog: WatchdogConfig::default(),
            fault: None,
            adversary: None,
            telemetry: None,
        }
    }

    /// Override the instruction budget; warm-up scales along (60% of the
    /// measured budget, capped at the default so small test grids stay
    /// fast while full runs get a fully warm L2 and history table).
    pub fn instructions(mut self, n: u64) -> Self {
        self.n_instructions = n;
        self.warmup = (n * 6 / 10).min(DEFAULT_WARMUP);
        self
    }

    /// Inject `fault` into this cell's instruction stream.
    pub fn with_fault(mut self, fault: FaultSpec) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Mount `adversary`'s attack campaign against this cell's workload.
    pub fn with_adversary(mut self, adversary: AdversarySpec) -> Self {
        self.adversary = Some(adversary);
        self
    }

    /// Override the watchdog bounds for this cell.
    pub fn with_watchdog(mut self, watchdog: WatchdogConfig) -> Self {
        self.watchdog = watchdog;
        self
    }

    /// Stream this cell's interval telemetry, sampled every
    /// `interval_cycles` cycles, into `dir` (one JSONL file per cell, named
    /// after the final label/workload/seed).
    pub fn with_telemetry(mut self, interval_cycles: u64, dir: impl Into<PathBuf>) -> Self {
        self.telemetry = Some(TelemetrySpec {
            interval_cycles,
            dir: dir.into(),
        });
        self
    }

    /// Where this cell's telemetry stream lands, if telemetry is attached.
    /// Non-alphanumeric label characters are flattened to `_` so sweep
    /// labels like `no-filter@32KB` stay filesystem-safe.
    pub fn telemetry_path(&self) -> Option<PathBuf> {
        let t = self.telemetry.as_ref()?;
        let safe: String = self
            .label
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        Some(t.dir.join(format!(
            "{safe}-{}-{}.jsonl",
            self.workload.name(),
            self.seed
        )))
    }

    /// This cell's identity, as used in error context frames.
    fn identity(&self) -> String {
        format!(
            "cell {}/{} seed {}",
            self.label,
            self.workload.name(),
            self.seed
        )
    }

    /// This cell's machine, cold: its instruction stream (the workload, or
    /// the workload under its adversary, inside any fault), labelled and
    /// bounded by its watchdog. Warm-up and telemetry are the caller's.
    pub fn build_simulator(&self) -> Result<Simulator, PpfError> {
        // Composition order matters: the fault wrapper sits outermost so a
        // fault drill trips at the same emitted-instruction index whether
        // or not an adversary is also mixed in.
        let stream: Box<dyn InstStream> = match (self.adversary, self.fault) {
            (Some(adv), Some(fault)) => Box::new(FaultStream::new(
                AdversaryStream::new(adv, self.workload, self.seed),
                fault,
            )),
            (Some(adv), None) => Box::new(AdversaryStream::new(adv, self.workload, self.seed)),
            (None, Some(fault)) => {
                Box::new(FaultStream::new(self.workload.stream(self.seed), fault))
            }
            (None, None) => Box::new(self.workload.stream(self.seed)),
        };
        let sim = Simulator::with_seed(self.config.clone(), stream, self.seed)
            .map_err(|e| e.context(self.identity()))?;
        Ok(sim
            .labeled(self.label.clone(), self.workload.name())
            .with_watchdog(self.watchdog))
    }

    /// Execute this cell, surfacing failures (invalid config, watchdog
    /// trip, funnel violation) as structured errors.
    pub fn run_checked(&self) -> Result<SimReport, PpfError> {
        let mut sim = self.build_simulator()?;
        if let Some(t) = &self.telemetry {
            sim = sim
                .with_telemetry(t.interval_cycles)
                .map_err(|e| e.context(self.identity()))?;
        }
        sim.warmup_checked(self.warmup)?;
        let report = sim.run_checked(self.n_instructions)?;
        if let Some(t) = &self.telemetry {
            let path = self.telemetry_path().expect("telemetry is set");
            std::fs::create_dir_all(&t.dir).map_err(|e| {
                PpfError::io(e.to_string())
                    .context(format!("creating telemetry dir {}", t.dir.display()))
                    .context(self.identity())
            })?;
            write_atomic(&path, &to_jsonl(&sim.take_telemetry_records()))
                .map_err(|e| e.context(self.identity()))?;
        }
        Ok(report)
    }

    /// Execute this cell, panicking on failure with the rendered
    /// structured error (see [`RunSpec::run_checked`]).
    pub fn run(&self) -> SimReport {
        self.run_checked().unwrap_or_else(|e| panic!("{e}"))
    }
}

/// One failed grid cell: its identity, the structured error, and how many
/// attempts were made (2 = the retry also failed, so the failure is
/// deterministic in this machine).
#[derive(Debug, Clone, PartialEq)]
pub struct CellFailure {
    /// Configuration label of the failed cell.
    pub label: String,
    /// Workload name of the failed cell.
    pub workload: String,
    /// Stream seed of the failed cell.
    pub seed: u64,
    /// The error from the last attempt.
    pub error: PpfError,
    /// Attempts made (first run + retries).
    pub attempts: u32,
    /// When the cell was under adversarial attack: the attacking tenant,
    /// so partial-failure reports name who was hammering the machine.
    pub attacking_tenant: Option<u8>,
}

json_struct!(CellFailure {
    label,
    workload,
    seed,
    error,
    attempts,
    attacking_tenant,
});

/// The outcome of one panic-isolated grid cell. The report is boxed so a
/// mostly-failed outcome vector stays small (`SimStats` is ~650 bytes).
#[derive(Debug, Clone)]
pub enum CellOutcome {
    /// The cell completed and produced a report.
    Ok(Box<SimReport>),
    /// The cell failed every attempt; the rest of the grid survives.
    Failed(CellFailure),
}

impl CellOutcome {
    /// The report, if the cell succeeded.
    pub fn report(&self) -> Option<&SimReport> {
        match self {
            CellOutcome::Ok(r) => Some(r),
            CellOutcome::Failed(_) => None,
        }
    }

    /// The failure, if the cell failed.
    pub fn failure(&self) -> Option<&CellFailure> {
        match self {
            CellOutcome::Ok(_) => None,
            CellOutcome::Failed(f) => Some(f),
        }
    }

    /// Did the cell succeed?
    pub fn is_ok(&self) -> bool {
        matches!(self, CellOutcome::Ok(_))
    }
}

/// Attempts per cell: the first run plus one retry, to distinguish
/// deterministic failures from transient ones (OOM pressure, signals).
const MAX_ATTEMPTS: u32 = 2;

/// Best-effort text from a `catch_unwind` payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Build the [`CellFailure`] for `spec`'s terminal attempt.
fn cell_failure(spec: &RunSpec, error: PpfError, attempts: u32) -> CellFailure {
    CellFailure {
        label: spec.label.clone(),
        workload: spec.workload.name().to_string(),
        seed: spec.seed,
        error,
        attempts,
        attacking_tenant: spec.adversary.map(|a| a.attack.attacking_tenant()),
    }
}

/// The `s`-th fanned seed derived from `base`.
///
/// `s = 0` is `base` itself, so single-seed grids are bit-identical to
/// [`run_grid`]; later seeds are successive [`SplitMix64`] draws, which are
/// pairwise distinct across any realistic set of base seeds — unlike the
/// old `base + 1_000·s` scheme, which collided whenever two cells' base
/// seeds differed by a small multiple of 1000.
pub fn fanned_seed(base: u64, s: u32) -> u64 {
    let mut rng = SplitMix64::new(base);
    let mut derived = base;
    for _ in 0..s {
        derived = rng.next_u64();
    }
    derived
}

/// The seed-major (cell × seed) product grid: all cells at fanned seed 0,
/// then all at fanned seed 1, … The cell store in `ppf-bench` runs and
/// keys this grid, so every fanned cell is stored under its own key.
pub fn fan_seeds(specs: &[RunSpec], seeds: u32) -> Vec<RunSpec> {
    let mut fanned = Vec::with_capacity(specs.len() * seeds as usize);
    for s in 0..seeds {
        for spec in specs {
            let mut cell = spec.clone();
            cell.seed = fanned_seed(spec.seed, s);
            fanned.push(cell);
        }
    }
    fanned
}

/// Collapse a seed-major fanned outcome vector (`seeds × n` entries, see
/// [`fan_seeds`]) back to one outcome per cell: statistics merge across
/// seeds (sums of counters — derived rates then behave as
/// instruction-weighted averages); a cell with any failed seed is
/// `Failed`, keeping the first seed's failure.
pub fn merge_seed_outcomes(outcomes: Vec<CellOutcome>, n: usize, seeds: u32) -> Vec<CellOutcome> {
    assert_eq!(outcomes.len(), n * seeds as usize);
    let mut merged: Vec<CellOutcome> = outcomes[..n].to_vec();
    for s in 1..seeds as usize {
        for (i, slot) in merged.iter_mut().enumerate() {
            let next = &outcomes[s * n + i];
            match (&mut *slot, next) {
                (CellOutcome::Ok(m), CellOutcome::Ok(r)) => m.stats.merge(&r.stats),
                (CellOutcome::Failed(_), _) => {}
                (CellOutcome::Ok(_), CellOutcome::Failed(f)) => {
                    *slot = CellOutcome::Failed(f.clone());
                }
            }
        }
    }
    merged
}

fn unwrap_outcomes(outcomes: Vec<CellOutcome>) -> Vec<SimReport> {
    outcomes
        .into_iter()
        .map(|o| match o {
            CellOutcome::Ok(r) => *r,
            CellOutcome::Failed(f) => panic!("{}", f.error),
        })
        .collect()
}

/// Run every cell, in parallel, preserving input order in the output.
/// Panics if any cell fails both attempts; [`run_grid_outcomes`] is the
/// fault-tolerant form.
pub fn run_grid(specs: Vec<RunSpec>) -> Vec<SimReport> {
    unwrap_outcomes(run_grid_outcomes(specs))
}

/// Run every cell, in parallel, under panic isolation with bounded retry;
/// preserves input order. One bad cell yields one `Failed` outcome and
/// every other cell still completes.
pub fn run_grid_outcomes(specs: Vec<RunSpec>) -> Vec<CellOutcome> {
    run_grid_outcomes_traced(specs, &CostModel, |_, _| {}).0
}

/// Execution trace of one scheduled run (a grid's cells, or any jobs given
/// to [`crate::schedule::run_scheduled`]): scheduling evidence for tests
/// and per-cell timings.
#[derive(Debug, Default)]
pub struct GridTrace {
    /// Cell indices in the order execution started (retried cells appear
    /// once per attempt).
    pub start_order: Vec<usize>,
    /// Always 0: workers share one job list, so no cell is ever taken from
    /// another worker. Kept so readers of the field still build.
    pub steals: u64,
    /// Retry re-enqueues (retries go to the back of the scheduler, never
    /// inline on the same worker).
    pub retries: u64,
    /// Wall time of each cell's final attempt, in microseconds.
    pub cell_micros: Vec<u64>,
    /// Always 0: every cell runs its own warm-up. Kept so readers of the
    /// field still build.
    pub snapshot_reuses: u64,
}

/// The full-control grid runner: dispatch ordered by `model`'s cost
/// predictions (longest cells start first), panic isolation with scheduler-level retry, and a [`GridTrace`] of what
/// actually happened. `observe(index, &outcome)` runs as each cell finishes,
/// from the worker that ran it — the cell store's streaming-write hook, so
/// completed cells survive a crash mid-sweep. Output order always matches
/// input order regardless of schedule.
pub fn run_grid_outcomes_traced<F>(
    specs: Vec<RunSpec>,
    model: &CostModel,
    observe: F,
) -> (Vec<CellOutcome>, GridTrace)
where
    F: Fn(usize, &CellOutcome) + Sync,
{
    let n = specs.len();
    if n == 0 {
        return (Vec::new(), GridTrace::default());
    }
    let costs: Vec<u64> = specs.iter().map(|spec| model.predict(spec)).collect();
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(n);
    crate::schedule::run_scheduled(n, workers, &costs, |job, attempt| {
        let spec = &specs[job];
        let error = match catch_unwind(AssertUnwindSafe(|| spec.run_checked())) {
            Ok(Ok(report)) => {
                let outcome = CellOutcome::Ok(Box::new(report));
                observe(job, &outcome);
                return crate::schedule::Attempt::Done(outcome);
            }
            Ok(Err(e)) => e,
            Err(payload) => PpfError::cell_panic(panic_message(&*payload)).context(spec.identity()),
        };
        if attempt + 1 < MAX_ATTEMPTS {
            return crate::schedule::Attempt::Retry;
        }
        let outcome = CellOutcome::Failed(cell_failure(spec, error, attempt + 1));
        observe(job, &outcome);
        crate::schedule::Attempt::Done(outcome)
    })
}

fn all_workloads(label: &str, config: SystemConfig, n: u64) -> Vec<RunSpec> {
    Workload::ALL
        .iter()
        .map(|&w| RunSpec::new(label, config.clone(), w).instructions(n))
        .collect()
}

/// Table 2: prefetch-off miss-rate characterization of the ten benchmarks.
pub fn table2(n: u64) -> Vec<RunSpec> {
    let mut cfg = SystemConfig::paper_default();
    cfg.prefetch = PrefetchConfig::disabled();
    all_workloads("prefetch-off", cfg, n)
}

/// `figures calibrate`: Table 2's prefetch-off grid with shadow-tag miss
/// classification enabled, for the per-workload drift report against the
/// paper's measurements.
pub fn calibration(n: u64) -> Vec<RunSpec> {
    let mut cfg = SystemConfig::paper_default().with_miss_classification();
    cfg.prefetch = PrefetchConfig::disabled();
    all_workloads("calibrate", cfg, n)
}

/// The calibration tolerance for L1 miss rates, as `(relative, absolute)`:
/// 25% of the Table 2 target or 1.5 points. The paper's own numbers come
/// from different inputs and 300M-instruction runs.
pub const CALIBRATION_L1_BAND: (f64, f64) = (0.25, 0.015);

/// The calibration tolerance for L2 miss rates, as `(relative, absolute)`:
/// 35% or 3 points, since L2 local rates are noisier (small denominators).
pub const CALIBRATION_L2_BAND: (f64, f64) = (0.35, 0.03);

/// Is `measured` within `band` of its Table 2 `target`: within the
/// relative band *or* within the absolute one? `figures calibrate` marks
/// and counts its rows with this, and `tests/calibration.rs` enforces it.
pub fn within_band(measured: f64, target: f64, (rel, abs): (f64, f64)) -> bool {
    (measured - target).abs() <= target * rel || (measured - target).abs() <= abs
}

/// Figures 1 & 2: good/bad prefetch split and L1 traffic split on the
/// default machine, no filtering.
pub fn fig1_2(n: u64) -> Vec<RunSpec> {
    all_workloads("no-filter", SystemConfig::paper_default(), n)
}

/// The none/PA/PC filter comparison on a given base machine
/// (Figures 4–6 at 8KB, Figures 7–9 at 32KB).
fn filter_comparison(base: SystemConfig, n: u64) -> Vec<RunSpec> {
    let mut grid = Vec::new();
    for (label, kind) in [
        ("no-filter", FilterKind::None),
        ("PA", FilterKind::Pa),
        ("PC", FilterKind::Pc),
    ] {
        grid.extend(all_workloads(label, base.clone().with_filter(kind), n));
    }
    grid
}

/// Figures 4–6: prefetch counts, bad/good ratio, and IPC with the 8KB L1.
pub fn fig4_5_6(n: u64) -> Vec<RunSpec> {
    filter_comparison(SystemConfig::paper_default(), n)
}

/// Figures 7–9: the same comparison with the 32KB (4-cycle) L1.
pub fn fig7_8_9(n: u64) -> Vec<RunSpec> {
    filter_comparison(SystemConfig::paper_default().with_l1_32k(), n)
}

/// History-table sizes swept in §5.3.
pub const TABLE_SIZES: [usize; 5] = [1024, 2048, 4096, 8192, 16384];

/// Figures 10–12: PA-filter history-table size sweep.
pub fn fig10_11_12(n: u64) -> Vec<RunSpec> {
    let mut grid = Vec::new();
    for entries in TABLE_SIZES {
        let cfg = SystemConfig::paper_default()
            .with_filter(FilterKind::Pa)
            .with_table_entries(entries);
        grid.extend(all_workloads(&format!("{entries}-entry"), cfg, n));
    }
    grid
}

/// L1 port counts swept in §5.4.
pub const PORT_COUNTS: [usize; 3] = [3, 4, 5];

/// Figures 13–14: L1 port sweep with the PA filter.
pub fn fig13_14(n: u64) -> Vec<RunSpec> {
    let mut grid = Vec::new();
    for ports in PORT_COUNTS {
        let cfg = SystemConfig::paper_default()
            .with_filter(FilterKind::Pa)
            .with_l1_ports(ports);
        grid.extend(all_workloads(&format!("{ports}-port"), cfg, n));
    }
    grid
}

/// Figures 15–16: PA/PC filters with and without the dedicated 16-entry
/// prefetch buffer.
pub fn fig15_16(n: u64) -> Vec<RunSpec> {
    let mut grid = Vec::new();
    for (label, kind, buffer) in [
        ("PA", FilterKind::Pa, false),
        ("PA+buffer", FilterKind::Pa, true),
        ("PC", FilterKind::Pc, false),
        ("PC+buffer", FilterKind::Pc, true),
    ] {
        let mut cfg = SystemConfig::paper_default().with_filter(kind);
        if buffer {
            cfg = cfg.with_prefetch_buffer();
        }
        grid.extend(all_workloads(label, cfg, n));
    }
    grid
}

/// The filter kinds of the family head-to-head, in grid order: the
/// no-filter baseline first.
pub const FAMILY_FILTERS: [FilterKind; 5] = [
    FilterKind::None,
    FilterKind::Pa,
    FilterKind::Pc,
    FilterKind::Hybrid,
    FilterKind::Perceptron,
];

/// The equal-bit-budget filter family head-to-head (DESIGN.md §15): every
/// filter kind — none, PA, PC, the 2-bit Hybrid tournament, and the hashed
/// perceptron — on the default machine over all ten workloads. Every
/// filtering cell inherits the same `table_entries × counter_bits` storage
/// budget from the paper-default config; the perceptron spends it on
/// signed feature weights instead of unsigned counters, so the comparison
/// isolates the prediction structure, not the silicon area.
pub fn filter_family(n: u64) -> Vec<RunSpec> {
    let mut grid = Vec::new();
    for kind in FAMILY_FILTERS {
        let label = if kind == FilterKind::None {
            "no-filter"
        } else {
            kind.label()
        };
        grid.extend(all_workloads(
            label,
            SystemConfig::paper_default().with_filter(kind),
            n,
        ));
    }
    grid
}

/// §5.2.1's per-prefetcher analysis: NSP-only and SDP-only machines, each
/// without and with the PA filter.
pub fn nsp_sdp_solo(n: u64) -> Vec<RunSpec> {
    let mut grid = Vec::new();
    for (name, nsp, sdp) in [("NSP", true, false), ("SDP", false, true)] {
        for (flabel, kind) in [("no-filter", FilterKind::None), ("PA", FilterKind::Pa)] {
            let mut cfg = SystemConfig::paper_default().with_filter(kind);
            cfg.prefetch.nsp = nsp;
            cfg.prefetch.sdp = sdp;
            cfg.prefetch.software = false;
            grid.extend(all_workloads(&format!("{name}/{flabel}"), cfg, n));
        }
    }
    grid
}

/// §5.2.1's "1KB history table vs more cache" comparison: the default 8KB
/// machine without filter, with the PA filter, and a 16KB no-filter machine.
pub fn cache_vs_table(n: u64) -> Vec<RunSpec> {
    let mut grid = all_workloads("8KB/no-filter", SystemConfig::paper_default(), n);
    grid.extend(all_workloads(
        "8KB+PA-1KB",
        SystemConfig::paper_default().with_filter(FilterKind::Pa),
        n,
    ));
    grid.extend(all_workloads(
        "16KB/no-filter",
        SystemConfig::paper_default().with_l1_16k(),
        n,
    ));
    grid
}

/// The pinned nonzero hash salt used by every hardened configuration (the
/// value is arbitrary; pinning it keeps hardened runs reproducible).
pub const HARDENING_SALT: u64 = 0x5eed_cafe_f00d_d00d;

/// The filter hardening levels compared in the attack matrix:
/// `(label, hash_salt, tenant_partitions)`.
pub const HARDENINGS: [(&str, u64, usize); 4] = [
    ("unhardened", 0, 1),
    ("salted", HARDENING_SALT, 1),
    ("partitioned", 0, 4),
    ("hardened", HARDENING_SALT, 4),
];

/// The filters the attack matrix covers, in grid order.
pub const ATTACKED_FILTERS: [FilterKind; 4] = [
    FilterKind::Pa,
    FilterKind::Pc,
    FilterKind::Hybrid,
    FilterKind::Perceptron,
];

/// The adversarial attack-vs-hardening matrix (DESIGN.md §12): every
/// [`AttackKind`] × hardening level × {PA, PC, Hybrid, Perceptron} on
/// em3d, plus one clean (attack-free) cell per configuration as the
/// recovery baseline. Attack windows scale with the budget: the campaign
/// opens after an eighth of the measured run and closes at the midpoint,
/// leaving half the run to observe recovery.
pub fn attack_matrix(n: u64) -> Vec<RunSpec> {
    let mut grid = Vec::new();
    for kind in ATTACKED_FILTERS {
        for (hardening, salt, partitions) in HARDENINGS {
            let cfg = SystemConfig::paper_default()
                .with_filter(kind)
                .with_hash_salt(salt)
                .with_tenant_partitions(partitions);
            let base = format!("{}/{hardening}", kind.label());
            grid.push(
                RunSpec::new(format!("{base}/clean"), cfg.clone(), Workload::Em3d).instructions(n),
            );
            for attack in AttackKind::ALL {
                let spec = RunSpec::new(format!("{base}/{attack}"), cfg.clone(), Workload::Em3d)
                    .instructions(n);
                let window =
                    AdversarySpec::window(attack, spec.warmup + n / 8, spec.warmup + n / 2);
                grid.push(spec.with_adversary(window));
            }
        }
    }
    grid
}

/// Ablation grids (extensions beyond the paper; DESIGN.md §7). Each
/// returns labelled cells over all ten workloads; the first label is the
/// baseline the summary compares against.
pub mod ablations {
    use super::*;

    /// Saturating-counter width: 1/2/3 bits (paper: 2), PA filter.
    pub fn counter_width(n: u64) -> Vec<RunSpec> {
        let mut grid = Vec::new();
        for bits in [2u8, 1, 3] {
            let mut cfg = SystemConfig::paper_default().with_filter(FilterKind::Pa);
            cfg.filter.counter_bits = bits;
            grid.extend(all_workloads(&format!("{bits}-bit"), cfg, n));
        }
        grid
    }

    /// Shared history table (paper) vs one table per prefetch source at
    /// the same total budget.
    pub fn split_tables(n: u64) -> Vec<RunSpec> {
        let mut grid = Vec::new();
        for (label, split) in [("shared", false), ("split", true)] {
            for kind in [FilterKind::Pa, FilterKind::Pc] {
                let mut cfg = SystemConfig::paper_default().with_filter(kind);
                cfg.filter.split_by_source = split;
                grid.extend(all_workloads(&format!("{}/{label}", kind.label()), cfg, n));
            }
        }
        grid
    }

    /// Misprediction recovery on (default) vs off (the strict, absorbing
    /// reading of the paper).
    pub fn recovery(n: u64) -> Vec<RunSpec> {
        let mut grid = Vec::new();
        for (label, window) in [("recovery", 400u64), ("strict", 0)] {
            let mut cfg = SystemConfig::paper_default().with_filter(FilterKind::Pa);
            cfg.filter.recovery_window = window;
            grid.extend(all_workloads(label, cfg, n));
        }
        grid
    }

    /// Adaptive engagement (§5.2.1 "advanced features") vs always-on.
    pub fn adaptive(n: u64) -> Vec<RunSpec> {
        let mut grid = all_workloads(
            "always-on",
            SystemConfig::paper_default().with_filter(FilterKind::Pa),
            n,
        );
        let mut cfg = SystemConfig::paper_default().with_filter(FilterKind::Pa);
        cfg.filter.adaptive_accuracy_threshold = Some(0.5);
        grid.extend(all_workloads("adaptive@0.5", cfg, n));
        grid
    }

    /// L1 associativity: the paper's direct-mapped L1 vs 2- and 4-way at
    /// the same capacity (no filter — isolates the conflict-miss effect).
    pub fn associativity(n: u64) -> Vec<RunSpec> {
        let mut grid = Vec::new();
        for ways in [1usize, 2, 4] {
            let mut cfg = SystemConfig::paper_default();
            cfg.l1.ways = ways;
            grid.extend(all_workloads(&format!("{ways}-way"), cfg, n));
        }
        grid
    }

    /// A small victim cache as the alternative conflict-miss fix, compared
    /// with the pollution filter (and their combination).
    pub fn victim_cache(n: u64) -> Vec<RunSpec> {
        let mut grid = all_workloads("baseline", SystemConfig::paper_default(), n);
        grid.extend(all_workloads(
            "victim8",
            SystemConfig::paper_default().with_victim_cache(8),
            n,
        ));
        grid.extend(all_workloads(
            "PA",
            SystemConfig::paper_default().with_filter(FilterKind::Pa),
            n,
        ));
        grid.extend(all_workloads(
            "PA+victim8",
            SystemConfig::paper_default()
                .with_filter(FilterKind::Pa)
                .with_victim_cache(8),
            n,
        ));
        grid
    }

    /// Indexing scheme: the paper's PA and PC filters vs the tournament
    /// hybrid extension (same total counter budget).
    pub fn hybrid(n: u64) -> Vec<RunSpec> {
        let mut grid = Vec::new();
        for kind in [FilterKind::Pa, FilterKind::Pc, FilterKind::Hybrid] {
            grid.extend(all_workloads(
                kind.label(),
                SystemConfig::paper_default().with_filter(kind),
                n,
            ));
        }
        grid
    }

    /// Counter initialization (§5.3's "assumed good" choice) vs the
    /// alternatives.
    pub fn counter_init(n: u64) -> Vec<RunSpec> {
        use ppf_types::CounterInit;
        let mut grid = Vec::new();
        for (label, init) in [
            ("weakly-good", CounterInit::WeaklyGood),
            ("strongly-good", CounterInit::StronglyGood),
            ("weakly-bad", CounterInit::WeaklyBad),
        ] {
            let mut cfg = SystemConfig::paper_default().with_filter(FilterKind::Pa);
            cfg.filter.counter_init = init;
            grid.extend(all_workloads(label, cfg, n));
        }
        grid
    }

    /// NSP aggressiveness: degree 1 (paper), 4 and 8, each with no
    /// filter, the PA filter, and the PA filter plus the §5.5 prefetch
    /// buffer — how the filter's and the buffer's effects move as
    /// prefetch traffic grows toward the paper's regime.
    pub fn nsp_degree(n: u64) -> Vec<RunSpec> {
        let mut grid = Vec::new();
        for degree in [1u32, 4, 8] {
            let mut base = SystemConfig::paper_default();
            base.prefetch.nsp_degree = degree;
            let pa = base.clone().with_filter(FilterKind::Pa);
            for (label, cfg) in [
                ("no-filter", base),
                ("PA", pa.clone()),
                ("PA+buffer", pa.with_prefetch_buffer()),
            ] {
                grid.extend(all_workloads(&format!("degree-{degree}/{label}"), cfg, n));
            }
        }
        grid
    }

    /// DRAM banking: the paper's unlimited-concurrency memory vs 4 and 8
    /// line-interleaved banks.
    pub fn dram_banks(n: u64) -> Vec<RunSpec> {
        let mut grid = all_workloads("unbanked", SystemConfig::paper_default(), n);
        for banks in [4usize, 8] {
            let mut cfg = SystemConfig::paper_default();
            cfg.mem.banks = banks;
            grid.extend(all_workloads(&format!("{banks}-bank"), cfg, n));
        }
        grid
    }

    /// Prefetcher mix: the paper's NSP+SDP+SW vs adding the stride RPT and
    /// the Markov correlation prefetcher.
    pub fn prefetcher_mix(n: u64) -> Vec<RunSpec> {
        let mut grid = all_workloads("paper-mix", SystemConfig::paper_default(), n);
        let mut stride = SystemConfig::paper_default();
        stride.prefetch.stride = true;
        grid.extend(all_workloads("+stride", stride, n));
        let mut corr = SystemConfig::paper_default();
        corr.prefetch.correlation = true;
        grid.extend(all_workloads("+correlation", corr, n));
        grid
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: u64 = 5_000; // tiny budget: these tests exercise plumbing

    #[test]
    fn grids_have_expected_shapes() {
        assert_eq!(table2(N).len(), 10);
        assert_eq!(calibration(N).len(), 10);
        assert_eq!(fig1_2(N).len(), 10);
        assert_eq!(fig4_5_6(N).len(), 30);
        assert_eq!(fig7_8_9(N).len(), 30);
        assert_eq!(fig10_11_12(N).len(), 50);
        assert_eq!(fig13_14(N).len(), 30);
        assert_eq!(fig15_16(N).len(), 40);
        assert_eq!(nsp_sdp_solo(N).len(), 40);
        assert_eq!(cache_vs_table(N).len(), 30);
        assert_eq!(filter_family(N).len(), 50);
    }

    #[test]
    fn filter_family_covers_every_kind_at_one_budget() {
        let grid = filter_family(N);
        let entries = SystemConfig::paper_default().filter.table_entries;
        for spec in &grid {
            spec.config.validate().expect("filter-family config valid");
            assert_eq!(spec.config.filter.table_entries, entries);
        }
        let perceptron = grid
            .iter()
            .filter(|s| s.config.filter.kind == FilterKind::Perceptron)
            .count();
        assert_eq!(perceptron, 10, "one perceptron cell per workload");
    }

    #[test]
    fn ablation_grids_validate_and_have_shape() {
        for (grid, cells) in [
            (ablations::counter_width(N), 30),
            (ablations::counter_init(N), 30),
            (ablations::split_tables(N), 40),
            (ablations::recovery(N), 20),
            (ablations::adaptive(N), 20),
            (ablations::associativity(N), 30),
            (ablations::victim_cache(N), 40),
            (ablations::nsp_degree(N), 90),
            (ablations::dram_banks(N), 30),
            (ablations::hybrid(N), 30),
            (ablations::prefetcher_mix(N), 30),
        ] {
            assert_eq!(grid.len(), cells);
            for spec in &grid {
                spec.config.validate().expect("ablation config valid");
            }
        }
    }

    #[test]
    fn grid_configs_validate() {
        for spec in fig4_5_6(N)
            .into_iter()
            .chain(fig7_8_9(N))
            .chain(fig10_11_12(N))
            .chain(fig13_14(N))
            .chain(fig15_16(N))
        {
            spec.config.validate().expect("grid config valid");
        }
    }

    #[test]
    fn run_grid_preserves_order_and_labels() {
        let specs: Vec<RunSpec> = fig1_2(N).into_iter().take(4).collect();
        let expected: Vec<(String, String)> = specs
            .iter()
            .map(|s| (s.label.clone(), s.workload.name().to_string()))
            .collect();
        let reports = run_grid(specs);
        let got: Vec<(String, String)> = reports
            .iter()
            .map(|r| (r.label.clone(), r.workload.clone()))
            .collect();
        assert_eq!(got, expected);
        assert!(reports.iter().all(|r| r.stats.instructions >= N));
    }

    #[test]
    fn run_checked_streams_telemetry_to_dir() {
        let dir = std::env::temp_dir().join("ppf-experiments-telemetry-test");
        std::fs::remove_dir_all(&dir).ok();
        let spec = RunSpec::new(
            "PA@4KB",
            SystemConfig::paper_default().with_filter(FilterKind::Pa),
            Workload::Em3d,
        )
        .instructions(N)
        .with_telemetry(1_000, &dir);
        let path = spec.telemetry_path().expect("telemetry attached");
        assert!(
            path.file_name()
                .unwrap()
                .to_str()
                .unwrap()
                .starts_with("PA_4KB-em3d-"),
            "label is sanitized: {path:?}"
        );
        let report = spec.run_checked().expect("cell runs");
        let text = std::fs::read_to_string(&path).expect("stream written");
        let records = ppf_types::telemetry::parse_jsonl(&text).expect("stream parses");
        assert!(!records.is_empty());
        assert!(records.iter().map(|r| r.instructions).sum::<u64>() <= report.stats.instructions);
        // Telemetry must not perturb the simulation itself.
        let mut plain = spec.clone();
        plain.telemetry = None;
        assert_eq!(plain.run_checked().unwrap().stats, report.stats);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_grid_matches_sequential() {
        let specs: Vec<RunSpec> = fig1_2(N).into_iter().take(3).collect();
        let seq: Vec<SimReport> = specs.iter().map(RunSpec::run).collect();
        let par = run_grid(specs);
        for (a, b) in seq.iter().zip(par.iter()) {
            assert_eq!(a.stats, b.stats, "parallelism must not change results");
        }
    }

    #[test]
    fn empty_grid() {
        assert!(run_grid(Vec::new()).is_empty());
    }

    #[test]
    fn seed_averaging_merges_counters() {
        let specs: Vec<RunSpec> = fig1_2(N).into_iter().take(2).collect();
        let single = run_grid(specs.clone());
        let fanned = run_grid_outcomes(fan_seeds(&specs, 3));
        let averaged = unwrap_outcomes(merge_seed_outcomes(fanned, specs.len(), 3));
        assert_eq!(averaged.len(), single.len());
        for (a, s) in averaged.iter().zip(single.iter()) {
            assert_eq!(a.label, s.label);
            // Each of the 3 seed runs retires at least N instructions
            // (retirement overshoot varies per seed, so compare to N).
            assert!(a.stats.instructions >= 3 * N);
            // Rates stay in the same ballpark across seeds.
            assert!((a.stats.l1.miss_rate() - s.stats.l1.miss_rate()).abs() < 0.05);
        }
    }

    #[test]
    fn traced_grid_reports_in_input_order_with_timings() {
        let specs: Vec<RunSpec> = fig1_2(N).into_iter().take(4).collect();
        let expected: Vec<String> = specs
            .iter()
            .map(|s| format!("{}/{}", s.label, s.workload.name()))
            .collect();
        let (outcomes, trace) = run_grid_outcomes_traced(specs, &CostModel, |_, _| {});
        let got: Vec<String> = outcomes
            .iter()
            .map(|o| {
                let r = o.report().expect("all cells pass");
                format!("{}/{}", r.label, r.workload)
            })
            .collect();
        assert_eq!(got, expected, "output order is input order");
        assert_eq!(trace.start_order.len(), 4);
        assert_eq!(trace.cell_micros.len(), 4);
        assert!(trace.cell_micros.iter().all(|&m| m > 0));
        assert_eq!(trace.retries, 0);
    }

    #[test]
    fn cost_model_orders_traced_dispatch() {
        // We can't pin workers, so use the property the scheduler trace
        // exposes: predictions drive the cost-descending deal. Cell 0 gets
        // the cheapest config (no prefetch, no filter) and each later cell
        // adds a feature the cost model weighs, so cell 3 is predicted
        // costliest; it must start no later than cell 0.
        let mut config = SystemConfig::paper_default();
        config.prefetch = PrefetchConfig {
            nsp: false,
            sdp: false,
            stride: false,
            correlation: false,
            software: false,
            ..config.prefetch
        };
        config.filter.kind = FilterKind::None;
        let mut configs = vec![config.clone()];
        config.prefetch.nsp = true;
        configs.push(config.clone());
        config.filter.kind = FilterKind::Pa;
        configs.push(config.clone());
        config.diag.classify_misses = true;
        configs.push(config);
        let specs: Vec<RunSpec> = configs
            .into_iter()
            .map(|c| RunSpec::new("w", c, Workload::Mcf).instructions(N))
            .collect();
        let costs: Vec<u64> = specs.iter().map(|s| CostModel.predict(s)).collect();
        assert!(costs.windows(2).all(|w| w[0] < w[1]), "{costs:?}");
        let (_, trace) = run_grid_outcomes_traced(specs, &CostModel, |_, _| {});
        let pos = |cell: usize| {
            trace
                .start_order
                .iter()
                .position(|&c| c == cell)
                .expect("cell started")
        };
        assert!(
            pos(3) <= pos(0),
            "costliest cell must not start after the cheapest (order {:?})",
            trace.start_order
        );
    }
}
