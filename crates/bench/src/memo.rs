//! The cell store: serve finished cells, run each distinct remaining cell
//! once, store each result as it finishes, then merge seeds.
//!
//! The 33 experiments of `figures all` (32 of them with a grid) share grids
//! heavily: fig1/fig2 render one grid two ways, fig4–6, fig7–9, fig10–12,
//! fig13/14 and fig15/16 each share a sweep, and most ablations re-run the
//! paper's no-filter/PA baseline cells verbatim, so of the 1100 cells
//! `figures all` asks for only 526 are distinct. A cell is a pure function
//! of its [`RunSpec`] (the determinism suite asserts exactly this), so a
//! spec identical to one already completed can reuse the finished
//! [`SimReport`] instead of re-simulating — same bytes out.
//!
//! [`CellStore::run`] is the one routine, over two backends: the
//! process-wide in-memory memo and a checkpoint directory
//! ([`crate::checkpoint`]). Both key a cell by [`memo_key`], and both follow
//! one bypass rule: fault-injected and telemetry cells always execute and
//! are never stored. Failures are never stored either — a re-run is the
//! retry the operator asked for.

use crate::checkpoint;
use ppf_sim::experiments::{
    fan_seeds, merge_seed_outcomes, run_grid_outcomes_traced, CellOutcome, RunSpec,
};
use ppf_sim::schedule::{fnv1a, lock, FNV_OFFSET};
use ppf_sim::{CostModel, SimReport};
use ppf_types::{PpfError, ToJson};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::path::Path;
use std::sync::{Mutex, OnceLock, PoisonError};

/// The process-wide memo table.
fn memo() -> &'static Mutex<HashMap<String, SimReport>> {
    static MEMO: OnceLock<Mutex<HashMap<String, SimReport>>> = OnceLock::new();
    MEMO.get_or_init(|| Mutex::new(HashMap::new()))
}

/// The bypass rule shared by both backends. Fault injection and telemetry
/// streaming are outside a cell's key (neither changes the report's bytes,
/// but a faulted cell must always execute and a telemetry cell must always
/// write its side-channel stream), so such cells never touch the store.
fn always_executes(spec: &RunSpec) -> bool {
    spec.fault.is_some() || spec.telemetry.is_some()
}

/// The store key of a cell, or `None` when the cell always executes (see
/// the bypass rule above): FNV-1a over the watchdog bounds, which decide
/// whether a cell errors, and everything of the spec that reaches the
/// machine (config JSON, workload, seed, instruction budgets, adversary),
/// as 16 hex digits. Each part ends in a NUL separator so ("ab","c") and
/// ("a","bc") cannot collide. The hex digits also name the cell's
/// checkpoint file, and `figures --shard` partitions cells by them.
///
/// The key is *label-independent*: the label is presentation (copied
/// verbatim into the report and never fed back into the machine), so
/// "no-filter" in one experiment and "none" in another share one entry
/// when every machine-visible field matches — `figures all` re-runs the
/// paper baseline under many names. A served cell gets the caller's label.
pub fn memo_key(spec: &RunSpec) -> Option<String> {
    if always_executes(spec) {
        return None;
    }
    // Attack-free cells hash an empty adversary part.
    let adversary = spec.adversary.map(|a| a.describe()).unwrap_or_default();
    let parts = [
        &spec.watchdog.max_cpi.to_string(),
        &spec.watchdog.stall_window.to_string(),
        &spec.config.to_json_string(),
        spec.workload.name(),
        &spec.seed.to_string(),
        &spec.n_instructions.to_string(),
        &spec.warmup.to_string(),
        &adversary,
    ];
    let mut h = FNV_OFFSET;
    for part in parts {
        h = fnv1a(h, part.as_bytes());
        h = fnv1a(h, &[0]);
    }
    Some(format!("{h:016x}"))
}

/// Where a sweep's finished cells are kept. Both backends key cells by
/// [`memo_key`].
#[derive(Debug, Clone, Copy)]
pub enum CellStore<'a> {
    /// The process-wide in-memory memo.
    Memo,
    /// A checkpoint directory holding one `<key>.json` per stored cell.
    Dir(&'a Path),
}

/// The result of one grid execution through a [`CellStore`].
#[derive(Debug)]
pub struct StoredRun {
    /// Per-cell outcomes, in input order, merged across seeds.
    pub outcomes: Vec<CellOutcome>,
    /// (cell × seed) runs not executed this call: served from the store,
    /// or copied from an identical run earlier in the same call.
    pub hits: usize,
    /// (cell × seed) runs actually executed this call; `hits + executed`
    /// is always cells × seeds.
    pub executed: usize,
    /// Checkpoint files that existed but could not be read or parsed,
    /// each naming its path (counted as missing and re-run).
    pub corrupt: Vec<PpfError>,
    /// Non-fatal failures writing checkpoint files (the sweep's results
    /// are still returned; only their persistence failed).
    pub write_errors: Vec<PpfError>,
}

impl CellStore<'_> {
    /// The stored report for `key`: `Ok(None)` when there is none, `Err`
    /// when a checkpoint file exists but is unreadable.
    fn load(self, key: &str) -> Result<Option<SimReport>, PpfError> {
        match self {
            CellStore::Memo => Ok(lock(memo()).get(key).cloned()),
            CellStore::Dir(dir) => checkpoint::load(dir, key),
        }
    }

    fn save(self, key: &str, report: &SimReport) -> Result<(), PpfError> {
        match self {
            CellStore::Memo => {
                lock(memo()).insert(key.to_string(), report.clone());
                Ok(())
            }
            CellStore::Dir(dir) => checkpoint::save(dir, key, report),
        }
    }

    /// Run every cell of `specs` under `seeds` fanned seeds: serve each
    /// stored (cell × seed) run, execute each distinct remaining key once
    /// in one grid call (storing each result from the worker as it
    /// finishes, so a crash mid-sweep loses at most the cells in flight),
    /// give every repeat of a key its first run's outcome under its own
    /// label, and merge the seeds per input cell. Only creating the
    /// checkpoint directory fails hard; unreadable entries are re-run and
    /// reported in [`StoredRun::corrupt`], and unwritable ones in
    /// [`StoredRun::write_errors`].
    pub fn run(self, specs: Vec<RunSpec>, seeds: u32) -> Result<StoredRun, PpfError> {
        assert!(seeds >= 1);
        if let CellStore::Dir(dir) = self {
            std::fs::create_dir_all(dir).map_err(|e| {
                PpfError::io(e.to_string())
                    .context(format!("creating checkpoint dir {}", dir.display()))
            })?;
        }
        let fanned = fan_seeds(&specs, seeds);
        let keys: Vec<Option<String>> = fanned.iter().map(memo_key).collect();
        let mut outcomes: Vec<Option<CellOutcome>> = vec![None; fanned.len()];
        // The first run of each key is its representative, served or
        // executed; every later run with that key copies its outcome.
        let mut rep: Vec<usize> = (0..fanned.len()).collect();
        let mut first: HashMap<&str, usize> = HashMap::new();
        let mut hits = 0;
        let mut corrupt = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            let Some(key) = key.as_deref() else { continue };
            match first.entry(key) {
                Entry::Occupied(e) => {
                    rep[i] = *e.get();
                    hits += 1;
                }
                Entry::Vacant(e) => {
                    e.insert(i);
                    match self.load(key) {
                        Ok(Some(report)) => {
                            hits += 1;
                            outcomes[i] = Some(CellOutcome::Ok(Box::new(report)));
                        }
                        Ok(None) => {}
                        Err(e) => corrupt.push(e),
                    }
                }
            }
        }
        let pending: Vec<usize> = (0..fanned.len())
            .filter(|&i| rep[i] == i && outcomes[i].is_none())
            .collect();
        let to_run = pending.iter().map(|&i| fanned[i].clone()).collect();
        let write_errors = Mutex::new(Vec::new());
        let (ran, _) = run_grid_outcomes_traced(to_run, &CostModel, |i, outcome| {
            if let (CellOutcome::Ok(report), Some(key)) = (outcome, &keys[pending[i]]) {
                if let Err(e) = self.save(key, report) {
                    lock(&write_errors).push(e);
                }
            }
        });
        let executed = pending.len();
        for (i, outcome) in pending.into_iter().zip(ran) {
            outcomes[i] = Some(outcome);
        }
        // A stored or copied outcome carries the label of the run that
        // produced it; everything else is identical by key construction.
        let outcomes = fanned
            .iter()
            .zip(&rep)
            .map(|(spec, &r)| {
                let mut outcome = outcomes[r].clone().expect("every cell served or ran");
                match &mut outcome {
                    CellOutcome::Ok(report) => report.label.clone_from(&spec.label),
                    CellOutcome::Failed(failure) => failure.label.clone_from(&spec.label),
                }
                outcome
            })
            .collect();
        Ok(StoredRun {
            outcomes: merge_seed_outcomes(outcomes, specs.len(), seeds),
            hits,
            executed,
            corrupt,
            write_errors: write_errors
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner),
        })
    }
}

/// [`CellStore::Memo`]'s run, which cannot fail.
pub fn run_grid_seeds_memoized(specs: Vec<RunSpec>, seeds: u32) -> StoredRun {
    CellStore::Memo
        .run(specs, seeds)
        .expect("the in-memory store never fails")
}
