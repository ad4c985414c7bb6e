//! The on-disk backend of the cell store ([`crate::memo::CellStore::Dir`]),
//! for checkpoint/resume of long figure sweeps.
//!
//! Every completed cell's [`SimReport`] is written to `<dir>/<key>.json`,
//! where `<key>` is the cell's [`memo_key`]: 16 hex digits of an FNV-1a
//! hash over its config JSON, workload, seed, instruction budgets,
//! adversary and watchdog bounds, but not its label. So one directory
//! serves every experiment: a cell that several experiments run under
//! different labels is stored once and reloaded by each. On restart the
//! store reloads every cell whose file exists and parses, and re-runs only
//! the missing, corrupt or previously failed ones (failures are
//! deliberately never checkpointed: a resume is exactly the retry the
//! operator asked for). A config change produces different keys, so stale
//! results can never leak into a new sweep. The directory holds exactly
//! one file per distinct completed cell and nothing else.
//!
//! Writes stream from the worker threads as cells finish, each through
//! [`write_atomic`], so a crash mid-sweep loses at most the cells still in
//! flight.

use crate::memo::memo_key;
use ppf_sim::experiments::RunSpec;
use ppf_sim::SimReport;
use ppf_types::{write_atomic, FromJson, PpfError, ToJson};
use std::path::{Path, PathBuf};

/// Path of a cell's checkpoint file under `dir`, or `None` for a cell that
/// always executes and is never stored.
pub fn cell_path(dir: &Path, spec: &RunSpec) -> Option<PathBuf> {
    memo_key(spec).map(|key| key_path(dir, &key))
}

fn key_path(dir: &Path, key: &str) -> PathBuf {
    dir.join(format!("{key}.json"))
}

/// Load the entry stored under `key`, distinguishing "not there"
/// (`Ok(None)`) from "there but unreadable" (`Err`, kind
/// `checkpoint-corrupt`).
pub(crate) fn load(dir: &Path, key: &str) -> Result<Option<SimReport>, PpfError> {
    let path = key_path(dir, key);
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => {
            return Err(PpfError::io(e.to_string()).context(format!("reading {}", path.display())))
        }
    };
    SimReport::from_json_str(&text)
        .map(Some)
        .map_err(|e| PpfError::checkpoint_corrupt(e).context(format!("parsing {}", path.display())))
}

/// Write one cell's report under `key` atomically.
pub(crate) fn save(dir: &Path, key: &str, report: &SimReport) -> Result<(), PpfError> {
    write_atomic(&key_path(dir, key), &report.to_json_pretty())
}
