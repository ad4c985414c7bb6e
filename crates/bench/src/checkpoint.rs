//! The on-disk backend of the cell store ([`crate::memo::CellStore::Dir`]),
//! for checkpoint/resume of long figure sweeps.
//!
//! Every completed cell's [`SimReport`] is written to
//! `<dir>/<key>.json`, where `<key>` is an FNV-1a content hash of the
//! cell's full identity — label, config JSON, workload, seed and
//! instruction budgets ([`cell_key`], shared with the shard partitioner).
//! On restart the store reloads every cell whose file exists and parses,
//! and re-runs only the missing, corrupt or previously failed ones
//! (failures are deliberately never checkpointed: a resume is exactly the
//! retry the operator asked for). A config change produces different
//! keys, so stale results can never leak into a new sweep. The directory
//! holds exactly one file per completed cell and nothing else.
//!
//! Writes stream from the worker threads as cells finish (write to a
//! `.tmp` sibling, then rename), so a crash mid-sweep loses at most the
//! cells still in flight.

use ppf_sim::experiments::RunSpec;
pub use ppf_sim::schedule::cell_key;
use ppf_sim::SimReport;
use ppf_types::{FromJson, PpfError, ToJson};
use std::path::{Path, PathBuf};

/// Path of a cell's checkpoint file under `dir`.
pub fn cell_path(dir: &Path, spec: &RunSpec) -> PathBuf {
    key_path(dir, &cell_key(spec))
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

/// Write one cell's report under `key` atomically (tmp + rename).
pub(crate) fn save(dir: &Path, key: &str, report: &SimReport) -> Result<(), PpfError> {
    let path = key_path(dir, key);
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, report.to_json_pretty())
        .and_then(|()| std::fs::rename(&tmp, &path))
        .map_err(|e| PpfError::io(e.to_string()).context(format!("writing {}", path.display())))
}
