//! End-to-end tests of the `figures` binary's machine interface.
//!
//! The contract under test: `--json` output must stay machine-parseable
//! even when cells fail (exit code 2). The failure diagnostics go to
//! stderr and into the JSON document's `failures` array — never interleaved
//! into stdout or silently dropped from the dump. Fault injection
//! (`--inject-fault`) drives the partial path deterministically. A
//! checkpointed resume must reproduce the same documents without
//! re-running a cell, and must still stream telemetry. Every document of
//! a small `all` run, and the tables it prints, must hash to their
//! committed digests, so no simulated result or rendered number moves
//! unannounced.

use ppf_bench::figures::ExperimentDoc;
use ppf_sim::schedule::{fnv1a, FNV_OFFSET};
use ppf_types::{FromJson, JsonValue, PpfErrorKind};
use std::path::PathBuf;
use std::process::Command;

fn figures() -> Command {
    Command::new(env!("CARGO_BIN_EXE_figures"))
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn partial_failure_keeps_stdout_parseable_and_dumps_failures() {
    let dir = temp_dir("ppf-figures-json-fault-test");
    let out = figures()
        .args(["--insts", "3000", "--inject-fault", "50", "--json"])
        .arg(&dir)
        .arg("fig2")
        .output()
        .expect("figures binary runs");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();

    // The sweep completed around the injected fault: exit 2, not 1.
    assert_eq!(
        out.status.code(),
        Some(2),
        "stdout:\n{stdout}\nstderr:\n{stderr}"
    );

    // The human table still renders, but the per-cell error dump lives on
    // stderr so stdout stays clean for machine consumers.
    assert!(stdout.contains("partial results"), "{stdout}");
    assert!(
        !stdout.contains("failed cells:"),
        "appendix leaked to stdout:\n{stdout}"
    );
    assert!(stderr.contains("failed cells:"), "{stderr}");
    assert!(stderr.contains("injected fault"), "{stderr}");

    // The JSON document parses and carries the structured failure.
    let json = std::fs::read_to_string(dir.join("fig2.json")).expect("json dump written");
    let doc = ExperimentDoc::from_json_str(&json).expect("dump parses as ExperimentDoc");
    assert_eq!(doc.experiment, "fig2");
    assert!(!doc.reports.is_empty(), "surviving cells still dumped");
    assert_eq!(doc.failures.len(), 1, "exactly the injected fault failed");
    assert_eq!(doc.failures[0].error.kind, PpfErrorKind::CellPanic);
    assert!(doc.failures[0].error.message.contains("injected fault"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn green_run_dumps_doc_with_empty_failures() {
    let dir = temp_dir("ppf-figures-json-green-test");
    let out = figures()
        .args(["--insts", "3000", "--json"])
        .arg(&dir)
        .arg("fig2")
        .output()
        .expect("figures binary runs");
    assert!(out.status.success());
    let json = std::fs::read_to_string(dir.join("fig2.json")).unwrap();
    let doc = ExperimentDoc::from_json_str(&json).unwrap();
    assert!(doc.failures.is_empty());
    assert_eq!(doc.reports.len(), 10, "fig1_2 grid: 2 labels x 5 workloads");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn telemetry_flag_streams_interval_records_per_cell() {
    let dir = temp_dir("ppf-figures-telemetry-cli-test");
    let out = figures()
        .args(["--insts", "20000", "--telemetry"])
        .arg(&dir)
        .arg("fig2")
        .output()
        .expect("figures binary runs");
    assert!(out.status.success());
    let cell_dir = dir.join("fig2");
    let streams: Vec<_> = std::fs::read_dir(&cell_dir)
        .expect("per-experiment telemetry dir exists")
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "jsonl"))
        .collect();
    assert_eq!(streams.len(), 10, "one stream per grid cell");
    for entry in streams {
        let text = std::fs::read_to_string(entry.path()).unwrap();
        let records = ppf_types::telemetry::parse_jsonl(&text).expect("stream parses");
        assert!(!records.is_empty(), "{:?} is empty", entry.path());
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The `.jsonl` streams under `dir`.
fn jsonl_count(dir: &std::path::Path) -> usize {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .filter(|e| e.path().extension().is_some_and(|x| x == "jsonl"))
                .count()
        })
        .unwrap_or(0)
}

/// Telemetry cells bypass the checkpoint store, so a resumed run that
/// asks for telemetry still writes one stream per cell.
#[test]
fn checkpoint_resume_still_streams_telemetry() {
    let root = temp_dir("ppf-figures-ckpt-telemetry-test");
    for streams in ["T1", "T2"] {
        let out = figures()
            .args(["--insts", "5000", "--checkpoint"])
            .arg(root.join("D"))
            .arg("--telemetry")
            .arg(root.join(streams))
            .arg("fig2")
            .output()
            .expect("figures binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    assert_eq!(jsonl_count(&root.join("T1/fig2")), 10, "first run");
    assert_eq!(jsonl_count(&root.join("T2/fig2")), 10, "resumed run");
    std::fs::remove_dir_all(&root).ok();
}

/// `--seeds` and `--checkpoint` through the binary: fig1 and fig2 render
/// one grid, so fig2 reloads every run fig1 stored; a resume executes no
/// cell; and the fresh, resumed and uncheckpointed runs write
/// byte-identical documents. The checkpoint directory holds one
/// `<key>.json` per distinct (cell × seed) run and no subdirectory.
#[test]
fn seeded_checkpoint_resume_reproduces_documents() {
    let root = temp_dir("ppf-figures-seeds-ckpt-test");
    let names = ["fig1", "fig2", "table2"];
    let run = |json: &str, checkpoint: bool| {
        let mut cmd = figures();
        cmd.args(["--insts", "5000", "--seeds", "2", "--json"])
            .arg(root.join(json));
        if checkpoint {
            cmd.arg("--checkpoint").arg(root.join("D"));
        }
        let out = cmd.args(names).output().expect("figures runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        (out.stdout, String::from_utf8(out.stderr).unwrap())
    };
    let (first, fresh) = run("J1", true);
    assert!(
        fresh.contains("[fig2] checkpoint: 20 cell runs reloaded, 0 executed"),
        "{fresh}"
    );
    let (resumed, stderr) = run("J2", true);
    let (plain, _) = run("J3", false);
    for name in names {
        assert!(
            stderr.contains(&format!(
                "[{name}] checkpoint: 20 cell runs reloaded, 0 executed"
            )),
            "{stderr}"
        );
        let doc = |json: &str| std::fs::read(root.join(json).join(format!("{name}.json"))).unwrap();
        assert!(doc("J1") == doc("J2"), "{name}: resumed document differs");
        assert!(
            doc("J1") == doc("J3"),
            "{name}: checkpointed document differs"
        );
    }
    assert!(first == resumed && first == plain, "rendered tables differ");
    let entries: Vec<PathBuf> = std::fs::read_dir(root.join("D"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(
        entries.len(),
        40,
        "fig1_2 and table2: 2 × 10 cells × 2 seeds"
    );
    for path in &entries {
        let stem = path.file_stem().unwrap().to_str().unwrap();
        assert!(
            path.is_file()
                && path.extension().is_some_and(|x| x == "json")
                && stem.len() == 16
                && stem.bytes().all(|b| b.is_ascii_hexdigit()),
            "not a <key>.json file: {path:?}"
        );
    }
    std::fs::remove_dir_all(&root).ok();
}

/// A zero instruction budget is a usage error: the sweep never starts, so
/// stdout stays empty and `--json` writes no document of zero-cycle runs.
#[test]
fn zero_instruction_budget_is_rejected_before_any_cell_runs() {
    let dir = temp_dir("ppf-figures-zero-insts-test");
    let out = figures()
        .args(["--insts", "0", "--json"])
        .arg(&dir)
        .arg("fig6")
        .output()
        .expect("figures binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        out.stdout.is_empty(),
        "stdout:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(
        stderr.contains("--insts needs a positive number"),
        "{stderr}"
    );
    let written: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert!(written.is_empty(), "documents written: {written:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Budget of the digest run: every experiment, small enough for tier-1.
const DIGEST_INSTS: u64 = 20_000;

const DIGEST_GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/figures_digest.json"
);

/// Run `figures --insts 20000 --json DIR all` and render one FNV-1a hash
/// of each JSON document it writes, by experiment name, and one of its
/// stdout, so a renderer change that leaves every report alone shows too.
fn figures_digest() -> String {
    let dir = temp_dir("ppf-figures-digest-test");
    let out = figures()
        .args(["--insts", &DIGEST_INSTS.to_string(), "--json"])
        .arg(&dir)
        .arg("all")
        .output()
        .expect("figures binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut docs: Vec<(String, u64)> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .map(|p| {
            let name = p.file_stem().unwrap().to_string_lossy().into_owned();
            (name, fnv1a(FNV_OFFSET, &std::fs::read(&p).unwrap()))
        })
        .collect();
    docs.sort();
    std::fs::remove_dir_all(&dir).ok();
    let doc = JsonValue::Object(vec![
        ("insts".to_string(), JsonValue::UInt(DIGEST_INSTS)),
        (
            "fnv1a".to_string(),
            JsonValue::Object(
                docs.into_iter()
                    .map(|(name, h)| (name, JsonValue::Str(format!("{h:016x}"))))
                    .collect(),
            ),
        ),
        (
            "stdout_fnv1a".to_string(),
            JsonValue::Str(format!("{:016x}", fnv1a(FNV_OFFSET, &out.stdout))),
        ),
    ]);
    let mut text = doc.pretty();
    text.push('\n');
    text
}

/// A change that moves any simulated result changes a document's hash;
/// one that moves a rendered table changes the stdout hash. If the change
/// is meant, regenerate the golden and say in CHANGES.md which documents
/// moved and why.
#[test]
fn every_figures_document_matches_committed_digest() {
    let golden = std::fs::read_to_string(DIGEST_GOLDEN).expect(
        "golden missing — regenerate with `cargo test -p ppf-bench \
         --test figures_json -- --ignored regenerate_figures_digest`",
    );
    assert_eq!(
        figures_digest(),
        golden,
        "a figures document's digest moved"
    );
}

#[test]
#[ignore = "writes tests/golden/figures_digest.json from this tree's figures binary"]
fn regenerate_figures_digest() {
    std::fs::write(DIGEST_GOLDEN, figures_digest()).expect("write golden");
}
