//! End-to-end tests of sharded sweeps through the `figures` binary.
//!
//! The contract: for any shard count K, the checkpoint directories that
//! `--shard k/K` fills for k = 1..=K partition the unsharded sweep's store
//! exactly, and serving their union with `--checkpoint UNION --json`
//! executes nothing and gives the unsharded stdout and documents byte for
//! byte. Sharding is a partition of work, never a change of results.

use proptest::prelude::*;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::OnceLock;

/// The sweep under test: small enough to run many times. `ablate-assoc`
/// runs fig2's ten cells again under the label "1-way", so two
/// experiments share keys, and `table2` has cells of its own.
const EXPERIMENTS: [&str; 3] = ["fig2", "ablate-assoc", "table2"];
const INSTS: &str = "5000";

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ppf-shard-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run `figures --insts INSTS <args> EXPERIMENTS`.
fn figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["--insts", INSTS])
        .args(args)
        .args(EXPERIMENTS)
        .output()
        .expect("figures runs")
}

/// `p` as a command-line argument.
fn path(p: &Path) -> &str {
    p.to_str().expect("temp paths are UTF-8")
}

/// The file names in `dir`.
fn files(dir: &Path) -> BTreeSet<String> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect()
}

/// An unsharded run's store, stdout and documents.
struct Unsharded {
    store: BTreeSet<String>,
    stdout: Vec<u8>,
    docs: Vec<(String, Vec<u8>)>,
}

/// The unsharded reference, computed once per test process.
fn unsharded() -> &'static Unsharded {
    static BASE: OnceLock<Unsharded> = OnceLock::new();
    BASE.get_or_init(|| {
        let root = temp_dir("unsharded");
        let (store, json) = (root.join("store"), root.join("json"));
        let out = figures(&["--checkpoint", path(&store), "--json", path(&json)]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let docs = EXPERIMENTS
            .iter()
            .map(|name| {
                let doc = std::fs::read(json.join(format!("{name}.json"))).unwrap();
                (name.to_string(), doc)
            })
            .collect();
        let base = Unsharded {
            store: files(&store),
            stdout: out.stdout,
            docs,
        };
        std::fs::remove_dir_all(&root).ok();
        base
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// For any shard count, the shard stores are pairwise disjoint and
    /// together hold exactly the unsharded store, and their union serves
    /// the unsharded stdout and documents without executing a cell.
    #[test]
    fn shard_stores_partition_the_sweep_and_their_union_serves_it(count in 2u64..=5) {
        let base = unsharded();
        let root = temp_dir(&format!("union-{count}"));
        let union = root.join("union");
        std::fs::create_dir_all(&union).unwrap();
        let mut stored = BTreeSet::new();
        for k in 1..=count {
            let store = root.join(format!("shard-{k}"));
            let spec = format!("{k}/{count}");
            let out = figures(&["--shard", &spec, "--checkpoint", path(&store)]);
            prop_assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
            for name in files(&store) {
                prop_assert!(!stored.contains(&name), "{} stored by two shards", name);
                std::fs::copy(store.join(&name), union.join(&name)).unwrap();
                stored.insert(name);
            }
        }
        prop_assert_eq!(&stored, &base.store);

        let json = root.join("json");
        let out = figures(&["--checkpoint", path(&union), "--json", path(&json)]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        prop_assert!(out.status.success(), "{}", stderr);
        let lines: Vec<&str> = stderr.lines().filter(|l| l.contains("checkpoint:")).collect();
        // Every experiment here has a grid, so each prints one line.
        prop_assert_eq!(lines.len(), EXPERIMENTS.len(), "{}", stderr);
        prop_assert!(lines.iter().all(|l| l.ends_with(" 0 executed")), "{}", stderr);
        prop_assert!(out.stdout == base.stdout, "served stdout differs from the unsharded run");
        for (name, expected) in &base.docs {
            let doc = std::fs::read(json.join(format!("{name}.json"))).unwrap();
            prop_assert!(&doc == expected, "{} differs from the unsharded run", name);
        }
        prop_assert_eq!(&files(&union), &base.store, "serving added a file");
        std::fs::remove_dir_all(&root).ok();
    }
}

/// `--shard` needs a store to fill and refuses the outputs a shard cannot
/// give: a document for part of a grid, and keyless telemetry or faulted
/// cells. Each misuse exits 1 before anything runs, so no store appears.
#[test]
fn shard_without_store_or_with_unstorable_output_exits_1() {
    let root = temp_dir("misuse");
    let (store, other) = (root.join("store"), root.join("other"));
    let (store, other) = (path(&store), path(&other));
    for (args, complaint) in [
        (vec![], "--shard requires --checkpoint"),
        (
            vec!["--checkpoint", store, "--json", other],
            "--shard rejects --json",
        ),
        (
            vec!["--checkpoint", store, "--telemetry", other],
            "--shard rejects --telemetry",
        ),
        (
            vec!["--checkpoint", store, "--inject-fault", "100"],
            "--shard rejects --inject-fault",
        ),
    ] {
        let out = figures(&[&["--shard", "1/2"], &args[..]].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{stderr}");
        assert!(stderr.contains(complaint), "{stderr}");
        assert!(out.stdout.is_empty(), "nothing ran");
        assert!(
            files(&root).is_empty(),
            "{complaint}: a directory was created"
        );
    }
    std::fs::remove_dir_all(&root).ok();
}
