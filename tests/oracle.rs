//! The differential-oracle conformance campaign (DESIGN.md §11).
//!
//! Each campaign drives one optimized structure and its naive reference
//! model in lockstep over seeded random event streams. A divergence is
//! delta-minimized and written out as a self-contained JSONL repro before
//! the test fails; the committed corpus under `tests/repros/` replays on
//! every CI pass so once-found divergences stay pinned.
//!
//! Campaign size is `PPF_ORACLE_CASES` per structure (default 1000); CI
//! sets a smaller budget on pull requests (see ci.sh and the workflow).

mod common;

use ppf_oracle::repro::{self, Repro};
use ppf_oracle::{generate, harness_for, minimize, run_lockstep, Harness, RefFilter};
use ppf_sim::{fanned_seed, FilterTapEvent};
use ppf_types::{FilterKind, JsonValue, SystemConfig};
use ppf_workloads::Workload;
use std::path::{Path, PathBuf};

/// Randomized cases per structure. The issue's floor is 1000; pull-request
/// CI trims this via the environment to keep the shard fast.
fn oracle_cases() -> u64 {
    match std::env::var("PPF_ORACLE_CASES") {
        Ok(v) => v
            .parse()
            .expect("PPF_ORACLE_CASES must be an unsigned integer"),
        Err(_) => 1000,
    }
}

/// Where the committed, replay-on-every-run corpus lives.
fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/repros")
}

/// Where freshly minimized divergence repros are written. Deliberately NOT
/// the committed corpus: a red campaign must not dirty the tree. Promote a
/// case by moving it into `tests/repros/` (see its README.md).
fn divergence_dir() -> PathBuf {
    std::env::var_os("PPF_ORACLE_REPRO_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("target/oracle-repros"))
}

/// Run the randomized campaign for one structure kind: on the first
/// divergence, minimize it, write a replayable repro, and fail with the
/// full story.
fn campaign(kind: &str, base_seed: u64) {
    let cases = oracle_cases();
    for s in 0..cases {
        let seed = fanned_seed(base_seed, s as u32);
        let (config, events) = generate::case(kind, seed);
        let mut h = harness_for(kind, &config)
            .unwrap_or_else(|e| panic!("{kind} seed {seed:#x}: generator made a bad config: {e}"));
        let Some(d) = run_lockstep(&mut *h, &events) else {
            continue;
        };
        let minimized = minimize(&mut *h, &events);
        let r = Repro::capture(
            &*h,
            minimized,
            Some(format!("campaign kind={kind} seed={seed:#x}: {}", d.detail)),
        );
        r.replay().expect_err("minimized stream must still diverge");
        let name = format!("diverged-{kind}-{seed:016x}");
        let written = match repro::write_repro(&divergence_dir(), &name, &r) {
            Ok(p) => p.display().to_string(),
            Err(e) => format!("<write failed: {e}>"),
        };
        panic!(
            "{kind} campaign diverged (seed {seed:#x}, step {}): {}\n\
             event: {}\n\
             minimized to {} event(s); repro written to {written}\n\
             promote it into tests/repros/ to pin the case permanently",
            d.step,
            d.detail,
            d.event,
            r.events.len()
        );
    }
}

#[test]
fn cache_campaign() {
    campaign("cache", 0x0A11_CACE);
}

#[test]
fn filter_campaign() {
    campaign("filter", 0x0A11_F117);
}

#[test]
fn ports_campaign() {
    campaign("ports", 0x0A11_7017);
}

/// Every committed repro must parse and replay clean on the current tree —
/// a once-found (or hand-pinned) behaviour that drifts is a regression.
#[test]
fn replay_committed_corpus() {
    let dir = corpus_dir();
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("committed corpus missing at {}: {e}", dir.display()))
        .filter_map(|entry| {
            let path = entry.expect("readable corpus dir").path();
            (path.extension().is_some_and(|x| x == "jsonl")).then_some(path)
        })
        .collect();
    files.sort();
    assert!(
        files.len() >= 7,
        "seed corpus must hold at least 7 cases (the two attack campaigns and the two perceptron pins included), found {}: {files:?}",
        files.len()
    );
    for f in &files {
        let text = std::fs::read_to_string(f).expect("readable repro");
        let r = Repro::parse_jsonl(&text)
            .unwrap_or_else(|e| panic!("{} does not parse: {e}", f.display()));
        r.replay()
            .unwrap_or_else(|e| panic!("{} no longer replays clean: {e}", f.display()));
    }
}

// ---------------------------------------------------------------------------
// Shrinker validation on a synthetic harness
// ---------------------------------------------------------------------------

/// A harness with a known minimal failure: it "diverges" on the second
/// `bad` event it sees, whatever noise surrounds them. The true minimum is
/// therefore exactly two `bad` events.
struct ToyHarness {
    bad_seen: u32,
}

impl Harness for ToyHarness {
    fn kind(&self) -> &'static str {
        "toy"
    }

    fn config(&self) -> JsonValue {
        JsonValue::Null
    }

    fn reset(&mut self) {
        self.bad_seen = 0;
    }

    fn step(&mut self, event: &JsonValue) -> Result<(), String> {
        if event.get("op").and_then(JsonValue::as_str) == Some("bad") {
            self.bad_seen += 1;
            if self.bad_seen == 2 {
                return Err("second bad event".into());
            }
        }
        Ok(())
    }
}

#[test]
fn shrinker_finds_the_two_event_minimum() {
    let bad = JsonValue::parse(r#"{"op":"bad"}"#).unwrap();
    let mut events: Vec<JsonValue> = (0..40)
        .map(|i| JsonValue::parse(&format!(r#"{{"op":"noise","i":{i}}}"#)).unwrap())
        .collect();
    events[7] = bad.clone();
    events[23] = bad.clone();

    let mut h = ToyHarness { bad_seen: 0 };
    let min = minimize(&mut h, &events);
    assert_eq!(min, vec![bad.clone(), bad], "ddmin must reach the minimum");
    let d = run_lockstep(&mut h, &min).expect("minimized stream still diverges");
    assert_eq!(d.step, 1, "divergence sits on the last event");

    // The minimized stream survives the repro wire format byte-for-byte.
    let r = Repro::capture(&h, min.clone(), Some("synthetic shrinker check".into()));
    let parsed = Repro::parse_jsonl(&r.to_jsonl()).expect("round trip");
    assert_eq!(parsed.events, min);
    assert_eq!(parsed.kind, "toy");
}

#[test]
fn non_diverging_stream_is_returned_unchanged() {
    let events: Vec<JsonValue> = (0..10)
        .map(|i| JsonValue::parse(&format!(r#"{{"op":"noise","i":{i}}}"#)).unwrap())
        .collect();
    let mut h = ToyHarness { bad_seen: 0 };
    assert_eq!(minimize(&mut h, &events), events);
}

// ---------------------------------------------------------------------------
// End-to-end: the live simulator's filter traffic replays into the oracle
// ---------------------------------------------------------------------------

/// The sim-side tap records every decision the real pollution filter made
/// during a full simulation; replaying the stream into the untimed oracle
/// must reproduce every admit/drop decision and the exact final counter
/// state. This closes the loop between the unit-level campaign and the
/// integrated machine.
#[test]
fn live_sim_filter_traffic_replays_into_the_oracle() {
    let cfg = SystemConfig::paper_default().with_filter(FilterKind::Pa);
    let filter_cfg = cfg.filter.clone();
    let mut sim = common::sim(cfg, Workload::Em3d, 9);
    sim.mem_system_mut().enable_filter_tap();
    sim.run(60_000);
    let tap = sim.mem_system_mut().take_filter_tap();
    assert!(
        tap.len() > 1_000,
        "tap must see real traffic, got {} events",
        tap.len()
    );

    let mut oracle = RefFilter::new(&filter_cfg).expect("paper config is oracle-checkable");
    for (i, ev) in tap.iter().enumerate() {
        match *ev {
            FilterTapEvent::Lookup {
                line,
                pc,
                source,
                now,
                tenant,
                depth,
                admitted,
            } => {
                let o = oracle.lookup(line, pc, source, tenant, depth as u64, now);
                assert_eq!(
                    o, admitted,
                    "tap step {i}: oracle disagrees with the live decision on {ev:?}"
                );
            }
            FilterTapEvent::Evict {
                line,
                pc,
                source,
                tenant,
                depth,
                referenced,
            } => oracle.evict(line, pc, source, tenant, depth as u64, referenced),
            FilterTapEvent::DemandMiss { line, now } => oracle.demand_miss(line, now),
        }
    }

    let real = sim.mem_system().filter();
    assert_eq!(
        real.counter_snapshot(),
        oracle.counters().to_vec(),
        "final counter tables must match"
    );
    assert_eq!(real.chooser_snapshot().as_deref(), oracle.chooser());
    assert_eq!(*real.stats(), oracle.stats(), "final stats must match");
}

// ---------------------------------------------------------------------------
// Seed corpus (re)generation
// ---------------------------------------------------------------------------

/// The hand-pinned seed cases. Kept as literals so the committed files and
/// this source agree; `regenerate_seed_corpus` rewrites them. The two
/// `attack-*` cases pin the hardened-filter guarantees of DESIGN.md §12:
/// partition isolation under counter poisoning and keyed-hash de-aliasing
/// under a collision flood.
const SEED_CORPUS: &[(&str, &str)] = &[
    (
        "cache-pib-rib-eviction-feedback",
        r#"# A referenced prefetch leaves the cache as good (RIB set); an untouched
# one leaves as bad — the eviction feedback that trains the filter.
{"version":1,"kind":"cache","config":{"size_bytes":128,"line_bytes":32,"ways":2,"policy":"Lru"},"note":"PIB/RIB lifecycle: referenced prefetch evicts good, untouched prefetch evicts bad"}
{"op":"fill_prefetch","line":4,"pc":4096,"source":"Nsp"}
{"op":"probe","line":4,"write":false}
{"op":"fill_prefetch","line":6,"pc":4100,"source":"Sdp"}
{"op":"fill_demand","line":8}
{"op":"fill_demand","line":10}
{"op":"contains","line":8}
{"op":"invalidate","line":10}
"#,
    ),
    (
        "cache-refill-keeps-later-ready-cycle",
        r#"# Two in-flight fills of one line merge: a refill keeps the later
# fill-ready cycle, whichever order they arrive in, and the eviction that
# displaces the line reports that cycle.
{"version":1,"kind":"cache","config":{"size_bytes":64,"line_bytes":32,"ways":1,"policy":"Lru"},"note":"refill keeps the later ready cycle; probes and evictions report it"}
{"op":"fill_demand","line":4,"ready_at":100}
{"op":"fill_prefetch","line":4,"pc":4096,"source":"Nsp","ready_at":80}
{"op":"probe","line":4,"write":false}
{"op":"fill_prefetch","line":5,"pc":4100,"source":"Sdp","ready_at":60}
{"op":"fill_demand","line":5,"ready_at":90}
{"op":"fill_demand","line":6}
{"op":"invalidate","line":5}
"#,
    ),
    (
        "filter-drop-and-recovery",
        r#"# Two bad evictions drive the counter below threshold, the next lookup is
# dropped and logged; a fresh demand miss recovers it, and a good eviction
# restores admission.
{"version":1,"kind":"filter","config":{"kind":"Pa","table_entries":64,"counter_bits":2,"counter_init":"WeaklyGood","adaptive_accuracy_threshold":null,"adaptive_window":1024,"recovery_window":100,"split_by_source":false,"hash_salt":0,"tenant_partitions":1},"note":"drop decision, reject-log recovery, re-admission"}
{"op":"evict","line":5,"pc":4096,"source":"Nsp","referenced":false}
{"op":"evict","line":5,"pc":4096,"source":"Nsp","referenced":false}
{"op":"lookup","line":5,"pc":4096,"source":"Nsp","now":50}
{"op":"demand_miss","line":5,"now":120}
{"op":"lookup","line":5,"pc":4096,"source":"Nsp","now":200}
{"op":"evict","line":5,"pc":4096,"source":"Nsp","referenced":true}
{"op":"lookup","line":5,"pc":4096,"source":"Nsp","now":300}
"#,
    ),
    (
        "attack-poison-partition-isolation",
        r#"# Counter-poisoning campaign against a partitioned (P=4) PA table: the
# attacking tenant (1) saturates its counter for line 5 bad and locks
# itself out, while the victim tenant (0) looking up the same line is
# still admitted — the poisoning physically cannot reach the victim's
# partition.
{"version":1,"kind":"filter","config":{"kind":"Pa","table_entries":64,"counter_bits":2,"counter_init":"WeaklyGood","adaptive_accuracy_threshold":null,"adaptive_window":1024,"recovery_window":100,"split_by_source":false,"hash_salt":0,"tenant_partitions":4},"note":"tenant 1 poisons its own partition; tenant 0 stays admitted"}
{"op":"evict","line":5,"pc":4096,"source":"Nsp","tenant":1,"referenced":false}
{"op":"evict","line":5,"pc":4096,"source":"Nsp","tenant":1,"referenced":false}
{"op":"lookup","line":5,"pc":4096,"source":"Nsp","tenant":1,"now":10}
{"op":"lookup","line":5,"pc":4096,"source":"Nsp","tenant":0,"now":11}
{"op":"lookup","line":5,"pc":4096,"source":"Nsp","tenant":2,"now":12}
"#,
    ),
    (
        "attack-alias-flood-salted-hash",
        r#"# Aliasing flood against the salted hash: lines 4295032837 and 8590065669
# are crafted to XOR-fold onto the victim line 5's slot under the plain
# hash (t | h<<16 | h<<32 folds to t), so an unhardened table would share
# one counter across all three. Under the keyed fold they scatter to
# distinct slots, and training the aliases bad leaves the victim admitted.
{"version":1,"kind":"filter","config":{"kind":"Pa","table_entries":64,"counter_bits":2,"counter_init":"WeaklyGood","adaptive_accuracy_threshold":null,"adaptive_window":1024,"recovery_window":100,"split_by_source":false,"hash_salt":6840346605343592461,"tenant_partitions":1},"note":"plain-hash collisions decorrelate under the keyed fold; victim line stays admitted"}
{"op":"evict","line":4295032837,"pc":4096,"source":"Nsp","tenant":0,"referenced":false}
{"op":"evict","line":4295032837,"pc":4096,"source":"Nsp","tenant":0,"referenced":false}
{"op":"evict","line":8590065669,"pc":4096,"source":"Nsp","tenant":0,"referenced":false}
{"op":"evict","line":8590065669,"pc":4096,"source":"Nsp","tenant":0,"referenced":false}
{"op":"lookup","line":4295032837,"pc":4096,"source":"Nsp","tenant":0,"now":10}
{"op":"lookup","line":5,"pc":4096,"source":"Nsp","tenant":0,"now":11}
"#,
    ),
    (
        "perceptron-weight-saturation-clamp",
        r#"# Sixteen bad trainings of one feature vector drive every selected weight
# one step past the -15 clamp boundary: the sixteenth train must be a
# no-op on the already-saturated weights (symmetric saturation), and two
# good trainings afterwards move them back off the rail by exactly two.
{"version":1,"kind":"filter","config":{"kind":"Perceptron","table_entries":64,"counter_bits":2,"counter_init":"WeaklyGood","adaptive_accuracy_threshold":null,"adaptive_window":1024,"recovery_window":100,"split_by_source":false,"hash_salt":0,"tenant_partitions":1},"note":"weight saturation pinned at the clamp boundary: train 16 is absorbed, the walk back is exact"}
{"op":"evict","line":5,"pc":4096,"source":"Nsp","depth":3,"referenced":false}
{"op":"evict","line":5,"pc":4096,"source":"Nsp","depth":3,"referenced":false}
{"op":"evict","line":5,"pc":4096,"source":"Nsp","depth":3,"referenced":false}
{"op":"evict","line":5,"pc":4096,"source":"Nsp","depth":3,"referenced":false}
{"op":"evict","line":5,"pc":4096,"source":"Nsp","depth":3,"referenced":false}
{"op":"evict","line":5,"pc":4096,"source":"Nsp","depth":3,"referenced":false}
{"op":"evict","line":5,"pc":4096,"source":"Nsp","depth":3,"referenced":false}
{"op":"evict","line":5,"pc":4096,"source":"Nsp","depth":3,"referenced":false}
{"op":"evict","line":5,"pc":4096,"source":"Nsp","depth":3,"referenced":false}
{"op":"evict","line":5,"pc":4096,"source":"Nsp","depth":3,"referenced":false}
{"op":"evict","line":5,"pc":4096,"source":"Nsp","depth":3,"referenced":false}
{"op":"evict","line":5,"pc":4096,"source":"Nsp","depth":3,"referenced":false}
{"op":"evict","line":5,"pc":4096,"source":"Nsp","depth":3,"referenced":false}
{"op":"evict","line":5,"pc":4096,"source":"Nsp","depth":3,"referenced":false}
{"op":"evict","line":5,"pc":4096,"source":"Nsp","depth":3,"referenced":false}
{"op":"evict","line":5,"pc":4096,"source":"Nsp","depth":3,"referenced":false}
{"op":"lookup","line":5,"pc":4096,"source":"Nsp","depth":3,"now":50}
{"op":"evict","line":5,"pc":4096,"source":"Nsp","depth":3,"referenced":true}
{"op":"evict","line":5,"pc":4096,"source":"Nsp","depth":3,"referenced":true}
{"op":"lookup","line":5,"pc":4096,"source":"Nsp","depth":3,"now":60}
"#,
    ),
    (
        "perceptron-threshold-crossing-recovery",
        r#"# Threshold-crossing train events: one bad training leaves a neighbouring
# vector (same PC, depth and accuracy bucket, different line) at sum -3 —
# one below the admit threshold of -2 — so it is rejected; a single good
# training elsewhere moves the accuracy bucket and lifts the same vector
# across the threshold. The rejected lookup then recovers via demand miss:
# target-only recovery bumps the pc/line/offset weights by +1 each (shared
# depth and accuracy weights stay put), landing the final lookup at +2.
{"version":1,"kind":"filter","config":{"kind":"Perceptron","table_entries":64,"counter_bits":2,"counter_init":"WeaklyGood","adaptive_accuracy_threshold":null,"adaptive_window":1024,"recovery_window":100,"split_by_source":false,"hash_salt":0,"tenant_partitions":1},"note":"sum -3 rejects, bucket shift re-admits at -1, target-only recovery lifts the vector to +2"}
{"op":"evict","line":5,"pc":4096,"source":"Nsp","depth":3,"referenced":false}
{"op":"lookup","line":6,"pc":4096,"source":"Nsp","depth":3,"now":10}
{"op":"evict","line":40,"pc":4100,"source":"Nsp","depth":1,"referenced":true}
{"op":"lookup","line":6,"pc":4096,"source":"Nsp","depth":3,"now":20}
{"op":"demand_miss","line":6,"now":30}
{"op":"lookup","line":6,"pc":4096,"source":"Nsp","depth":3,"now":40}
"#,
    ),
];

/// Rewrite `tests/repros/` from the literals above. Run with
/// `cargo test --test oracle regenerate_seed_corpus -- --ignored` after
/// editing a case; every case is validated (parse + clean replay) before
/// anything is written.
#[test]
#[ignore = "writes into the source tree; run explicitly to refresh the corpus"]
fn regenerate_seed_corpus() {
    let dir = corpus_dir();
    std::fs::create_dir_all(&dir).expect("create corpus dir");
    for (name, text) in SEED_CORPUS {
        let r = Repro::parse_jsonl(text).unwrap_or_else(|e| panic!("{name} does not parse: {e}"));
        r.replay()
            .unwrap_or_else(|e| panic!("{name} does not replay clean: {e}"));
        std::fs::write(dir.join(format!("{name}.jsonl")), text).expect("write corpus case");
    }
}
