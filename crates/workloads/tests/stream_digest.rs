//! Stream-identity golden: the instruction streams themselves, not just
//! the simulated results they lead to, are a committed contract.
//!
//! Every field of the first [`DIGEST_INSTS`] instructions of
//! `Workload::stream(seed)` is hashed with FNV-1a for all ten workloads at
//! each seed in [`DIGEST_SEEDS`], and the hashes are compared against
//! `tests/golden/stream_digest.json`. A host-time-only change to the
//! generator must pass it untouched. The figures digest runs 20k-instruction
//! cells, so this is the check that reaches a million instructions deep.

use ppf_cpu::{Inst, InstStream, Op};
use ppf_types::JsonValue;
use ppf_workloads::Workload;

/// Instructions hashed per (workload, seed) stream.
const DIGEST_INSTS: u64 = 1_000_000;
/// Seeds hashed per workload.
const DIGEST_SEEDS: [u64; 2] = [1, 42];

const DIGEST_GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/stream_digest.json"
);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Fold every field of `inst` into `h`: the PC, an op tag, the op's
/// operands and the dependency distance.
fn hash_inst(h: u64, inst: &Inst) -> u64 {
    let h = fnv1a(h, &inst.pc.to_le_bytes());
    let h = match inst.op {
        Op::IntAlu => fnv1a(h, &[0]),
        Op::FpAlu => fnv1a(h, &[1]),
        Op::Load { addr } => fnv1a(fnv1a(h, &[2]), &addr.to_le_bytes()),
        Op::Store { addr } => fnv1a(fnv1a(h, &[3]), &addr.to_le_bytes()),
        Op::SoftPrefetch { addr } => fnv1a(fnv1a(h, &[4]), &addr.to_le_bytes()),
        Op::Branch { taken, target } => fnv1a(fnv1a(h, &[5, taken as u8]), &target.to_le_bytes()),
    };
    fnv1a(h, &[inst.dep])
}

/// One FNV-1a hash per `<workload>/<seed>` stream, as the golden's text.
fn stream_digest() -> String {
    let mut hashes = Vec::new();
    for w in Workload::ALL {
        for seed in DIGEST_SEEDS {
            let mut stream = w.stream(seed);
            let mut h = FNV_OFFSET;
            for _ in 0..DIGEST_INSTS {
                h = hash_inst(h, &stream.next_inst());
            }
            hashes.push((format!("{}/{seed}", w.name()), h));
        }
    }
    let doc = JsonValue::Object(vec![
        ("insts".to_string(), JsonValue::UInt(DIGEST_INSTS)),
        (
            "fnv1a".to_string(),
            JsonValue::Object(
                hashes
                    .into_iter()
                    .map(|(name, h)| (name, JsonValue::Str(format!("{h:016x}"))))
                    .collect(),
            ),
        ),
    ]);
    let mut text = doc.pretty();
    text.push('\n');
    text
}

/// A change that moves any generated instruction changes a stream's hash.
/// If the change is meant, regenerate the golden and say in CHANGES.md
/// which streams moved and why.
#[test]
fn every_stream_matches_committed_digest() {
    let golden = std::fs::read_to_string(DIGEST_GOLDEN).expect(
        "golden missing — regenerate with `cargo test -p ppf-workloads \
         --test stream_digest -- --ignored regenerate_stream_digest`",
    );
    assert_eq!(stream_digest(), golden, "a workload stream's digest moved");
}

#[test]
#[ignore = "writes tests/golden/stream_digest.json from this tree's generator"]
fn regenerate_stream_digest() {
    std::fs::write(DIGEST_GOLDEN, stream_digest()).expect("write golden");
}
