//! Seeded random event-stream generators for the lockstep campaign.
//!
//! [`case`] maps `(kind, seed)` deterministically to a `(config, events)`
//! pair via [`SplitMix64`]; the campaign in `tests/oracle.rs` fans a base
//! seed out with `ppf_sim::fanned_seed` so every case is independently
//! reproducible from its number alone.
//!
//! The streams are deliberately *hostile* rather than realistic: tiny
//! geometries so sets/tables alias constantly, repeated lines so merge and
//! refill paths fire, stale timestamps for the port arbiter, and fill-ready
//! cycles drawn independently of order so refills race earlier and later
//! arrivals. Realistic traffic is the simulator's job
//! (covered by the end-to-end tap test); the generator's job is corner
//! pressure.

use crate::event::obj;
use ppf_types::{JsonValue, PrefetchSource, SplitMix64, ToJson, MAX_TENANTS};

/// Deterministically generate the `(config, events)` for one campaign case.
///
/// Panics on an unknown `kind` — the set of kinds is closed (see
/// [`crate::harness_for`]).
pub fn case(kind: &str, seed: u64) -> (JsonValue, Vec<JsonValue>) {
    let mut rng = SplitMix64::new(seed);
    match kind {
        "cache" => cache_case(&mut rng),
        "filter" => filter_case(&mut rng),
        "ports" => ports_case(&mut rng),
        other => panic!("no generator for kind `{other}`"),
    }
}

fn source(rng: &mut SplitMix64) -> JsonValue {
    rng.pick(&PrefetchSource::ALL).to_json()
}

fn pc(rng: &mut SplitMix64, pool: u64) -> u64 {
    0x1000 + 4 * rng.below(pool)
}

fn cache_case(rng: &mut SplitMix64) -> (JsonValue, Vec<JsonValue>) {
    // The paper's associativities over 4-16 sets, plus wide sets (8 to 32
    // ways over 1-4 sets) so victim selection also runs over long stamp
    // runs.
    let ways = *rng.pick(&[1usize, 2, 4, 8, 16, 32]);
    let sets = if ways <= 4 {
        *rng.pick(&[4usize, 8, 16])
    } else {
        *rng.pick(&[1usize, 2, 4])
    };
    let line_bytes = 32u64;
    let config = obj(&[
        ("size_bytes", ((sets * ways) as u64 * line_bytes).to_json()),
        ("line_bytes", line_bytes.to_json()),
        ("ways", (ways as u64).to_json()),
        ("policy", JsonValue::Str("Lru".into())),
    ]);
    // Keep the line pool ~3x capacity: plenty of conflict evictions while
    // still revisiting lines often enough to exercise hits and refills.
    // Streams grow with capacity so the widest sets fill up and evict too.
    let capacity = (sets * ways) as u64;
    let lines = capacity * 3;
    let n = 160 + 4 * capacity + rng.below(80);
    let mut events = Vec::with_capacity(n as usize);
    // A quarter of the fills carry cycle 0, the value an unsized ready
    // array reads, so the lazy sizing path runs in both orders.
    let ready_at = |rng: &mut SplitMix64| {
        if rng.chance(0.25) {
            0
        } else {
            rng.range(1, 500)
        }
    };
    for _ in 0..n {
        let line = rng.below(lines).to_json();
        let roll = rng.below(100);
        events.push(match roll {
            0..=34 => obj(&[
                ("op", JsonValue::Str("probe".into())),
                ("line", line),
                ("write", rng.chance(0.3).to_json()),
            ]),
            35..=59 => obj(&[
                ("op", JsonValue::Str("fill_demand".into())),
                ("line", line),
                ("ready_at", ready_at(rng).to_json()),
            ]),
            60..=79 => obj(&[
                ("op", JsonValue::Str("fill_prefetch".into())),
                ("line", line),
                ("pc", pc(rng, 16).to_json()),
                ("source", source(rng)),
                ("tenant", rng.below(MAX_TENANTS as u64).to_json()),
                ("depth", rng.below(20).to_json()),
                ("ready_at", ready_at(rng).to_json()),
            ]),
            80..=89 => obj(&[("op", JsonValue::Str("mark_dirty".into())), ("line", line)]),
            90..=94 => obj(&[("op", JsonValue::Str("invalidate".into())), ("line", line)]),
            _ => obj(&[("op", JsonValue::Str("contains".into())), ("line", line)]),
        });
    }
    (config, events)
}

fn filter_case(rng: &mut SplitMix64) -> (JsonValue, Vec<JsonValue>) {
    // Half the campaign exercises the perceptron filter; the other half
    // splits across the counter-table kinds and no filter, which admits
    // everything and must store nothing. Salted and partitioned variants
    // are drawn independently below, so hardened perceptron configs come
    // up as often as hardened counter tables.
    let kind = *rng.pick(&[
        "None",
        "Pa",
        "Pc",
        "Hybrid",
        "Perceptron",
        "Perceptron",
        "Perceptron",
        "Perceptron",
    ]);
    // split_by_source only applies to the flat kinds.
    let split = (kind == "Pa" || kind == "Pc") && rng.chance(0.25);
    // Half the campaign runs hardened: a random keyed-hash salt and/or a
    // partitioned table, so the salted fold and the per-tenant slot math
    // stay under lockstep alongside the paper's shared-table baseline.
    let salt = if rng.chance(0.5) { rng.next_u64() } else { 0 };
    let partitions = *rng.pick(&[1u64, 1, 2, 4]);
    let config = obj(&[
        ("kind", JsonValue::Str(kind.into())),
        ("table_entries", rng.pick(&[64u64, 128, 256]).to_json()),
        ("counter_bits", rng.pick(&[1u64, 2, 3]).to_json()),
        (
            "counter_init",
            JsonValue::Str((*rng.pick(&["WeaklyGood", "StronglyGood", "WeaklyBad"])).into()),
        ),
        ("adaptive_accuracy_threshold", JsonValue::Null),
        ("adaptive_window", 1024u64.to_json()),
        (
            "recovery_window",
            if rng.chance(0.2) {
                0u64
            } else {
                rng.range(50, 400)
            }
            .to_json(),
        ),
        ("split_by_source", split.to_json()),
        ("hash_salt", salt.to_json()),
        ("tenant_partitions", partitions.to_json()),
    ]);
    let n = 240 + rng.below(120);
    let mut events = Vec::with_capacity(n as usize);
    let mut now = 0u64;
    for _ in 0..n {
        now += rng.below(20);
        // A small line pool relative to the reject log makes demand misses
        // actually land on logged rejections. Tenants run past MAX_TENANTS
        // so the partition wrap-around is exercised too.
        let line = rng.below(512).to_json();
        let tenant = rng.below(6).to_json();
        let roll = rng.below(100);
        events.push(match roll {
            0..=39 => obj(&[
                ("op", JsonValue::Str("lookup".into())),
                ("line", line),
                ("pc", pc(rng, 64).to_json()),
                ("source", source(rng)),
                ("tenant", tenant),
                ("depth", rng.below(20).to_json()),
                ("now", now.to_json()),
            ]),
            40..=79 => obj(&[
                ("op", JsonValue::Str("evict".into())),
                ("line", line),
                ("pc", pc(rng, 64).to_json()),
                ("source", source(rng)),
                ("tenant", tenant),
                ("depth", rng.below(20).to_json()),
                ("referenced", rng.chance(0.5).to_json()),
            ]),
            _ => obj(&[
                ("op", JsonValue::Str("demand_miss".into())),
                ("line", line),
                ("now", now.to_json()),
            ]),
        });
    }
    (config, events)
}

fn ports_case(rng: &mut SplitMix64) -> (JsonValue, Vec<JsonValue>) {
    let ports = rng.range(1, 4);
    let config = obj(&[("ports", ports.to_json())]);
    let n = 160 + rng.below(80);
    let mut events = Vec::with_capacity(n as usize);
    let mut t = 1u64;
    for _ in 0..n {
        t += rng.below(3);
        // ~10% of operations use a stale timestamp to exercise the
        // backwards-clock refusal paths.
        let now = if rng.chance(0.1) {
            t.saturating_sub(rng.range(1, 5))
        } else {
            t
        };
        let roll = rng.below(100);
        events.push(match roll {
            0..=59 => obj(&[
                ("op", JsonValue::Str("try_acquire".into())),
                ("now", now.to_json()),
            ]),
            60..=84 => obj(&[
                ("op", JsonValue::Str("free".into())),
                ("now", now.to_json()),
            ]),
            _ => obj(&[
                ("op", JsonValue::Str("saturated".into())),
                ("now", now.to_json()),
            ]),
        });
    }
    (config, events)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_deterministic_per_seed() {
        for kind in ["cache", "filter", "ports"] {
            assert_eq!(case(kind, 42), case(kind, 42), "{kind} must be stable");
            assert_ne!(case(kind, 1).1, case(kind, 2).1, "{kind} seeds must differ");
        }
    }
}
