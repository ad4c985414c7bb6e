//! Differential-oracle conformance subsystem.
//!
//! The optimized structures in `ppf-mem` and `ppf-filter` (intrusive-list
//! shadow tags, forward-rolling port arbiters, the hybrid tournament
//! chooser) have each shipped a silent-corruption bug that
//! only a hand-written regression test caught. This crate provides the
//! machine-checked ground truth instead: deliberately **naive, untimed
//! reference models** of each structure, written straight from the paper's
//! semantics (PAPER.md / DESIGN.md §11) with no performance tricks, plus a
//! lockstep differential driver that feeds one deterministic event stream to
//! the real structure and the oracle and diffs every observable after every
//! step.
//!
//! * [`cache`] — set-associative cache with PIB/RIB/NSP metadata and
//!   fill-ready cycles, modelled as per-set recency-ordered vectors.
//! * [`filter`] — the PA/PC/Hybrid history tables, chooser, and reject log,
//!   modelled as plain `Vec<u8>` counter arrays.
//! * [`ports`] — the per-cycle L1 port budget as three integers.
//! * [`lockstep`] — drives a [`Harness`] over an event stream and reports
//!   the first [`lockstep::Divergence`].
//! * [`shrink`] — delta-minimizes a diverging event stream.
//! * [`repro`] — self-contained JSONL repro cases (`tests/repros/`) and the
//!   replayer that re-executes them.
//! * [`generate`] — seeded random event-stream generators for the
//!   randomized campaign.
//!
//! Events and configurations are [`JsonValue`] trees so that the shrinker
//! and the repro format are generic over every structure; see
//! `tests/repros/README.md` for the on-disk format.

#![warn(missing_docs)]

pub mod cache;
pub mod filter;
pub mod generate;
pub mod lockstep;
pub mod ports;
pub mod repro;
pub mod shrink;

pub use cache::{CacheHarness, RefCache};
pub use filter::{FilterHarness, RefFilter};
pub use lockstep::{run_lockstep, Divergence};
pub use ports::{PortsHarness, RefPorts};
pub use repro::Repro;
pub use shrink::minimize;

use ppf_types::JsonValue;

/// A differential harness: the real structure and its reference model,
/// stepped in lockstep over a JSON event stream.
///
/// `step` applies one event to both sides and compares every observable
/// (return values and full state snapshots); `Err` carries a human-readable
/// description of the divergence. A malformed event is a *harness* bug, not
/// a divergence, and panics.
pub trait Harness {
    /// Structure kind tag (`"cache"`, `"filter"`, `"ports"`) —
    /// the registry key used by [`harness_for`] and the repro format.
    fn kind(&self) -> &'static str;
    /// The configuration both sides were built from, as stored in a repro
    /// header.
    fn config(&self) -> JsonValue;
    /// Rebuild both sides from the configuration (the shrinker re-runs the
    /// stream many times).
    fn reset(&mut self);
    /// Apply one event to both sides; `Err(detail)` on divergence.
    fn step(&mut self, event: &JsonValue) -> Result<(), String>;
}

/// Build the harness for `kind` from a repro/campaign configuration.
pub fn harness_for(kind: &str, config: &JsonValue) -> Result<Box<dyn Harness>, String> {
    match kind {
        "cache" => Ok(Box::new(CacheHarness::from_config(config)?)),
        "filter" => Ok(Box::new(FilterHarness::from_config(config)?)),
        "ports" => Ok(Box::new(PortsHarness::from_config(config)?)),
        other => Err(format!("unknown harness kind `{other}`")),
    }
}

/// Event-codec helpers shared by the harnesses and generators. Events are
/// JSON objects with an `"op"` discriminant; fields are accessed strictly —
/// a missing or mistyped field panics with the offending event, because the
/// stream is either generated by [`generate`] or committed under
/// `tests/repros/` and both are bugs worth failing loudly on.
pub(crate) mod event {
    use ppf_types::JsonValue;

    /// Build an event object from `(key, value)` pairs.
    pub fn obj(fields: &[(&str, JsonValue)]) -> JsonValue {
        JsonValue::Object(
            fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        )
    }

    /// The event's `"op"` discriminant.
    pub fn op(e: &JsonValue) -> &str {
        e.get("op")
            .and_then(JsonValue::as_str)
            .unwrap_or_else(|| panic!("event without op: {e}"))
    }

    /// Required unsigned field.
    pub fn u(e: &JsonValue, key: &str) -> u64 {
        e.get(key)
            .and_then(JsonValue::as_u64)
            .unwrap_or_else(|| panic!("event missing u64 `{key}`: {e}"))
    }

    /// Optional unsigned field with a default — used for fields added to
    /// the event codec after repros were committed (e.g. `tenant`), so the
    /// older corpus keeps replaying with the pre-extension semantics.
    pub fn u_or(e: &JsonValue, key: &str, default: u64) -> u64 {
        match e.get(key) {
            None => default,
            Some(v) => v
                .as_u64()
                .unwrap_or_else(|| panic!("event field `{key}` is not u64: {e}")),
        }
    }

    /// Required boolean field.
    pub fn b(e: &JsonValue, key: &str) -> bool {
        e.get(key)
            .and_then(JsonValue::as_bool)
            .unwrap_or_else(|| panic!("event missing bool `{key}`: {e}"))
    }

    /// Required string field.
    pub fn s<'a>(e: &'a JsonValue, key: &str) -> &'a str {
        e.get(key)
            .and_then(JsonValue::as_str)
            .unwrap_or_else(|| panic!("event missing string `{key}`: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_knows_every_kind() {
        for (kind, config) in [
            ("cache", generate::case("cache", 1).0),
            ("filter", generate::case("filter", 1).0),
            ("ports", generate::case("ports", 1).0),
        ] {
            let h = harness_for(kind, &config).expect(kind);
            assert_eq!(h.kind(), kind);
        }
        assert!(harness_for("nope", &JsonValue::Null).is_err());
    }

    #[test]
    fn generated_streams_run_clean_smoke() {
        // A tiny inline smoke so the crate's own tests catch gross breakage;
        // the real ≥1000-case campaign lives in tests/oracle.rs.
        for kind in ["cache", "filter", "ports"] {
            for seed in 0..8u64 {
                let (config, events) = generate::case(kind, seed);
                let mut h = harness_for(kind, &config).expect(kind);
                if let Some(d) = run_lockstep(&mut *h, &events) {
                    panic!(
                        "{kind} seed {seed} diverged at step {}: {}",
                        d.step, d.detail
                    );
                }
            }
        }
    }
}
