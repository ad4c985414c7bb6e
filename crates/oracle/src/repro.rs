//! Self-contained, replayable divergence repros.
//!
//! A repro is one JSONL file: a header line
//! `{"version":1,"kind":"cache","config":{...},"note":"..."}` followed by
//! one compact event object per line. The file carries everything needed to
//! rebuild the harness and re-execute the failing stream — no seed, no
//! generator version, no reference to the campaign that found it — so a
//! case minimized today still replays after the generators change.
//!
//! Minimized cases from CI land in `tests/repros/` (see its README.md) and
//! the `replay_committed_corpus` test in `tests/oracle.rs` re-runs every
//! committed file on each CI pass.

use crate::lockstep::run_lockstep;
use crate::{harness_for, Harness};
use ppf_types::JsonValue;
use std::io;
use std::path::{Path, PathBuf};

/// Current on-disk format version, written into every header.
pub const FORMAT_VERSION: u64 = 1;

/// A parsed (or about-to-be-written) repro case.
#[derive(Debug, Clone)]
pub struct Repro {
    /// Harness kind (`"cache"`, `"filter"`, `"ports"`).
    pub kind: String,
    /// Configuration both sides are rebuilt from.
    pub config: JsonValue,
    /// The (minimized) event stream.
    pub events: Vec<JsonValue>,
    /// Free-form provenance: seed, divergence detail, injection drill, …
    pub note: Option<String>,
}

impl Repro {
    /// Capture a repro from a harness and the stream that diverged on it.
    pub fn capture(harness: &dyn Harness, events: Vec<JsonValue>, note: Option<String>) -> Repro {
        Repro {
            kind: harness.kind().to_string(),
            config: harness.config(),
            events,
            note,
        }
    }

    /// Serialize to the JSONL wire format (header + one event per line).
    /// `JsonValue`'s `Display` is compact single-line JSON, which is what
    /// keeps each event on its own line.
    pub fn to_jsonl(&self) -> String {
        let mut header = vec![
            ("version".to_string(), JsonValue::UInt(FORMAT_VERSION)),
            ("kind".to_string(), JsonValue::Str(self.kind.clone())),
            ("config".to_string(), self.config.clone()),
        ];
        if let Some(note) = &self.note {
            header.push(("note".to_string(), JsonValue::Str(note.clone())));
        }
        let mut out = JsonValue::Object(header).to_string();
        out.push('\n');
        for event in &self.events {
            out.push_str(&event.to_string());
            out.push('\n');
        }
        out
    }

    /// Parse the JSONL wire format. Blank lines and `#`-prefixed comment
    /// lines are ignored so committed cases can carry annotations.
    pub fn parse_jsonl(text: &str) -> Result<Repro, String> {
        let mut lines = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'));
        let header_line = lines.next().ok_or("empty repro file")?;
        let header = JsonValue::parse(header_line).map_err(|e| format!("bad repro header: {e}"))?;
        let version = header
            .get("version")
            .and_then(JsonValue::as_u64)
            .ok_or("repro header missing version")?;
        if version != FORMAT_VERSION {
            return Err(format!(
                "unsupported repro version {version} (expected {FORMAT_VERSION})"
            ));
        }
        let kind = header
            .get("kind")
            .and_then(JsonValue::as_str)
            .ok_or("repro header missing kind")?
            .to_string();
        let config = header
            .get("config")
            .ok_or("repro header missing config")?
            .clone();
        let note = header
            .get("note")
            .and_then(JsonValue::as_str)
            .map(str::to_string);
        let events = lines
            .enumerate()
            .map(|(i, l)| {
                JsonValue::parse(l).map_err(|e| format!("bad event on line {}: {e}", i + 2))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Repro {
            kind,
            config,
            events,
            note,
        })
    }

    /// Rebuild the harness this repro targets.
    pub fn harness(&self) -> Result<Box<dyn Harness>, String> {
        harness_for(&self.kind, &self.config)
    }

    /// Re-execute the case. `Ok(())` means real and oracle agree on the
    /// whole stream; `Err` describes the (still-present) divergence.
    pub fn replay(&self) -> Result<(), String> {
        let mut harness = self.harness()?;
        match run_lockstep(&mut *harness, &self.events) {
            None => Ok(()),
            Some(d) => Err(format!(
                "{} repro diverges at step {}: {} (event {})",
                self.kind, d.step, d.detail, d.event
            )),
        }
    }
}

/// Parse and replay a repro from its JSONL text in one call.
pub fn replay_str(text: &str) -> Result<(), String> {
    Repro::parse_jsonl(text)?.replay()
}

/// Write `repro` as `<dir>/<name>.jsonl`, creating `dir` if needed.
/// Returns the path written.
pub fn write_repro(dir: &Path, name: &str, repro: &Repro) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.jsonl"));
    std::fs::write(&path, repro.to_jsonl())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;

    #[test]
    fn jsonl_round_trip_preserves_everything() {
        let (config, events) = generate::case("filter", 7);
        let repro = Repro {
            kind: "filter".into(),
            config,
            events,
            note: Some("seed 7".into()),
        };
        let parsed = Repro::parse_jsonl(&repro.to_jsonl()).expect("round trip");
        assert_eq!(parsed.kind, repro.kind);
        assert_eq!(parsed.config, repro.config);
        assert_eq!(parsed.events, repro.events);
        assert_eq!(parsed.note, repro.note);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let (config, events) = generate::case("ports", 3);
        let repro = Repro {
            kind: "ports".into(),
            config,
            events,
            note: None,
        };
        let annotated = format!("# provenance comment\n\n{}", repro.to_jsonl());
        let parsed = Repro::parse_jsonl(&annotated).expect("annotated parse");
        assert_eq!(parsed.events, repro.events);
    }

    #[test]
    fn clean_case_replays_clean() {
        let (config, events) = generate::case("cache", 11);
        let repro = Repro {
            kind: "cache".into(),
            config,
            events,
            note: None,
        };
        replay_str(&repro.to_jsonl()).expect("no divergence on the current tree");
    }

    #[test]
    fn wrong_version_is_rejected() {
        assert!(Repro::parse_jsonl("{\"version\":2,\"kind\":\"ports\",\"config\":{}}").is_err());
    }
}
