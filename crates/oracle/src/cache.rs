//! Untimed reference model of the set-associative cache with PIB/RIB bits.
//!
//! The real [`ppf_mem::cache::Cache`] stores lines in a flat array with
//! per-line replacement stamps and recomputes victims from stamp minima.
//! The oracle keeps each set as a plain vector in **recency order** (front =
//! next victim) and re-derives every rule from the paper's text:
//!
//! * A prefetch fill sets PIB, clears RIB, sets the NSP tag, and attaches
//!   the prefetch's provenance (§4).
//! * A demand reference to a prefetched line sets RIB (first such reference
//!   is the "good prefetch" moment) and consumes the NSP tag.
//! * Eviction reports the line, its dirty bit, and — for prefetched lines —
//!   the provenance plus the RIB value, the filter's only training input.
//! * Every fill carries the cycle the line's data arrives; refilling a
//!   resident line keeps the later cycle (two in-flight fills of one line
//!   merge), and probes and evictions report it.
//!
//! Replacement is LRU: every fill and every probe hit moves the line to
//! the back of its set, so re-filling a resident line refreshes its
//! recency too.

use crate::event::{b, obj, op, s, u, u_or};
use crate::Harness;
use ppf_mem::cache::{Cache, Evicted, FillKind, LineState, ProbeHit};
use ppf_types::{Cycle, FromJson, JsonValue, LineAddr, PrefetchOrigin, PrefetchSource, ToJson};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RefLine {
    line: LineAddr,
    dirty: bool,
    pib: bool,
    rib: bool,
    nsp_tag: bool,
    origin: Option<PrefetchOrigin>,
    ready: Cycle,
}

impl RefLine {
    fn state(&self) -> LineState {
        LineState {
            line: self.line,
            dirty: self.dirty,
            pib: self.pib,
            rib: self.rib,
            nsp_tag: self.nsp_tag,
            origin: self.origin,
            ready: self.ready,
        }
    }

    fn evict_report(&self) -> Evicted {
        Evicted {
            line: self.line,
            dirty: self.dirty,
            prefetch: self
                .pib
                .then(|| (self.origin.expect("PIB line carries its origin"), self.rib)),
            ready: self.ready,
        }
    }
}

/// Naive reference cache: one recency-ordered `Vec` per set.
#[derive(Debug, Clone)]
pub struct RefCache {
    sets: Vec<Vec<RefLine>>,
    ways: usize,
    set_mask: u64,
}

impl RefCache {
    /// Build the reference model for the same geometry as the real cache:
    /// `sets` sets (a power of two) of `ways` ways.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets.is_power_of_two());
        RefCache {
            sets: vec![Vec::new(); sets],
            ways,
            set_mask: (sets - 1) as u64,
        }
    }

    fn set_of(&mut self, line: LineAddr) -> &mut Vec<RefLine> {
        let idx = (line.0 & self.set_mask) as usize;
        &mut self.sets[idx]
    }

    /// Non-mutating presence check.
    pub fn contains(&self, line: LineAddr) -> bool {
        let idx = (line.0 & self.set_mask) as usize;
        self.sets[idx].iter().any(|l| l.line == line)
    }

    /// Demand reference; mirrors [`Cache::probe`]'s observable contract.
    pub fn probe(&mut self, line: LineAddr, is_write: bool) -> Option<ProbeHit> {
        let set = self.set_of(line);
        let pos = set.iter().position(|l| l.line == line)?;
        let l = &mut set[pos];
        let hit = ProbeHit {
            was_prefetched: l.pib,
            first_use: l.pib && !l.rib,
            nsp_tagged: l.nsp_tag,
            ready: l.ready,
        };
        if l.pib {
            l.rib = true;
        }
        l.nsp_tag = false;
        if is_write {
            l.dirty = true;
        }
        let moved = set.remove(pos);
        set.push(moved);
        Some(hit)
    }

    /// Install a line; mirrors [`Cache::fill`]'s observable contract.
    pub fn fill(&mut self, line: LineAddr, kind: FillKind, ready_at: Cycle) -> Option<Evicted> {
        let ways = self.ways;
        let set = self.set_of(line);
        if let Some(pos) = set.iter().position(|l| l.line == line) {
            // Resident refill: a demand fill of a prefetched line counts as
            // a reference; any fill refreshes recency and the data arrives
            // with the later of the two fills.
            let mut l = set.remove(pos);
            if matches!(kind, FillKind::Demand) && l.pib {
                l.rib = true;
                l.nsp_tag = false;
            }
            l.ready = l.ready.max(ready_at);
            set.push(l);
            return None;
        }
        let report = if set.len() == ways {
            Some(set.remove(0).evict_report())
        } else {
            None
        };
        set.push(match kind {
            FillKind::Demand => RefLine {
                line,
                dirty: false,
                pib: false,
                rib: false,
                nsp_tag: false,
                origin: None,
                ready: ready_at,
            },
            FillKind::Prefetch(origin) => RefLine {
                line,
                dirty: false,
                pib: true,
                rib: false,
                nsp_tag: true,
                origin: Some(origin),
                ready: ready_at,
            },
        });
        report
    }

    /// Mark a resident line dirty; `false` when not resident.
    pub fn mark_dirty(&mut self, line: LineAddr) -> bool {
        let set = self.set_of(line);
        match set.iter_mut().find(|l| l.line == line) {
            Some(l) => {
                l.dirty = true;
                true
            }
            None => false,
        }
    }

    /// Remove a line, reporting its eviction state.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<Evicted> {
        let set = self.set_of(line);
        let pos = set.iter().position(|l| l.line == line)?;
        Some(set.remove(pos).evict_report())
    }

    /// All resident lines, sorted by line number — the state compared
    /// against [`Cache::resident_lines`] after every event.
    pub fn resident_lines(&self) -> Vec<LineState> {
        let mut out: Vec<LineState> = self
            .sets
            .iter()
            .flat_map(|set| set.iter().map(RefLine::state))
            .collect();
        out.sort_by_key(|l| l.line.0);
        out
    }
}

/// Lockstep harness pairing the real [`Cache`] with [`RefCache`].
pub struct CacheHarness {
    /// The config's geometry keys, kept for [`Harness::config`].
    size_bytes: usize,
    line_bytes: u32,
    ways: usize,
    real: Cache,
    oracle: RefCache,
}

impl CacheHarness {
    /// Build from a repro/campaign config:
    /// `{"size_bytes":..,"line_bytes":..,"ways":..,"policy":"Lru"}` (every
    /// cache is LRU; the key names it so a repro states its policy).
    pub fn from_config(config: &JsonValue) -> Result<Self, String> {
        let size_bytes =
            usize::from_json(config.get("size_bytes").ok_or("cache config: size_bytes")?)?;
        let line_bytes =
            u32::from_json(config.get("line_bytes").ok_or("cache config: line_bytes")?)?;
        let ways = usize::from_json(config.get("ways").ok_or("cache config: ways")?)?;
        match config.get("policy").and_then(JsonValue::as_str) {
            Some("Lru") => {}
            other => return Err(format!("cache config: bad policy {other:?}")),
        }
        let sets = size_bytes / line_bytes as usize / ways;
        Ok(CacheHarness {
            size_bytes,
            line_bytes,
            ways,
            real: Cache::new(sets, ways),
            oracle: RefCache::new(sets, ways),
        })
    }

    fn origin_of(e: &JsonValue) -> PrefetchOrigin {
        PrefetchOrigin {
            line: LineAddr(u(e, "line")),
            trigger_pc: u(e, "pc"),
            source: PrefetchSource::from_json(&JsonValue::Str(s(e, "source").to_string()))
                .unwrap_or_else(|err| panic!("bad prefetch source in {e}: {err}")),
            tenant: u_or(e, "tenant", 0) as u8,
            depth: u_or(e, "depth", 0) as u8,
        }
    }

    fn check_state(&self) -> Result<(), String> {
        let real = self.real.resident_lines();
        let oracle = self.oracle.resident_lines();
        if real != oracle {
            return Err(format!(
                "resident state diverged: real {real:?} vs oracle {oracle:?}"
            ));
        }
        Ok(())
    }
}

fn diff<T: std::fmt::Debug + PartialEq>(what: &str, real: T, oracle: T) -> Result<(), String> {
    if real == oracle {
        Ok(())
    } else {
        Err(format!("{what}: real {real:?} vs oracle {oracle:?}"))
    }
}

impl Harness for CacheHarness {
    fn kind(&self) -> &'static str {
        "cache"
    }

    fn config(&self) -> JsonValue {
        obj(&[
            ("size_bytes", self.size_bytes.to_json()),
            ("line_bytes", self.line_bytes.to_json()),
            ("ways", self.ways.to_json()),
            ("policy", JsonValue::Str("Lru".to_string())),
        ])
    }

    fn reset(&mut self) {
        let sets = self.real.sets();
        self.real = Cache::new(sets, self.ways);
        self.oracle = RefCache::new(sets, self.ways);
    }

    fn step(&mut self, event: &JsonValue) -> Result<(), String> {
        let line = LineAddr(u(event, "line"));
        match op(event) {
            "probe" => {
                let w = b(event, "write");
                diff(
                    "probe outcome",
                    self.real.probe(line, w),
                    self.oracle.probe(line, w),
                )?;
            }
            "fill_demand" => {
                let ready = u_or(event, "ready_at", 0);
                diff(
                    "demand-fill eviction",
                    self.real.fill(line, FillKind::Demand, ready),
                    self.oracle.fill(line, FillKind::Demand, ready),
                )?;
            }
            "fill_prefetch" => {
                let origin = Self::origin_of(event);
                let ready = u_or(event, "ready_at", 0);
                diff(
                    "prefetch-fill eviction",
                    self.real.fill(line, FillKind::Prefetch(origin), ready),
                    self.oracle.fill(line, FillKind::Prefetch(origin), ready),
                )?;
            }
            "mark_dirty" => diff(
                "mark_dirty",
                self.real.mark_dirty(line),
                self.oracle.mark_dirty(line),
            )?,
            "invalidate" => diff(
                "invalidate report",
                self.real.invalidate(line),
                self.oracle.invalidate(line),
            )?,
            "contains" => diff(
                "contains",
                self.real.contains(line),
                self.oracle.contains(line),
            )?,
            other => panic!("cache harness: unknown op `{other}` in {event}"),
        }
        self.real
            .check_invariants()
            .map_err(|e| format!("real cache invariant broken: {e}"))?;
        self.check_state()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn origin(line: LineAddr) -> PrefetchOrigin {
        PrefetchOrigin {
            line,
            trigger_pc: 0x1000,
            source: PrefetchSource::Nsp,
            tenant: 0,
            depth: 0,
        }
    }

    #[test]
    fn pib_rib_lifecycle_matches_paper() {
        let mut c = RefCache::new(2, 2);
        let a = LineAddr(0);
        assert!(c.fill(a, FillKind::Prefetch(origin(a)), 0).is_none());
        let hit = c.probe(a, false).unwrap();
        assert!(hit.was_prefetched && hit.first_use && hit.nsp_tagged);
        let ev = c.invalidate(a).unwrap();
        assert!(ev.prefetch.unwrap().1, "referenced prefetch is good");
    }

    #[test]
    fn refill_keeps_the_later_ready_cycle_and_eviction_reports_it() {
        let mut c = RefCache::new(2, 1);
        c.fill(LineAddr(0), FillKind::Demand, 90);
        c.fill(LineAddr(0), FillKind::Demand, 40);
        assert_eq!(c.probe(LineAddr(0), false).unwrap().ready, 90);
        let ev = c.fill(LineAddr(2), FillKind::Demand, 5).unwrap();
        assert_eq!(ev.ready, 90);
    }

    #[test]
    fn harness_round_trips_config() {
        let (config, _) = crate::generate::case("cache", 3);
        let h = CacheHarness::from_config(&config).unwrap();
        assert_eq!(h.config(), config);
    }
}
