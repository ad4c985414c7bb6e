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
//!
//! Recency bookkeeping mirrors the real stamp discipline: a *fill* always
//! refreshes recency (even under FIFO — re-filling a resident line restamps
//! it in the real array), while a *probe hit* refreshes recency only under
//! LRU. Random replacement is excluded from campaigns: it would couple the
//! oracle to the real structure's RNG draw order, which is exactly the kind
//! of incidental detail a reference model must not encode.

use crate::event::{b, obj, op, s, u, u_or};
use crate::Harness;
use ppf_mem::cache::{Cache, Evicted, FillKind, LineState, ProbeHit};
use ppf_mem::replacement::ReplacementPolicy;
use ppf_types::{
    CacheConfig, FromJson, JsonValue, LineAddr, PrefetchOrigin, PrefetchSource, ToJson,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RefLine {
    line: LineAddr,
    dirty: bool,
    pib: bool,
    rib: bool,
    nsp_tag: bool,
    origin: Option<PrefetchOrigin>,
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
        }
    }

    fn evict_report(&self) -> Evicted {
        Evicted {
            line: self.line,
            dirty: self.dirty,
            prefetch: self
                .pib
                .then(|| (self.origin.expect("PIB line carries its origin"), self.rib)),
        }
    }
}

/// Naive reference cache: one recency-ordered `Vec` per set.
#[derive(Debug, Clone)]
pub struct RefCache {
    sets: Vec<Vec<RefLine>>,
    ways: usize,
    set_mask: u64,
    /// Probe hits refresh recency (LRU) or not (FIFO).
    touch_on_hit: bool,
}

impl RefCache {
    /// Build the reference model for the same geometry as the real cache.
    pub fn new(cfg: &CacheConfig, policy: ReplacementPolicy) -> Self {
        let sets = cfg.sets();
        assert!(sets.is_power_of_two());
        assert!(
            !matches!(policy, ReplacementPolicy::Random),
            "random replacement is not oracle-checkable"
        );
        RefCache {
            sets: vec![Vec::new(); sets],
            ways: cfg.ways,
            set_mask: (sets - 1) as u64,
            touch_on_hit: matches!(policy, ReplacementPolicy::Lru),
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
        let touch = self.touch_on_hit;
        let set = self.set_of(line);
        let pos = set.iter().position(|l| l.line == line)?;
        let l = &mut set[pos];
        let hit = ProbeHit {
            was_prefetched: l.pib,
            first_use: l.pib && !l.rib,
            nsp_tagged: l.nsp_tag,
        };
        if l.pib {
            l.rib = true;
        }
        l.nsp_tag = false;
        if is_write {
            l.dirty = true;
        }
        if touch {
            let moved = set.remove(pos);
            set.push(moved);
        }
        Some(hit)
    }

    /// Install a line; mirrors [`Cache::fill`]'s observable contract.
    pub fn fill(&mut self, line: LineAddr, kind: FillKind) -> Option<Evicted> {
        let ways = self.ways;
        let set = self.set_of(line);
        if let Some(pos) = set.iter().position(|l| l.line == line) {
            // Resident refill: a demand fill of a prefetched line counts as
            // a reference; any fill refreshes recency (the real array
            // restamps unconditionally, under FIFO too).
            let mut l = set.remove(pos);
            if matches!(kind, FillKind::Demand) && l.pib {
                l.rib = true;
                l.nsp_tag = false;
            }
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
            },
            FillKind::Prefetch(origin) => RefLine {
                line,
                dirty: false,
                pib: true,
                rib: false,
                nsp_tag: true,
                origin: Some(origin),
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
    cfg: CacheConfig,
    policy: ReplacementPolicy,
    real: Cache,
    oracle: RefCache,
}

impl CacheHarness {
    /// Build from a repro/campaign config:
    /// `{"size_bytes":..,"line_bytes":..,"ways":..,"policy":"Lru"|"Fifo"}`.
    pub fn from_config(config: &JsonValue) -> Result<Self, String> {
        let cfg = CacheConfig {
            size_bytes: usize::from_json(
                config.get("size_bytes").ok_or("cache config: size_bytes")?,
            )?,
            line_bytes: u32::from_json(
                config.get("line_bytes").ok_or("cache config: line_bytes")?,
            )?,
            ways: usize::from_json(config.get("ways").ok_or("cache config: ways")?)?,
            hit_latency: 1,
            ports: 1,
        };
        let policy = match config.get("policy").and_then(JsonValue::as_str) {
            Some("Lru") => ReplacementPolicy::Lru,
            Some("Fifo") => ReplacementPolicy::Fifo,
            other => return Err(format!("cache config: bad policy {other:?}")),
        };
        Ok(CacheHarness {
            real: Cache::new(&cfg, policy, 0),
            oracle: RefCache::new(&cfg, policy),
            cfg,
            policy,
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
            ("size_bytes", self.cfg.size_bytes.to_json()),
            ("line_bytes", self.cfg.line_bytes.to_json()),
            ("ways", self.cfg.ways.to_json()),
            (
                "policy",
                JsonValue::Str(
                    match self.policy {
                        ReplacementPolicy::Lru => "Lru",
                        ReplacementPolicy::Fifo => "Fifo",
                        ReplacementPolicy::Random => "Random",
                    }
                    .to_string(),
                ),
            ),
        ])
    }

    fn reset(&mut self) {
        self.real = Cache::new(&self.cfg, self.policy, 0);
        self.oracle = RefCache::new(&self.cfg, self.policy);
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
            "fill_demand" => diff(
                "demand-fill eviction",
                self.real.fill(line, FillKind::Demand),
                self.oracle.fill(line, FillKind::Demand),
            )?,
            "fill_prefetch" => {
                let origin = Self::origin_of(event);
                diff(
                    "prefetch-fill eviction",
                    self.real.fill(line, FillKind::Prefetch(origin)),
                    self.oracle.fill(line, FillKind::Prefetch(origin)),
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

    fn cfg(size: usize, ways: usize) -> CacheConfig {
        CacheConfig {
            size_bytes: size,
            line_bytes: 32,
            ways,
            hit_latency: 1,
            ports: 1,
        }
    }

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
        let mut c = RefCache::new(&cfg(128, 2), ReplacementPolicy::Lru);
        let a = LineAddr(0);
        assert!(c.fill(a, FillKind::Prefetch(origin(a))).is_none());
        let hit = c.probe(a, false).unwrap();
        assert!(hit.was_prefetched && hit.first_use && hit.nsp_tagged);
        let ev = c.invalidate(a).unwrap();
        assert!(ev.prefetch.unwrap().1, "referenced prefetch is good");
    }

    #[test]
    fn fifo_ignores_probe_recency_but_not_refill() {
        let mut c = RefCache::new(&cfg(64, 2), ReplacementPolicy::Fifo);
        c.fill(LineAddr(0), FillKind::Demand);
        c.fill(LineAddr(2), FillKind::Demand);
        c.probe(LineAddr(0), false);
        let ev = c.fill(LineAddr(4), FillKind::Demand).unwrap();
        assert_eq!(ev.line, LineAddr(0), "probe must not protect under FIFO");
        // A refill, by contrast, restamps even under FIFO.
        c.fill(LineAddr(2), FillKind::Demand);
        let ev = c.fill(LineAddr(6), FillKind::Demand).unwrap();
        assert_eq!(ev.line, LineAddr(4));
    }

    #[test]
    fn harness_round_trips_config() {
        let (config, _) = crate::generate::case("cache", 3);
        let h = CacheHarness::from_config(&config).unwrap();
        assert_eq!(h.config(), config);
    }
}
