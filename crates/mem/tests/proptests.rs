//! Property-based tests for the memory substrate: structural invariants
//! must hold under arbitrary operation sequences.

use ppf_mem::cache::{Cache, FillKind};
use ppf_mem::hierarchy::{AccessKind, Hierarchy};
use ppf_mem::queue::{PrefetchQueue, PushOutcome};
use ppf_types::{
    CacheConfig, Cycle, LineAddr, PrefetchOrigin, PrefetchRequest, PrefetchSource, SimStats,
    SystemConfig,
};
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Debug, Clone)]
enum CacheOp {
    Probe(u64, bool),
    FillDemand(u64),
    FillPrefetch(u64),
    Invalidate(u64),
}

fn cache_op() -> impl Strategy<Value = CacheOp> {
    prop_oneof![
        (0u64..512, any::<bool>()).prop_map(|(l, w)| CacheOp::Probe(l, w)),
        (0u64..512).prop_map(CacheOp::FillDemand),
        (0u64..512).prop_map(CacheOp::FillPrefetch),
        (0u64..512).prop_map(CacheOp::Invalidate),
    ]
}

#[derive(Debug, Clone, Copy)]
enum MemOp {
    Demand(AccessKind),
    Prefetch,
    Fetch,
}

/// One hierarchy operation: what, on which pool line, and how many cycles
/// after the previous one (at least one, so "later" is unambiguous).
fn mem_op() -> impl Strategy<Value = (MemOp, u64, u64)> {
    (
        prop_oneof![
            Just(MemOp::Demand(AccessKind::Load)),
            Just(MemOp::Demand(AccessKind::Store)),
            Just(MemOp::Prefetch),
            Just(MemOp::Fetch),
        ],
        0u64..16,
        1u64..40,
    )
}

/// Pool line `i`: four L1 sets, each shared by four lines a whole L1
/// (256 lines) apart, so the direct-mapped L1s, the prefetch buffer and the
/// victim cache keep evicting lines whose fills are still in flight.
fn pool_line(i: u64) -> LineAddr {
    LineAddr(i % 4 + 256 * (i / 4))
}

fn origin(line: u64) -> PrefetchOrigin {
    PrefetchOrigin {
        line: LineAddr(line),
        trigger_pc: 0x1000 + (line % 64) * 4,
        source: PrefetchSource::Nsp,
        tenant: 0,
        depth: 1,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cache_invariants_hold_under_any_op_sequence(
        ops in prop::collection::vec(cache_op(), 1..400),
        ways in 1usize..5,
    ) {
        // 4KB cache; ways varies, sets stay a power of two.
        let cfg = CacheConfig {
            size_bytes: 4096,
            line_bytes: 32,
            ways,
            hit_latency: 1,
            ports: 1,
        };
        prop_assume!(cfg.sets().is_power_of_two());
        let mut c = Cache::new(&cfg);
        let capacity = cfg.lines();
        for op in ops {
            match op {
                CacheOp::Probe(l, w) => { c.probe(LineAddr(l), w); }
                CacheOp::FillDemand(l) => { c.fill(LineAddr(l), FillKind::Demand, 0); }
                CacheOp::FillPrefetch(l) => {
                    c.fill(LineAddr(l), FillKind::Prefetch(origin(l)), 0);
                }
                CacheOp::Invalidate(l) => { c.invalidate(LineAddr(l)); }
            }
            prop_assert!(c.valid_lines() <= capacity);
        }
        c.check_invariants().map_err(TestCaseError::fail)?;
    }

    #[test]
    fn fill_then_probe_always_hits(lines in prop::collection::vec(0u64..100_000, 1..50)) {
        let cfg = CacheConfig {
            size_bytes: 8192,
            line_bytes: 32,
            ways: 1,
            hit_latency: 1,
            ports: 1,
        };
        let mut c = Cache::new(&cfg);
        for l in lines {
            c.fill(LineAddr(l), FillKind::Demand, 0);
            prop_assert!(c.probe(LineAddr(l), false).is_some(), "just-filled line must hit");
        }
    }

    #[test]
    fn eviction_reports_every_prefetch_exactly_once(
        lines in prop::collection::vec(0u64..2048, 1..300),
    ) {
        // Fill-only workload: every prefetch fill is eventually reported
        // either as an eviction or by drain — never twice, never lost.
        let cfg = CacheConfig {
            size_bytes: 1024,
            line_bytes: 32,
            ways: 2,
            hit_latency: 1,
            ports: 1,
        };
        let mut c = Cache::new(&cfg);
        let mut fills = 0u64;
        let mut reports = 0u64;
        for l in lines {
            if !c.contains(LineAddr(l)) {
                if let Some(ev) = c.fill(LineAddr(l), FillKind::Prefetch(origin(l)), 0) {
                    if ev.prefetch.is_some() {
                        reports += 1;
                    }
                }
                fills += 1;
            }
        }
        reports += c.drain().filter(|e| e.prefetch.is_some()).count() as u64;
        prop_assert_eq!(fills, reports);
    }

    #[test]
    fn queue_never_exceeds_capacity_or_duplicates(
        pushes in prop::collection::vec(0u64..64, 1..300),
        cap in 1usize..64,
    ) {
        let mut q = PrefetchQueue::new(cap);
        let mut pops = 0usize;
        for (i, line) in pushes.iter().enumerate() {
            let req = PrefetchRequest {
                line: LineAddr(*line),
                trigger_pc: 0,
                source: PrefetchSource::Sdp,
                tenant: 0,
                depth: 1,
            };
            match q.push(req) {
                PushOutcome::Enqueued => {}
                PushOutcome::Duplicate => prop_assert!(q.contains(LineAddr(*line))),
                PushOutcome::Overflow => prop_assert_eq!(q.len(), cap),
            }
            prop_assert!(q.len() <= cap);
            if i % 3 == 0 && q.pop().is_some() {
                pops += 1;
            }
        }
        let _ = pops;
        // No duplicate lines inside the queue.
        let mut seen = std::collections::HashSet::new();
        while let Some(r) = q.pop() {
            prop_assert!(seen.insert(r.line), "duplicate {:?} in queue", r.line);
        }
    }

    #[test]
    fn no_access_completes_before_its_line_arrives(
        ops in prop::collection::vec(mem_op(), 1..300),
        (buffer, victim) in (any::<bool>(), any::<bool>()),
    ) {
        let mut cfg = SystemConfig::paper_default();
        if buffer {
            cfg = cfg.with_prefetch_buffer();
        }
        if victim {
            cfg = cfg.with_victim_cache(8);
        }
        let mut h = Hierarchy::new(&cfg);
        let mut stats = SimStats::default();
        // Per line, the latest completion any access or issued prefetch
        // reported. The L1I and the L1D hold separate copies of a line, and
        // an L1I hit is free, so each side keeps its own history.
        let mut data: HashMap<LineAddr, Cycle> = HashMap::new();
        let mut inst: HashMap<LineAddr, Cycle> = HashMap::new();
        let mut now = 0;
        for (op, i, gap) in ops {
            now += gap;
            let line = pool_line(i);
            let (complete, history) = match op {
                MemOp::Demand(kind) => {
                    (h.demand_access(line, kind, now, &mut stats).complete_at, &mut data)
                }
                // A prefetch of a resident line is squashed before it
                // issues, as the simulator squashes it.
                MemOp::Prefetch if h.prefetch_target_resident(line) => continue,
                MemOp::Prefetch => {
                    let req = PrefetchRequest {
                        line,
                        trigger_pc: 0x4400,
                        source: PrefetchSource::Nsp,
                        tenant: 0,
                        depth: 1,
                    };
                    (h.issue_prefetch(&req, now, &mut stats).complete_at, &mut data)
                }
                MemOp::Fetch => (h.inst_access(line, now, &mut stats), &mut inst),
            };
            let arrival = history.entry(line).or_insert(0);
            prop_assert!(
                now >= *arrival || complete >= *arrival,
                "{:?} of line {} at cycle {} completed at {}, before its data arrives at {}",
                op, line.0, now, complete, *arrival
            );
            *arrival = (*arrival).max(complete);
            // A line lives in at most one L1-side place.
            for line in (0..16).map(pool_line) {
                let held = [
                    h.l1.contains(line),
                    h.buffer().is_some_and(|b| b.contains(line)),
                    h.victim().is_some_and(|v| v.contains(line)),
                ];
                prop_assert!(
                    held.iter().filter(|&&x| x).count() <= 1,
                    "line {} held by more than one of (L1D, buffer, victim): {:?}",
                    line.0, held
                );
            }
        }
    }
}
