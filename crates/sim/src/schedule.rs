//! Grid scheduler with a cost-sorted job list.
//!
//! Jobs are sorted once by predicted cost, longest first (stable, so equal
//! costs keep input order), and handed out through one atomic cursor over
//! that list. A failed attempt goes to the back of one shared retry queue,
//! which workers drain once the list is used up, so one poisoned cell
//! cannot hold up the cells behind it. A worker exits when the list and the
//! retry queue are both empty: only a live worker pushes a retry, and it
//! drains the queue before it can exit itself, so no retry is stranded.
//!
//! One shared list is enough because a grid cell simulates for
//! milliseconds to seconds, while taking the next job costs one atomic add.
//! Per-worker deques with work stealing have nothing to balance that the
//! shared list does not, and longest-first dispatch already keeps the
//! slowest cells from starting last.
//!
//! Each lock is taken and released in a statement of its own, so no thread
//! ever holds two scheduler locks. The work-stealing scheduler this module
//! used to hold broke that rule: it picked its next task in one expression,
//! `lock(own).pop_front().or_else(|| lock(victim).pop_back())`, and since a
//! guard lives to the end of its statement, a worker still held its own
//! deque while it locked a victim's, so two idle workers stealing from each
//! other deadlocked. `scheduler_survives_contention_stress` in
//! `tests/determinism.rs` is the pinned repro.
//!
//! Dispatch order is driven by [`CostModel`]: a cell's instruction count
//! scaled by a static config-feature weight. The cost model only affects
//! *order*; results are position-addressed, so any schedule produces
//! byte-identical output.

use crate::experiments::RunSpec;
use ppf_types::{FilterKind, SystemConfig};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// FNV-1a 64-bit over `bytes`, continuing from `h`.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a offset basis (the standard 64-bit seed).
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Predicted-cost heuristic for grid cells: total instructions (warm-up
/// included) scaled by a static configuration weight. Predictions only
/// order dispatch; they never change results.
#[derive(Debug, Clone, Copy, Default)]
pub struct CostModel;

impl CostModel {
    /// Predicted cost of `spec` (only the *ordering* matters).
    pub fn predict(&self, spec: &RunSpec) -> u64 {
        (spec.warmup + spec.n_instructions).saturating_mul(config_weight(&spec.config)) / 100
    }
}

/// Static relative cost weight of a configuration (100 = baseline
/// no-prefetch machine): prefetching, filtering and miss classification
/// each add per-instruction work.
fn config_weight(config: &SystemConfig) -> u64 {
    let p = &config.prefetch;
    let mut weight: u64 = 100;
    if p.nsp || p.sdp || p.stride || p.correlation || p.software {
        weight += 40;
    }
    if config.filter.kind != FilterKind::None {
        weight += 15;
    }
    if config.diag.classify_misses {
        weight += 25;
    }
    weight
}

/// The result of one scheduled job execution attempt.
#[derive(Debug)]
pub enum Attempt<R> {
    /// The job finished (successfully or with a terminal failure); `R` is
    /// its result.
    Done(R),
    /// The attempt failed and the job should be re-enqueued at the back of
    /// the scheduler with an incremented attempt counter.
    Retry,
}

/// Execution trace of one scheduled run, for tests and telemetry.
#[derive(Debug, Default)]
pub struct Trace {
    /// Job indices in the order execution *started* (a retried job appears
    /// once per attempt).
    pub start_order: Vec<usize>,
    /// Retry re-enqueues.
    pub retries: u64,
    /// Wall time of each job's final attempt, in microseconds.
    pub cell_micros: Vec<u64>,
}

/// Run `n` jobs over `workers` threads. `costs[i]` is job `i`'s predicted
/// cost (ordering only); `exec(job, attempt)` runs one attempt and decides
/// completion vs retry. Results are returned in job order regardless of
/// schedule. `exec` must eventually return [`Attempt::Done`] for every job
/// (the grid runner bounds attempts itself).
pub fn run_scheduled<R, F>(n: usize, workers: usize, costs: &[u64], exec: F) -> (Vec<R>, Trace)
where
    R: Send,
    F: Fn(usize, u32) -> Attempt<R> + Sync,
{
    assert_eq!(costs.len(), n, "one cost per job");
    let workers = workers.clamp(1, n.max(1));

    // Cost-descending dispatch order (stable: equal costs keep input order).
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(costs[i]));
    // Each `fetch_add` hands out one position of `order`; the cursor
    // publishes no data (`order` is read-only), so `Relaxed` suffices.
    let cursor = AtomicUsize::new(0);
    let retry_queue: Mutex<VecDeque<(usize, u32)>> = Mutex::new(VecDeque::new());
    let results: Mutex<Vec<Option<R>>> = Mutex::new((0..n).map(|_| None).collect());
    let start_order: Mutex<Vec<usize>> = Mutex::new(Vec::with_capacity(n));
    let cell_micros: Mutex<Vec<u64>> = Mutex::new(vec![0; n]);
    let retries = AtomicU64::new(0);

    // Every lock below is taken and released in a statement of its own, so
    // no thread ever holds two scheduler locks at once.
    let worker_loop = || loop {
        let (job, attempt) = match order.get(cursor.fetch_add(1, Ordering::Relaxed)) {
            Some(&job) => (job, 0),
            None => {
                // Only a live worker pushes a retry, and it comes back here
                // before it can exit, so an empty queue means no work is left
                // for this worker.
                let retry = lock(&retry_queue).pop_front();
                let Some(task) = retry else { return };
                task
            }
        };
        lock(&start_order).push(job);
        let t0 = std::time::Instant::now();
        match exec(job, attempt) {
            Attempt::Done(r) => {
                let micros = t0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
                lock(&cell_micros)[job] = micros;
                lock(&results)[job] = Some(r);
            }
            Attempt::Retry => {
                retries.fetch_add(1, Ordering::Relaxed);
                lock(&retry_queue).push_back((job, attempt + 1));
            }
        }
    };
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(worker_loop);
        }
    });

    let results = results
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .into_iter()
        .map(|r| r.expect("every job completed"))
        .collect();
    let trace = Trace {
        start_order: start_order
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner),
        retries: retries.into_inner(),
        cell_micros: cell_micros
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner),
    };
    (results, trace)
}

/// Lock a mutex, recovering from poisoning (worker panics are contained
/// upstream by `catch_unwind`; a stray poison must not cascade).
pub fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppf_types::PrefetchConfig;
    use ppf_workloads::Workload;

    #[test]
    fn single_worker_starts_costliest_first() {
        let costs = [1u64, 9, 5, 7];
        let (results, trace) = run_scheduled(4, 1, &costs, |job, _| Attempt::Done(job));
        assert_eq!(results, vec![0, 1, 2, 3], "results stay in job order");
        assert_eq!(trace.start_order, vec![1, 3, 2, 0], "dispatch is cost-desc");
        assert_eq!(trace.retries, 0);
        assert_eq!(trace.cell_micros.len(), 4);
    }

    #[test]
    fn uniform_costs_keep_fifo_order() {
        // The FIFO baseline the cost model improves on: with no cost
        // signal the sort is stable, so dispatch degenerates to input
        // order — and with a skewed grid (see above) it provably does not.
        let costs = [3u64; 5];
        let (_, trace) = run_scheduled(5, 1, &costs, |job, _| Attempt::Done(job));
        assert_eq!(trace.start_order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn retry_re_enqueues_at_the_back() {
        // Job 0 fails its first attempt. The retry must go to the back of
        // the scheduler (the retry queue), NOT re-run inline: with one worker the
        // observable order is 0,1,2,0 — the old inline-retry runner would
        // produce 0,0,1,2.
        let costs = [1u64; 3];
        let (results, trace) = run_scheduled(3, 1, &costs, |job, attempt| {
            if job == 0 && attempt == 0 {
                Attempt::Retry
            } else {
                Attempt::Done((job, attempt))
            }
        });
        assert_eq!(trace.start_order, vec![0, 1, 2, 0]);
        assert_eq!(trace.retries, 1);
        assert_eq!(results, vec![(0, 1), (1, 0), (2, 0)]);
    }

    #[test]
    fn zero_jobs_and_worker_clamp() {
        let (results, trace) = run_scheduled::<usize, _>(0, 8, &[], |_, _| unreachable!());
        assert!(results.is_empty());
        assert!(trace.start_order.is_empty());
        // More workers than jobs is clamped (no idle spawn storm).
        let (r, _) = run_scheduled(2, 64, &[1, 1], |job, _| Attempt::Done(job));
        assert_eq!(r, vec![0, 1]);
    }

    #[test]
    fn cost_model_prediction_tiers() {
        // One tier: total instructions (warm-up included) × config weight.
        let spec = RunSpec::new("a", SystemConfig::paper_default(), Workload::Gzip);
        let insts = spec.warmup + spec.n_instructions;
        let weight = config_weight(&spec.config);
        assert_eq!(CostModel.predict(&spec), insts * weight / 100);
        // Presentation and stream identity do not move the prediction;
        // the budget and a costlier config do.
        let mut relabeled = spec.clone();
        relabeled.label = "b".into();
        relabeled.seed += 1;
        assert_eq!(CostModel.predict(&relabeled), CostModel.predict(&spec));
        let longer = spec.clone().instructions(2 * spec.n_instructions);
        assert!(CostModel.predict(&longer) > CostModel.predict(&spec));
        let mut classified = spec.clone();
        classified.config.diag.classify_misses = true;
        assert!(CostModel.predict(&classified) > CostModel.predict(&spec));
    }

    #[test]
    fn config_weight_ranks_feature_cost() {
        let baseline = {
            let mut c = SystemConfig::paper_default();
            c.prefetch = PrefetchConfig {
                nsp: false,
                sdp: false,
                stride: false,
                correlation: false,
                software: false,
                ..c.prefetch
            };
            c.filter.kind = FilterKind::None;
            c
        };
        let full = SystemConfig::paper_default();
        assert!(config_weight(&full) > config_weight(&baseline));
        let mut classified = full.clone();
        classified.diag.classify_misses = true;
        assert!(config_weight(&classified) > config_weight(&full));
    }
}
