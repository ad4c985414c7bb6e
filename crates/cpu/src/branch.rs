//! Branch prediction front end: bimodal predictor + branch target buffer
//! (Table 1: bimodal with 2048 entries, BTB 4-way × 4096 sets).
//!
//! A conditional branch is predicted correctly when the bimodal counter
//! gets the direction right *and*, for taken branches, the BTB supplies the
//! right target. Mispredictions stall fetch until the branch resolves plus
//! a redirect penalty (`BranchConfig::mispredict_penalty`).

use ppf_types::{BranchConfig, Pc};

/// Bimodal 2-bit-counter direction predictor.
#[derive(Debug, Clone)]
pub struct BranchPredictor {
    counters: Box<[u8]>,
    mask: u64,
}

impl BranchPredictor {
    /// A predictor with `entries` 2-bit counters (power of two), initialized
    /// weakly-taken (the usual cold state).
    pub fn new(entries: usize) -> Self {
        assert!(entries.is_power_of_two());
        BranchPredictor {
            counters: vec![2u8; entries].into_boxed_slice(),
            mask: (entries - 1) as u64,
        }
    }

    #[inline]
    fn slot(&self, pc: Pc) -> usize {
        ((pc >> 2) & self.mask) as usize
    }

    /// Predicted direction for the branch at `pc`.
    #[inline]
    pub fn predict(&self, pc: Pc) -> bool {
        self.counters[self.slot(pc)] >= 2
    }

    /// Train with the resolved direction.
    #[inline]
    pub fn train(&mut self, pc: Pc, taken: bool) {
        let slot = self.slot(pc);
        let v = self.counters[slot];
        self.counters[slot] = if taken {
            (v + 1).min(3)
        } else {
            v.saturating_sub(1)
        };
    }
}

/// Set-associative branch target buffer, stored as struct-of-arrays over
/// zero-initialized vectors (DESIGN.md §5): an all-zero way is empty, so a
/// new BTB writes none of its 4096 × 4 slots until a branch installs one.
#[derive(Debug, Clone)]
pub struct Btb {
    /// Per way: 0 = empty, otherwise the branch's `pc >> 2` plus one (which
    /// never overflows).
    tags: Box<[u64]>,
    targets: Box<[Pc]>,
    /// Recency stamps from `next_lru`, which starts at 1: an empty way's 0
    /// is always the smallest, so victim choice needs no validity check.
    lru: Box<[u64]>,
    ways: usize,
    set_mask: u64,
    next_lru: u64,
}

impl Btb {
    /// A BTB of `sets` × `ways` (Table 1: 4096 × 4).
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets.is_power_of_two());
        assert!(ways > 0);
        Btb {
            tags: vec![0; sets * ways].into_boxed_slice(),
            targets: vec![0; sets * ways].into_boxed_slice(),
            lru: vec![0; sets * ways].into_boxed_slice(),
            ways,
            set_mask: (sets - 1) as u64,
            next_lru: 1,
        }
    }

    /// The way-slot range of `pc`'s set and its tag-array encoding.
    #[inline]
    fn set_of(&self, pc: Pc) -> (std::ops::Range<usize>, u64) {
        let key = pc >> 2;
        let base = ((key & self.set_mask) as usize) * self.ways;
        (base..base + self.ways, key + 1)
    }

    /// Predicted target for a taken branch at `pc`, if the BTB knows one.
    pub fn lookup(&mut self, pc: Pc) -> Option<Pc> {
        let (set, tag) = self.set_of(pc);
        let idx = set.start + self.tags[set].iter().position(|&t| t == tag)?;
        self.lru[idx] = self.next_lru;
        self.next_lru += 1;
        Some(self.targets[idx])
    }

    /// Install/refresh the target for the branch at `pc` (on a taken
    /// resolution), evicting the LRU way on conflict.
    pub fn update(&mut self, pc: Pc, target: Pc) {
        let (set, tag) = self.set_of(pc);
        let lru = self.next_lru;
        self.next_lru += 1;
        let idx = match self.tags[set.clone()].iter().position(|&t| t == tag) {
            // Hit: refresh.
            Some(way) => set.start + way,
            // Fill the first empty way or evict the LRU one: the first
            // smallest stamp either way.
            None => {
                let way = self.lru[set.clone()]
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, &stamp)| stamp)
                    .map_or(0, |(way, _)| way);
                self.tags[set.start + way] = tag;
                set.start + way
            }
        };
        self.targets[idx] = target;
        self.lru[idx] = lru;
    }
}

/// The combined front end: direction + target prediction.
#[derive(Debug, Clone)]
pub struct FrontEnd {
    /// Direction predictor.
    pub predictor: BranchPredictor,
    /// Target buffer.
    pub btb: Btb,
    /// Redirect penalty on a misprediction.
    pub mispredict_penalty: u64,
}

impl FrontEnd {
    /// Build from config.
    pub fn new(cfg: &BranchConfig) -> Self {
        FrontEnd {
            predictor: BranchPredictor::new(cfg.bimodal_entries),
            btb: Btb::new(cfg.btb_sets, cfg.btb_ways),
            mispredict_penalty: cfg.mispredict_penalty,
        }
    }

    /// Predict the branch at `pc`; returns `true` if the prediction matches
    /// the resolved `(taken, target)`, and trains the structures.
    pub fn predict_and_train(&mut self, pc: Pc, taken: bool, target: Pc) -> bool {
        let dir_pred = self.predictor.predict(pc);
        let target_pred = self.btb.lookup(pc);
        // Direction must match; a predicted-taken branch also needs the
        // right target from the BTB.
        let correct = dir_pred == taken && (!taken || target_pred == Some(target));
        self.predictor.train(pc, taken);
        if taken {
            self.btb.update(pc, target);
        }
        correct
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bimodal_learns_direction() {
        let mut p = BranchPredictor::new(16);
        assert!(p.predict(0x100), "cold state is weakly taken");
        p.train(0x100, false);
        p.train(0x100, false);
        assert!(!p.predict(0x100));
        p.train(0x100, true);
        p.train(0x100, true);
        assert!(p.predict(0x100));
    }

    #[test]
    fn bimodal_hysteresis() {
        let mut p = BranchPredictor::new(16);
        p.train(0x100, true); // saturate to 3
        p.train(0x100, false); // back to 2: still predicts taken
        assert!(p.predict(0x100));
    }

    #[test]
    fn bimodal_aliasing() {
        let mut p = BranchPredictor::new(4);
        p.train(0x100, false);
        p.train(0x100, false);
        // pc 0x110 aliases (same (pc>>2) & 3).
        assert!(!p.predict(0x110));
    }

    #[test]
    fn btb_miss_then_hit() {
        let mut b = Btb::new(16, 2);
        assert_eq!(b.lookup(0x100), None);
        b.update(0x100, 0x2000);
        assert_eq!(b.lookup(0x100), Some(0x2000));
    }

    #[test]
    fn btb_lru_eviction() {
        let mut b = Btb::new(1, 2); // single set, 2 ways
        b.update(0x100, 0x1);
        b.update(0x104, 0x2);
        b.lookup(0x100); // refresh 0x100
        b.update(0x108, 0x3); // evicts 0x104
        assert_eq!(b.lookup(0x100), Some(0x1));
        assert_eq!(b.lookup(0x104), None);
        assert_eq!(b.lookup(0x108), Some(0x3));
    }

    #[test]
    fn btb_target_update() {
        let mut b = Btb::new(16, 2);
        b.update(0x100, 0x2000);
        b.update(0x100, 0x3000);
        assert_eq!(b.lookup(0x100), Some(0x3000));
    }

    #[test]
    fn frontend_correct_only_with_direction_and_target() {
        let mut f = FrontEnd::new(&BranchConfig::default());
        // Cold: predicts taken but BTB is empty -> wrong on a taken branch.
        assert!(!f.predict_and_train(0x100, true, 0x9000));
        // Now the BTB knows the target and the counter is saturated taken.
        assert!(f.predict_and_train(0x100, true, 0x9000));
        // Not-taken branch with cold weakly-taken counter: wrong once...
        assert!(!f.predict_and_train(0x200, false, 0x9000));
        // ...then the counter (now 1) predicts not-taken: correct.
        assert!(f.predict_and_train(0x200, false, 0x9000));
    }

    #[test]
    fn frontend_learns_not_taken_after_two_outcomes() {
        let mut f = FrontEnd::new(&BranchConfig::default());
        f.predict_and_train(0x300, false, 0);
        f.predict_and_train(0x300, false, 0);
        assert!(f.predict_and_train(0x300, false, 0), "counter now below 2");
    }

    #[test]
    fn frontend_retarget() {
        let mut f = FrontEnd::new(&BranchConfig::default());
        f.predict_and_train(0x100, true, 0x9000);
        assert!(f.predict_and_train(0x100, true, 0x9000));
        // Target changes (indirect-like): one miss, then relearned.
        assert!(!f.predict_and_train(0x100, true, 0xa000));
        assert!(f.predict_and_train(0x100, true, 0xa000));
    }
}
