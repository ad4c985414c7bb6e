//! Rejected-prefetch verification (the filter's recovery path).
//!
//! A strictly eviction-trained filter is *absorbing*: once a history-table
//! counter falls into the reject region, prefetches for its keys stop being
//! issued, so no evictions of those prefetches ever occur and the counter
//! can never be trained again. Any key class whose outcome stream is not
//! 100% good eventually sees two consecutive bad outcomes and dies
//! permanently — over a 300M-instruction run (the paper's length) that
//! would filter out essentially *all* prefetches, not the ~50%-of-good /
//! ~97%-of-bad split Figure 4 reports. The paper does not spell out its
//! recovery mechanism, but its sustained steady-state numbers require one.
//!
//! This module implements the natural hardware choice, equivalent to a
//! small victim/confirmation buffer: when the filter rejects a prefetch it
//! records the target line in a direct-mapped [`RejectLog`]; if a demand
//! miss to that line arrives while the record is live, the rejection was a
//! *misprediction* (the prefetch would have been referenced) and the
//! counter is trained good. Useless rejections are never demanded soon
//! after, leave the log silently, and the counter stays bad — so
//! consistently-bad keys remain filtered while good keys knocked out by an
//! unlucky streak recover. The structure is address-only (no data), the
//! same cost class as the prefetch queue.

use ppf_types::LineAddr;

/// Direct-mapped log of recently rejected prefetch targets. A slot holds
/// one rejection record: the rejected target, the history-table key whose
/// counter vetoed it, and when the rejection happened. Stored as
/// struct-of-arrays over zero-initialized vectors (DESIGN.md §5), so an
/// all-zero slot is empty and a new log writes none of its slots.
#[derive(Debug, Clone)]
pub struct RejectLog {
    /// Per slot: 0 = empty, otherwise the rejected line plus one. Line
    /// numbers are byte addresses shifted right by the line-offset bits,
    /// so the `+ 1` never overflows.
    lines: Box<[u64]>,
    keys: Box<[u64]>,
    /// Which history table vetoed (0 unless split-by-source).
    tables: Box<[u8]>,
    /// Tenant whose lookup was rejected — recovery must train the same
    /// partition the veto came from.
    tenants: Box<[u8]>,
    /// Cycle of the rejection.
    stamps: Box<[u64]>,
    mask: u64,
    /// Freshness window in core cycles: roughly the residence time of a
    /// line in the small L1. A demand miss later than this would not have
    /// found the prefetched line alive anyway (the RIB would have read 0),
    /// so it is not evidence of a misprediction.
    window: u64,
}

/// Slots in the filter's reject log: matches the history table's 4K
/// entries at a fraction of its cost (line number + key per slot).
pub const DEFAULT_REJECT_LOG: usize = 4096;

impl RejectLog {
    /// A log with `entries` slots (power of two) and a freshness window of
    /// `window` core cycles (`FilterConfig::recovery_window`).
    pub fn new(entries: usize, window: u64) -> Self {
        assert!(entries.is_power_of_two());
        assert!(window > 0);
        RejectLog {
            lines: vec![0; entries].into_boxed_slice(),
            keys: vec![0; entries].into_boxed_slice(),
            tables: vec![0; entries].into_boxed_slice(),
            tenants: vec![0; entries].into_boxed_slice(),
            stamps: vec![0; entries].into_boxed_slice(),
            mask: (entries - 1) as u64,
            window,
        }
    }

    #[inline]
    fn slot(&self, line: LineAddr) -> usize {
        // Lines are already uniformly distributed; low bits index directly.
        (line.0 & self.mask) as usize
    }

    /// Record a rejection of `line` decided by `key` in history table
    /// `table` for `tenant` at cycle `now`. Overwrites any previous record
    /// in the slot.
    #[inline]
    pub fn record(&mut self, line: LineAddr, key: u64, table: u8, tenant: u8, now: u64) {
        let slot = self.slot(line);
        self.lines[slot] = line.0 + 1;
        self.keys[slot] = key;
        self.tables[slot] = table;
        self.tenants[slot] = tenant;
        self.stamps[slot] = now;
    }

    /// A demand miss to `line` arrived at cycle `now`: if a *fresh*
    /// rejection matches, return the `(key, table, tenant)` to train good
    /// (consuming the record). Stale matches are dropped without training.
    #[inline]
    pub fn check_miss(&mut self, line: LineAddr, now: u64) -> Option<(u64, u8, u8)> {
        let slot = self.slot(line);
        if self.lines[slot] != line.0 + 1 {
            return None;
        }
        self.lines[slot] = 0;
        (now.saturating_sub(self.stamps[slot]) <= self.window).then_some((
            self.keys[slot],
            self.tables[slot],
            self.tenants[slot],
        ))
    }

    /// Number of live records (diagnostics; includes stale ones not yet
    /// probed or overwritten).
    pub fn live(&self) -> usize {
        self.lines.iter().filter(|&&l| l != 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_matches_miss() {
        let mut log = RejectLog::new(16, 400);
        log.record(LineAddr(5), 99, 0, 0, 10);
        assert_eq!(log.check_miss(LineAddr(5), 20), Some((99, 0, 0)));
        // Consumed: a second miss does not re-train.
        assert_eq!(log.check_miss(LineAddr(5), 21), None);
    }

    #[test]
    fn non_matching_miss_is_ignored() {
        let mut log = RejectLog::new(16, 400);
        log.record(LineAddr(5), 99, 0, 0, 10);
        assert_eq!(log.check_miss(LineAddr(6), 11), None);
        assert_eq!(
            log.check_miss(LineAddr(5), 12),
            Some((99, 0, 0)),
            "record still live"
        );
    }

    #[test]
    fn aliasing_overwrites() {
        let mut log = RejectLog::new(16, 400);
        log.record(LineAddr(5), 1, 0, 0, 0);
        log.record(LineAddr(21), 2, 0, 0, 1); // same slot in a 16-entry log
        assert_eq!(log.check_miss(LineAddr(5), 2), None, "overwritten");
        assert_eq!(log.check_miss(LineAddr(21), 3), Some((2, 0, 0)));
    }

    #[test]
    fn live_count() {
        let mut log = RejectLog::new(16, 400);
        assert_eq!(log.live(), 0);
        log.record(LineAddr(1), 0, 0, 0, 0);
        log.record(LineAddr(2), 0, 0, 0, 0);
        assert_eq!(log.live(), 2);
        log.check_miss(LineAddr(1), 1);
        assert_eq!(log.live(), 1);
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_rejected() {
        RejectLog::new(100, 400);
    }

    #[test]
    fn stale_records_do_not_train() {
        let mut log = RejectLog::new(16, 4);
        log.record(LineAddr(5), 99, 0, 3, 100);
        assert_eq!(log.check_miss(LineAddr(5), 105), None, "record went stale");
        assert_eq!(log.live(), 0, "stale record consumed");
    }

    #[test]
    fn fresh_record_within_window_trains() {
        let mut log = RejectLog::new(16, 4);
        log.record(LineAddr(5), 99, 0, 3, 100);
        assert_eq!(log.check_miss(LineAddr(5), 103), Some((99, 0, 3)));
    }
}
