//! Per-cycle arbitration for the L1's universal cache ports.
//!
//! Table 1's machine has 3 universal (read/write) L1 ports. Demand accesses
//! from the LSQ and pops from the prefetch queue compete for them each cycle
//! — this competition is one of the two costs of bad prefetches the paper
//! identifies (§1.3), and it is what the §5.4 port sweep varies.
//!
//! The arbiter is intentionally simple: a per-cycle grant counter that
//! resets whenever a new cycle begins (forward only — stale timestamps
//! never refresh the budget). Priority is enforced by *call order*
//! (the simulator offers demand accesses before prefetch pops each cycle),
//! matching the paper's design where the prefetch queue waits for free
//! ports.

use ppf_types::Cycle;

/// Grant counter for one cache's ports.
#[derive(Debug, Clone)]
pub struct PortArbiter {
    ports: usize,
    current_cycle: Cycle,
    used: usize,
}

impl PortArbiter {
    /// An arbiter for `ports` universal ports. `ports` must be nonzero.
    pub fn new(ports: usize) -> Self {
        assert!(ports > 0, "a cache needs at least one port");
        PortArbiter {
            ports,
            current_cycle: 0,
            used: 0,
        }
    }

    /// Total ports.
    pub fn ports(&self) -> usize {
        self.ports
    }

    /// Advance the grant counter to cycle `now`. The counter only ever
    /// rolls *forward*: a stale `now` (time went backwards) must not reset
    /// `used`, or a single mid-cycle query with an old timestamp would
    /// silently refresh every port and let the caller exceed the per-cycle
    /// budget — exactly the over-grant the `debug_assert` used to catch
    /// only in debug builds.
    #[inline]
    fn roll(&mut self, now: Cycle) {
        if now > self.current_cycle {
            self.current_cycle = now;
            self.used = 0;
        }
    }

    /// Try to take one port in cycle `now`. Returns false when all ports in
    /// this cycle are already granted, or when `now` is a stale cycle — in
    /// every build profile a backwards timestamp is treated as saturated
    /// rather than resetting the grant counter.
    #[inline]
    pub fn try_acquire(&mut self, now: Cycle) -> bool {
        if now < self.current_cycle {
            return false;
        }
        self.roll(now);
        if self.used < self.ports {
            self.used += 1;
            true
        } else {
            false
        }
    }

    /// Ports still free in cycle `now`. A pure read: querying never rolls
    /// the grant counter. A future cycle reports every port free; a stale
    /// cycle reports zero (matching [`PortArbiter::try_acquire`]'s refusal
    /// to grant on a backwards timestamp).
    #[inline]
    pub fn free(&self, now: Cycle) -> usize {
        if now > self.current_cycle {
            self.ports
        } else if now == self.current_cycle {
            self.ports - self.used
        } else {
            0
        }
    }

    /// True if no port can be granted in cycle `now`.
    #[inline]
    pub fn saturated(&self, now: Cycle) -> bool {
        self.free(now) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grants_up_to_port_count() {
        let mut a = PortArbiter::new(3);
        assert!(a.try_acquire(1));
        assert!(a.try_acquire(1));
        assert!(a.try_acquire(1));
        assert!(!a.try_acquire(1), "4th grant in one cycle must fail");
    }

    #[test]
    fn resets_on_new_cycle() {
        let mut a = PortArbiter::new(1);
        assert!(a.try_acquire(1));
        assert!(!a.try_acquire(1));
        assert!(a.try_acquire(2), "new cycle frees the ports");
    }

    #[test]
    fn free_counts_down() {
        let mut a = PortArbiter::new(2);
        assert_eq!(a.free(5), 2);
        a.try_acquire(5);
        assert_eq!(a.free(5), 1);
        a.try_acquire(5);
        assert_eq!(a.free(5), 0);
        assert!(a.saturated(5));
        assert_eq!(a.free(6), 2);
    }

    #[test]
    #[should_panic]
    fn zero_ports_rejected() {
        PortArbiter::new(0);
    }

    #[test]
    fn stale_cycle_cannot_exceed_port_budget() {
        // Regression: `roll` used to reset `used = 0` on *any* cycle
        // change, so a stale-cycle acquire (or even a read through
        // `free`/`saturated`) mid-cycle silently refreshed all ports and
        // over-granted L1 bandwidth in release builds.
        let mut a = PortArbiter::new(2);
        assert!(a.try_acquire(10));
        assert!(a.try_acquire(10));
        assert!(!a.try_acquire(10), "budget spent at cycle 10");
        // A backwards timestamp must not grant and must not reset state.
        assert!(!a.try_acquire(9), "stale acquire must be rejected");
        assert_eq!(a.free(9), 0, "stale cycle reads as saturated");
        assert!(a.saturated(9));
        // The current cycle is still exhausted afterwards.
        assert!(!a.try_acquire(10), "stale traffic must not refresh ports");
        assert_eq!(a.free(10), 0);
        // Rolling forward still frees the ports as before.
        assert!(a.try_acquire(11));
    }

    #[test]
    fn reads_do_not_roll_the_counter() {
        let mut a = PortArbiter::new(1);
        assert!(a.try_acquire(3));
        // A read with a future timestamp reports full availability but
        // must not advance the arbiter: the grant budget of cycle 3 is
        // still spent, and cycle 4's budget is untouched until an acquire.
        assert_eq!(a.free(4), 1);
        assert!(!a.try_acquire(3), "query must not have reset cycle 3");
        assert!(a.try_acquire(4));
    }
}
