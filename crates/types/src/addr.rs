//! Addresses, program counters and cycle counts.
//!
//! The simulator works on byte addresses ([`Addr`]) but caches, prefetchers
//! and the pollution filter all operate on *cache-line* granularity, so the
//! line-number newtype [`LineAddr`] appears throughout the workspace. Keeping
//! it a distinct type prevents the classic off-by-a-shift bug of mixing byte
//! addresses and line numbers.

use crate::json::{FromJson, JsonError, JsonValue, ToJson};

/// A byte address in the simulated (flat, 64-bit) address space.
pub type Addr = u64;

/// A program-counter value. Instructions are 4 bytes (Alpha-style), so PCs
/// advance in steps of 4.
pub type Pc = u64;

/// A core-clock cycle count.
pub type Cycle = u64;

/// A cache-line number: a byte address with the line-offset bits stripped.
///
/// `LineAddr` is produced by [`LineAddr::of`] given a line size and can be
/// converted back to the line's base byte address with
/// [`LineAddr::base_addr`]. The paper's *PA-based* filter indexes its history
/// table with exactly this value ("address with cache line offset bit
/// stripped", §4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LineAddr(pub u64);

impl ToJson for LineAddr {
    fn to_json(&self) -> JsonValue {
        JsonValue::UInt(self.0)
    }
}

impl FromJson for LineAddr {
    fn from_json(v: &JsonValue) -> Result<Self, JsonError> {
        u64::from_json(v).map(LineAddr)
    }
}

impl LineAddr {
    /// The line containing byte address `addr` for `line_bytes`-byte lines.
    ///
    /// `line_bytes` must be a power of two (asserted in debug builds).
    #[inline]
    pub fn of(addr: Addr, line_bytes: u32) -> Self {
        debug_assert!(line_bytes.is_power_of_two(), "line size must be 2^k");
        LineAddr(addr >> line_bytes.trailing_zeros())
    }

    /// Base byte address of this line.
    #[inline]
    pub fn base_addr(self, line_bytes: u32) -> Addr {
        self.0 << line_bytes.trailing_zeros()
    }

    /// The immediately following line (what NSP prefetches).
    #[inline]
    pub fn next(self) -> Self {
        LineAddr(self.0.wrapping_add(1))
    }

    /// The immediately preceding line.
    #[inline]
    pub fn prev(self) -> Self {
        LineAddr(self.0.wrapping_sub(1))
    }

    /// Offset this line number by a signed count of lines.
    #[inline]
    pub fn offset(self, delta: i64) -> Self {
        LineAddr(self.0.wrapping_add(delta as u64))
    }
}

impl std::fmt::Display for LineAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "L{:#x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_of_strips_offset_bits() {
        assert_eq!(LineAddr::of(0, 32), LineAddr(0));
        assert_eq!(LineAddr::of(31, 32), LineAddr(0));
        assert_eq!(LineAddr::of(32, 32), LineAddr(1));
        assert_eq!(LineAddr::of(0x1234, 64), LineAddr(0x1234 >> 6));
    }

    #[test]
    fn base_addr_round_trips() {
        for &lb in &[16u32, 32, 64, 128] {
            for addr in [0u64, 5, 1000, 0xdead_beef] {
                let line = LineAddr::of(addr, lb);
                assert!(line.base_addr(lb) <= addr);
                assert!(addr < line.base_addr(lb) + lb as u64);
            }
        }
    }

    #[test]
    fn next_prev_are_inverses() {
        let l = LineAddr(42);
        assert_eq!(l.next().prev(), l);
        assert_eq!(l.prev().next(), l);
        assert_eq!(l.next(), LineAddr(43));
    }

    #[test]
    fn offset_matches_repeated_next() {
        let l = LineAddr(100);
        assert_eq!(l.offset(3), l.next().next().next());
        assert_eq!(l.offset(-1), l.prev());
        assert_eq!(l.offset(0), l);
    }

    #[test]
    fn wrapping_at_extremes() {
        assert_eq!(LineAddr(u64::MAX).next(), LineAddr(0));
        assert_eq!(LineAddr(0).prev(), LineAddr(u64::MAX));
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(format!("{}", LineAddr(255)), "L0xff");
    }
}
