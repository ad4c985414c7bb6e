//! Sharded sweeps: `figures --shard K/N` runs only the cells whose store
//! key ([`crate::memo::memo_key`]) [`shard_of`] assigns to shard `K`, and
//! stores them in its `--checkpoint` directory. Shards of one sweep own
//! disjoint keys, so the union of their directories is the store an
//! unsharded sweep leaves, and `figures --checkpoint UNION all` serves it.

use ppf_sim::schedule::{fnv1a, FNV_OFFSET};
use ppf_types::PpfError;

/// The 1-based shard owning `key` out of `count` shards: a pure function
/// of the cell's store key, so the partition is identical on every
/// machine and unaffected by experiment order or grid additions elsewhere.
pub fn shard_of(key: &str, count: u64) -> u64 {
    fnv1a(FNV_OFFSET, key.as_bytes()) % count.max(1) + 1
}

/// One shard assignment `K/N`: this invocation runs shard `K` of `N`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// 1-based shard index (`1 ..= count`).
    pub index: u64,
    /// Total number of shards.
    pub count: u64,
}

impl ShardSpec {
    /// Parse `"K/N"` (both 1-based; `K ∈ 1..=N`).
    pub fn parse(s: &str) -> Result<Self, PpfError> {
        let err =
            || PpfError::config_invalid(format!("--shard wants K/N with 1 <= K <= N, got '{s}'"));
        let (k, n) = s.split_once('/').ok_or_else(err)?;
        let index: u64 = k.trim().parse().map_err(|_| err())?;
        let count: u64 = n.trim().parse().map_err(|_| err())?;
        if index == 0 || count == 0 || index > count {
            return Err(err());
        }
        Ok(ShardSpec { index, count })
    }

    /// Does this shard own the cell with store key `key`?
    pub fn contains(&self, key: &str) -> bool {
        shard_of(key, self.count) == self.index
    }
}

impl std::fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_spec_parses_and_rejects() {
        assert_eq!(
            ShardSpec::parse("2/3").unwrap(),
            ShardSpec { index: 2, count: 3 }
        );
        assert_eq!(
            ShardSpec::parse("1/1").unwrap(),
            ShardSpec { index: 1, count: 1 }
        );
        for bad in ["0/3", "4/3", "3", "a/b", "", "1/0", "-1/2"] {
            assert!(ShardSpec::parse(bad).is_err(), "'{bad}' must not parse");
        }
        assert_eq!(ShardSpec { index: 2, count: 5 }.to_string(), "2/5");
    }

    #[test]
    fn shard_of_partitions_deterministically() {
        let keys: Vec<String> = (0..500).map(|i| format!("{i:016x}")).collect();
        for n in 1..=5u64 {
            let mut per_shard = vec![0usize; n as usize];
            for key in &keys {
                let s = shard_of(key, n);
                assert!((1..=n).contains(&s), "shard {s} out of range 1..={n}");
                assert_eq!(s, shard_of(key, n), "stable across calls");
                per_shard[(s - 1) as usize] += 1;
            }
            // Exactly one owner per key ⇒ counts sum to the key count; and
            // the hash spreads: no shard is empty at 500 keys.
            assert_eq!(per_shard.iter().sum::<usize>(), keys.len());
            assert!(per_shard.iter().all(|&c| c > 0), "n={n}: {per_shard:?}");
        }
        // 1-of-1 owns everything.
        assert!(keys
            .iter()
            .all(|k| ShardSpec { index: 1, count: 1 }.contains(k)));
    }
}
