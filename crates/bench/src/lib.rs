//! The `figures` and `bench` harness: the experiment registry and its
//! table formatting ([`figures`]), the cell store with its in-memory and
//! on-disk backends ([`memo`], [`checkpoint`]), sharded sweeps ([`shard`]),
//! and the throughput and timeline tools ([`throughput`], [`timeline`]).

pub mod checkpoint;
pub mod figures;
pub mod memo;
pub mod shard;
pub mod throughput;
pub mod timeline;
