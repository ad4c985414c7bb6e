//! Shared vocabulary for the prefetch-pollution-filter (PPF) simulator.
//!
//! This crate holds the types every other crate in the workspace agrees on:
//! addresses and cycles ([`addr`]), system configuration ([`config`]),
//! statistics counters ([`stats`]), prefetch provenance ([`prefetch`]) and a
//! small deterministic RNG ([`rng`]) so that simulation results are a pure
//! function of `(config, workload, seed)`.
//!
//! It deliberately has no dependency on the rest of the workspace and no
//! external dependencies at all: config/report serialization uses the
//! in-repo [`json`] module (the build environment has no crates.io mirror).

#![warn(missing_docs)]

pub mod addr;
pub mod config;
pub mod error;
pub mod json;
pub mod prefetch;
pub mod rng;
pub mod stats;
pub mod telemetry;

pub use addr::{Addr, Cycle, LineAddr, Pc};
pub use config::{
    BranchConfig, BufferConfig, CacheConfig, CoreConfig, CounterInit, DiagnosticsConfig,
    FilterConfig, FilterKind, InstCacheConfig, MemConfig, PrefetchConfig, SystemConfig,
    VictimConfig,
};
pub use error::{PpfError, PpfErrorKind};
pub use json::{write_atomic, FromJson, JsonError, JsonValue, ToJson};
pub use prefetch::{
    tenant_of_addr, PrefetchOrigin, PrefetchRequest, PrefetchSource, MAX_PREFETCH_DEPTH,
    MAX_TENANTS, TENANT_ADDR_SHIFT,
};
pub use rng::SplitMix64;
pub use stats::{CacheStats, MissClass, PerSource, SimStats};
pub use telemetry::{IntervalRecord, IntervalSampler};
