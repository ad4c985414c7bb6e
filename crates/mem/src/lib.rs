//! Memory-hierarchy substrate for the PPF simulator.
//!
//! Everything the paper's evaluation machine needs below the core:
//!
//! * [`cache`] — set-associative LRU caches whose lines carry the paper's
//!   **PIB** (Prefetch Indication Bit) and **RIB** (Reference Indication
//!   Bit) plus full prefetch provenance for eviction-time filter feedback,
//!   and each line's fill-ready cycle.
//! * [`ports`] — the per-cycle arbiter for the L1's universal ports, where
//!   the prefetch queue competes with demand accesses (§4, Figure 3).
//! * [`bus`] — occupancy model of the 64-byte L2↔memory bus.
//! * [`dram`] — fixed-leadoff-latency main memory.
//! * [`queue`] — the 64-entry prefetch queue with duplicate squashing.
//! * [`side`] — the fully-associative LRU side store of eviction records,
//!   used as the §5.5 dedicated prefetch buffer and as the victim-cache
//!   ablation (Jouppi).
//! * [`classify`] — optional shadow-tag structures splitting every demand
//!   miss into compulsory/capacity/conflict (the 3C taxonomy), enabled via
//!   [`ppf_types::DiagnosticsConfig`].
//! * [`hierarchy`] — the assembled two-level hierarchy.
//!
//! ## Timing model
//!
//! The hierarchy is *functionally immediate, timing deferred*: state changes
//! (fills, evictions, LRU updates) apply at access time, while the returned
//! completion cycle carries the latency. Every structure that holds a line
//! (L1D, L1I, L2, prefetch buffer, victim cache) stores the cycle its data
//! arrives, and every hit completes at `max(now + that level's latency,
//! fill-ready cycle)`, so a line in flight is never served early; a second
//! miss to an in-flight line merges by keeping the later cycle. This is the
//! same discipline SimpleScalar's `sim-outorder` cache module uses and keeps
//! the simulator single-pass.

#![warn(missing_docs)]

pub mod bus;
pub mod cache;
pub mod classify;
pub mod dram;
pub mod hierarchy;
pub mod ports;
pub mod queue;
pub mod side;

pub use bus::Bus;
pub use cache::{Cache, Evicted, FillKind, LineState, ProbeHit};
pub use classify::{MissClassifier, MissKind};
pub use dram::MainMemory;
pub use hierarchy::{AccessKind, AccessResult, Hierarchy, PrefetchIssue};
pub use ports::PortArbiter;
pub use queue::PrefetchQueue;
pub use side::SideStore;
