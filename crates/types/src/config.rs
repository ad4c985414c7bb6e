//! System configuration, mirroring Table 1 of the paper.
//!
//! [`SystemConfig::paper_default`] reproduces the paper's default machine: an
//! 8-wide out-of-order core with a 128-entry ROB and 64-entry LSQ, an 8KB
//! direct-mapped 1-cycle L1 with 3 universal ports, a 512KB 4-way 15-cycle
//! L2, 150-cycle main memory behind a 64-byte bus, a 64-entry prefetch queue
//! and a 4096-entry (1KB) pollution-filter history table.
//!
//! The named constructors (`with_l1_32k`, `with_l1_ports`, ...) produce the
//! exact variant machines evaluated in §5.2.2–§5.5.

use crate::error::PpfError;
use crate::{json_struct, json_unit_enum};

/// Branch-prediction front-end parameters (Table 1: bimodal 2048 entries,
/// BTB 4-way × 4096 sets).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BranchConfig {
    /// Entries in the bimodal 2-bit-counter table. Power of two.
    pub bimodal_entries: usize,
    /// BTB sets. Power of two.
    pub btb_sets: usize,
    /// BTB associativity.
    pub btb_ways: usize,
    /// Cycles of fetch redirect penalty on a mispredict, charged after the
    /// branch resolves.
    pub mispredict_penalty: u64,
}

impl Default for BranchConfig {
    fn default() -> Self {
        BranchConfig {
            bimodal_entries: 2048,
            btb_sets: 4096,
            btb_ways: 4,
            mispredict_penalty: 7,
        }
    }
}

/// Out-of-order core parameters (Table 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreConfig {
    /// Instructions fetched/dispatched per cycle.
    pub fetch_width: usize,
    /// Instructions issued per cycle (Table 1: 8).
    pub issue_width: usize,
    /// Instructions retired per cycle (Table 1: 8).
    pub retire_width: usize,
    /// Reorder-buffer entries (Table 1: 128).
    pub rob_entries: usize,
    /// Load/store-queue entries (Table 1: 64).
    pub lsq_entries: usize,
    /// Integer ALU count.
    pub int_alus: usize,
    /// Floating-point unit count.
    pub fp_alus: usize,
    /// Integer op latency in cycles.
    pub int_latency: u64,
    /// Floating-point op latency in cycles.
    pub fp_latency: u64,
    /// Branch predictor configuration.
    pub branch: BranchConfig,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            fetch_width: 8,
            issue_width: 8,
            retire_width: 8,
            rob_entries: 128,
            lsq_entries: 64,
            int_alus: 8,
            fp_alus: 4,
            int_latency: 1,
            fp_latency: 4,
            branch: BranchConfig::default(),
        }
    }
}

/// One cache level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Line size in bytes (Table 1: 32 for both levels).
    pub line_bytes: u32,
    /// Associativity; 1 = direct-mapped.
    pub ways: usize,
    /// Access latency in core cycles.
    pub hit_latency: u64,
    /// Number of universal (read/write) ports. The prefetch queue competes
    /// with demand accesses for these.
    pub ports: usize,
}

impl CacheConfig {
    /// Number of sets implied by size/line/ways.
    pub fn sets(&self) -> usize {
        let lines = self.size_bytes / self.line_bytes as usize;
        lines / self.ways
    }

    /// Total number of lines.
    pub fn lines(&self) -> usize {
        self.size_bytes / self.line_bytes as usize
    }

    /// Validate structural constraints (power-of-two geometry, nonzero).
    pub fn validate(&self) -> Result<(), PpfError> {
        validate_geometry(self.size_bytes, self.line_bytes, self.ways)?;
        if self.ports == 0 {
            return Err(PpfError::config_invalid("ports must be nonzero"));
        }
        Ok(())
    }
}

/// The L1 instruction cache (Table 1: "L1 I/D 8KB"). It has no line size,
/// latency or port setting of its own: fetch indexes it in L1D-sized lines,
/// a hit is free once its line has arrived, and a fetch takes no L1 port.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstCacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity; 1 = direct-mapped.
    pub ways: usize,
}

impl InstCacheConfig {
    /// Number of sets for `line_bytes`-byte lines (the L1D's).
    pub fn sets(&self, line_bytes: u32) -> usize {
        self.size_bytes / line_bytes as usize / self.ways
    }
}

/// Check one cache's geometry: a power-of-two line size, nonzero ways, and
/// a power-of-two set count that divides the capacity exactly.
fn validate_geometry(size_bytes: usize, line_bytes: u32, ways: usize) -> Result<(), PpfError> {
    if !line_bytes.is_power_of_two() {
        return Err(PpfError::config_invalid(format!(
            "line_bytes {line_bytes} not a power of two"
        )));
    }
    if ways == 0 {
        return Err(PpfError::config_invalid("ways must be nonzero"));
    }
    if !size_bytes.is_multiple_of(line_bytes as usize * ways) {
        return Err(PpfError::config_invalid(
            "size must be divisible by line_bytes * ways",
        ));
    }
    let sets = size_bytes / line_bytes as usize / ways;
    if !sets.is_power_of_two() {
        return Err(PpfError::config_invalid(format!(
            "set count {sets} not a power of two"
        )));
    }
    Ok(())
}

/// Main-memory and bus parameters (Table 1: 150 cycles, 64-byte bus).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemConfig {
    /// Leadoff latency in core cycles.
    pub latency: u64,
    /// Bus width in bytes; a transfer of `n` bytes occupies the bus for
    /// `ceil(n / bus_bytes)` bus slots.
    pub bus_bytes: u32,
    /// Core cycles per bus slot.
    pub bus_cycle: u64,
    /// DRAM banks (power of two). `0` = the paper's model: unlimited
    /// concurrency behind the bus. With banks, each access occupies its
    /// bank (line-interleaved) for `bank_busy` cycles — an ablation knob
    /// for memory-level-parallelism limits.
    pub banks: usize,
    /// Cycles a bank stays busy per access (only with `banks > 0`).
    pub bank_busy: u64,
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig {
            latency: 150,
            bus_bytes: 64,
            bus_cycle: 1,
            banks: 0,
            bank_busy: 40,
        }
    }
}

impl MemConfig {
    /// Validate structural constraints (nonzero bus geometry, coherent
    /// bank model).
    pub fn validate(&self) -> Result<(), PpfError> {
        if self.bus_bytes == 0 || self.bus_cycle == 0 {
            return Err(PpfError::config_invalid(
                "bus_bytes and bus_cycle must be nonzero",
            ));
        }
        if self.banks > 0 {
            if !self.banks.is_power_of_two() {
                return Err(PpfError::config_invalid(format!(
                    "bank count {} not a power of two",
                    self.banks
                )));
            }
            if self.bank_busy == 0 {
                // A zero busy time makes every bank always free, silently
                // disabling the serialization the MLP ablation measures.
                return Err(PpfError::config_invalid(format!(
                    "bank_busy must be nonzero with {} banks configured \
                     (bank_busy == 0 disables bank serialization; use \
                     banks == 0 for unlimited concurrency)",
                    self.banks
                )));
            }
        }
        Ok(())
    }
}

/// Which prefetch generators are active.
#[derive(Debug, Clone, PartialEq)]
pub struct PrefetchConfig {
    /// Next-sequence (tagged next-line) hardware prefetcher.
    pub nsp: bool,
    /// NSP prefetch degree: sequential lines fetched per trigger. The
    /// paper's NSP is the classic tagged next-line scheme (degree 1);
    /// higher degrees are used by the aggressiveness ablation bench.
    pub nsp_degree: u32,
    /// Shadow-directory hardware prefetcher.
    pub sdp: bool,
    /// Stride (RPT) prefetcher — extension, off by default.
    pub stride: bool,
    /// Markov miss-correlation prefetcher (Charney & Reeves) — extension,
    /// off by default; shares the stride stats slot.
    pub correlation: bool,
    /// Honor software prefetch instructions from the workload.
    pub software: bool,
    /// Prefetch queue length (Table 1: 64).
    pub queue_len: usize,
}

impl Default for PrefetchConfig {
    fn default() -> Self {
        PrefetchConfig {
            nsp: true,
            nsp_degree: 1,
            sdp: true,
            stride: false,
            correlation: false,
            software: true,
            queue_len: 64,
        }
    }
}

impl PrefetchConfig {
    /// A configuration with every generator disabled (used for Table 2's
    /// prefetch-off miss-rate characterization).
    pub fn disabled() -> Self {
        PrefetchConfig {
            nsp: false,
            nsp_degree: 1,
            sdp: false,
            stride: false,
            correlation: false,
            software: false,
            queue_len: 64,
        }
    }

    /// True if any generator is active.
    pub fn any_enabled(&self) -> bool {
        self.nsp || self.sdp || self.stride || self.correlation || self.software
    }
}

/// Pollution-filter indexing scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FilterKind {
    /// No filtering: every prefetch is issued (the paper's baseline).
    None,
    /// Per-Address: history table indexed by prefetched line address (§4.1).
    Pa,
    /// Program-Counter: indexed by the trigger instruction's PC (§4.2).
    Pc,
    /// Tournament hybrid (extension): PA and PC tables side by side, with a
    /// PC-indexed chooser picking per trigger site — the natural follow-up
    /// to the paper's observation that PA and PC trade wins per benchmark.
    Hybrid,
    /// Hashed perceptron (extension, DESIGN.md §15): one small signed
    /// weight table per feature (trigger PC, line address, page offset,
    /// prefetch depth, global accuracy), summed against a threshold. The
    /// same storage budget as a counter table of `table_entries` ×
    /// `counter_bits` bits, trained on the same PIB/RIB eviction feedback.
    Perceptron,
}

impl FilterKind {
    /// Short label used in reports ("none" / "PA" / "PC").
    pub fn label(self) -> &'static str {
        match self {
            FilterKind::None => "none",
            FilterKind::Pa => "PA",
            FilterKind::Pc => "PC",
            FilterKind::Hybrid => "hybrid",
            FilterKind::Perceptron => "perceptron",
        }
    }
}

/// Initial state of the history table's counters — §5.3's "all prefetches
/// first mapped to the history table are assumed to be good and issued" is
/// the `WeaklyGood` choice; the alternatives quantify it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterInit {
    /// Counters start just above the threshold (the paper's choice):
    /// unseen prefetches are issued, and one bad outcome flips the entry.
    WeaklyGood,
    /// Counters start saturated good: unseen prefetches are issued and an
    /// entry needs two consecutive bad outcomes to flip.
    StronglyGood,
    /// Counters start just below the threshold: unseen prefetches are
    /// *rejected* until recovery or aliasing proves them useful.
    WeaklyBad,
}

/// Pollution-filter configuration (Table 1: 4K-entry, 1KB history table).
#[derive(Debug, Clone, PartialEq)]
pub struct FilterConfig {
    /// Indexing scheme.
    pub kind: FilterKind,
    /// History-table entries. Power of two. 4096 entries × 2 bits = 1KB.
    pub table_entries: usize,
    /// Saturating-counter width in bits (paper: 2).
    pub counter_bits: u8,
    /// Initial counter state (paper: weakly good).
    pub counter_init: CounterInit,
    /// Adaptive engagement (§5.2.1 "advanced features"): filter only when the
    /// observed prefetch accuracy over a sliding window falls below this
    /// threshold. `None` (the paper's main configuration) filters always.
    pub adaptive_accuracy_threshold: Option<f64>,
    /// Window length (evictions) for the adaptive accuracy estimate.
    pub adaptive_window: u32,
    /// Freshness window (in core cycles) for misprediction recovery: a
    /// demand miss must arrive within this long after the rejection to
    /// count as "the prefetch would have been referenced before eviction".
    /// `0` disables recovery — the strict, absorbing reading of the paper,
    /// kept as an ablation. See `ppf-filter`'s `recovery` module.
    pub recovery_window: u64,
    /// Give each prefetch source (NSP/SDP/stride/software) its own history
    /// table, splitting the same total storage budget four ways. An
    /// extension ablation (DESIGN.md §7): one source's mispredictions then
    /// cannot poison another source's counters for the same line/PC.
    pub split_by_source: bool,
    /// Keyed hash salt for the PA/PC index functions (DESIGN.md §12). `0`
    /// (the default) keeps the paper's plain XOR-fold hash bit-for-bit; any
    /// other value scrambles each 16-bit address half through a salt-derived
    /// affine permutation before folding, so an attacker who can compute the
    /// public hash cannot construct address sets that collide into a chosen
    /// table index. The salt is fixed per run (deterministic given the
    /// config), mirroring a per-boot hardware key register.
    pub hash_salt: u64,
    /// Split every history table into this many equal per-tenant partitions
    /// (DESIGN.md §12). `1` (the default) is the shared table of the paper;
    /// with `P > 1` a request from tenant `t` can only read and train the
    /// `t % P` partition, so one tenant's eviction feedback cannot saturate
    /// another tenant's counters. Power of two, at most [`MAX_TENANTS`].
    ///
    /// [`MAX_TENANTS`]: crate::prefetch::MAX_TENANTS
    pub tenant_partitions: usize,
}

impl Default for FilterConfig {
    fn default() -> Self {
        FilterConfig {
            kind: FilterKind::None,
            table_entries: 4096,
            counter_bits: 2,
            counter_init: CounterInit::WeaklyGood,
            adaptive_accuracy_threshold: None,
            adaptive_window: 1024,
            recovery_window: 400,
            split_by_source: false,
            hash_salt: 0,
            tenant_partitions: 1,
        }
    }
}

/// Victim cache between L1 and L2 (Jouppi) — ablation hardware for the
/// direct-mapped L1's conflict misses.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct VictimConfig {
    /// Fully-associative entries (Jouppi's sweet spot: 4-16); L1 evictions
    /// pass through them. `0` (the default) = no victim cache.
    pub entries: usize,
}

/// Dedicated fully-associative prefetch buffer (§5.5; Chen et al.).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BufferConfig {
    /// Buffer entries (paper: 16, fully associative); prefetches fill the
    /// buffer instead of the L1. `0` (the default) = no buffer.
    pub entries: usize,
}

/// Diagnostics passes — simulator-side instrumentation with no effect on
/// timing or on any architectural counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DiagnosticsConfig {
    /// Classify every L1/L2 demand miss as compulsory/capacity/conflict by
    /// running shadow infinite-tag and fully-associative-tag directories
    /// alongside the real caches. Costs memory and time proportional to the
    /// touched-line count, so it is off by default and enabled by the
    /// calibration tooling (`figures calibrate`).
    pub classify_misses: bool,
}

/// Complete machine description — Table 1 of the paper plus the filter and
/// prefetch-buffer options.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Core pipeline parameters.
    pub core: CoreConfig,
    /// L1 data cache.
    pub l1: CacheConfig,
    /// L1 instruction cache, with the L1D's line size. Instruction misses
    /// fetch through the same unified L2 and compete for its port.
    pub l1i: InstCacheConfig,
    /// Unified L2 cache.
    pub l2: CacheConfig,
    /// Main memory and bus.
    pub mem: MemConfig,
    /// Prefetch generators.
    pub prefetch: PrefetchConfig,
    /// Pollution filter.
    pub filter: FilterConfig,
    /// Optional dedicated prefetch buffer.
    pub buffer: BufferConfig,
    /// Optional victim cache (ablation).
    pub victim: VictimConfig,
    /// Diagnostics instrumentation (miss classification).
    pub diag: DiagnosticsConfig,
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

impl SystemConfig {
    /// The paper's default machine (Table 1): 8KB direct-mapped 1-cycle L1
    /// with 3 ports, 512KB 4-way 15-cycle single-ported L2, 150-cycle memory.
    pub fn paper_default() -> Self {
        SystemConfig {
            core: CoreConfig::default(),
            l1: CacheConfig {
                size_bytes: 8 * 1024,
                line_bytes: 32,
                ways: 1,
                hit_latency: 1,
                ports: 3,
            },
            l1i: InstCacheConfig {
                size_bytes: 8 * 1024,
                ways: 1,
            },
            l2: CacheConfig {
                size_bytes: 512 * 1024,
                line_bytes: 32,
                ways: 4,
                hit_latency: 15,
                ports: 1,
            },
            mem: MemConfig::default(),
            prefetch: PrefetchConfig::default(),
            filter: FilterConfig::default(),
            buffer: BufferConfig::default(),
            victim: VictimConfig::default(),
            diag: DiagnosticsConfig::default(),
        }
    }

    /// Enable the compulsory/capacity/conflict miss-classification pass.
    pub fn with_miss_classification(mut self) -> Self {
        self.diag.classify_misses = true;
        self
    }

    /// §5.2.2: 32KB L1 variant. The larger array is slower — 4-cycle hits.
    pub fn with_l1_32k(mut self) -> Self {
        self.l1.size_bytes = 32 * 1024;
        self.l1.hit_latency = 4;
        self
    }

    /// §5.2.1 comparison point: a 16KB L1 (2-cycle) with no filter.
    pub fn with_l1_16k(mut self) -> Self {
        self.l1.size_bytes = 16 * 1024;
        self.l1.hit_latency = 2;
        self
    }

    /// §5.4: vary the universal L1 port count. The paper charges 2-cycle hits
    /// for 4 ports and 3-cycle hits for 5 ports on the 8KB array.
    pub fn with_l1_ports(mut self, ports: usize) -> Self {
        self.l1.ports = ports;
        self.l1.hit_latency = match ports {
            0..=3 => 1,
            4 => 2,
            _ => 3,
        };
        self
    }

    /// Select the pollution-filter indexing scheme.
    pub fn with_filter(mut self, kind: FilterKind) -> Self {
        self.filter.kind = kind;
        self
    }

    /// §5.3: vary the history-table length.
    pub fn with_table_entries(mut self, entries: usize) -> Self {
        self.filter.table_entries = entries;
        self
    }

    /// Hardening (DESIGN.md §12): key the PA/PC hash with `salt`
    /// (`0` restores the plain, attacker-predictable hash).
    pub fn with_hash_salt(mut self, salt: u64) -> Self {
        self.filter.hash_salt = salt;
        self
    }

    /// Hardening (DESIGN.md §12): partition every history table into
    /// `partitions` per-tenant regions (`1` restores the shared table).
    pub fn with_tenant_partitions(mut self, partitions: usize) -> Self {
        self.filter.tenant_partitions = partitions;
        self
    }

    /// §5.5: enable the dedicated 16-entry prefetch buffer.
    pub fn with_prefetch_buffer(mut self) -> Self {
        self.buffer.entries = 16;
        self
    }

    /// Ablation: put a small victim cache between L1 and L2.
    pub fn with_victim_cache(mut self, entries: usize) -> Self {
        self.victim.entries = entries;
        self
    }

    /// Validate all structural constraints.
    pub fn validate(&self) -> Result<(), PpfError> {
        self.l1.validate().map_err(|e| e.context("l1"))?;
        validate_geometry(self.l1i.size_bytes, self.l1.line_bytes, self.l1i.ways)
            .map_err(|e| e.context("l1i"))?;
        self.l2.validate().map_err(|e| e.context("l2"))?;
        self.mem.validate().map_err(|e| e.context("mem"))?;
        if self.l1.line_bytes != self.l2.line_bytes {
            // Simplification shared with the paper's setup: both levels use
            // 32-byte lines, so no sub-line fill logic is modelled.
            return Err(PpfError::config_invalid("L1 and L2 line sizes must match"));
        }
        if !self.filter.table_entries.is_power_of_two() {
            return Err(PpfError::config_invalid(format!(
                "filter table entries {} not a power of two",
                self.filter.table_entries
            )));
        }
        if self.filter.counter_bits == 0 || self.filter.counter_bits > 8 {
            return Err(PpfError::config_invalid("counter_bits must be in 1..=8"));
        }
        if let Some(threshold) = self.filter.adaptive_accuracy_threshold {
            // `contains` is false for NaN too.
            if !(0.0..=1.0).contains(&threshold) {
                return Err(PpfError::config_invalid(format!(
                    "adaptive_accuracy_threshold {threshold} must be in [0, 1]"
                )));
            }
            if self.filter.adaptive_window == 0 {
                return Err(PpfError::config_invalid(
                    "adaptive_window must be nonzero when the adaptive gate is on",
                ));
            }
        }
        if !self.core.branch.bimodal_entries.is_power_of_two()
            || !self.core.branch.btb_sets.is_power_of_two()
        {
            return Err(PpfError::config_invalid(
                "branch predictor tables must be powers of two",
            ));
        }
        if self.core.branch.btb_ways == 0 {
            return Err(PpfError::config_invalid("BTB must have at least one way"));
        }
        // fp_alus may be 0: gzip and mcf issue no floating-point work.
        let core = &self.core;
        if core.fetch_width == 0
            || core.issue_width == 0
            || core.retire_width == 0
            || core.int_alus == 0
            || core.rob_entries == 0
            || core.lsq_entries == 0
        {
            return Err(PpfError::config_invalid(
                "core widths/windows must be nonzero",
            ));
        }
        if self.filter.kind == FilterKind::Hybrid && self.filter.split_by_source {
            return Err(PpfError::config_invalid(
                "hybrid filter and split-by-source are mutually exclusive",
            ));
        }
        if self.filter.kind == FilterKind::Perceptron && self.filter.split_by_source {
            // The perceptron already separates evidence by feature; a
            // four-way table split would quarter every feature table.
            return Err(PpfError::config_invalid(
                "perceptron filter and split-by-source are mutually exclusive",
            ));
        }
        if !self.filter.tenant_partitions.is_power_of_two()
            || self.filter.tenant_partitions > crate::prefetch::MAX_TENANTS
        {
            return Err(PpfError::config_invalid(format!(
                "tenant_partitions {} must be a power of two in 1..={}",
                self.filter.tenant_partitions,
                crate::prefetch::MAX_TENANTS
            )));
        }
        if self.filter.tenant_partitions > 1
            && self.filter.table_entries < 4 * self.filter.tenant_partitions
        {
            // Each partition must keep at least a handful of counters, or
            // the partitioned filter degenerates into a single shared bit.
            return Err(PpfError::config_invalid(format!(
                "table_entries {} too small for {} tenant partitions",
                self.filter.table_entries, self.filter.tenant_partitions
            )));
        }
        if self.prefetch.queue_len == 0 {
            return Err(PpfError::config_invalid(
                "prefetch queue length must be nonzero",
            ));
        }
        Ok(())
    }
}

json_struct!(BranchConfig {
    bimodal_entries,
    btb_sets,
    btb_ways,
    mispredict_penalty,
});

json_struct!(CoreConfig {
    fetch_width,
    issue_width,
    retire_width,
    rob_entries,
    lsq_entries,
    int_alus,
    fp_alus,
    int_latency,
    fp_latency,
    branch,
});

json_struct!(CacheConfig {
    size_bytes,
    line_bytes,
    ways,
    hit_latency,
    ports,
});

json_struct!(InstCacheConfig { size_bytes, ways });

json_struct!(MemConfig {
    latency,
    bus_bytes,
    bus_cycle,
    banks,
    bank_busy,
});

json_struct!(PrefetchConfig {
    nsp,
    nsp_degree,
    sdp,
    stride,
    correlation,
    software,
    queue_len,
});

json_unit_enum!(FilterKind {
    None,
    Pa,
    Pc,
    Hybrid,
    Perceptron
});

json_unit_enum!(CounterInit {
    WeaklyGood,
    StronglyGood,
    WeaklyBad,
});

json_struct!(FilterConfig {
    kind,
    table_entries,
    counter_bits,
    counter_init,
    adaptive_accuracy_threshold,
    adaptive_window,
    recovery_window,
    split_by_source,
    hash_salt,
    tenant_partitions,
});

json_struct!(VictimConfig { entries });

json_struct!(BufferConfig { entries });

json_struct!(DiagnosticsConfig { classify_misses });

json_struct!(SystemConfig {
    core,
    l1,
    l1i,
    l2,
    mem,
    prefetch,
    filter,
    buffer,
    victim,
    diag,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_table1() {
        let c = SystemConfig::paper_default();
        assert_eq!(c.core.issue_width, 8);
        assert_eq!(c.core.rob_entries, 128);
        assert_eq!(c.core.lsq_entries, 64);
        assert_eq!(c.core.branch.bimodal_entries, 2048);
        assert_eq!(c.core.branch.btb_sets, 4096);
        assert_eq!(c.core.branch.btb_ways, 4);
        assert_eq!(c.l1.size_bytes, 8 * 1024);
        assert_eq!(c.l1.line_bytes, 32);
        assert_eq!(c.l1.ways, 1);
        assert_eq!(c.l1.hit_latency, 1);
        assert_eq!(c.l1.ports, 3);
        assert_eq!(c.l2.size_bytes, 512 * 1024);
        assert_eq!(c.l2.ways, 4);
        assert_eq!(c.l2.hit_latency, 15);
        assert_eq!(c.l2.ports, 1);
        assert_eq!(c.mem.latency, 150);
        assert_eq!(c.mem.bus_bytes, 64);
        assert_eq!(c.prefetch.queue_len, 64);
        assert_eq!(c.filter.table_entries, 4096);
        assert_eq!(c.filter.counter_bits, 2);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn history_table_is_1kb() {
        let c = SystemConfig::paper_default();
        let bits = c.filter.table_entries * c.filter.counter_bits as usize;
        assert_eq!(bits / 8, 1024); // 1KB, as Table 1 states
    }

    #[test]
    fn l1_geometry() {
        let c = SystemConfig::paper_default();
        assert_eq!(c.l1.sets(), 256); // 8KB / 32B, direct-mapped
        assert_eq!(c.l1.lines(), 256);
        assert_eq!(c.l2.sets(), 4096); // 512KB / 32B / 4 ways
        assert_eq!(c.l2.lines(), 16384);
    }

    #[test]
    fn variants_follow_section_5() {
        let c = SystemConfig::paper_default().with_l1_32k();
        assert_eq!(c.l1.size_bytes, 32 * 1024);
        assert_eq!(c.l1.hit_latency, 4);
        assert!(c.validate().is_ok());

        let c = SystemConfig::paper_default().with_l1_ports(4);
        assert_eq!(c.l1.ports, 4);
        assert_eq!(c.l1.hit_latency, 2);
        let c = SystemConfig::paper_default().with_l1_ports(5);
        assert_eq!(c.l1.hit_latency, 3);

        assert_eq!(SystemConfig::paper_default().buffer.entries, 0, "no buffer");
        let c = SystemConfig::paper_default().with_prefetch_buffer();
        assert_eq!(c.buffer.entries, 16);

        let c = SystemConfig::paper_default().with_l1_16k();
        assert_eq!(c.l1.size_bytes, 16 * 1024);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_geometry() {
        let mut c = SystemConfig::paper_default();
        c.l1.line_bytes = 48;
        assert!(c.validate().is_err());

        let mut c = SystemConfig::paper_default();
        c.filter.table_entries = 1000;
        assert!(c.validate().is_err());

        let mut c = SystemConfig::paper_default();
        c.l1.size_bytes = 8 * 1024 + 32; // 257 sets: not a power of two
        assert!(c.validate().is_err());

        let mut c = SystemConfig::paper_default();
        c.l2.line_bytes = 64;
        assert!(c.validate().is_err());

        let mut c = SystemConfig::paper_default();
        c.filter.counter_bits = 0;
        assert!(c.validate().is_err());

        let mut c = SystemConfig::paper_default();
        c.prefetch.queue_len = 0;
        assert!(c.validate().is_err());

        let mut c = SystemConfig::paper_default();
        c.core.branch.btb_ways = 0;
        assert!(c.validate().is_err(), "way-less BTB");

        // Each of these three wedged a run until the watchdog's stall
        // detector fired.
        let mut c = SystemConfig::paper_default();
        c.core.fetch_width = 0;
        assert!(c.validate().is_err(), "zero fetch width");

        let mut c = SystemConfig::paper_default();
        c.core.retire_width = 0;
        assert!(c.validate().is_err(), "zero retire width");

        let mut c = SystemConfig::paper_default();
        c.core.int_alus = 0;
        assert!(c.validate().is_err(), "no integer ALU");

        // No floating-point unit is a valid machine: gzip and mcf issue no
        // floating-point work.
        let mut c = SystemConfig::paper_default();
        c.core.fp_alus = 0;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validate_rejects_degenerate_bank_model() {
        // banks > 0 with bank_busy == 0 silently disables the bank
        // serialization the MLP ablation exists to measure — the config
        // layer must reject it before a MainMemory is ever built.
        let mut c = SystemConfig::paper_default();
        c.mem.banks = 4;
        c.mem.bank_busy = 0;
        let err = c.validate().expect_err("degenerate bank model accepted");
        assert_eq!(err.kind(), crate::PpfErrorKind::ConfigInvalid);
        assert!(err.to_string().contains("bank_busy"), "{err}");

        let mut c = SystemConfig::paper_default();
        c.mem.banks = 3;
        assert!(c.validate().is_err(), "non-power-of-two banks");

        let mut c = SystemConfig::paper_default();
        c.mem.bus_cycle = 0;
        assert!(c.validate().is_err(), "zero bus cycle");

        // banks == 0 (unlimited concurrency) stays valid whatever
        // bank_busy says — the field is simply unused.
        let mut c = SystemConfig::paper_default();
        c.mem.banks = 0;
        c.mem.bank_busy = 0;
        assert!(c.validate().is_ok());
        let mut c = SystemConfig::paper_default();
        c.mem.banks = 4;
        c.mem.bank_busy = 40;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validate_rejects_invalid_adaptive_gate() {
        // Each of these passed validation, then panicked in the gate's
        // constructor when the simulator was built.
        for threshold in [1.5, -0.1, f64::NAN] {
            let mut c = SystemConfig::paper_default().with_filter(FilterKind::Pa);
            c.filter.adaptive_accuracy_threshold = Some(threshold);
            let err = c.validate().expect_err("threshold outside [0, 1]");
            assert_eq!(err.kind(), crate::PpfErrorKind::ConfigInvalid);
        }
        let mut c = SystemConfig::paper_default().with_filter(FilterKind::Pa);
        c.filter.adaptive_accuracy_threshold = Some(0.5);
        c.filter.adaptive_window = 0;
        let err = c.validate().expect_err("zero adaptive window");
        assert_eq!(err.kind(), crate::PpfErrorKind::ConfigInvalid);

        // The bounds are inclusive, and with the gate off the window is
        // unused.
        for threshold in [0.0, 1.0] {
            let mut c = SystemConfig::paper_default();
            c.filter.adaptive_accuracy_threshold = Some(threshold);
            assert!(c.validate().is_ok(), "threshold {threshold}");
        }
        let mut c = SystemConfig::paper_default();
        c.filter.adaptive_window = 0;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validate_bounds_tenant_partitions() {
        let mut c = SystemConfig::paper_default();
        c.filter.tenant_partitions = 3;
        assert!(c.validate().is_err(), "non-power-of-two partitions");
        let mut c = SystemConfig::paper_default();
        c.filter.tenant_partitions = 8;
        assert!(c.validate().is_err(), "more partitions than tenants");
        let mut c = SystemConfig::paper_default().with_tenant_partitions(4);
        c.filter.table_entries = 8;
        assert!(c.validate().is_err(), "partitions starve the table");
        let c = SystemConfig::paper_default()
            .with_hash_salt(0xDEAD_BEEF)
            .with_tenant_partitions(4);
        assert!(c.validate().is_ok());
        assert_eq!(c.filter.hash_salt, 0xDEAD_BEEF);
        assert_eq!(c.filter.tenant_partitions, 4);
    }

    #[test]
    fn prefetch_disabled_helper() {
        let p = PrefetchConfig::disabled();
        assert!(!p.any_enabled());
        assert!(PrefetchConfig::default().any_enabled());
    }

    #[test]
    fn filter_kind_labels() {
        assert_eq!(FilterKind::None.label(), "none");
        assert_eq!(FilterKind::Pa.label(), "PA");
        assert_eq!(FilterKind::Pc.label(), "PC");
        assert_eq!(FilterKind::Hybrid.label(), "hybrid");
        assert_eq!(FilterKind::Perceptron.label(), "perceptron");
    }

    #[test]
    fn perceptron_rejects_split_by_source() {
        let mut c = SystemConfig::paper_default().with_filter(FilterKind::Perceptron);
        assert!(c.validate().is_ok());
        c.filter.split_by_source = true;
        assert!(c.validate().is_err());
    }

    #[test]
    fn json_round_trip() {
        use crate::json::{FromJson, ToJson};
        let c = SystemConfig::paper_default()
            .with_l1_32k()
            .with_filter(FilterKind::Pa)
            .with_miss_classification();
        let json = c.to_json_string();
        let back = SystemConfig::from_json_str(&json).unwrap();
        assert_eq!(back, c);
        // Pretty output parses to the same config.
        let back2 = SystemConfig::from_json_str(&c.to_json_pretty()).unwrap();
        assert_eq!(back2, c);
    }

    #[test]
    fn diagnostics_default_off() {
        let c = SystemConfig::paper_default();
        assert!(!c.diag.classify_misses);
        assert!(c.with_miss_classification().diag.classify_misses);
    }
}
