//! Configuration of the simulated GPU system.
//!
//! [`GpuConfig::maxwell`] reproduces Table 1 of the paper (the NVIDIA
//! Maxwell-like baseline); [`GpuConfig::fermi`] and
//! [`GpuConfig::integrated`] reproduce the two extra architectures of the
//! generality study (§7.3, Table 4). [`DesignSpec`] composes the orthogonal
//! per-layer policies of a design point; [`DesignKind`] names the evaluated
//! presets — the paper's eight designs (§7) plus the FGPU-style
//! `Partitioned` and MPS-style `NoIsolation` brackets.

use crate::addr::PAGE_SIZE_4K_LOG2;

/// How L1-TLB misses reach a translation (the Fig. 2 / Fig. 10 choice).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum TranslationPath {
    /// Every L1 TLB access hits; no translation traffic exists at all
    /// (the `Ideal` design of §7).
    Ideal,
    /// L1 miss → page-table walker, whose per-level accesses probe a
    /// shared page-walk cache (Power et al. \[106\]; Fig. 2a).
    PageWalkCache,
    /// L1 miss → shared L2 TLB → page-table walker (Fig. 2b and all MASK
    /// designs).
    SharedL2Tlb,
}

/// Whether TLB-Fill Tokens (and the token-holder bypass cache) gate
/// shared-L2-TLB fills (§5.2).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum TokenPolicy {
    /// Every completed walk fills the shared TLB.
    Disabled,
    /// Only token-holding warps fill; the rest go to the bypass cache.
    FillTokens,
}

/// How the shared L2 data cache arbitrates between address spaces.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum L2Policy {
    /// Fully shared: all sets and ways visible to every application.
    Shared,
    /// Cache ways split between applications (the `Static` baseline).
    WayPartitioned,
    /// Cache sets split between applications by page color (FGPU-style
    /// spatial partitioning; the `Partitioned` design).
    SetColored,
    /// Shared, plus Address-Translation-Aware L2 Bypass (§5.3).
    SharedBypass,
}

/// How DRAM channels/banks are mapped and requests scheduled.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum DramPolicy {
    /// All channels and banks shared; baseline FR-FCFS/batch scheduler.
    Shared,
    /// Memory channels split between applications (the `Static` baseline).
    ChannelPartitioned,
    /// All channels visible, but banks within each channel split between
    /// applications by color (FGPU-style; the `Partitioned` design).
    BankColored,
    /// Shared channels with MASK's Golden/Silver/Normal queues (§5.4).
    MaskQueues,
}

/// How shader cores (SMs) are assigned to concurrent applications.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum ComputePolicy {
    /// Each application owns a contiguous, disjoint set of SMs.
    SmSets,
    /// Applications interleave across all SMs round-robin (MPS-style
    /// share-everything placement).
    AllSms,
}

/// How the physical frame allocator places application pages.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum AllocPolicy {
    /// Contiguous per-application frame regions (bump allocation).
    Linear,
    /// Frames striped so each application's pages carry its color in the
    /// low frame bits (the cache-set / DRAM-bank index inputs), in the
    /// spirit of Mosaic's contiguity-conserving allocator.
    ColorAware,
}

/// A design point in the multi-application GPU memory-hierarchy space: one
/// independent policy choice per hardware layer.
///
/// Every simulated layer consumes exactly one axis of this struct — the
/// translation unit reads [`TranslationPath`]/[`TokenPolicy`]/
/// [`AllocPolicy`], the shared L2 reads [`L2Policy`], the DRAM model reads
/// [`DramPolicy`], and core placement reads [`ComputePolicy`]. The paper's
/// named designs are presets over these axes ([`DesignKind::spec`]).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct DesignSpec {
    /// Translation path after an L1 TLB miss.
    pub translation: TranslationPath,
    /// TLB-Fill Token gating of shared-TLB fills.
    pub tokens: TokenPolicy,
    /// Shared L2 data-cache policy.
    pub l2: L2Policy,
    /// DRAM mapping/scheduling policy.
    pub dram: DramPolicy,
    /// SM-to-application placement.
    pub compute: ComputePolicy,
    /// Physical frame allocation policy.
    pub alloc: AllocPolicy,
}

/// The `SharedTlb` baseline: everything shared, no MASK mechanisms.
const SHARED_BASE: DesignSpec = DesignSpec {
    translation: TranslationPath::SharedL2Tlb,
    tokens: TokenPolicy::Disabled,
    l2: L2Policy::Shared,
    dram: DramPolicy::Shared,
    compute: ComputePolicy::SmSets,
    alloc: AllocPolicy::Linear,
};

/// Which of the evaluated designs to simulate (§7 plus the two
/// design-space brackets): a named preset over [`DesignSpec`] axes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum DesignKind {
    /// Static spatial partitioning: cores *and* L2 cache ways *and* DRAM
    /// channels are split equally between applications (models NVIDIA GRID /
    /// AMD `FirePro`; the `Static` baseline of §7).
    Static,
    /// FGPU-style page-colored partitioning: disjoint SM sets, color-aware
    /// frame allocation, and disjoint L2 sets + DRAM banks per application.
    Partitioned,
    /// MPS-style share-everything: applications interleave across all SMs
    /// and contend freely for every shared resource.
    NoIsolation,
    /// Baseline variant with a shared page-walk cache after the L1 TLBs
    /// (Power et al. \[106\]; Fig. 2a).
    PwCache,
    /// Baseline variant with a shared L2 TLB after the L1 TLBs (Fig. 2b).
    SharedTlb,
    /// `SharedTlb` plus TLB-Fill Tokens and the TLB bypass cache only
    /// (the `MASK-TLB` component study of §7.2).
    MaskTlb,
    /// `SharedTlb` plus Address-Translation-Aware L2 Bypass only
    /// (`MASK-Cache`).
    MaskCache,
    /// `SharedTlb` plus the Address-Space-Aware DRAM Scheduler only
    /// (`MASK-DRAM`).
    MaskDram,
    /// The full MASK design: all three mechanisms together (§5).
    Mask,
    /// A hypothetical GPU where every L1 TLB access hits (`Ideal` in §7).
    Ideal,
}

impl DesignKind {
    /// All designs compared in the Figure 11–15 grids, in plotting order:
    /// the paper's eight designs plus the two design-space brackets
    /// (`Partitioned` below `Static`, `NoIsolation` above the baselines).
    pub const ALL: [DesignKind; 10] = [
        DesignKind::Static,
        DesignKind::Partitioned,
        DesignKind::NoIsolation,
        DesignKind::PwCache,
        DesignKind::SharedTlb,
        DesignKind::MaskTlb,
        DesignKind::MaskCache,
        DesignKind::MaskDram,
        DesignKind::Mask,
        DesignKind::Ideal,
    ];

    /// The preset's policy axes. This is the *only* place a named design
    /// is interpreted — simulated layers never see `DesignKind`, they each
    /// consume one axis of the returned [`DesignSpec`].
    pub const fn spec(self) -> DesignSpec {
        match self {
            DesignKind::Static => DesignSpec {
                l2: L2Policy::WayPartitioned,
                dram: DramPolicy::ChannelPartitioned,
                ..SHARED_BASE
            },
            DesignKind::Partitioned => DesignSpec {
                l2: L2Policy::SetColored,
                dram: DramPolicy::BankColored,
                alloc: AllocPolicy::ColorAware,
                ..SHARED_BASE
            },
            DesignKind::NoIsolation => DesignSpec {
                compute: ComputePolicy::AllSms,
                ..SHARED_BASE
            },
            DesignKind::PwCache => DesignSpec {
                translation: TranslationPath::PageWalkCache,
                ..SHARED_BASE
            },
            DesignKind::SharedTlb => SHARED_BASE,
            DesignKind::MaskTlb => DesignSpec {
                tokens: TokenPolicy::FillTokens,
                ..SHARED_BASE
            },
            DesignKind::MaskCache => DesignSpec {
                l2: L2Policy::SharedBypass,
                ..SHARED_BASE
            },
            DesignKind::MaskDram => DesignSpec {
                dram: DramPolicy::MaskQueues,
                ..SHARED_BASE
            },
            DesignKind::Mask => DesignSpec {
                tokens: TokenPolicy::FillTokens,
                l2: L2Policy::SharedBypass,
                dram: DramPolicy::MaskQueues,
                ..SHARED_BASE
            },
            DesignKind::Ideal => DesignSpec {
                translation: TranslationPath::Ideal,
                ..SHARED_BASE
            },
        }
    }

    /// Short label used in experiment tables.
    pub const fn label(self) -> &'static str {
        match self {
            DesignKind::Static => "Static",
            DesignKind::Partitioned => "Partitioned",
            DesignKind::NoIsolation => "NoIsolation",
            DesignKind::PwCache => "PWCache",
            DesignKind::SharedTlb => "SharedTLB",
            DesignKind::MaskTlb => "MASK-TLB",
            DesignKind::MaskCache => "MASK-Cache",
            DesignKind::MaskDram => "MASK-DRAM",
            DesignKind::Mask => "MASK",
            DesignKind::Ideal => "Ideal",
        }
    }
}

impl From<DesignKind> for DesignSpec {
    fn from(kind: DesignKind) -> Self {
        kind.spec()
    }
}

impl core::fmt::Display for DesignKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// TLB hierarchy parameters (Table 1).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TlbConfig {
    /// Entries in each per-core, fully-associative L1 TLB.
    pub l1_entries: usize,
    /// L1 TLB lookup latency in cycles.
    pub l1_latency: u64,
    /// Total entries in the shared L2 TLB.
    pub l2_entries: usize,
    /// Associativity of the shared L2 TLB.
    pub l2_assoc: usize,
    /// Shared L2 TLB access latency in cycles.
    pub l2_latency: u64,
    /// Probe ports on the shared L2 TLB (requests accepted per cycle).
    pub l2_ports: usize,
    /// Entries in MASK's fully-associative TLB bypass cache (§5.2).
    pub bypass_cache_entries: usize,
}

impl Default for TlbConfig {
    fn default() -> Self {
        TlbConfig {
            l1_entries: 64,
            l1_latency: 1,
            l2_entries: 512,
            l2_assoc: 16,
            l2_latency: 10,
            l2_ports: 2,
            bypass_cache_entries: 32,
        }
    }
}

/// Page-walk-cache parameters (the `PWCache` baseline variant, Fig. 2a).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PwcConfig {
    /// Capacity in bytes (the paper uses an 8 KB page walk cache).
    pub bytes: usize,
    /// Associativity (16-way per Table 1).
    pub assoc: usize,
    /// Access latency in cycles.
    pub latency: u64,
}

impl Default for PwcConfig {
    fn default() -> Self {
        PwcConfig {
            bytes: 8 * 1024,
            assoc: 16,
            latency: 10,
        }
    }
}

/// Data-cache parameters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub bytes: usize,
    /// Associativity.
    pub assoc: usize,
    /// Access latency in cycles (pipeline depth, excluding queueing).
    pub latency: u64,
    /// Number of banks (1 for private L1s).
    pub banks: usize,
    /// Ports per bank (requests each bank accepts per cycle).
    pub ports_per_bank: usize,
    /// MSHR entries per bank.
    pub mshrs: usize,
}

impl CacheConfig {
    /// Table 1 private L1 data cache: 16 KB, 4-way, 1-cycle.
    pub fn maxwell_l1() -> Self {
        CacheConfig {
            bytes: 16 * 1024,
            assoc: 4,
            latency: 1,
            banks: 1,
            ports_per_bank: 2,
            mshrs: 32,
        }
    }

    /// Table 1 shared L2: 2 MB, 16-way, 16 banks, 2 ports/bank, 10-cycle.
    /// MSHR depth follows GPGPU-Sim's default of 32 per bank.
    pub fn maxwell_l2() -> Self {
        CacheConfig {
            bytes: 2 * 1024 * 1024,
            assoc: 16,
            latency: 10,
            banks: 16,
            ports_per_bank: 2,
            mshrs: 32,
        }
    }
}

/// DRAM row-buffer management policy (§7.3 sensitivity study).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum RowPolicy {
    /// Keep rows open after access (baseline; best for row-locality).
    #[default]
    Open,
    /// Precharge after every access (used by various CPUs; §7.3).
    Closed,
}

/// Which memory scheduling algorithm the controller runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum MemSchedKind {
    /// First-ready, first-come-first-served [110, 152] (baseline, Table 1).
    #[default]
    FrFcfs,
    /// A batch-oriented GPU scheduler in the spirit of Jog et al. \[60\]:
    /// forms application-aware batches and drains them oldest-first,
    /// preserving intra-batch row locality (§7.3 "another state-of-the-art
    /// GPU memory scheduler").
    GpuBatch,
}

/// DRAM timing and organization (GDDR5-like, Table 1), in core cycles.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DramConfig {
    /// Number of memory channels.
    pub channels: usize,
    /// Banks per channel (one rank).
    pub banks_per_channel: usize,
    /// log2 of the row-buffer size in bytes (2 KB rows -> 11).
    pub row_size_log2: u32,
    /// Column access latency for a row-buffer hit.
    pub t_cas: u64,
    /// Activate-to-read latency (added on a closed row).
    pub t_rcd: u64,
    /// Precharge latency (added on a row conflict).
    pub t_rp: u64,
    /// Cycles the channel data bus is occupied per line transfer (burst 8).
    pub burst_cycles: u64,
    /// Capacity of the per-channel request buffer (baseline FR-FCFS).
    pub queue_capacity: usize,
    /// Row-buffer management policy.
    pub row_policy: RowPolicy,
    /// Scheduling algorithm for the non-MASK queues.
    pub sched: MemSchedKind,
    /// MASK Golden queue capacity (address-translation FIFO, §5.4).
    pub golden_capacity: usize,
    /// MASK Silver queue capacity (§5.4).
    pub silver_capacity: usize,
    /// MASK Normal queue capacity (§5.4).
    pub normal_capacity: usize,
    /// `thresh_max` of Eq. 1 (set to 500 empirically, §6).
    pub thresh_max: u64,
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig {
            channels: 8,
            banks_per_channel: 8,
            row_size_log2: 11,
            t_cas: 12,
            t_rcd: 12,
            t_rp: 12,
            burst_cycles: 4,
            queue_capacity: 64,
            row_policy: RowPolicy::Open,
            sched: MemSchedKind::FrFcfs,
            golden_capacity: 16,
            silver_capacity: 64,
            normal_capacity: 192,
            thresh_max: 500,
        }
    }
}

/// Token-count adjustment policy (see `mask-tlb::tokens` for semantics).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum TokenPolicyKind {
    /// §5.2's literal ±2% delta rule (static in steady state).
    Literal,
    /// Direction-register hill climbing implied by §7.4 (default).
    #[default]
    HillClimb,
}

/// MASK mechanism tuning knobs (§5, §6 "Design Parameters").
#[derive(Clone, Debug, PartialEq)]
pub struct MaskParams {
    /// Epoch length in cycles (100K cycles, §5.2).
    pub epoch_cycles: u64,
    /// `InitialTokens`: fraction of each app's total warps receiving tokens
    /// after the first epoch (80%, §6).
    pub initial_tokens_frac: f64,
    /// Miss-rate change that triggers a token-count adjustment (±2%, §5.2).
    pub miss_rate_delta: f64,
    /// Step (fraction of total warps) by which the token count is adjusted
    /// each epoch when contention changes. The paper does not specify its
    /// step size; 25% converges to the steady-state token count within a
    /// few epochs, matching the paper's observation that the mechanism is
    /// "effective at reconfiguring the total number of tokens to a
    /// steady-state value" (§6).
    pub token_step_frac: f64,
    /// Token-count adjustment policy.
    pub token_policy: TokenPolicyKind,
    /// Hysteresis margin for the L2-bypass decision (see
    /// `mask-cache::bypass`): a walk level bypasses only when its hit rate
    /// is at least this far below the data hit rate. 0.0 gives the paper's
    /// literal comparison.
    pub bypass_margin: f64,
}

impl MaskParams {
    /// Resets to their defaults the five knobs that only end-of-epoch
    /// bookkeeping reads (`TokenAllocator::end_epoch`,
    /// `BypassMonitor::end_epoch`), and which therefore cannot influence
    /// any state produced before the first epoch boundary. The warm-up
    /// prefix key calls this for a warm-up that ends before that boundary,
    /// which is what lets a sweep over one of them share a warm checkpoint.
    /// `epoch_cycles` places the boundaries and is never reset; a knob
    /// added to this struct is kept (and so splits the key) until it is
    /// named here.
    pub fn reset_epoch_end_only(&mut self) {
        let default = MaskParams::default();
        self.initial_tokens_frac = default.initial_tokens_frac;
        self.miss_rate_delta = default.miss_rate_delta;
        self.token_step_frac = default.token_step_frac;
        self.token_policy = default.token_policy;
        self.bypass_margin = default.bypass_margin;
    }

    /// Whether `cycle` is a safe snapshot point: an epoch boundary, or any
    /// cycle before the first one (where no end-of-epoch bookkeeping has
    /// run yet). Only there is the simulator's state independent of the
    /// knobs [`MaskParams::reset_epoch_end_only`] drops from the warm-up
    /// prefix key.
    pub fn is_epoch_safe(&self, cycle: u64) -> bool {
        self.epoch_cycles == 0
            || cycle < self.epoch_cycles
            || cycle.is_multiple_of(self.epoch_cycles)
    }
}

impl Default for MaskParams {
    fn default() -> Self {
        MaskParams {
            epoch_cycles: 100_000,
            initial_tokens_frac: 0.8,
            miss_rate_delta: 0.02,
            token_step_frac: 0.25,
            token_policy: TokenPolicyKind::default(),
            bypass_margin: 0.05,
        }
    }
}

/// Full configuration of the simulated GPU (Table 1 by default).
#[derive(Clone, Debug, PartialEq)]
pub struct GpuConfig {
    /// Number of shader cores (SMs).
    pub n_cores: usize,
    /// Warp contexts per core.
    pub warps_per_core: usize,
    /// Threads per warp.
    pub warp_size: usize,
    /// log2 of the page size (12 for 4 KB, 21 for the §7.3 2 MB study).
    pub page_size_log2: u32,
    /// TLB hierarchy parameters.
    pub tlb: TlbConfig,
    /// Page-walk-cache parameters (used only by [`DesignKind::PwCache`]).
    pub pwc: PwcConfig,
    /// Private L1 data cache parameters.
    pub l1_cache: CacheConfig,
    /// Shared L2 cache parameters.
    pub l2_cache: CacheConfig,
    /// DRAM parameters.
    pub dram: DramConfig,
    /// Concurrent page-table walks supported by the shared walker (§6).
    pub walker_slots: usize,
    /// Latency charged when a walk targets a page that has never been
    /// touched (demand paging / far fault service time). The paper's
    /// evaluation runs fault-free (§5.5 leaves fault handling to future
    /// work), so the default is 0; the demand-paging sensitivity study
    /// raises it.
    pub page_fault_latency: u64,
    /// MASK mechanism parameters.
    pub mask: MaskParams,
}

impl GpuConfig {
    /// The Maxwell-like baseline of Table 1: 30 cores, 64 warp contexts per
    /// core, 64-entry L1 TLBs, 512-entry shared L2 TLB, 2 MB shared L2,
    /// 8-channel GDDR5.
    pub fn maxwell() -> Self {
        GpuConfig {
            n_cores: 30,
            warps_per_core: 64,
            warp_size: 64,
            page_size_log2: PAGE_SIZE_4K_LOG2,
            tlb: TlbConfig::default(),
            pwc: PwcConfig::default(),
            l1_cache: CacheConfig::maxwell_l1(),
            l2_cache: CacheConfig::maxwell_l2(),
            dram: DramConfig::default(),
            walker_slots: 64,
            page_fault_latency: 0,
            mask: MaskParams::default(),
        }
    }

    /// A Fermi-like GTX480 configuration (§7.3 generality study): 15 cores,
    /// smaller L2, 6 memory channels. The shared walker scales with the
    /// core count (the paper sizes its 64-thread walker for the 30-core
    /// Maxwell baseline; a half-size chip carries a half-size walker).
    pub fn fermi() -> Self {
        let mut cfg = GpuConfig::maxwell();
        cfg.n_cores = 15;
        cfg.warps_per_core = 48;
        cfg.l2_cache.bytes = 768 * 1024;
        cfg.l2_cache.banks = 6;
        cfg.dram.channels = 6;
        cfg.walker_slots = 32;
        cfg
    }

    /// An integrated-GPU configuration in the spirit of Power et al. \[106\]
    /// (§7.3): fewer cores sharing a narrow CPU-style memory system.
    pub fn integrated() -> Self {
        let mut cfg = GpuConfig::maxwell();
        cfg.n_cores = 8;
        cfg.warps_per_core = 48;
        cfg.l2_cache.bytes = 1024 * 1024;
        cfg.l2_cache.banks = 4;
        cfg.dram.channels = 2;
        cfg.dram.banks_per_channel = 8;
        cfg.dram.burst_cycles = 8; // narrower DDR-style bus
        cfg.walker_slots = 16; // walker scales with the core count
        cfg
    }

    /// Maximum number of radix levels a page walk traverses for this config.
    pub fn walk_levels(&self) -> u8 {
        crate::addr::levels_for_page_size(self.page_size_log2)
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        GpuConfig::maxwell()
    }
}

/// A complete simulation configuration: machine + design + run length.
#[derive(Clone, Debug, PartialEq)]
pub struct SimConfig {
    /// The simulated machine.
    pub gpu: GpuConfig,
    /// The design point to model (named presets convert via
    /// [`DesignKind::spec`] / `Into<DesignSpec>`).
    pub design: DesignSpec,
    /// Number of cycles to simulate.
    pub max_cycles: u64,
    /// Base PRNG seed (combined with app/core/warp ids).
    pub seed: u64,
}

impl SimConfig {
    /// A configuration for `design` (a [`DesignKind`] preset or an
    /// explicit [`DesignSpec`]) on the Table 1 machine.
    pub fn new(design: impl Into<DesignSpec>) -> Self {
        SimConfig {
            gpu: GpuConfig::maxwell(),
            design: design.into(),
            max_cycles: default_max_cycles(),
            seed: 0xA55A_2018,
        }
    }

    /// Replaces the simulated cycle budget.
    pub fn with_max_cycles(mut self, cycles: u64) -> Self {
        self.max_cycles = cycles;
        self
    }

    /// Replaces the base seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Worker-count request for `mask-core`'s job engine.
///
/// Pure configuration data: every simulation batch is fanned out over this
/// many worker threads by the engine (`mask_core::engine::JobPool`). This
/// type only *carries the request* — resolution of `None` to an actual
/// thread count (the machine's available parallelism) happens inside the
/// engine, the one module allowed to touch `std::thread`.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct JobOptions {
    /// Explicit worker count (`Some(1)` = strictly serial, on the calling
    /// thread). `None` defers to the `MASK_JOBS` environment variable and,
    /// when that is unset too, to the machine's available parallelism.
    pub workers: Option<usize>,
}

impl JobOptions {
    /// Run every job serially on the calling thread.
    #[must_use]
    pub const fn serial() -> Self {
        JobOptions { workers: Some(1) }
    }

    /// Request exactly `n` worker threads.
    #[must_use]
    pub const fn with_workers(n: usize) -> Self {
        JobOptions { workers: Some(n) }
    }

    /// The requested worker count: the explicit setting when present, else
    /// `MASK_JOBS`. `None` means "let the engine pick" (available
    /// parallelism); any request is clamped to at least 1.
    #[must_use]
    pub fn requested(self) -> Option<usize> {
        self.workers
            .or_else(|| std::env::var("MASK_JOBS").ok().and_then(|v| v.parse().ok()))
            .map(|n: usize| n.max(1))
    }
}

/// Default per-run cycle budget.
///
/// Honors the `MASK_SIM_CYCLES` environment variable so the full experiment
/// suite can be scaled up for higher-fidelity runs (the paper simulates
/// full benchmarks; we default to 300K cycles = 3 MASK epochs, which is
/// enough for the epoch-based mechanisms to reach steady state).
pub fn default_max_cycles() -> u64 {
    std::env::var("MASK_SIM_CYCLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(300_000)
}

/// The `MASK_PAIR_LIMIT` environment variable, when set to a number. This
/// is the one read site for that variable — experiment and harness code
/// takes the resolved value, never the environment.
pub fn pair_limit_override() -> Option<usize> {
    std::env::var("MASK_PAIR_LIMIT")
        .ok()
        .and_then(|v| v.parse().ok())
}

/// Default number of paper workload pairs an experiment simulates: the
/// [`pair_limit_override`] when present (capping the count keeps smoke
/// runs fast), else all 35 two-app pairs the paper evaluates.
pub fn default_pair_limit() -> usize {
    pair_limit_override().unwrap_or(35)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_job_options_win_over_environment() {
        assert_eq!(JobOptions::serial().requested(), Some(1));
        assert_eq!(JobOptions::with_workers(6).requested(), Some(6));
        // A nonsensical explicit request clamps to the serial minimum.
        assert_eq!(JobOptions::with_workers(0).requested(), Some(1));
    }

    #[test]
    fn design_feature_matrix_matches_paper() {
        use DesignKind::*;
        // Fig. 2: PWCache has a page-walk cache, no shared L2 TLB.
        assert_eq!(PwCache.spec().translation, TranslationPath::PageWalkCache);
        // Fig. 2b / Fig. 10: SharedTLB and every MASK variant share an L2 TLB.
        for d in [SharedTlb, MaskTlb, MaskCache, MaskDram, Mask] {
            assert_eq!(
                d.spec().translation,
                TranslationPath::SharedL2Tlb,
                "{d} should have a shared L2 TLB"
            );
        }
        // Fig. 10: full MASK enables all three mechanisms.
        let mask = Mask.spec();
        assert_eq!(mask.tokens, TokenPolicy::FillTokens);
        assert_eq!(mask.l2, L2Policy::SharedBypass);
        assert_eq!(mask.dram, DramPolicy::MaskQueues);
        // Component studies enable exactly one mechanism each.
        let tlb = MaskTlb.spec();
        assert_eq!(
            (tlb.tokens, tlb.l2, tlb.dram),
            (
                TokenPolicy::FillTokens,
                L2Policy::Shared,
                DramPolicy::Shared
            )
        );
        let cache = MaskCache.spec();
        assert_eq!(
            (cache.tokens, cache.l2, cache.dram),
            (
                TokenPolicy::Disabled,
                L2Policy::SharedBypass,
                DramPolicy::Shared
            )
        );
        let dram = MaskDram.spec();
        assert_eq!(
            (dram.tokens, dram.l2, dram.dram),
            (
                TokenPolicy::Disabled,
                L2Policy::Shared,
                DramPolicy::MaskQueues
            )
        );
        // Ideal has no translation overhead at all.
        assert_eq!(Ideal.spec().translation, TranslationPath::Ideal);
        // Static splits ways and channels; Partitioned colors sets/banks
        // and allocates color-aware frames; both pin SM sets.
        let st = Static.spec();
        assert_eq!(
            (st.l2, st.dram),
            (L2Policy::WayPartitioned, DramPolicy::ChannelPartitioned)
        );
        let part = Partitioned.spec();
        assert_eq!(
            (part.l2, part.dram, part.alloc, part.compute),
            (
                L2Policy::SetColored,
                DramPolicy::BankColored,
                AllocPolicy::ColorAware,
                ComputePolicy::SmSets
            )
        );
        // NoIsolation shares everything and interleaves across all SMs —
        // it differs from SharedTlb only in compute placement.
        let noiso = NoIsolation.spec();
        assert_eq!(noiso.compute, ComputePolicy::AllSms);
        assert_eq!(
            DesignSpec {
                compute: ComputePolicy::SmSets,
                ..noiso
            },
            SharedTlb.spec()
        );
    }

    #[test]
    fn presets_are_distinct_design_points() {
        // The engine dedup key hashes the spec, so no two named presets may
        // collapse onto the same axes.
        for (i, a) in DesignKind::ALL.iter().enumerate() {
            for b in &DesignKind::ALL[i + 1..] {
                assert_ne!(a.spec(), b.spec(), "{a} and {b} share a spec");
            }
        }
        assert_eq!(DesignKind::ALL.len(), 10);
    }

    #[test]
    fn maxwell_matches_table_1() {
        let cfg = GpuConfig::maxwell();
        assert_eq!(cfg.n_cores, 30);
        assert_eq!(cfg.warps_per_core, 64);
        assert_eq!(cfg.tlb.l1_entries, 64);
        assert_eq!(cfg.tlb.l2_entries, 512);
        assert_eq!(cfg.tlb.l2_assoc, 16);
        assert_eq!(cfg.l2_cache.bytes, 2 * 1024 * 1024);
        assert_eq!(cfg.l2_cache.banks, 16);
        assert_eq!(cfg.dram.channels, 8);
        assert_eq!(cfg.dram.banks_per_channel, 8);
        assert_eq!(cfg.walker_slots, 64);
        assert_eq!(cfg.walk_levels(), 4);
    }

    #[test]
    fn large_pages_reduce_walk_depth() {
        let mut cfg = GpuConfig::maxwell();
        cfg.page_size_log2 = crate::addr::PAGE_SIZE_2M_LOG2;
        assert_eq!(cfg.walk_levels(), 3);
    }

    #[test]
    fn sim_config_builders() {
        let cfg = SimConfig::new(DesignKind::Mask)
            .with_max_cycles(1234)
            .with_seed(7);
        assert_eq!(cfg.max_cycles, 1234);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.design, DesignKind::Mask.spec());
    }

    #[test]
    fn reset_touches_exactly_the_epoch_end_only_knobs() {
        let mut p = MaskParams {
            epoch_cycles: 777,
            initial_tokens_frac: 0.1,
            miss_rate_delta: 0.2,
            token_step_frac: 0.3,
            token_policy: TokenPolicyKind::Literal,
            bypass_margin: 0.4,
        };
        p.reset_epoch_end_only();
        assert_eq!(
            p,
            MaskParams {
                epoch_cycles: 777,
                ..MaskParams::default()
            }
        );
    }
}
