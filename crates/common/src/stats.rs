//! Simulation statistics.
//!
//! Every metric reported in the paper's evaluation (§4, §7) is derived from
//! the counters collected here: IPC / weighted speedup, L1/L2 TLB miss
//! rates, average concurrent page walks (Fig. 5), warps stalled per TLB miss
//! (Fig. 6), DRAM bandwidth utilization and latency split by request class
//! (Figs. 8–9), and per-walk-level L2 cache hit rates (§4.3).

use crate::req::WalkLevel;

/// One entry of a counter struct's field table, as [`AppStats::fields`]
/// (`U = &u64`, ...) and [`AppStats::fields_mut`] (`U = &mut u64`, ...)
/// hand it out — and likewise for [`HitStats`] and [`DramClassStats`],
/// whose fields are all `Counter`s.
///
/// The table is the single written-down list of the counters: the MSNP
/// codec, the wire JSON, the epoch deltas and the test generators all walk
/// it, so a counter added to a struct below is encoded, shipped, diffed
/// and fuzzed without another edit.
#[derive(Debug)]
pub enum Field<U, H, D, L> {
    /// A `u64` that only accumulates; deltas subtract it.
    Counter(U),
    /// A `u64` watermark or end-of-run level; deltas carry the current
    /// value, since "difference" has no meaning for it within a window.
    Level(U),
    /// A hit/access pair.
    Hit(H),
    /// One DRAM request class.
    Dram(D),
    /// One hit/access pair per page-walk level.
    HitLevels(L),
}

/// A [`Field`] borrowed for reading.
pub type FieldRef<'a> = Field<&'a u64, &'a HitStats, &'a DramClassStats, &'a [HitStats; 4]>;
/// A [`Field`] borrowed for writing.
pub type FieldMut<'a> =
    Field<&'a mut u64, &'a mut HitStats, &'a mut DramClassStats, &'a mut [HitStats; 4]>;

/// Declares a counter struct together with its field table. Each field is
/// written `pub name: Type = Kind`, `Kind` being the [`Field`] variant that
/// carries a reference to `Type`.
macro_rules! counters {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($(#[$fmeta:meta])* pub $field:ident: $ty:ty = $kind:ident,)*
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $($(#[$fmeta])* pub $field: $ty,)*
        }

        impl $name {
            /// The field table: `(name, field)` for every field, in struct
            /// order (which is also MSNP payload order).
            pub fn fields(&self) -> impl Iterator<Item = (&'static str, FieldRef<'_>)> {
                [$((stringify!($field), Field::$kind(&self.$field)),)*].into_iter()
            }

            /// [`Self::fields`], borrowed for writing.
            pub fn fields_mut(&mut self) -> impl Iterator<Item = (&'static str, FieldMut<'_>)> {
                [$((stringify!($field), Field::$kind(&mut self.$field)),)*].into_iter()
            }
        }
    };
}

/// `cur -= prev`, field by field: counters subtract (they are monotonic;
/// saturating defensively so a mismatched snapshot cannot panic), levels
/// keep the current value.
fn subtract<'a, 'b>(
    cur: impl Iterator<Item = (&'static str, FieldMut<'a>)>,
    prev: impl Iterator<Item = (&'static str, FieldRef<'b>)>,
) {
    for ((_, cur), (_, prev)) in cur.zip(prev) {
        match (cur, prev) {
            (Field::Counter(c), Field::Counter(p)) => *c = c.saturating_sub(*p),
            (Field::Level(_), Field::Level(_)) => {}
            (Field::Hit(c), Field::Hit(p)) => *c = c.delta(p),
            (Field::Dram(c), Field::Dram(p)) => *c = c.delta(p),
            (Field::HitLevels(c), Field::HitLevels(p)) => {
                for (c, p) in c.iter_mut().zip(p) {
                    *c = c.delta(p);
                }
            }
            _ => unreachable!("both sides walk the same table"),
        }
    }
}

/// `into += from` for a struct whose fields are all counters.
fn add_counters<'a, 'b>(
    into: impl Iterator<Item = (&'static str, FieldMut<'a>)>,
    from: impl Iterator<Item = (&'static str, FieldRef<'b>)>,
) {
    for ((_, into), (_, from)) in into.zip(from) {
        let (Field::Counter(a), Field::Counter(b)) = (into, from) else {
            unreachable!("only all-counter structs merge");
        };
        *a += *b;
    }
}

counters! {
    /// Counters for one request class (data vs. translation) at the DRAM.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct DramClassStats {
        /// Requests serviced.
        pub requests: u64 = Counter,
        /// Sum over requests of (completion - arrival at controller), in cycles.
        pub latency_sum: u64 = Counter,
        /// Cycles the channel data bus spent transferring this class.
        pub bus_busy_cycles: u64 = Counter,
        /// Row-buffer hits.
        pub row_hits: u64 = Counter,
        /// Row-buffer misses (closed row).
        pub row_misses: u64 = Counter,
        /// Row-buffer conflicts (wrong row open).
        pub row_conflicts: u64 = Counter,
    }
}

impl DramClassStats {
    /// Average service latency in cycles (0 if nothing was serviced).
    pub fn avg_latency(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.latency_sum as f64 / self.requests as f64
        }
    }

    /// Row-buffer hit rate over all serviced requests.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses + self.row_conflicts;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }

    /// Component-wise difference `self - prev` (counters are monotonic;
    /// saturates defensively so a mismatched snapshot cannot panic).
    #[must_use]
    pub fn delta(&self, prev: &DramClassStats) -> DramClassStats {
        let mut out = self.clone();
        subtract(out.fields_mut(), prev.fields());
        out
    }

    /// Accumulates another counter set into this one.
    pub fn merge(&mut self, other: &DramClassStats) {
        add_counters(self.fields_mut(), other.fields());
    }
}

counters! {
    /// Hit/access counter pair.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct HitStats {
        /// Total accesses.
        pub accesses: u64 = Counter,
        /// Accesses that hit.
        pub hits: u64 = Counter,
    }
}

impl HitStats {
    /// Records one access.
    #[inline]
    pub fn record(&mut self, hit: bool) {
        self.accesses += 1;
        self.hits += u64::from(hit);
    }

    /// Misses (`accesses - hits`).
    #[inline]
    pub fn misses(&self) -> u64 {
        self.accesses - self.hits
    }

    /// Hit rate in `[0, 1]` (0 when never accessed).
    #[inline]
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }

    /// Miss rate in `[0, 1]` (0 when never accessed).
    #[inline]
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            1.0 - self.hit_rate()
        }
    }

    /// Accumulates another counter pair into this one.
    #[inline]
    pub fn merge(&mut self, other: &HitStats) {
        add_counters(self.fields_mut(), other.fields());
    }

    /// Component-wise difference `self - prev` (counters are monotonic;
    /// saturates defensively so a mismatched snapshot cannot panic).
    #[inline]
    #[must_use]
    pub fn delta(&self, prev: &HitStats) -> HitStats {
        let mut out = *self;
        subtract(out.fields_mut(), prev.fields());
        out
    }
}

counters! {
    /// Per-application counters.
    #[derive(Clone, Debug, Default, PartialEq)]
    pub struct AppStats {
        /// Instructions issued (IPC numerator).
        pub instructions: u64 = Counter,
        /// Memory instructions issued.
        pub mem_instructions: u64 = Counter,
        /// Cycles this app's cores were simulated (IPC denominator).
        pub cycles: u64 = Counter,
        /// Cycles during which *no* warp on a core of this app could issue.
        pub stall_cycles: u64 = Counter,

        /// Per-core L1 TLB probes.
        pub l1_tlb: HitStats = Hit,
        /// Shared L2 TLB probes (only the apps' own probes).
        pub l2_tlb: HitStats = Hit,
        /// MASK TLB-bypass-cache probes (§5.2).
        pub tlb_bypass_cache: HitStats = Hit,
        /// Page-walk-cache probes (`PWCache` design only).
        pub pwc: HitStats = Hit,

        /// Demand-paging faults taken (first touches, when fault latency > 0).
        pub page_faults: u64 = Counter,
        /// Page walks started.
        pub walks_started: u64 = Counter,
        /// Page walks completed.
        pub walks_completed: u64 = Counter,
        /// Sum of completed-walk latencies in cycles.
        pub walk_latency_sum: u64 = Counter,
        /// Integral over time of in-flight walks (divide by `cycles` to get the
        /// average number of concurrent page walks, Fig. 5).
        pub walk_cycles_integral: u64 = Counter,
        /// Maximum concurrent walks observed.
        pub walk_concurrency_max: u64 = Level,
        /// Sum over resolved L2-TLB misses of the number of warps that were
        /// stalled waiting for that miss (Fig. 6 numerator).
        pub stalled_warps_sum: u64 = Counter,
        /// Number of resolved L2-TLB misses (Fig. 6 denominator).
        pub stalled_warps_events: u64 = Counter,
        /// Maximum warps stalled behind one miss.
        pub stalled_warps_max: u64 = Level,

        /// L1 data-cache probes.
        pub l1_data: HitStats = Hit,
        /// Shared-L2 probes by data demand requests.
        pub l2_data: HitStats = Hit,
        /// Shared-L2 probes by translation requests, split by walk level.
        pub l2_translation: [HitStats; 4] = HitLevels,
        /// Translation requests that bypassed the shared L2 entirely (§5.3).
        pub l2_translation_bypassed: u64 = Counter,

        /// DRAM behaviour of this app's data demand requests.
        pub dram_data: DramClassStats = Dram,
        /// DRAM behaviour of this app's translation requests.
        pub dram_translation: DramClassStats = Dram,

        /// Tokens held at the end of the run (MASK designs).
        pub tokens_final: u64 = Level,
        /// Shared-L2-TLB fills that were diverted to the bypass cache.
        pub fills_diverted: u64 = Counter,
    }
}

impl AppStats {
    /// Instructions per cycle over the whole run.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Average latency of completed page walks.
    pub fn avg_walk_latency(&self) -> f64 {
        if self.walks_completed == 0 {
            0.0
        } else {
            self.walk_latency_sum as f64 / self.walks_completed as f64
        }
    }

    /// Average number of concurrent page walks (Fig. 5).
    pub fn avg_concurrent_walks(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.walk_cycles_integral as f64 / self.cycles as f64
        }
    }

    /// Average warps stalled per L2 TLB miss (Fig. 6).
    pub fn avg_warps_stalled_per_miss(&self) -> f64 {
        if self.stalled_warps_events == 0 {
            0.0
        } else {
            self.stalled_warps_sum as f64 / self.stalled_warps_events as f64
        }
    }

    /// L2 cache hit rate of translation requests at one walk level (§4.3).
    pub fn l2_translation_hit_rate(&self, level: WalkLevel) -> f64 {
        self.l2_translation[level.index()].hit_rate()
    }

    /// Records an L2-cache translation probe at `level`.
    pub fn record_l2_translation(&mut self, level: WalkLevel, hit: bool) {
        self.l2_translation[level.index()].record(hit);
    }

    /// Counter difference `self - prev` for epoch-over-epoch streams
    /// (`mask-obs`). Accumulating counters subtract; watermarks
    /// (`walk_concurrency_max`, `stalled_warps_max`) and snapshots
    /// (`tokens_final`) carry the current value, since "difference" has no
    /// meaning for them within an epoch window.
    #[must_use]
    pub fn delta_since(&self, prev: &AppStats) -> AppStats {
        let mut out = self.clone();
        subtract(out.fields_mut(), prev.fields());
        out
    }
}

/// Whole-simulation statistics: per-app counters plus global state.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimStats {
    /// Per-application counters, indexed by [`crate::ids::AppId`].
    pub apps: Vec<AppStats>,
    /// Total simulated cycles.
    pub cycles: u64,
    /// Total DRAM data-bus busy cycles across all channels (bandwidth
    /// utilization denominator = `cycles * channels`).
    pub dram_bus_busy: u64,
    /// Number of DRAM channels (for utilization computations).
    pub dram_channels: usize,
}

impl SimStats {
    /// Creates stats for `n_apps` applications.
    pub fn new(n_apps: usize, dram_channels: usize) -> Self {
        SimStats {
            apps: vec![AppStats::default(); n_apps],
            cycles: 0,
            dram_bus_busy: 0,
            dram_channels,
        }
    }

    /// Fraction of theoretical DRAM data-bus cycles actually used.
    pub fn dram_bandwidth_utilization(&self) -> f64 {
        if self.cycles == 0 || self.dram_channels == 0 {
            return 0.0;
        }
        self.dram_bus_busy as f64 / (self.cycles as f64 * self.dram_channels as f64)
    }

    /// Fraction of utilized DRAM bandwidth consumed by translation requests
    /// (Fig. 8's comparison).
    pub fn translation_bandwidth_share(&self) -> f64 {
        let x = self
            .apps
            .iter()
            .map(|a| a.dram_translation.bus_busy_cycles)
            .sum::<u64>();
        let d = self
            .apps
            .iter()
            .map(|a| a.dram_data.bus_busy_cycles)
            .sum::<u64>();
        if x + d == 0 {
            0.0
        } else {
            x as f64 / (x + d) as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_stats_rates() {
        let mut h = HitStats::default();
        assert_eq!(h.hit_rate(), 0.0);
        h.record(true);
        h.record(true);
        h.record(false);
        h.record(false);
        assert_eq!(h.accesses, 4);
        assert_eq!(h.hits, 2);
        assert_eq!(h.misses(), 2);
        assert!((h.hit_rate() - 0.5).abs() < 1e-12);
        assert!((h.miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn app_stats_derived_metrics() {
        let mut a = AppStats {
            instructions: 500,
            cycles: 1000,
            ..Default::default()
        };
        assert!((a.ipc() - 0.5).abs() < 1e-12);
        a.walks_completed = 10;
        a.walk_latency_sum = 2000;
        assert!((a.avg_walk_latency() - 200.0).abs() < 1e-12);
        a.walk_cycles_integral = 3000;
        assert!((a.avg_concurrent_walks() - 3.0).abs() < 1e-12);
        a.stalled_warps_sum = 60;
        a.stalled_warps_events = 3;
        assert!((a.avg_warps_stalled_per_miss() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn dram_class_stats_merge_and_rates() {
        let mut a = DramClassStats {
            requests: 2,
            latency_sum: 100,
            bus_busy_cycles: 8,
            row_hits: 1,
            row_misses: 1,
            row_conflicts: 0,
        };
        let b = DramClassStats {
            requests: 2,
            latency_sum: 300,
            bus_busy_cycles: 8,
            row_hits: 0,
            row_misses: 0,
            row_conflicts: 2,
        };
        a.merge(&b);
        assert_eq!(a.requests, 4);
        assert!((a.avg_latency() - 100.0).abs() < 1e-12);
        assert!((a.row_hit_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn sim_stats_bandwidth_shares() {
        let mut s = SimStats::new(2, 8);
        s.cycles = 1000;
        s.dram_bus_busy = 4000;
        assert!((s.dram_bandwidth_utilization() - 0.5).abs() < 1e-12);
        s.apps[0].dram_translation.bus_busy_cycles = 100;
        s.apps[0].dram_data.bus_busy_cycles = 300;
        s.apps[1].dram_data.bus_busy_cycles = 600;
        assert!((s.translation_bandwidth_share() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn delta_since_subtracts_counters_keeps_watermarks() {
        let mut prev = AppStats {
            instructions: 100,
            cycles: 50,
            walks_completed: 4,
            walk_concurrency_max: 9,
            tokens_final: 12,
            ..AppStats::default()
        };
        prev.l1_tlb.record(true);
        let mut cur = prev.clone();
        cur.instructions = 160;
        cur.cycles = 80;
        cur.walks_completed = 7;
        cur.walk_concurrency_max = 11;
        cur.tokens_final = 8;
        cur.l1_tlb.record(false);
        cur.record_l2_translation(WalkLevel::new(3), true);
        cur.dram_data.requests = 5;

        let d = cur.delta_since(&prev);
        assert_eq!(d.instructions, 60);
        assert_eq!(d.cycles, 30);
        assert_eq!(d.walks_completed, 3);
        assert_eq!(d.l1_tlb.accesses, 1);
        assert_eq!(d.l1_tlb.hits, 0);
        assert_eq!(d.l2_translation[WalkLevel::new(3).index()].hits, 1);
        assert_eq!(d.dram_data.requests, 5);
        // Watermarks and snapshots carry the current value.
        assert_eq!(d.walk_concurrency_max, 11);
        assert_eq!(d.tokens_final, 8);
        // A fresh-baseline delta (prev = default) equals the counters.
        let from_zero = cur.delta_since(&AppStats::default());
        assert_eq!(from_zero, cur);
        // Mismatched snapshots saturate instead of panicking.
        let d = prev.delta_since(&cur);
        assert_eq!(d.instructions, 0);
    }

    #[test]
    fn per_level_translation_hit_rates() {
        let mut a = AppStats::default();
        a.record_l2_translation(WalkLevel::new(1), true);
        a.record_l2_translation(WalkLevel::new(1), true);
        a.record_l2_translation(WalkLevel::new(4), false);
        assert!((a.l2_translation_hit_rate(WalkLevel::new(1)) - 1.0).abs() < 1e-12);
        assert_eq!(a.l2_translation_hit_rate(WalkLevel::new(4)), 0.0);
        assert_eq!(a.l2_translation_hit_rate(WalkLevel::new(2)), 0.0);
    }
}
