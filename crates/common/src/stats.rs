//! Simulation statistics.
//!
//! Every metric reported in the paper's evaluation (§4, §7) is derived from
//! the counters collected here: IPC / weighted speedup, L1/L2 TLB miss
//! rates, average concurrent page walks (Fig. 5), warps stalled per TLB miss
//! (Fig. 6), DRAM bandwidth utilization and latency split by request class
//! (Figs. 8–9), and per-walk-level L2 cache hit rates (§4.3).

use crate::json::Value;
use crate::req::WalkLevel;

/// `num / den`, or `None` when `den` is 0: a rate over nothing is "no
/// data", not 0. Every derived rate and average below goes through it.
#[inline]
#[must_use]
pub fn ratio(num: u64, den: u64) -> Option<f64> {
    (den != 0).then(|| num as f64 / den as f64)
}

/// One entry of a counter struct's field table, as [`AppStats::fields`]
/// (`U = &u64`, ...) and [`AppStats::fields_mut`] (`U = &mut u64`, ...)
/// hand it out — and likewise for [`HitStats`] and [`DramClassStats`],
/// whose fields are all `Counter`s.
///
/// The table is the single written-down list of the counters: the MSNP
/// codec, the JSON of the wire and the epoch frames ([`fields_to_value`]),
/// the epoch deltas and the test generators all walk it, so a counter
/// added to a struct below is encoded, shipped, diffed, traced and fuzzed
/// without another edit.
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

/// One counter struct as a JSON object: a member per entry of its field
/// table, nested structs as nested objects, the per-level pairs as an
/// array. The one serializer of a counter block: `maskd`'s wire JSON and
/// `mask-obs`'s epoch frames both call it.
#[must_use]
pub fn fields_to_value<'a>(fields: impl Iterator<Item = (&'static str, FieldRef<'a>)>) -> Value {
    let member = |field: FieldRef<'a>| match field {
        Field::Counter(v) | Field::Level(v) => Value::Num(*v),
        Field::Hit(h) => fields_to_value(h.fields()),
        Field::Dram(d) => fields_to_value(d.fields()),
        Field::HitLevels(levels) => {
            Value::Array(levels.iter().map(|h| fields_to_value(h.fields())).collect())
        }
    };
    Value::Object(
        fields
            .map(|(name, field)| (name.to_owned(), member(field)))
            .collect(),
    )
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
    /// Average service latency in cycles (`None` if nothing was serviced).
    pub fn avg_latency(&self) -> Option<f64> {
        ratio(self.latency_sum, self.requests)
    }

    /// Row-buffer hit rate over all serviced requests.
    pub fn row_hit_rate(&self) -> Option<f64> {
        ratio(
            self.row_hits,
            self.row_hits + self.row_misses + self.row_conflicts,
        )
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

    /// Hit rate in `[0, 1]` (`None` when never accessed).
    #[inline]
    pub fn hit_rate(&self) -> Option<f64> {
        ratio(self.hits, self.accesses)
    }

    /// Miss rate in `[0, 1]` (`None` when never accessed), computed as
    /// `1 - hit_rate` so that its digits match the hit rate's.
    #[inline]
    pub fn miss_rate(&self) -> Option<f64> {
        self.hit_rate().map(|h| 1.0 - h)
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
        /// Sum over resolved translations of the number of warps that were
        /// stalled waiting for each (Fig. 6 numerator). A resolved
        /// translation is one translation-MSHR entry, opened by an L1-TLB
        /// miss and closed by a shared-L2-TLB hit or a finished walk alike.
        pub stalled_warps_sum: u64 = Counter,
        /// Number of resolved translations, L2-TLB hits included (Fig. 6
        /// denominator; `walks_completed` counts the walked ones alone).
        pub stalled_warps_events: u64 = Counter,
        /// Maximum warps stalled behind one resolved translation.
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
    pub fn ipc(&self) -> Option<f64> {
        ratio(self.instructions, self.cycles)
    }

    /// Average latency of completed page walks.
    pub fn avg_walk_latency(&self) -> Option<f64> {
        ratio(self.walk_latency_sum, self.walks_completed)
    }

    /// Average number of concurrent page walks (Fig. 5).
    pub fn avg_concurrent_walks(&self) -> Option<f64> {
        ratio(self.walk_cycles_integral, self.cycles)
    }

    /// Average warps stalled per resolved translation (Fig. 6): per L1-TLB
    /// miss that left the translation MSHRs, whether the shared L2 TLB hit
    /// or a walk ran.
    pub fn avg_warps_stalled_per_miss(&self) -> Option<f64> {
        ratio(self.stalled_warps_sum, self.stalled_warps_events)
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
    /// Per-application counters, indexed by the application's address
    /// space ([`crate::ids::Asid::index`]).
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

    /// Fraction of utilized DRAM bandwidth consumed by translation requests
    /// (Fig. 8's comparison).
    pub fn translation_bandwidth_share(&self) -> Option<f64> {
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
        ratio(x, x + d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_stats_rates() {
        let mut h = HitStats::default();
        assert_eq!(h.hit_rate(), None, "never accessed: no data, not 0");
        assert_eq!(h.miss_rate(), None);
        h.record(true);
        h.record(true);
        h.record(false);
        h.record(false);
        assert_eq!(h.accesses, 4);
        assert_eq!(h.hits, 2);
        assert_eq!(h.misses(), 2);
        assert_eq!(h.hit_rate(), Some(0.5));
        assert_eq!(h.miss_rate(), Some(0.5));
    }

    #[test]
    fn app_stats_derived_metrics() {
        let idle = AppStats::default();
        assert_eq!(idle.ipc(), None);
        assert_eq!(idle.avg_walk_latency(), None);
        assert_eq!(idle.avg_concurrent_walks(), None);
        assert_eq!(idle.avg_warps_stalled_per_miss(), None);
        let mut a = AppStats {
            instructions: 500,
            cycles: 1000,
            ..Default::default()
        };
        assert_eq!(a.ipc(), Some(0.5));
        // Cycles without walks are a measured 0, not missing data.
        assert_eq!(a.avg_concurrent_walks(), Some(0.0));
        a.walks_completed = 10;
        a.walk_latency_sum = 2000;
        assert_eq!(a.avg_walk_latency(), Some(200.0));
        a.walk_cycles_integral = 3000;
        assert_eq!(a.avg_concurrent_walks(), Some(3.0));
        a.stalled_warps_sum = 60;
        a.stalled_warps_events = 3;
        assert_eq!(a.avg_warps_stalled_per_miss(), Some(20.0));
    }

    #[test]
    fn ratio_is_none_only_without_a_denominator() {
        assert_eq!(ratio(0, 0), None);
        assert_eq!(ratio(7, 0), None);
        assert_eq!(ratio(0, 4), Some(0.0));
        assert_eq!(ratio(1, 4), Some(0.25));
    }

    #[test]
    fn dram_class_stats_merge_and_rates() {
        let idle = DramClassStats::default();
        assert_eq!(idle.avg_latency(), None);
        assert_eq!(idle.row_hit_rate(), None);
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
        assert_eq!(a.avg_latency(), Some(100.0));
        assert_eq!(a.row_hit_rate(), Some(0.25));
    }

    #[test]
    fn sim_stats_bandwidth_shares() {
        let mut s = SimStats::new(2, 8);
        assert_eq!(s.translation_bandwidth_share(), None);
        s.apps[0].dram_translation.bus_busy_cycles = 100;
        s.apps[0].dram_data.bus_busy_cycles = 300;
        s.apps[1].dram_data.bus_busy_cycles = 600;
        assert!((s.translation_bandwidth_share().expect("bus busy") - 0.1).abs() < 1e-12);
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
}
