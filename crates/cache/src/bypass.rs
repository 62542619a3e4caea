//! Address-Translation-Aware L2 Bypass (mechanism ❷, §5.3).
//!
//! "We impose L2 cache bypassing for address translation requests from a
//! particular page table level when the hit rate of address translation
//! requests to that page table level falls below the hit rate of data
//! demand requests."
//!
//! The monitor keeps per-walk-level and data hit-rate counters. Decisions
//! are refreshed at every MASK epoch so the scheme "can adapt to dynamic
//! hit rate behavior changes" (§5.3). Two implementation details the paper
//! leaves unspecified are documented here:
//!
//! * a bypassed level stops producing hit-rate samples, so a small
//!   deterministic sampling duty cycle (1 in 32 requests still probes the
//!   cache) keeps the estimate alive and lets a level whose locality
//!   improves win back cache access;
//! * the comparison carries a small hysteresis margin ([`BYPASS_MARGIN`]):
//!   a level must fall clearly below the data hit rate before bypassing.
//!   The paper observes a "sharp drop-off" at the bypassed levels (68.7%
//!   -> 1.0%), so its decisions are never marginal; the margin prevents
//!   oscillation (and needless bypassing) when a level sits within noise
//!   of the data hit rate;
//! * counters are kept **per address space**: with heterogeneous
//!   co-runners, one application's cold leaf level must not force another
//!   application's hot leaf level to bypass (the paper's workload mix has
//!   near-uniform per-level rates, so it does not distinguish the two).

use mask_common::ids::Asid;
use mask_common::req::WalkLevel;
use mask_common::stats::HitStats;

/// Fraction of bypassed requests that still probe (1 / `SAMPLE_PERIOD`).
const SAMPLE_PERIOD: u64 = 32;

/// Default hysteresis margin: a walk level bypasses only when its hit rate
/// is at least this far below the data hit rate.
pub const BYPASS_MARGIN: f64 = 0.05;

/// Per-level, per-address-space hit-rate state.
#[derive(Clone, Debug, Default)]
struct AppMonitor {
    level_epoch: [HitStats; 4],
    data_epoch: HitStats,
    bypass_level: [bool; 4],
    level_rate: [f64; 4],
    data_rate: f64,
    sample_ctr: [u64; 4],
}

impl AppMonitor {
    fn new() -> Self {
        AppMonitor {
            level_rate: [1.0; 4],
            ..Default::default()
        }
    }
}

/// Per-level hit-rate monitor driving the L2 bypass decision.
#[derive(Clone, Debug)]
pub struct BypassMonitor {
    apps: Vec<AppMonitor>,
    margin: f64,
}

impl BypassMonitor {
    /// Creates a monitor for `n_asids` address spaces with the default
    /// hysteresis margin; no level bypasses until the first epoch ends.
    pub fn new(n_asids: usize) -> Self {
        Self::with_margin(n_asids, BYPASS_MARGIN)
    }

    /// Creates a monitor with an explicit hysteresis margin (0.0 = the
    /// paper's literal `level < data` comparison).
    pub fn with_margin(n_asids: usize, margin: f64) -> Self {
        BypassMonitor {
            apps: (0..n_asids.max(1)).map(|_| AppMonitor::new()).collect(),
            margin,
        }
    }

    fn app(&mut self, asid: Asid) -> &mut AppMonitor {
        let n = self.apps.len();
        &mut self.apps[asid.index().min(n - 1)]
    }

    /// Records the outcome of a *probing* L2 access.
    pub fn record(&mut self, asid: Asid, class: mask_common::req::RequestClass, hit: bool) {
        let app = self.app(asid);
        match class {
            mask_common::req::RequestClass::Data => app.data_epoch.record(hit),
            mask_common::req::RequestClass::Translation(l) => {
                app.level_epoch[l.index()].record(hit);
            }
        }
    }

    /// Decides whether a translation request at `level` for `asid` should
    /// bypass the L2 (no probe, no fill) right now.
    ///
    /// Stateful: bypassed levels still probe on a 1-in-32 duty cycle to
    /// keep the hit-rate estimate fresh, so two consecutive calls may
    /// differ. Data requests never bypass.
    pub fn should_bypass(&mut self, asid: Asid, level: WalkLevel) -> bool {
        let i = level.index();
        let app = self.app(asid);
        if !app.bypass_level[i] {
            return false;
        }
        app.sample_ctr[i] += 1;
        !app.sample_ctr[i].is_multiple_of(SAMPLE_PERIOD)
    }

    /// Latches new decisions at an epoch boundary.
    ///
    /// Levels with fewer than 16 samples keep their previous estimate.
    pub fn end_epoch(&mut self) {
        let margin = self.margin;
        for app in &mut self.apps {
            if app.data_epoch.accesses >= 16 {
                app.data_rate = app.data_epoch.hit_rate();
            }
            for i in 0..4 {
                if app.level_epoch[i].accesses >= 16 {
                    app.level_rate[i] = app.level_epoch[i].hit_rate();
                }
                // "if (Level Hit Rate < L2 Hit Rate)" -> bypass (Fig. 10),
                // with a hysteresis margin (see module docs).
                app.bypass_level[i] = app.level_rate[i] + margin < app.data_rate;
                app.level_epoch[i] = HitStats::default();
            }
            app.data_epoch = HitStats::default();
        }
    }

    /// The latched decision for `(asid, level)` (ignoring the sampling
    /// duty cycle).
    pub fn is_bypassing(&self, asid: Asid, level: WalkLevel) -> bool {
        self.apps[asid.index().min(self.apps.len() - 1)].bypass_level[level.index()]
    }

    /// The latched hit-rate estimate for `(asid, level)`.
    pub fn level_hit_rate(&self, asid: Asid, level: WalkLevel) -> f64 {
        self.apps[asid.index().min(self.apps.len() - 1)].level_rate[level.index()]
    }
}

impl mask_common::snapshot::Snapshot for BypassMonitor {
    /// Serializes every per-app field except the config-derived margin.
    /// Rates are captured as exact f64 bit patterns so a restored monitor
    /// latches bit-identical decisions at the next epoch boundary.
    fn snapshot(&self, w: &mut mask_common::snapshot::SnapshotWriter) {
        w.seq(self.apps.len());
        for app in &self.apps {
            for s in &app.level_epoch {
                s.snapshot(w);
            }
            app.data_epoch.snapshot(w);
            for &b in &app.bypass_level {
                w.bool(b);
            }
            for &rate in &app.level_rate {
                w.f64(rate);
            }
            w.f64(app.data_rate);
            for &c in &app.sample_ctr {
                w.u64(c);
            }
        }
    }

    fn restore(
        &mut self,
        r: &mut mask_common::snapshot::SnapshotReader<'_>,
    ) -> Result<(), mask_common::snapshot::SnapshotError> {
        r.seq_exact(self.apps.len())?;
        for app in &mut self.apps {
            for s in &mut app.level_epoch {
                s.restore(r)?;
            }
            app.data_epoch.restore(r)?;
            for b in &mut app.bypass_level {
                *b = r.bool()?;
            }
            for rate in &mut app.level_rate {
                *rate = r.f64()?;
            }
            app.data_rate = r.f64()?;
            for c in &mut app.sample_ctr {
                *c = r.u64()?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mask_common::req::RequestClass;

    const A0: Asid = Asid::new(0);

    fn feed(m: &mut BypassMonitor, level: u8, hits: u32, misses: u32) {
        let class = RequestClass::Translation(WalkLevel::new(level));
        for _ in 0..hits {
            m.record(A0, class, true);
        }
        for _ in 0..misses {
            m.record(A0, class, false);
        }
    }

    fn feed_data(m: &mut BypassMonitor, hits: u32, misses: u32) {
        for _ in 0..hits {
            m.record(A0, RequestClass::Data, true);
        }
        for _ in 0..misses {
            m.record(A0, RequestClass::Data, false);
        }
    }

    #[test]
    fn no_bypassing_before_first_epoch() {
        let mut m = BypassMonitor::new(2);
        assert!(!m.should_bypass(A0, WalkLevel::new(4)));
    }

    #[test]
    fn leaf_levels_bypass_when_below_data_hit_rate() {
        let mut m = BypassMonitor::new(2);
        // Paper's §4.3 shape: L1/L2 hot, L3 warm, L4 cold; data at 70%.
        feed(&mut m, 1, 99, 1);
        feed(&mut m, 2, 98, 2);
        feed(&mut m, 3, 60, 40);
        feed(&mut m, 4, 1, 99);
        feed_data(&mut m, 70, 30);
        m.end_epoch();
        assert!(!m.is_bypassing(A0, WalkLevel::new(1)));
        assert!(!m.is_bypassing(A0, WalkLevel::new(2)));
        assert!(
            m.is_bypassing(A0, WalkLevel::new(3)),
            "60% is clearly below the 70% data hit rate"
        );
        assert!(m.is_bypassing(A0, WalkLevel::new(4)));

        // A level within the hysteresis margin of the data hit rate keeps
        // probing (marginal bypasses lose real hits for no queueing win).
        let mut m2 = BypassMonitor::new(2);
        feed(&mut m2, 3, 68, 32);
        feed_data(&mut m2, 70, 30);
        m2.end_epoch();
        assert!(
            !m2.is_bypassing(A0, WalkLevel::new(3)),
            "68% vs 70% is marginal"
        );
    }

    #[test]
    fn bypassed_level_still_samples() {
        let mut m = BypassMonitor::new(2);
        feed(&mut m, 4, 0, 100);
        feed_data(&mut m, 80, 20);
        m.end_epoch();
        let probes = (0..320)
            .filter(|_| !m.should_bypass(A0, WalkLevel::new(4)))
            .count();
        assert_eq!(probes, 10, "1-in-32 sampling keeps the estimate alive");
    }

    #[test]
    fn level_recovers_when_locality_improves() {
        let mut m = BypassMonitor::new(2);
        feed(&mut m, 3, 0, 100);
        feed_data(&mut m, 80, 20);
        m.end_epoch();
        assert!(m.is_bypassing(A0, WalkLevel::new(3)));
        // Next epoch the sampled probes all hit.
        feed(&mut m, 3, 100, 0);
        feed_data(&mut m, 80, 20);
        m.end_epoch();
        assert!(!m.is_bypassing(A0, WalkLevel::new(3)));
    }

    #[test]
    fn sparse_levels_keep_previous_estimate() {
        let mut m = BypassMonitor::new(2);
        feed(&mut m, 2, 100, 0);
        feed_data(&mut m, 50, 50);
        m.end_epoch();
        assert!(!m.is_bypassing(A0, WalkLevel::new(2)));
        // Only 3 samples this epoch (below the 16-sample floor): estimate
        // and decision are unchanged even though all 3 missed.
        feed(&mut m, 2, 0, 3);
        feed_data(&mut m, 50, 50);
        m.end_epoch();
        assert!(!m.is_bypassing(A0, WalkLevel::new(2)));
        assert!((m.level_hit_rate(A0, WalkLevel::new(2)) - 1.0).abs() < 1e-12);
    }
}
