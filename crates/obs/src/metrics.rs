//! The per-epoch metrics stream.
//!
//! [`EpochTracker`] snapshots the simulation's `AppStats` at every MASK
//! epoch boundary, diffs them against the previous epoch
//! ([`mask_common::stats::AppStats::delta_since`]) and emits one JSONL
//! frame per application per epoch. Frames carry the counter families the
//! paper's time-resolved analysis needs: `tlb`, `walker`, `l2`, and `dram`
//! (Figs. 4–9). The engine side contributes `job_pool` frames
//! ([`job_pool_frame`]), for five families total.
//!
//! Everything here is read-only with respect to the simulation and
//! inert unless tracing is live.

use mask_common::stats::{AppStats, SimStats};

/// Per-simulation epoch metrics tracker. Held by `GpuSim` and driven from
/// the epoch-boundary stage of `step`.
#[derive(Debug, Default)]
pub struct EpochTracker {
    prev: Vec<AppStats>,
}

impl EpochTracker {
    /// Creates an empty tracker.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Emits one frame per application for the epoch ending at `now`.
    ///
    /// The caller passes its current counters and a `sync` that completes
    /// them; `sync` runs on the tracker's copy, so the caller's block is
    /// never written. The tracker owns the previous-epoch snapshot. No-op
    /// unless tracing is live.
    #[inline]
    pub fn on_epoch(&mut self, now: u64, stats: &SimStats, sync: impl FnOnce(&mut SimStats)) {
        if crate::tracing_active() {
            let mut synced = stats.clone();
            sync(&mut synced);
            self.emit(now, &synced);
        }
    }

    fn emit(&mut self, now: u64, stats: &SimStats) {
        if self.prev.len() != stats.apps.len() {
            self.prev = vec![AppStats::default(); stats.apps.len()];
        }
        for (app, cur) in stats.apps.iter().enumerate() {
            let d = cur.delta_since(&self.prev[app]);
            let xlat_acc: u64 = d.l2_translation.iter().map(|h| h.accesses).sum();
            let xlat_hit: u64 = d.l2_translation.iter().map(|h| h.hits).sum();
            crate::ring::push_frame(format!(
                concat!(
                    "{{\"type\":\"epoch\",\"cycle\":{},\"app\":{},",
                    "\"ipc\":{{\"instructions\":{},\"mem_instructions\":{},\"cycles\":{},\"stall_cycles\":{}}},",
                    "\"tlb\":{{\"l1_acc\":{},\"l1_hit\":{},\"l2_acc\":{},\"l2_hit\":{},",
                    "\"bypass_acc\":{},\"bypass_hit\":{},\"fills_diverted\":{}}},",
                    "\"walker\":{{\"started\":{},\"completed\":{},\"latency_sum\":{},",
                    "\"concurrency_integral\":{},\"page_faults\":{}}},",
                    "\"l2\":{{\"data_acc\":{},\"data_hit\":{},\"xlat_acc\":{},\"xlat_hit\":{},\"bypassed\":{}}},",
                    "\"dram\":{{\"data_req\":{},\"data_lat_sum\":{},\"data_row_hits\":{},",
                    "\"xlat_req\":{},\"xlat_lat_sum\":{},\"xlat_row_hits\":{}}}}}"
                ),
                now,
                app,
                d.instructions,
                d.mem_instructions,
                d.cycles,
                d.stall_cycles,
                d.l1_tlb.accesses,
                d.l1_tlb.hits,
                d.l2_tlb.accesses,
                d.l2_tlb.hits,
                d.tlb_bypass_cache.accesses,
                d.tlb_bypass_cache.hits,
                d.fills_diverted,
                d.walks_started,
                d.walks_completed,
                d.walk_latency_sum,
                d.walk_cycles_integral,
                d.page_faults,
                d.l2_data.accesses,
                d.l2_data.hits,
                xlat_acc,
                xlat_hit,
                d.l2_translation_bypassed,
                d.dram_data.requests,
                d.dram_data.latency_sum,
                d.dram_data.row_hits,
                d.dram_translation.requests,
                d.dram_translation.latency_sum,
                d.dram_translation.row_hits,
            ));
        }
        self.prev.clear();
        self.prev.extend(stats.apps.iter().cloned());
    }
}

/// Emits one `job_pool` frame: pool occupancy plus baseline-cache
/// counters for a completed engine batch. Called by `mask-core`'s
/// `JobPool` after `run_batch`; no-op unless tracing is live.
pub fn job_pool_frame(
    workers: usize,
    jobs: usize,
    unique_jobs: usize,
    cache_hits: u64,
    cache_misses: u64,
    wall_us: u64,
) {
    if !crate::tracing_active() {
        return;
    }
    crate::ring::push_frame(format!(
        "{{\"type\":\"job_pool\",\"workers\":{workers},\"jobs\":{jobs},\
         \"unique_jobs\":{unique_jobs},\"baseline_cache_hits\":{cache_hits},\
         \"baseline_cache_misses\":{cache_misses},\"wall_us\":{wall_us}}}"
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracker_diffs_epochs() {
        // Drive the private emit path directly (no global sink assertions
        // here — frame content is covered by the export tests).
        let mut t = EpochTracker::new();
        let mut stats = SimStats::new(2, 1);
        stats.apps[0].instructions = 100;
        t.emit(100_000, &stats);
        assert_eq!(t.prev[0].instructions, 100);
        stats.apps[0].instructions = 250;
        t.emit(200_000, &stats);
        assert_eq!(t.prev[0].instructions, 250, "snapshot advances");
    }
}
