//! The per-epoch metrics stream.
//!
//! [`EpochTracker`] snapshots the simulation's `AppStats` at every MASK
//! epoch boundary, diffs them against the previous epoch
//! ([`mask_common::stats::AppStats::delta_since`]) and emits one JSONL
//! frame per application per epoch:
//! `{"type":"epoch","cycle":…,"app":…,"delta":{…}}`, where `delta` is the
//! whole `AppStats` delta as the shared counter serializer
//! ([`mask_common::stats::fields_to_value`]) writes it, so a frame carries
//! every counter of the field table and this module names none. The engine
//! side contributes `job_pool` frames ([`job_pool_frame`]).
//!
//! Everything here is read-only with respect to the simulation and
//! inert unless tracing is live.

use mask_common::stats::{fields_to_value, AppStats, SimStats};

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
            for frame in self.frames(now, &synced) {
                crate::ring::push_frame(frame);
            }
        }
    }

    /// The frames of the epoch ending at `now`, one per application; the
    /// previous-epoch snapshot advances to `stats`.
    fn frames(&mut self, now: u64, stats: &SimStats) -> Vec<String> {
        if self.prev.len() != stats.apps.len() {
            self.prev = vec![AppStats::default(); stats.apps.len()];
        }
        let frames = stats
            .apps
            .iter()
            .zip(&self.prev)
            .enumerate()
            .map(|(app, (cur, prev))| {
                let delta = fields_to_value(cur.delta_since(prev).fields()).serialize();
                format!("{{\"type\":\"epoch\",\"cycle\":{now},\"app\":{app},\"delta\":{delta}}}")
            })
            .collect();
        self.prev.clone_from(&stats.apps);
        frames
    }
}

/// Emits one `job_pool` frame: pool occupancy plus result-memo counters
/// (named `baseline_cache_*`) for a completed engine batch. Called by `mask-core`'s
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
    use mask_common::json::{self, Value};

    fn delta_of(frame: &str) -> Value {
        let doc = json::parse(frame).expect("a frame is JSON");
        assert_eq!(doc.get("type").and_then(Value::as_str), Some("epoch"));
        doc.get("delta").expect("a frame carries its delta").clone()
    }

    #[test]
    fn a_frame_is_the_serialized_delta_since_the_previous_epoch() {
        let mut t = EpochTracker::new();
        let mut stats = SimStats::new(2, 1);
        stats.apps[0].instructions = 100;
        stats.apps[1].l2_translation[3].record(false);
        stats.apps[1].dram_translation.row_conflicts = 4;
        let first = t.frames(100_000, &stats);
        assert_eq!(first.len(), 2);
        assert_eq!(delta_of(&first[1]), fields_to_value(stats.apps[1].fields()));

        let prev = stats.clone();
        stats.apps[0].instructions = 250;
        stats.apps[0].pwc.record(true);
        stats.apps[0].walk_concurrency_max = 7;
        stats.apps[0].tokens_final = 3;
        let second = t.frames(200_000, &stats);
        assert!(second[0].starts_with("{\"type\":\"epoch\",\"cycle\":200000,\"app\":0,"));
        for (app, frame) in second.iter().enumerate() {
            let want = stats.apps[app].delta_since(&prev.apps[app]);
            assert_eq!(delta_of(frame), fields_to_value(want.fields()), "app {app}");
        }
        assert_eq!(t.prev, stats.apps, "snapshot advances");
    }
}
