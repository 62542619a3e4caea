//! Engine self-profiling: wall-clock timings of the simulator's moving
//! parts, so `MASK_JOBS` tuning is data-driven.
//!
//! Two instruments:
//!
//! * [`stage`] — RAII guard timing one `GpuSim::step` stage, accumulated
//!   into (stage, cycle-bucket) cells of [`STAGE_BUCKET_CYCLES`] cycles.
//! * [`begin_job`] — times one job execution in the `JobPool`, recorded as
//!   a named span on the worker's lane for the Perfetto engine timeline.
//!
//! This module is the only place in the workspace outside `crates/bench`
//! that reads the wall clock; every read is annotated for the
//! `nondeterminism` lint because timings are exported only — they are
//! never fed back into simulation state, so traced runs stay bit-identical.

/// Cycle-bucket width for stage timings (matches the default MASK epoch).
pub const STAGE_BUCKET_CYCLES: u64 = 100_000;

/// The `GpuSim::step` stages measured by [`stage`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SimStage {
    /// Stage 1: warp issue across SMs.
    Issue,
    /// Stage 2: TLB/translation unit tick and resolution delivery.
    Translation,
    /// Stages 3/4: shared-L2 enqueue and bank service.
    CacheL2,
    /// Stage 5: DRAM tick and completion drain.
    Dram,
    /// Stage 6: response delivery back to the cores.
    Responses,
}

impl SimStage {
    /// Stable lowercase name for trace output.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SimStage::Issue => "issue",
            SimStage::Translation => "translation",
            SimStage::CacheL2 => "l2",
            SimStage::Dram => "dram",
            SimStage::Responses => "responses",
        }
    }
}

/// One completed wall-clock span on the engine timeline (Perfetto pid 2).
#[derive(Clone, Debug)]
pub struct Span {
    /// Span label (e.g. the job's workload/design description).
    pub name: String,
    /// Worker lane the span ran on.
    pub lane: u32,
    /// Start offset from the first profiling event, in microseconds.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
}

#[cfg(feature = "enabled")]
fn now_us() -> u64 {
    use std::sync::OnceLock;
    use std::time::Instant;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    #[expect(
        clippy::disallowed_methods,
        reason = "profiling only, never read by the simulation"
    )]
    let epoch = *EPOCH.get_or_init(Instant::now);
    epoch.elapsed().as_micros() as u64
}

/// RAII guard returned by [`stage`]; records on drop.
#[must_use = "the stage is timed until the guard drops"]
pub struct StageGuard {
    #[cfg(feature = "enabled")]
    armed: Option<(SimStage, u64, std::time::Instant)>,
}

/// Starts timing `stage` for the cycle bucket containing `now`.
///
/// No-op (and no clock read) unless tracing is compiled in and
/// runtime-enabled.
#[inline(always)]
pub fn stage(stage: SimStage, now: u64) -> StageGuard {
    #[cfg(feature = "enabled")]
    {
        #[expect(clippy::disallowed_methods, reason = "profiling only")]
        let armed = crate::ring::runtime_enabled()
            .then(|| (stage, now / STAGE_BUCKET_CYCLES, std::time::Instant::now()));
        StageGuard { armed }
    }
    #[cfg(not(feature = "enabled"))]
    {
        let _ = (stage, now);
        StageGuard {}
    }
}

impl Drop for StageGuard {
    fn drop(&mut self) {
        #[cfg(feature = "enabled")]
        if let Some((stage, bucket, start)) = self.armed.take() {
            let nanos = start.elapsed().as_nanos() as u64;
            crate::ring::add_stage(stage.name(), bucket, nanos);
        }
    }
}

/// One-shot timer for a `JobPool` job execution.
#[must_use = "call finish() to record the span"]
pub struct JobTimer {
    #[cfg(feature = "enabled")]
    start: Option<(u64, std::time::Instant)>,
}

/// Starts timing one job.
#[inline(always)]
pub fn begin_job() -> JobTimer {
    #[cfg(feature = "enabled")]
    {
        #[expect(clippy::disallowed_methods, reason = "profiling only")]
        let start = crate::ring::runtime_enabled().then(|| (now_us(), std::time::Instant::now()));
        JobTimer { start }
    }
    #[cfg(not(feature = "enabled"))]
    {
        JobTimer {}
    }
}

impl JobTimer {
    /// Records the job as a named span on worker `lane`.
    pub fn finish(self, name: &str, lane: u32) {
        #[cfg(feature = "enabled")]
        if let Some((start_us, start)) = self.start {
            crate::ring::push_span(Span {
                name: name.to_owned(),
                lane,
                start_us,
                dur_us: start.elapsed().as_micros() as u64,
            });
        }
        #[cfg(not(feature = "enabled"))]
        let _ = (name, lane);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_are_stable() {
        assert_eq!(SimStage::Issue.name(), "issue");
        assert_eq!(SimStage::CacheL2.name(), "l2");
    }

    #[test]
    fn disabled_guards_are_inert() {
        // With tracing off (feature off, or runtime off) the guards must be
        // constructible and droppable with no side effects.
        let g = stage(SimStage::Dram, 12345);
        drop(g);
        begin_job().finish("noop", 0);
    }
}
