//! Engine self-profiling: wall-clock timings of the simulator's moving
//! parts, so `MASK_JOBS` tuning is data-driven.
//!
//! Two instruments:
//!
//! * [`begin_cycle`] / [`end_stage`] — a per-thread lap clock over the
//!   `GpuSim::step` stages, accumulated into (stage, cycle-bucket) cells of
//!   [`STAGE_BUCKET_CYCLES`] cycles.
//! * [`begin_job`] — times one job execution in the `JobPool`, recorded as
//!   a named span on the worker's lane for the Perfetto engine timeline.
//!
//! In `crates/`, this module and the batch timer of `mask-core`'s
//! `JobPool::run_batch` are the only wall-clock readers; each
//! read carries an `#[expect(clippy::disallowed_methods)]` because the
//! timings are exported only — they are never fed back into simulation
//! state, so traced runs stay bit-identical.

use std::cell::Cell;
use std::time::Instant;

/// Cycle-bucket width for stage timings (matches the default MASK epoch).
pub const STAGE_BUCKET_CYCLES: u64 = 100_000;

/// The `GpuSim::step` stages measured by [`end_stage`].
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

fn now_us() -> u64 {
    use std::sync::OnceLock;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    #[expect(
        clippy::disallowed_methods,
        reason = "profiling only, never read by the simulation"
    )]
    let epoch = *EPOCH.get_or_init(Instant::now);
    epoch.elapsed().as_micros() as u64
}

thread_local! {
    /// When this thread's current step stage began, and the cycle bucket
    /// it is charged to.
    static LAP: Cell<Option<(Instant, u64)>> = const { Cell::new(None) };
}

/// Starts the stage clock for cycle `now` on this thread. Callers guard it
/// with [`crate::tracing_active`], as `GpuSim::step` does once per cycle.
#[cold]
#[inline(never)]
pub fn begin_cycle(now: u64) {
    #[expect(clippy::disallowed_methods, reason = "profiling only")]
    let start = Instant::now();
    LAP.set(Some((start, now / STAGE_BUCKET_CYCLES)));
}

/// Charges the wall time since the previous stage ended (or the cycle
/// began) to `stage`, and starts the next stage's lap.
#[cold]
#[inline(never)]
pub fn end_stage(stage: SimStage) {
    if let Some((start, bucket)) = LAP.get() {
        #[expect(clippy::disallowed_methods, reason = "profiling only")]
        let end = Instant::now();
        let nanos = (end - start).as_nanos() as u64;
        crate::ring::add_stage(stage.name(), bucket, nanos);
        LAP.set(Some((end, bucket)));
    }
}

/// One-shot timer for a `JobPool` job execution.
#[must_use = "call finish() to record the span"]
pub struct JobTimer {
    start: Option<(u32, u64, Instant)>,
}

/// Starts timing one job on worker `lane`; while tracing is live, the
/// events this thread records until the next `begin_job` carry `lane`.
#[inline]
pub fn begin_job(lane: u32) -> JobTimer {
    let start = crate::tracing_active().then(|| {
        crate::ring::set_lane(lane);
        #[expect(clippy::disallowed_methods, reason = "profiling only")]
        let now = Instant::now();
        (lane, now_us(), now)
    });
    JobTimer { start }
}

impl JobTimer {
    /// Records the job as a named span on its lane.
    pub fn finish(self, name: &str) {
        if let Some((lane, start_us, start)) = self.start {
            crate::ring::push_span(Span {
                name: name.to_owned(),
                lane,
                start_us,
                dur_us: start.elapsed().as_micros() as u64,
            });
        }
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
        // A job timer taken with tracing off finishes without recording, and
        // a stage that ends on a thread with no lap open charges nothing.
        begin_job(0).finish("noop");
        end_stage(SimStage::Dram);
    }
}
