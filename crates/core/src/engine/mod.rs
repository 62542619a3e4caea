//! The deterministic **plan → execute → assemble** simulation engine.
//!
//! Every paper artefact is a set of *independent* simulations: a
//! [`GpuSim`](mask_gpu::GpuSim) owns its whole machine state, is `Send`,
//! and never observes anything outside itself — the experiment suite is
//! embarrassingly parallel. This module centralizes that parallelism:
//!
//! 1. **plan** — callers (the [`PairRunner`](crate::runner::PairRunner)
//!    batch entry points and the experiment harnesses) describe whole
//!    workload sets as [`SimJob`] lists and submit them in one call. A
//!    [`JobPool`] deduplicates jobs by their canonical [`JobKey`] and
//!    answers every job whose result is already known from its
//!    [`ResultMemo`] (by default the process-wide one);
//! 2. **execute** — the remaining unique jobs fan out over
//!    `std::thread::scope` workers, each job built, warmed up and measured
//!    on the one worker that took it — or, when it only asks for more
//!    cycles than the last job that thread ran, run on from where that
//!    job's simulator stopped (see *Held simulators* below);
//! 3. **assemble** — each new result enters the memo, and results come
//!    back as shared `Arc`s in submission order, so the output of any
//!    batch is **byte-identical at every worker count** (each job is a
//!    closed deterministic state machine; scheduling can only reorder
//!    wall-clock execution, never results).
//!
//! Worker count: an explicit `JobOptions` request, else the `MASK_JOBS`
//! environment variable, else the machine's available parallelism. `1` runs
//! jobs serially on the calling thread (no threads are spawned).
//!
//! Held simulators: a calling thread that finishes a job keeps that job's
//! simulator, at most one per thread, freed with the thread. When the next
//! job the same pool runs on that thread has the same [`JobKey`] but a
//! larger `max_cycles` and the same effective warm-up, it runs the held
//! simulator on by the difference; any other job, or a job of another pool
//! (pools compared by their [`PrefixCache`], which clones share), drops it
//! first. A single-job batch runs on the calling thread, so a caller that
//! extends a run batch after batch (`maskd`'s dispatcher) pays only for
//! the added cycles. A batch that fans out drops the caller's first, since
//! none of its jobs runs there, and its workers, which end with it, hold
//! none. The statistics are bit-identical to [`SimJob::run`]'s.
//!
//! The invariant checker behind `mask-obs`'s hooks (armed in every debug
//! build) keeps its accounting in thread-local sessions; a simulator is
//! built, run, continued and dropped on one thread only, so checked
//! parallel batches keep per-simulation accounting exactly as isolated as
//! serial ones, and dropping the simulator frees its session.
//!
//! `cache` and `pool` are the only files in the simulator crates allowed to
//! use thread primitives (`thread::scope`, `Mutex`, atomics) — clippy's
//! `disallowed-types` / `disallowed-methods` enforce the boundary, and each
//! use carries an item-level `#[expect]`.

mod cache;
mod job;
mod pool;

pub use cache::{BaselineCache, MemoStats, PrefixCache, PrefixCacheStats, ResultMemo};
pub use job::{JobKey, SimJob};
pub use pool::JobPool;
