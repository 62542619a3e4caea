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
//!    resolves alone-baseline jobs from a process-wide [`BaselineCache`];
//! 2. **execute** — the remaining unique jobs fan out over
//!    `std::thread::scope` workers, each job built, warmed up and measured
//!    on the one worker that took it;
//! 3. **assemble** — results come back indexed by submission order, so
//!    the output of any batch is **byte-identical at every worker count**
//!    (each job is a closed deterministic state machine; scheduling can
//!    only reorder wall-clock execution, never results).
//!
//! Worker count: an explicit `JobOptions` request, else the `MASK_JOBS`
//! environment variable, else the machine's available parallelism. `1` runs
//! jobs serially on the calling thread (no threads are spawned).
//!
//! The invariant checker behind `mask-obs`'s hooks (armed in every debug
//! build) keeps its accounting in thread-local sessions; each job builds,
//! runs and drops its simulator entirely on one worker thread, so checked
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

pub use cache::{process_cache, BaselineCache, CacheStats, PrefixCache, PrefixCacheStats};
pub use job::{JobKey, SimJob};
pub use pool::JobPool;
