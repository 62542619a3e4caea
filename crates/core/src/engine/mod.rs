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
//!    [`JobPool`] deduplicates jobs by their canonical [`JobKey`], resolves
//!    alone-baseline jobs from a process-wide [`BaselineCache`], and groups
//!    what is left by [`SimJob::prefix_key`]: only a warm-up that a second
//!    job of the *same batch* will read (or an on-disk store will keep) is
//!    sealed into a snapshot;
//! 2. **execute** — the remaining unique jobs fan out over
//!    `std::thread::scope` workers; a group's snapshot lives in a once-cell
//!    the batch owns, and is dropped when the batch returns;
//! 3. **assemble** — results come back indexed by submission order, so
//!    the output of any batch is **byte-identical at every worker count**
//!    (each job is a closed deterministic state machine; scheduling can
//!    only reorder wall-clock execution, never results).
//!
//! Sharing a warm-up is therefore declared by submitting together.
//!
//! Worker count: an explicit `JobOptions` request, else the `MASK_JOBS`
//! environment variable, else the machine's available parallelism. `1` runs
//! jobs serially on the calling thread (no threads are spawned).
//!
//! The sanitizer (`mask-sanitizer`) keeps its accounting in thread-local
//! sessions; each job builds and runs its simulator entirely on one worker
//! thread, so sanitized parallel batches keep per-simulation accounting
//! exactly as isolated as serial ones.
//!
//! `cache` and `pool` are the only files in the simulator crates allowed to
//! use thread primitives (`std::thread`, `Mutex`, atomics) — `cargo xtask
//! lint` enforces the boundary with the `parallelism` rule.

mod cache;
mod job;
mod pool;

pub use cache::{
    process_cache, process_prefix_cache, BaselineCache, CacheStats, PrefixCache, PrefixCacheStats,
};
pub use job::{JobKey, SimJob};
pub use pool::JobPool;
