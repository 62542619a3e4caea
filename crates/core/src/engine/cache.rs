//! What outlives one job: every job's result ([`ResultMemo`], one per
//! process unless a pool is handed its own) and the count of jobs a pool
//! ran ([`PrefixCache`]).

use super::job::JobKey;
use mask_common::stats::SimStats;
use std::collections::BTreeMap;
#[expect(clippy::disallowed_types, reason = "parallelism island")]
use std::sync::atomic::{AtomicU64, Ordering};
#[expect(clippy::disallowed_types, reason = "parallelism island")]
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Counters describing one [`ResultMemo`]'s effectiveness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Distinct results held.
    pub entries: usize,
    /// Lookups answered from the memo (simulations avoided).
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
}

#[derive(Default)]
struct MemoInner {
    map: BTreeMap<JobKey, Arc<SimStats>>,
    hits: u64,
    misses: u64,
}

/// Memo of finished simulations: [`JobKey`] → the one shared copy of its
/// statistics. Equal keys mean bit-identical statistics, so a memo
/// simulates each job once and hands its result out as an `Arc`. Every
/// default pool shares the process-wide memo; tests that count simulations
/// or observe what one emits attach a private one via
/// [`JobPool::with_cache`](super::JobPool::with_cache), and each `maskd`
/// daemon owns one (DESIGN.md §13, §15).
#[derive(Default)]
#[expect(
    clippy::disallowed_types,
    reason = "shared by every worker of every pool"
)]
pub struct ResultMemo {
    inner: Mutex<MemoInner>,
}

/// The memo under the name it had when it held alone runs only. Named by
/// `benchmark/src/engine.rs`; ROADMAP item 5 deletes it with that use.
pub type BaselineCache = ResultMemo;

impl ResultMemo {
    /// Creates an empty memo behind the shared handle
    /// [`JobPool`](super::JobPool) expects.
    #[must_use]
    pub fn new() -> Arc<Self> {
        Arc::new(ResultMemo::default())
    }

    fn lock(&self) -> MutexGuard<'_, MemoInner> {
        self.inner.lock().expect("result memo lock poisoned")
    }

    /// Hit/miss/occupancy counters.
    #[must_use]
    pub fn stats(&self) -> MemoStats {
        let inner = self.lock();
        MemoStats {
            entries: inner.map.len(),
            hits: inner.hits,
            misses: inner.misses,
        }
    }

    /// The result held under `key`, shared, counting a hit or a miss.
    #[must_use]
    pub fn lookup(&self, key: &JobKey) -> Option<Arc<SimStats>> {
        let mut inner = self.lock();
        let found = inner.map.get(key).cloned();
        match found {
            Some(_) => inner.hits += 1,
            None => inner.misses += 1,
        }
        found
    }

    /// Holds `stats` as the result of `key`.
    pub fn insert(&self, key: JobKey, stats: Arc<SimStats>) {
        self.lock().map.insert(key, stats);
    }

    /// `key` as the memo holds it, sharing its storage, if it is held.
    #[must_use]
    pub fn held_key(&self, key: &JobKey) -> Option<JobKey> {
        self.lock()
            .map
            .get_key_value(key)
            .map(|(held, _)| held.clone())
    }

    /// Drops the result held under `key`, if any.
    pub fn remove(&self, key: &JobKey) {
        self.lock().map.remove(key);
    }

    /// Drops every result held; the counters keep counting.
    pub fn clear(&self) {
        self.lock().map.clear();
    }
}

/// The process-wide [`ResultMemo`] every default pool shares.
pub(super) fn process_memo() -> Arc<ResultMemo> {
    static MEMO: OnceLock<Arc<ResultMemo>> = OnceLock::new();
    Arc::clone(MEMO.get_or_init(ResultMemo::new))
}

/// Counters of one [`PrefixCache`]: every job a pool ran is a hit or a
/// miss.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PrefixCacheStats {
    /// Always 0: a held simulator belongs to the engine thread that ran it,
    /// not to this counter.
    pub entries: usize,
    /// Jobs that reused a warm-up: each ran on the simulator its thread
    /// held from a job of the same pool that it extends, by the cycles it
    /// adds.
    pub hits: u64,
    /// Jobs simulated from cycle 0: every other unique job of a batch that
    /// the memo did not answer.
    pub misses: u64,
}

/// The number of jobs a [`JobPool`](super::JobPool) ran, split into jobs
/// that continued a held simulator and jobs simulated from cycle 0, kept
/// under the name of the warm-up sharing it counted first. It is also the
/// pool's identity for held simulators: a thread's held simulator is
/// continued only by a pool with the same counter (the pool that ran it,
/// or a clone of it), so two pools run one after the other on one thread
/// never share one, and each pool's split depends on its own jobs alone.
/// `benchmark/src/sweep.rs` and `benchmark/src/service.rs` read it through
/// [`JobPool::prefix_cache`](super::JobPool::prefix_cache); ROADMAP item 5
/// deletes it with those reads.
#[derive(Debug, Default)]
#[expect(clippy::disallowed_types, reason = "counted by every worker of a pool")]
pub struct PrefixCache {
    continued: AtomicU64,
    simulated: AtomicU64,
}

impl PrefixCache {
    /// A zeroed counter behind the shared handle
    /// [`JobPool`](super::JobPool) expects. Called by
    /// `benchmark/src/engine.rs`; ROADMAP item 5 deletes it.
    #[must_use]
    pub fn in_memory() -> Arc<Self> {
        Arc::new(PrefixCache::default())
    }

    /// The counters: `hits` the jobs continued, `misses` the jobs
    /// simulated from cycle 0. Read by `benchmark/src/sweep.rs` and
    /// `benchmark/src/service.rs`; ROADMAP item 5 deletes it.
    #[must_use]
    pub fn stats(&self) -> PrefixCacheStats {
        PrefixCacheStats {
            entries: 0,
            hits: self.continued.load(Ordering::Relaxed),
            misses: self.simulated.load(Ordering::Relaxed),
        }
    }

    /// Counts one job run, `continued` or simulated from cycle 0. Relaxed
    /// ordering: readers look after the batch's workers have been joined.
    pub(super) fn count(&self, continued: bool) {
        let counter = if continued {
            &self.continued
        } else {
            &self.simulated
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}
