//! What outlives one job: alone baselines ([`BaselineCache`], for the
//! process) and the count of jobs a pool simulated ([`PrefixCache`]).

use super::job::JobKey;
use mask_common::stats::SimStats;
use std::collections::BTreeMap;
#[expect(clippy::disallowed_types, reason = "parallelism island")]
use std::sync::atomic::{AtomicU64, Ordering};
#[expect(clippy::disallowed_types, reason = "parallelism island")]
use std::sync::{Arc, Mutex, OnceLock};

/// Counters describing one [`BaselineCache`]'s effectiveness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Distinct alone-baseline simulations held.
    pub entries: usize,
    /// Lookups answered from the cache (simulations avoided).
    pub hits: u64,
    /// Lookups that had to simulate (one per distinct entry).
    pub misses: u64,
}

#[derive(Default)]
struct CacheInner {
    map: BTreeMap<JobKey, SimStats>,
    hits: u64,
    misses: u64,
}

/// Process-wide memo of alone-baseline simulations.
///
/// `IPC_alone` baselines are design-dependent but pair-independent, and the
/// oracle scheduler's probe runs re-derive the same baselines again at probe
/// length — so one cache shared by every experiment (and every probe)
/// guarantees each unique `(design, placement, cycles, seed, machine)`
/// alone run is simulated exactly once per process. Tests that need exact
/// accounting can attach a private cache via
/// [`JobPool::with_cache`](super::JobPool::with_cache).
#[derive(Default)]
#[expect(
    clippy::disallowed_types,
    reason = "shared by every worker of every pool"
)]
pub struct BaselineCache {
    inner: Mutex<CacheInner>,
}

impl BaselineCache {
    /// Creates an empty cache behind the shared handle
    /// [`JobPool`](super::JobPool) expects.
    #[must_use]
    pub fn new() -> Arc<Self> {
        Arc::new(BaselineCache::default())
    }

    /// Hit/miss/occupancy counters.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panicked while holding the cache lock.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().expect("baseline cache lock poisoned");
        CacheStats {
            entries: inner.map.len(),
            hits: inner.hits,
            misses: inner.misses,
        }
    }

    pub(super) fn lookup(&self, key: &JobKey) -> Option<SimStats> {
        let mut inner = self.inner.lock().expect("baseline cache lock poisoned");
        match inner.map.get(key).cloned() {
            Some(stats) => {
                inner.hits += 1;
                Some(stats)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    pub(super) fn insert(&self, key: JobKey, stats: SimStats) {
        let mut inner = self.inner.lock().expect("baseline cache lock poisoned");
        inner.map.insert(key, stats);
    }
}

/// The process-wide [`BaselineCache`] every default pool shares.
#[must_use]
pub fn process_cache() -> Arc<BaselineCache> {
    static CACHE: OnceLock<Arc<BaselineCache>> = OnceLock::new();
    Arc::clone(CACHE.get_or_init(BaselineCache::new))
}

/// Counters of one [`PrefixCache`]; only `misses` moves.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PrefixCacheStats {
    /// Always 0: nothing is kept between jobs.
    pub entries: usize,
    /// Always 0: every job simulates its own warm-up.
    pub hits: u64,
    /// Jobs simulated: every unique job of a batch that the baseline cache
    /// did not answer.
    pub misses: u64,
}

/// The number of jobs a [`JobPool`](super::JobPool) simulated, kept under
/// the name of the warm-up sharing that is gone. `benchmark/src/sweep.rs`
/// and `benchmark/src/service.rs` read it through
/// [`JobPool::prefix_cache`](super::JobPool::prefix_cache); ROADMAP item 5
/// deletes it with those reads.
#[derive(Debug, Default)]
#[expect(clippy::disallowed_types, reason = "counted by every worker of a pool")]
pub struct PrefixCache {
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

    /// The counters, `misses` being the jobs simulated. Read by
    /// `benchmark/src/sweep.rs` and `benchmark/src/service.rs`; ROADMAP
    /// item 5 deletes it.
    #[must_use]
    pub fn stats(&self) -> PrefixCacheStats {
        PrefixCacheStats {
            misses: self.simulated.load(Ordering::Relaxed),
            ..PrefixCacheStats::default()
        }
    }

    /// Counts one job simulated. Relaxed ordering: readers look after the
    /// batch's workers have been joined.
    pub(super) fn count_simulated(&self) {
        self.simulated.fetch_add(1, Ordering::Relaxed);
    }
}
