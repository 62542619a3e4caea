//! What outlives one job: alone baselines ([`BaselineCache`], for the
//! process) and warm-up snapshots ([`BatchSnapshots`], for one batch;
//! [`PrefixCache`] keeps their counters and the optional on-disk store).

use super::job::{JobKey, SimJob};
use mask_common::config::{snapshot_cap_override, snapshot_dir_override};
use mask_common::snapshot::PrefixKey;
use mask_common::stats::SimStats;
use mask_common::store::{EnvelopeFiles, EnvelopeStore};
use mask_gpu::GpuSim;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

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

/// Counters describing one [`PrefixCache`]'s effectiveness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PrefixCacheStats {
    /// Warm-up snapshots resident in memory now: 0 whenever no batch is
    /// running, since a snapshot lives no longer than its batch.
    pub entries: usize,
    /// Jobs whose warm-up came from a snapshot (warm-up simulations
    /// avoided, whether the bytes came from a batch-mate or from disk).
    pub hits: u64,
    /// Jobs that simulated their own warm-up: the first of each group, any
    /// nobody shares with, and any whose snapshot failed to restore.
    pub misses: u64,
}

/// What of warm-up sharing is not per-batch: the counters, and the optional
/// on-disk [`EnvelopeStore`] — the one place a snapshot may outlive the
/// batch that took it (`MASK_SNAPSHOT_DIR`, bounded by `MASK_SNAPSHOT_CAP`).
/// Which warm-ups are shared in memory is decided per batch, by
/// [`JobPool::run_batch`](super::JobPool::run_batch)'s plan.
pub struct PrefixCache {
    /// The counters and the store's recency index: small updates only.
    inner: Mutex<PrefixInner>,
    /// The store's payload half. Snapshots are tens of megabytes, so they
    /// are read and written through this, outside the lock.
    files: Option<EnvelopeFiles>,
}

#[derive(Default)]
struct PrefixInner {
    stats: PrefixCacheStats,
    disk: Option<EnvelopeStore>,
}

impl PrefixCache {
    /// A cache backed by the on-disk store at `dir` (`None`: no store),
    /// keeping at most `cap` snapshots on disk (least-recently-used evicted
    /// first; `None` = unbounded), behind the shared handle
    /// [`JobPool`](super::JobPool) expects.
    #[must_use]
    pub fn with_store(dir: Option<PathBuf>, cap: Option<usize>) -> Arc<Self> {
        let disk = dir.map(|dir| EnvelopeStore::open(dir, cap));
        Arc::new(PrefixCache {
            files: disk.as_ref().map(|disk| disk.files().clone()),
            inner: Mutex::new(PrefixInner {
                stats: PrefixCacheStats::default(),
                disk,
            }),
        })
    }

    /// A cache with no on-disk store; what tests that assert exact warm-up
    /// counts attach via
    /// [`JobPool::with_prefix_cache`](super::JobPool::with_prefix_cache).
    #[must_use]
    pub fn in_memory() -> Arc<Self> {
        Self::with_store(None, None)
    }

    /// A cache whose on-disk store follows the `MASK_SNAPSHOT_DIR`
    /// environment variable (unset: no store), capped at
    /// `MASK_SNAPSHOT_CAP` snapshots (unset or unparsable: unbounded).
    #[must_use]
    pub fn from_env() -> Arc<Self> {
        Self::with_store(snapshot_dir_override(), snapshot_cap_override())
    }

    /// Hit/miss/residency counters.
    #[must_use]
    pub fn stats(&self) -> PrefixCacheStats {
        self.note(|c| *c)
    }

    /// The counters and the index are plain data, valid at every step: a
    /// lock poisoned by a panicking job is still good to read and count on.
    fn lock(&self) -> MutexGuard<'_, PrefixInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn note<T>(&self, f: impl FnOnce(&mut PrefixCacheStats) -> T) -> T {
        f(&mut self.lock().stats)
    }

    /// The stored snapshot for `key`, re-stamped as most recently used.
    fn disk_load(&self, key: PrefixKey) -> Option<Vec<u8>> {
        let bytes = self.files.as_ref()?.read(key);
        if let Some(disk) = &mut self.lock().disk {
            disk.touch(key);
        }
        bytes
    }

    /// Persists `sealed` under `key` and lets the cap evict.
    fn disk_store(&self, key: PrefixKey, sealed: &[u8]) {
        if self.files.as_ref().is_some_and(|f| f.write(key, sealed)) {
            if let Some(disk) = &mut self.lock().disk {
                disk.touch(key);
                disk.enforce_cap();
            }
        }
    }
}

/// The process-wide [`PrefixCache`] every default pool shares, configured
/// from `MASK_SNAPSHOT_DIR` at first use.
#[must_use]
pub fn process_prefix_cache() -> Arc<PrefixCache> {
    static CACHE: OnceLock<Arc<PrefixCache>> = OnceLock::new();
    Arc::clone(CACHE.get_or_init(PrefixCache::from_env))
}

/// The warm-up snapshots of one batch: a once-cell per prefix key the plan
/// found a reader for, owned by the batch and dropped — bytes and all —
/// with it.
pub(super) struct BatchSnapshots<'a> {
    cache: &'a PrefixCache,
    pub(super) cells: BTreeMap<PrefixKey, OnceLock<Vec<u8>>>,
}

impl<'a> BatchSnapshots<'a> {
    /// One empty cell for each of `keys` (one per job of the batch with a
    /// sharable warm-up) that is worth sealing: one a second job of the
    /// batch will read, or any at all when `cache` has an on-disk store to
    /// feed and read (the user has said sharing outlives the batch).
    pub(super) fn plan(cache: &'a PrefixCache, keys: impl Iterator<Item = PrefixKey>) -> Self {
        let min_readers = if cache.files.is_some() { 1 } else { 2 };
        let mut readers: BTreeMap<PrefixKey, usize> = BTreeMap::new();
        for key in keys {
            *readers.entry(key).or_default() += 1;
        }
        readers.retain(|_, n| *n >= min_readers);
        let cells = readers.into_keys().map(|k| (k, OnceLock::new())).collect();
        BatchSnapshots { cache, cells }
    }

    /// A simulator positioned at the end of `job`'s warm-up. When the plan
    /// gave `key` a cell, the first job to arrive fills it — from the
    /// on-disk store when it has `key`, else by simulating the warm-up and
    /// sealing it — while its group-mates block on the cell and then
    /// restore from the bytes. Restore-then-run is bit-identical to the
    /// straight-through simulation, so results cannot depend on who won.
    pub(super) fn warm_up(&self, job: &SimJob, key: PrefixKey) -> GpuSim {
        let mut warmed: Option<GpuSim> = None;
        if let Some(cell) = self.cells.get(&key) {
            let bytes = cell.get_or_init(|| {
                // A stored snapshot that fails envelope validation degrades
                // to re-simulation instead of poisoning the cell.
                let bytes = self.cache.disk_load(key).unwrap_or_else(|| {
                    let bytes = warmed.insert(job.warmed_sim()).encode_snapshot(key);
                    self.cache.disk_store(key, &bytes);
                    bytes
                });
                self.cache.note(|c| c.entries += 1);
                bytes
            });
            // The winner keeps its live warmed simulator — restoring its
            // own snapshot would only re-derive the state it already has.
            if warmed.is_none() {
                let mut fresh = job.build_sim();
                if fresh.restore_snapshot(bytes, key).is_ok() {
                    self.cache.note(|c| c.hits += 1);
                    return fresh;
                }
                // A failed restore leaves `fresh` unusable; a damaged
                // snapshot must only cost wall clock, never change results.
            }
        }
        self.cache.note(|c| c.misses += 1);
        warmed.unwrap_or_else(|| job.warmed_sim())
    }
}

impl Drop for BatchSnapshots<'_> {
    fn drop(&mut self) {
        let filled = self.cells.values().filter(|c| c.get().is_some()).count();
        self.cache.note(|c| c.entries -= filled);
    }
}
