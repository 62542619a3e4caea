//! The persistent content-addressed result store.
//!
//! Results are keyed by the job's canonical dedup key
//! ([`SimJob::key`](mask_core::SimJob::key)). In memory the store *is* the
//! daemon's [`ResultMemo`], the one `JobKey → Arc<SimStats>` map that the
//! daemon's [`JobPool`](mask_core::JobPool) also consults and fills. On
//! disk the key is folded with the simulator's [`MODEL_FINGERPRINT`]
//! through FNV-1a into [`result_key`], so a store written by another model
//! is never hit: its jobs re-simulate once. A repeat submission — same
//! design spec, placement, cycle budget, seed, and full `GpuConfig`
//! rendering, on the same model — is answered without simulating, from
//! memory or, across daemon restarts, from disk.
//!
//! On disk each result is one file, a sealed MSNP envelope in an
//! [`EnvelopeStore`] (`mask-common`) whose modification time carries its
//! recency; that store brings the atomic writes, `MASKD_STORE_CAP` LRU
//! eviction and delete-what-fails-validation hygiene (DESIGN.md §13), and
//! migrates a directory of the older envelope-plus-`.lru` format on open.
//! This module adds only what is about *results*: the content address, the
//! `SimStats` payload, promotion of disk hits into the memo, removing from
//! the memo what the cap evicts from disk, and the counters. Beside the
//! disk's recency index it keeps, per result it sealed or loaded, the job
//! key and envelope checksum under its address, so an eviction is one memo
//! removal and a memo hit reports its checksum without re-encoding. A
//! result is held once, behind an `Arc` the memo and the daemon's job
//! registry share: a hit hands out a reference, not a copy.

use mask_common::snapshot::{
    envelope_checksum, Fnv1a, PrefixKey, Snapshot, SnapshotError, SnapshotReader, SnapshotWriter,
};
use mask_common::stats::SimStats;
use mask_common::store::EnvelopeStore;
use mask_common::MODEL_FINGERPRINT;
use mask_core::engine::JobKey;
use mask_core::{ResultMemo, SimJob};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
#[expect(clippy::disallowed_types, reason = "parallelism island")]
use std::sync::Mutex;

/// The content address of a job: FNV-1a over the [`MODEL_FINGERPRINT`]
/// and the canonical rendering of its dedup key. Everything that
/// distinguishes two simulations — the model, design *spec* (not preset
/// name), placement, cycle budgets, seed, and the complete `GpuConfig` —
/// feeds the hash; the submitting tenant does not, so identical science
/// shares one stored result.
#[must_use]
pub fn result_key(job: &SimJob) -> u64 {
    address(MODEL_FINGERPRINT, &job.key())
}

fn address(fingerprint: u64, key: &JobKey) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(fingerprint);
    h.write(format!("{key:?}").as_bytes());
    h.finish()
}

/// Store telemetry, served by `GET /store/stats`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Results currently held in memory (the memo's entries).
    pub entries: usize,
    /// Lookups answered (from memory or disk).
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Results inserted this process.
    pub inserts: u64,
    /// Results loaded from disk this process (subset of `hits`).
    pub disk_loads: u64,
    /// Times the on-disk store listed its directory: 1, at open (0 for an
    /// in-memory store).
    pub dir_scans: u64,
    /// Results `MASKD_STORE_CAP` evicted from disk (and memory) this process.
    pub disk_evictions: u64,
}

/// Everything behind the store's one lock, the on-disk store's recency
/// index included: results are a few kilobytes, so a file operation under
/// the lock costs less than a second lock would.
#[derive(Default)]
struct Inner {
    disk: Option<EnvelopeStore>,
    /// Each result this store persisted or loaded, by [`result_key`]: the
    /// key its memo entry sits under and the checksum of its envelope.
    sealed: BTreeMap<u64, (JobKey, u64)>,
    hits: u64,
    misses: u64,
    inserts: u64,
    disk_loads: u64,
}

/// Final statistics by job: the daemon's [`ResultMemo`] in memory, with
/// optional persistence under [`result_key`]. All methods are `&self`; the
/// store is shared between the daemon's connection threads and its
/// dispatcher.
#[expect(
    clippy::disallowed_types,
    reason = "shared by connection threads and dispatcher"
)]
pub struct ResultStore {
    memo: Arc<ResultMemo>,
    inner: Mutex<Inner>,
}

impl ResultStore {
    /// An in-memory store (results die with the process), on a memo of
    /// its own, never the process-wide one.
    #[must_use]
    #[expect(clippy::disallowed_types, reason = "builds the store's one lock")]
    pub fn in_memory() -> Self {
        ResultStore {
            memo: ResultMemo::new(),
            inner: Mutex::default(),
        }
    }

    /// A store persisting under `dir` (created if missing), keeping at
    /// most `cap` results on disk and in memory (LRU); see
    /// [`EnvelopeStore::open`] for the hygiene sweep construction runs.
    #[must_use]
    pub fn with_dir(dir: PathBuf, cap: Option<usize>) -> Self {
        let store = Self::in_memory();
        store.lock().disk = Some(EnvelopeStore::open(dir, cap));
        store
    }

    /// The memo holding this store's results in memory, for the daemon's
    /// pool to consult and fill.
    #[must_use]
    pub fn memo(&self) -> &Arc<ResultMemo> {
        &self.memo
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A poisoned store mutex means a panic mid-bookkeeping; the disk
        // index itself is always structurally valid, so keep serving.
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Looks up `job`'s result and the checksum of its sealed envelope: in
    /// the memo first, then on disk. A disk hit is promoted into the memo;
    /// either kind of hit re-stamps the on-disk entry as most recently used.
    /// The result is the one the memo holds, shared, not a copy.
    #[must_use]
    pub fn lookup(&self, job: &SimJob) -> Option<(Arc<SimStats>, u64)> {
        let key = job.key();
        let addr = address(MODEL_FINGERPRINT, &key);
        let remembered = self.memo.lookup(&key);
        let mut inner = self.lock();
        let Some(stats) = remembered else {
            let found = inner.load(addr)?;
            inner.sealed.insert(addr, (key.clone(), found.1));
            self.memo.insert(key, Arc::clone(&found.0));
            return Some(found);
        };
        inner.hits += 1;
        // Not yet written: the pool has run the job, the dispatcher has not
        // persisted it.
        let Some(&(_, checksum)) = inner.sealed.get(&addr) else {
            return Some((Arc::clone(&stats), seal_result(addr, &stats).1));
        };
        // Memory holds nothing the disk has lost: a result whose file
        // someone removed answers this once more and is then forgotten.
        if inner
            .disk
            .as_mut()
            .is_some_and(|d| !d.touch(PrefixKey(addr)))
        {
            inner.sealed.remove(&addr);
            self.memo.remove(&key);
        }
        Some((stats, checksum))
    }

    /// Persists the result the daemon's pool just ran (and memoised) for
    /// `job` and returns the checksum of its sealed envelope; what the LRU
    /// cap then evicts from disk leaves the memo too.
    pub fn persist(&self, job: &SimJob, stats: &SimStats) -> u64 {
        let key = job.key();
        let addr = address(MODEL_FINGERPRINT, &key);
        self.write(addr, Some(self.memo.held_key(&key).unwrap_or(key)), stats)
    }

    /// The disk layer alone: loads the result filed under `key` (a
    /// [`result_key`]) with its envelope checksum, re-stamping it as most
    /// recently used. The memo is neither consulted nor filled, so an
    /// in-memory store always misses; the daemon calls [`Self::lookup`].
    #[must_use]
    pub fn get(&self, key: u64) -> Option<(Arc<SimStats>, u64)> {
        self.lock().load(key)
    }

    /// The disk layer alone: files `stats` under `key` (a [`result_key`])
    /// and returns the checksum of its sealed envelope. An in-memory store
    /// keeps nothing; the daemon calls [`Self::persist`].
    pub fn insert(&self, key: u64, stats: &SimStats) -> u64 {
        self.write(key, None, stats)
    }

    /// Seals `stats` and files it under `addr`, remembering the memo key it
    /// sits under, if given, for [`Self::lookup`] and eviction.
    fn write(&self, addr: u64, key: Option<JobKey>, stats: &SimStats) -> u64 {
        let (sealed, checksum) = seal_result(addr, stats);
        let mut guard = self.lock();
        let inner = &mut *guard;
        inner.inserts += 1;
        if let Some(key) = key {
            inner.sealed.insert(addr, (key, checksum));
        }
        let evicted = match &mut inner.disk {
            Some(disk) => disk.store(PrefixKey(addr), &sealed),
            None => Vec::new(),
        };
        for gone in evicted {
            if let Some((key, _)) = inner.sealed.remove(&gone.0) {
                self.memo.remove(&key);
            }
        }
        checksum
    }

    /// Current telemetry snapshot.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        let inner = self.lock();
        StoreStats {
            entries: self.memo.stats().entries,
            hits: inner.hits,
            misses: inner.misses,
            inserts: inner.inserts,
            disk_loads: inner.disk_loads,
            dir_scans: inner.disk.as_ref().map_or(0, EnvelopeStore::dir_scans),
            disk_evictions: inner.disk.as_ref().map_or(0, EnvelopeStore::evictions),
        }
    }

    /// Results currently on disk (0 for in-memory stores).
    #[must_use]
    pub fn disk_entries(&self) -> usize {
        self.lock().disk.as_ref().map_or(0, EnvelopeStore::len)
    }
}

impl Inner {
    /// Loads and decodes the result filed on disk under `key`, counting a
    /// hit or a miss. A sound envelope whose payload is not a `SimStats` is
    /// a miss; the re-simulated result's write then replaces the file.
    fn load(&mut self, key: u64) -> Option<(Arc<SimStats>, u64)> {
        let loaded = self
            .disk
            .as_mut()
            .and_then(|disk| disk.load(PrefixKey(key)))
            .and_then(|bytes| {
                let stats = decode_result(&bytes, key).ok()?;
                Some((Arc::new(stats), envelope_checksum(&bytes)?))
            });
        match loaded {
            Some(_) => {
                self.hits += 1;
                self.disk_loads += 1;
            }
            None => self.misses += 1,
        }
        loaded
    }
}

/// The sealed envelope `stats` is stored as under `key`, with its checksum.
fn seal_result(key: u64, stats: &SimStats) -> (Vec<u8>, u64) {
    let mut w = SnapshotWriter::new();
    stats.snapshot(&mut w);
    let sealed = w.seal(PrefixKey(key));
    let checksum = envelope_checksum(&sealed).unwrap_or(0);
    (sealed, checksum)
}

fn decode_result(bytes: &[u8], key: u64) -> Result<SimStats, SnapshotError> {
    let mut r = SnapshotReader::open_keyed(bytes, PrefixKey(key))?;
    let stats = SimStats::decode(&mut r)?;
    r.finish()?;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stats(seed: u64) -> SimStats {
        let mut s = SimStats::new(2, 4);
        s.cycles = 1000 + seed;
        s.dram_bus_busy = 10 * seed;
        s.apps[0].instructions = 77 * seed;
        s.apps[0].l1_tlb.record(true);
        s.apps[1].dram_translation.requests = seed;
        s
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("maskd-store-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A job that is never run: the store only needs its key.
    fn job(seed: u64) -> SimJob {
        let mut gpu = mask_common::config::GpuConfig::maxwell();
        gpu.warps_per_core = 16;
        SimJob {
            design: mask_common::config::DesignKind::Mask,
            specs: Vec::new(),
            max_cycles: 2_000,
            warmup_cycles: 500,
            seed,
            gpu,
        }
    }

    /// What the daemon does with a result its pool just ran: the pool
    /// memoises it, the dispatcher persists it.
    fn finish(store: &ResultStore, job: &SimJob, stats: &Arc<SimStats>) -> u64 {
        store.memo().insert(job.key(), Arc::clone(stats));
        store.persist(job, stats)
    }

    #[test]
    fn a_result_not_yet_on_disk_is_served_and_kept() {
        let dir = temp_dir("window");
        let store = ResultStore::with_dir(dir.clone(), None);
        let j = job(4);
        let s = Arc::new(sample_stats(4));
        let expected = Some(seal_result(result_key(&j), &s).1);
        // The pool has memoised the result; the dispatcher has not written it.
        store.memo().insert(j.key(), Arc::clone(&s));
        let (early, early_checksum) = store.lookup(&j).expect("memo hit");
        assert!(Arc::ptr_eq(&early, &s));
        assert_eq!(Some(early_checksum), expected);
        assert_eq!(store.memo().stats().entries, 1, "not forgotten");
        assert_eq!(Some(store.persist(&j, &s)), expected);
        let (late, late_checksum) = store.lookup(&j).expect("memo hit");
        assert!(Arc::ptr_eq(&late, &s));
        assert_eq!(Some(late_checksum), expected);
        // A file someone removed answers once more from memory, then not.
        std::fs::remove_file(dir.join(format!("{}.msnp", PrefixKey(result_key(&j)))))
            .expect("stored file");
        assert!(store.lookup(&j).is_some());
        assert_eq!(store.lookup(&j), None);
        let t = store.stats();
        assert_eq!((t.entries, t.hits, t.misses, t.disk_loads), (0, 3, 1, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_in_memory_store_answers_from_its_memo() {
        let store = ResultStore::in_memory();
        let j = job(3);
        assert_eq!(store.lookup(&j), None);
        let s = Arc::new(sample_stats(3));
        let checksum = finish(&store, &j, &s);
        assert_eq!(
            Some(checksum),
            Some(seal_result(result_key(&j), &s).1),
            "insert returns the checksum the envelope carries"
        );
        let (hit, hit_checksum) = store.lookup(&j).expect("memo hit");
        assert!(Arc::ptr_eq(&hit, &s));
        assert_eq!(hit_checksum, checksum, "a memo hit reports the same seal");
        assert_eq!(store.get(result_key(&j)), None, "there is no disk layer");
        let t = store.stats();
        assert_eq!((t.entries, t.hits, t.misses, t.inserts), (1, 1, 2, 1));
    }

    #[test]
    fn hits_share_the_memo_allocation_and_disk_hits_are_promoted() {
        let dir = temp_dir("shared");
        let j = job(5);
        for store in [
            ResultStore::in_memory(),
            ResultStore::with_dir(dir.clone(), None),
        ] {
            let inserted = Arc::new(sample_stats(5));
            finish(&store, &j, &inserted);
            let (first, _) = store.lookup(&j).expect("hit");
            let (second, _) = store.lookup(&j).expect("hit");
            assert!(Arc::ptr_eq(&inserted, &first));
            assert!(Arc::ptr_eq(&first, &second));
        }
        // A rebooted store decodes a disk hit once, promotes it into its
        // memo and shares it from there.
        let store = ResultStore::with_dir(dir.clone(), None);
        let (loaded, loaded_checksum) = store.lookup(&j).expect("disk hit");
        let (again, again_checksum) = store.lookup(&j).expect("memo hit");
        assert!(Arc::ptr_eq(&loaded, &again));
        assert_eq!(loaded_checksum, again_checksum);
        let from_memo = store.memo().lookup(&j.key()).expect("promoted");
        assert!(Arc::ptr_eq(&loaded, &from_memo));
        assert_eq!((store.stats().disk_loads, store.stats().entries), (1, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_store_survives_reopen_and_rejects_corruption() {
        let dir = temp_dir("reopen");
        let s = sample_stats(9);
        let checksum = ResultStore::with_dir(dir.clone(), None).insert(7, &s);
        // Fresh store, fresh memory: the result comes back from disk, with
        // the checksum the file carries.
        let store = ResultStore::with_dir(dir.clone(), None);
        assert_eq!(store.get(7), Some((Arc::new(s), checksum)));
        assert_eq!(store.stats().disk_loads, 1);

        // Flip one payload byte: validation must reject and delete it.
        let path = dir.join(format!("{}.msnp", PrefixKey(7)));
        let mut bytes = std::fs::read(&path).expect("stored file");
        assert_eq!(envelope_checksum(&bytes), Some(checksum));
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&path, &bytes).expect("rewrite");
        let store = ResultStore::with_dir(dir.clone(), None);
        assert_eq!(store.get(7), None);
        assert!(!path.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cap_bounds_memory_and_disk_together() {
        let dir = temp_dir("cap");
        let store = ResultStore::with_dir(dir.clone(), Some(8));
        let jobs: Vec<SimJob> = (0..100).map(job).collect();
        let run = |k: usize| finish(&store, &jobs[k], &Arc::new(sample_stats(k as u64)));
        let get = |k: usize| {
            store
                .lookup(&jobs[k])
                .map(|(stats, _)| SimStats::clone(&stats))
        };
        for k in 0..100 {
            run(k);
            // Keep result 0 the most recently used but one throughout.
            assert_eq!(get(0), Some(sample_stats(0)));
        }
        let t = store.stats();
        assert_eq!((t.entries, store.disk_entries()), (8, 8));
        assert_eq!(store.memo().stats().entries, 8, "the memo is the memory");
        assert_eq!((t.dir_scans, t.disk_evictions), (1, 92));
        // The eight most recently used survive, in memory and on disk.
        for k in [0, 93, 94, 95, 96, 97, 98, 99] {
            let file = format!("{}.msnp", PrefixKey(result_key(&jobs[k])));
            assert!(dir.join(file).exists());
            assert_eq!(get(k), Some(sample_stats(k as u64)));
        }
        assert_eq!(store.stats().disk_loads, 0, "all eight came from memory");
        // An evicted job misses, and comes back by being run again.
        assert_eq!(get(50), None);
        assert_eq!(store.stats().misses, 1);
        run(50);
        assert_eq!(get(50), Some(sample_stats(50)));
        assert_eq!((store.stats().entries, store.disk_entries()), (8, 8));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_store_written_under_another_model_serves_no_hits() {
        use crate::json::Value;
        use crate::wire::{GpuOverrides, JobSpec};
        use crate::{Client, Daemon, DaemonConfig};
        use mask_common::config::DesignKind;
        use mask_core::JobPool;

        let dir = temp_dir("model");
        let spec = JobSpec {
            tenant: "model".to_owned(),
            design: DesignKind::Mask,
            apps: vec![("HS".to_owned(), 2), ("MUM".to_owned(), 2)],
            max_cycles: 2000,
            warmup_cycles: 500,
            seed: 601,
            gpu: "maxwell".to_owned(),
            overrides: GpuOverrides::default(),
        };
        let job = spec.to_sim_job();
        // What another model stored for the same job, under its own key.
        let older = address(!MODEL_FINGERPRINT, &job.key());
        ResultStore::with_dir(dir.clone(), None).insert(older, &sample_stats(1));

        let cfg = DaemonConfig {
            addr: "127.0.0.1:0".to_owned(),
            store_dir: Some(dir.clone()),
            ..DaemonConfig::default()
        };
        let daemon = Daemon::spawn_with_pool(cfg, JobPool::with_workers(1)).expect("boot");
        let client = Client::new(daemon.addr().to_string());
        let submitted = client.submit(&spec).expect("submit");
        assert!(!submitted.store_hit, "another model's result is not served");
        let served = client.wait(submitted.id).expect("wait").result;
        assert_eq!(served, Some(job.run()), "the job was simulated again");
        let stats = client.store_stats().expect("store stats");
        let count = |section: &str, name: &str| {
            stats
                .get(section)
                .and_then(|s| s.get(name))
                .and_then(Value::as_u64)
        };
        assert_eq!(count("scheduler", "simulated_jobs"), Some(1));
        assert_eq!(count("store", "hits"), Some(0));
        assert_eq!(count("store", "disk_entries"), Some(2));
        daemon.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
