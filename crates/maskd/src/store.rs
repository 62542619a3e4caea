//! The persistent content-addressed result store.
//!
//! Results are keyed by the simulator's [`MODEL_FINGERPRINT`] and the job's
//! canonical dedup key ([`SimJob::key`](mask_core::SimJob::key)), folded
//! through FNV-1a — the one description of a job that also keys the
//! engine's `BaselineCache`, extended to *every* job shape (not just alone
//! baselines) and to disk. A repeat submission — same design spec,
//! placement, cycle budget, seed, and full `GpuConfig` rendering, on the
//! same model — is answered from the store without simulating at all,
//! across daemon restarts. A store written by another model is never hit:
//! its jobs re-simulate once.
//!
//! On disk each result is one file, a sealed MSNP envelope in an
//! [`EnvelopeStore`] (`mask-common`) whose modification time carries its
//! recency; that store brings the atomic writes, `MASKD_STORE_CAP` LRU
//! eviction and delete-what-fails-validation hygiene (DESIGN.md §13), and
//! migrates a directory of the older envelope-plus-`.lru` format on open.
//! This module adds only what is about *results*: the content address, the
//! `SimStats` payload, the in-memory map with each result's envelope
//! checksum (sealed once, on insert or load) and the counters.

use mask_common::snapshot::{
    envelope_checksum, Fnv1a, PrefixKey, Snapshot, SnapshotError, SnapshotReader, SnapshotWriter,
};
use mask_common::stats::SimStats;
use mask_common::store::EnvelopeStore;
use mask_common::MODEL_FINGERPRINT;
use mask_core::SimJob;
use std::collections::BTreeMap;
use std::path::PathBuf;
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
    key_under(MODEL_FINGERPRINT, job)
}

fn key_under(fingerprint: u64, job: &SimJob) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(fingerprint);
    h.write(format!("{:?}", job.key()).as_bytes());
    h.finish()
}

/// Store telemetry, served by `GET /store/stats`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Results currently held in memory.
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
    /// Each result with the checksum of its sealed envelope.
    mem: BTreeMap<u64, (SimStats, u64)>,
    disk: Option<EnvelopeStore>,
    hits: u64,
    misses: u64,
    inserts: u64,
    disk_loads: u64,
}

/// A content-addressed map from [`result_key`] to final statistics, with
/// optional persistence. All methods are `&self`; the store is shared
/// between the daemon's connection threads and its dispatcher.
#[expect(
    clippy::disallowed_types,
    reason = "shared by connection threads and dispatcher"
)]
pub struct ResultStore {
    inner: Mutex<Inner>,
}

impl ResultStore {
    /// An in-memory store (results die with the process).
    #[must_use]
    #[expect(clippy::disallowed_types, reason = "builds the store's one lock")]
    pub fn in_memory() -> Self {
        ResultStore {
            inner: Mutex::default(),
        }
    }

    /// A store persisting under `dir` (created if missing), keeping at
    /// most `cap` results on disk and in memory (LRU); see
    /// [`EnvelopeStore::open`] for the hygiene sweep construction runs.
    #[must_use]
    #[expect(clippy::disallowed_types, reason = "builds the store's one lock")]
    pub fn with_dir(dir: PathBuf, cap: Option<usize>) -> Self {
        ResultStore {
            inner: Mutex::new(Inner {
                disk: Some(EnvelopeStore::open(dir, cap)),
                ..Inner::default()
            }),
        }
    }

    /// Builds the store a [`DaemonConfig`](crate::DaemonConfig) asks for.
    #[must_use]
    pub fn from_config(cfg: &crate::DaemonConfig) -> Self {
        match &cfg.store_dir {
            Some(dir) => ResultStore::with_dir(dir.clone(), cfg.store_cap),
            None => ResultStore::in_memory(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A poisoned store mutex means a panic mid-bookkeeping; the maps
        // themselves are always structurally valid, so keep serving.
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Looks up a result and the checksum of its sealed envelope, falling
    /// back to disk on a memory miss. A disk hit is promoted into memory;
    /// either kind of hit re-stamps the on-disk entry as most recently used.
    #[must_use]
    pub fn get(&self, key: u64) -> Option<(SimStats, u64)> {
        let mut guard = self.lock();
        let inner = &mut *guard;
        if let Some(found) = inner.mem.get(&key).cloned() {
            inner.hits += 1;
            // Memory holds nothing the disk has lost: a result whose file
            // someone removed answers this once more and is then forgotten.
            if inner
                .disk
                .as_mut()
                .is_some_and(|disk| !disk.touch(PrefixKey(key)))
            {
                inner.mem.remove(&key);
            }
            return Some(found);
        }
        // A sound envelope whose payload is not a `SimStats` is a miss; the
        // re-simulated result's `insert` then replaces the file.
        let loaded = inner
            .disk
            .as_mut()
            .and_then(|disk| disk.load(PrefixKey(key)))
            .and_then(|bytes| {
                let stats = decode_result(&bytes, key).ok()?;
                Some((stats, envelope_checksum(&bytes)?))
            });
        match &loaded {
            Some(found) => {
                inner.hits += 1;
                inner.disk_loads += 1;
                inner.mem.insert(key, found.clone());
            }
            None => inner.misses += 1,
        }
        loaded
    }

    /// Records a freshly simulated result under `key`, persisting it when
    /// the store is disk-backed, and returns the checksum of its sealed
    /// envelope; what the LRU cap then evicts from disk leaves memory too.
    pub fn insert(&self, key: u64, stats: &SimStats) -> u64 {
        let sealed = seal_result(key, stats);
        let checksum = envelope_checksum(&sealed).unwrap_or(0);
        let mut guard = self.lock();
        let inner = &mut *guard;
        inner.inserts += 1;
        inner.mem.insert(key, (stats.clone(), checksum));
        if let Some(disk) = &mut inner.disk {
            for evicted in disk.store(PrefixKey(key), &sealed) {
                inner.mem.remove(&evicted.0);
            }
        }
        checksum
    }

    /// Current telemetry snapshot.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        let inner = self.lock();
        StoreStats {
            entries: inner.mem.len(),
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

/// The sealed envelope `stats` is stored as under `key`.
fn seal_result(key: u64, stats: &SimStats) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    stats.snapshot(&mut w);
    w.seal(PrefixKey(key))
}

fn decode_result(bytes: &[u8], key: u64) -> Result<SimStats, SnapshotError> {
    // Two passes so the canonical `Snapshot for SimStats` impl does the
    // decoding: a probe reads the app count (restore requires a pre-sized
    // target), then the real pass restores into it.
    let mut probe = SnapshotReader::open_keyed(bytes, PrefixKey(key))?;
    probe.section("stats")?;
    let n_apps = probe.seq()?;
    let mut stats = SimStats::new(n_apps, 0);
    let mut r = SnapshotReader::open_keyed(bytes, PrefixKey(key))?;
    stats.restore(&mut r)?;
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

    #[test]
    fn memory_store_round_trips() {
        let store = ResultStore::in_memory();
        assert_eq!(store.get(42), None);
        let s = sample_stats(3);
        let checksum = store.insert(42, &s);
        assert_eq!(
            Some(checksum),
            envelope_checksum(&seal_result(42, &s)),
            "insert returns the checksum the envelope carries"
        );
        assert_eq!(store.get(42), Some((s, checksum)));
        let t = store.stats();
        assert_eq!((t.entries, t.hits, t.misses, t.inserts), (1, 1, 1, 1));
    }

    #[test]
    fn disk_store_survives_reopen_and_rejects_corruption() {
        let dir = temp_dir("reopen");
        let s = sample_stats(9);
        let checksum = ResultStore::with_dir(dir.clone(), None).insert(7, &s);
        // Fresh store, fresh memory: the result comes back from disk, with
        // the checksum the file carries.
        let store = ResultStore::with_dir(dir.clone(), None);
        assert_eq!(store.get(7), Some((s, checksum)));
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
        let get = |k: u64| store.get(k).map(|(stats, _)| stats);
        for k in 0..100u64 {
            store.insert(k, &sample_stats(k));
            // Keep result 0 the most recently used but one throughout.
            assert_eq!(get(0), Some(sample_stats(0)));
        }
        let t = store.stats();
        assert_eq!((t.entries, store.disk_entries()), (8, 8));
        assert_eq!((t.dir_scans, t.disk_evictions), (1, 92));
        // The eight most recently used survive, in memory and on disk.
        for k in [0u64, 93, 94, 95, 96, 97, 98, 99] {
            assert!(dir.join(format!("{}.msnp", PrefixKey(k))).exists());
            assert_eq!(get(k), Some(sample_stats(k)));
        }
        assert_eq!(store.stats().disk_loads, 0, "all eight came from memory");
        // An evicted key misses, and comes back by being inserted again.
        assert_eq!(get(50), None);
        assert_eq!(store.stats().misses, 1);
        store.insert(50, &sample_stats(50));
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
        let older = key_under(!MODEL_FINGERPRINT, &job);
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
