//! The persistent content-addressed result store.
//!
//! Results are keyed by the job's canonical dedup key
//! ([`SimJob::key`](mask_core::SimJob::key)). In memory the store *is* the
//! daemon's [`ResultMemo`], which its [`JobPool`](mask_core::JobPool) also
//! consults and fills; on disk the key is folded with the simulator's
//! [`MODEL_FINGERPRINT`] into [`result_key`], so a store another model wrote
//! is never hit. A repeat submission is answered without simulating, from
//! memory or, across daemon restarts, from disk, as the one `Arc` the memo
//! and the daemon's job registry share. A result's recency is a counter the
//! store stamps on every persist, memo hit and disk load; `MASKD_STORE_CAP`
//! evicts least-recently-used results, never below one, from the index and
//! the memo at once, whether or not the store has a log.
//!
//! # On disk
//!
//! One live writer per directory; a second serves from memory. Opening
//! takes an exclusive lock on the file `lock` in `MASKD_STORE_DIR`, which is
//! never renamed, so a compaction cannot move it; a store that cannot take
//! the lock, or create the directory, serves from memory like
//! [`ResultStore::in_memory`]. The lock holder keeps one append-only log,
//! `results.log`, of sealed MSNP envelopes ([`mask_common::snapshot`]: magic,
//! codec version, key echo, length, FNV-1a checksum). Its first record is a
//! header-only envelope under the [`MODEL_FINGERPRINT`] whose results it
//! holds; each later one is, under a [`result_key`], a result's `SimStats`
//! or, header-only, a *use* of it. Every stamp appends one, and opening
//! stamps the records in log order, so the record order mirrors recency: it
//! is the LRU order, across restarts and copies. The store is a pure
//! accelerator, so every file operation is best-effort — an I/O failure
//! costs a re-simulation, never a wrong answer:
//!
//! * a persist appends the result, a memo hit or a disk load a use; a load
//!   reads the one record the index names and validates it keyed, and one
//!   that fails leaves the index;
//! * opening streams the log once and truncates it at the first record that
//!   fails validation, and to nothing if its first record does not name this
//!   model: after a crash mid-write the store is a subset of what was
//!   written, and it never keeps another model's results;
//! * an eviction writes nothing: its records stay the oldest, so a reopen at
//!   the same cap evicts them again. Once the log's dead bytes (uses,
//!   superseded and evicted results) exceed its live ones, the model record
//!   and the live records in recency order are written to
//!   `results.log.tmp`, which is renamed over it.
//!
//! # One index
//!
//! The open scan leaves the index every later operation keeps: by address,
//! every result the store holds, its recency, its newest copy in the log
//! and, once this handle sealed or loaded it, its memo key and checksum.
//! With one writer the index is the truth: after the open scan the log is
//! read only where the index points, to load a result or compact.

use mask_common::snapshot::{
    envelope_checksum, envelope_len, validate_envelope, Fnv1a, PrefixKey, Snapshot, SnapshotReader,
    SnapshotWriter, HEADER_LEN,
};
use mask_common::stats::SimStats;
use mask_common::MODEL_FINGERPRINT;
use mask_core::engine::JobKey;
use mask_core::{ResultMemo, SimJob};
use std::collections::{BTreeMap, BTreeSet};
use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, Read, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
#[expect(clippy::disallowed_types, reason = "parallelism island")]
use std::sync::Mutex;
use std::sync::{Arc, PoisonError};

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
    /// Times the store read its whole log: 1, at open, for its directory's
    /// one live writer; 0 for a store that serves from memory.
    pub dir_scans: u64,
    /// Results `MASKD_STORE_CAP` evicted this process, from memory and disk.
    pub disk_evictions: u64,
    /// Bytes of the log.
    pub log_bytes: u64,
    /// Bytes of the results a compaction would keep (not the model record).
    pub live_bytes: u64,
}

/// Where the newest copy of a result sits in the log: offset and length.
#[derive(Clone, Copy)]
struct Record {
    at: u64,
    len: u64,
}

/// What the store knows of one result it holds.
#[derive(Default)]
struct Entry {
    /// Its recency: the store's clock at its last persist, use or load.
    used: u64,
    /// `None` while the log holds none of it.
    record: Option<Record>,
    /// Once this store sealed or loaded the result: the key its memo entry
    /// sits under and the checksum of its envelope.
    result: Option<(JobKey, u64)>,
}

/// Everything behind the store's one mutex, the index of its log included:
/// results are a few kilobytes, so a file operation under the mutex costs
/// less than a second mutex would.
#[derive(Default)]
struct Inner {
    /// The log's path; `None` for a store that serves from memory.
    path: Option<PathBuf>,
    /// The directory's `lock` file, locked while this store writes there.
    held: Option<File>,
    /// The log, opened once to read and append.
    log: Option<File>,
    /// Most results kept (`None` = unbounded), never below one.
    cap: Option<usize>,
    /// Every result the store holds, in memory or in the log.
    index: BTreeMap<u64, Entry>,
    /// `(recency, address)` of every result in `index`, least recently
    /// used first: the order eviction takes them in and compaction writes.
    order: BTreeSet<(u64, u64)>,
    // The last recency stamped, the log's length, and the bytes of the
    // records `index` names.
    clock: u64,
    end: u64,
    live: u64,
    hits: u64,
    misses: u64,
    inserts: u64,
    disk_loads: u64,
    dir_scans: u64,
    evictions: u64,
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
    /// A store that serves from memory, on a memo of its own (never the
    /// process-wide one), keeping at most `cap` results (LRU).
    #[must_use]
    #[expect(clippy::disallowed_types, reason = "builds the store's one lock")]
    pub fn in_memory(cap: Option<usize>) -> Self {
        ResultStore {
            memo: ResultMemo::new(),
            inner: Mutex::new(Inner {
                cap,
                ..Inner::default()
            }),
        }
    }

    /// A store persisting in the log under `dir` (both created if
    /// missing), keeping at most `cap` results on disk and in memory (LRU).
    /// Opening locks the directory and scans the log, truncating it at the
    /// first record that fails validation (a torn write, a stale codec,
    /// checksum damage). While another store holds the directory, this one
    /// serves from memory, at the same cap.
    #[must_use]
    pub fn with_dir(dir: PathBuf, cap: Option<usize>) -> Self {
        let store = Self::in_memory(cap);
        if store.lock().open(dir).is_none() {
            return Self::in_memory(cap);
        }
        store.lock().settle(&store.memo);
        store
    }

    /// Closes the log and releases the directory, which the next store
    /// opened on it then writes; this one serves from memory. The daemon
    /// closes its store at shutdown, since a connection thread may outlive
    /// the handle.
    pub(crate) fn close(&self) {
        let mut inner = self.lock();
        (inner.log, inner.held) = (None, None);
    }

    /// The memo holding this store's results in memory, for the daemon's
    /// pool to consult and fill.
    #[must_use]
    pub fn memo(&self) -> &Arc<ResultMemo> {
        &self.memo
    }

    /// A poisoned store mutex means a panic mid-bookkeeping; the index
    /// itself is always structurally valid, so keep serving.
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks up `job`'s result and the checksum of its sealed envelope: in
    /// the memo first, then on disk. A disk hit is promoted into the memo;
    /// either kind of hit appends a use. The result is the one the memo
    /// holds, shared, not a copy.
    #[must_use]
    pub fn lookup(&self, job: &SimJob) -> Option<(Arc<SimStats>, u64)> {
        let key = job.key();
        let addr = address(MODEL_FINGERPRINT, &key);
        let remembered = self.memo.lookup(&key);
        let mut inner = self.lock();
        let Some(stats) = remembered else {
            let found = inner.load(addr, &self.memo)?;
            inner.index.entry(addr).or_default().result = Some((key.clone(), found.1));
            self.memo.insert(key, Arc::clone(&found.0));
            return Some(found);
        };
        inner.hits += 1;
        // Not yet written: the pool has run the job, the dispatcher has not
        // persisted it.
        let Some(&(_, checksum)) = inner.index.get(&addr).and_then(|e| e.result.as_ref()) else {
            let checksum = seal_result(addr, &stats).1;
            return Some((stats, checksum));
        };
        inner.append(addr, &header_only(addr), &self.memo);
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
    /// [`result_key`]) with its envelope checksum, appending a use. The
    /// memo is neither consulted nor filled, so an in-memory store always
    /// misses; the daemon calls [`Self::lookup`].
    #[must_use]
    pub fn get(&self, key: u64) -> Option<(Arc<SimStats>, u64)> {
        self.lock().load(key, &self.memo)
    }

    /// The disk layer alone: files `stats` under `key` (a [`result_key`])
    /// and returns the checksum of its sealed envelope. An in-memory store
    /// keeps nothing; the daemon calls [`Self::persist`].
    pub fn insert(&self, key: u64, stats: &SimStats) -> u64 {
        self.write(key, None, stats)
    }

    /// Seals `stats` and appends it under `addr`, remembering the memo key
    /// it sits under, if given, for [`Self::lookup`] and eviction.
    fn write(&self, addr: u64, key: Option<JobKey>, stats: &SimStats) -> u64 {
        let (sealed, checksum) = seal_result(addr, stats);
        let mut inner = self.lock();
        inner.inserts += 1;
        if let Some(key) = key {
            inner.index.entry(addr).or_default().result = Some((key, checksum));
        }
        inner.append(addr, &sealed, &self.memo);
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
            dir_scans: inner.dir_scans,
            disk_evictions: inner.evictions,
            log_bytes: inner.end,
            live_bytes: inner.live,
        }
    }

    /// Results whose record the log holds: 0 for a store that serves from
    /// memory, which `MASKD_STORE_CAP` bounds all the same.
    #[must_use]
    pub fn disk_entries(&self) -> usize {
        let inner = self.lock();
        inner.index.values().filter(|e| e.record.is_some()).count()
    }
}

impl Inner {
    /// Locks the directory, opens its log and indexes it, truncating it at
    /// the first record that fails validation, or to nothing if it does not
    /// start with this model's record, which then starts it. `None` if
    /// another store holds the directory or a file operation fails.
    fn open(&mut self, mut path: PathBuf) -> Option<()> {
        let _ = std::fs::create_dir_all(&path);
        path.push("lock");
        // The lock file stays empty: creating it anew truncates nothing.
        let held = File::create(&path).ok()?;
        held.try_lock().ok()?;
        path.set_file_name("results.log");
        let mut log = open_log(&path).ok()?;
        let size = log.metadata().ok()?.len();
        let (mut reader, mut record) = (BufReader::new(&log), Vec::new());
        let ours = next_record(&mut reader, &mut record, size) == Some(MODEL_FINGERPRINT)
            && record.len() == HEADER_LEN;
        if ours {
            self.end = HEADER_LEN as u64;
            while let Some(addr) = next_record(&mut reader, &mut record, size) {
                let len = record.len() as u64;
                self.note(addr, Some(Record { at: self.end, len }));
                self.end += len;
            }
        }
        drop(reader);
        log.set_len(self.end).ok()?;
        if !ours {
            log.write_all(&header_only(MODEL_FINGERPRINT)).ok()?;
            self.end = HEADER_LEN as u64;
        }
        (self.path, self.held, self.log) = (Some(path), Some(held), Some(log));
        self.dir_scans = 1;
        Some(())
    }

    /// Notes a use of the result under `addr`: `written`, the valid record
    /// read or appended for it, becomes its newest copy if it holds the
    /// result itself, and the result, if the store holds it, is stamped.
    fn note(&mut self, addr: u64, written: Option<Record>) {
        if let Some(record) = written.filter(|r| r.len > HEADER_LEN as u64) {
            let old = self.index.entry(addr).or_default().record.replace(record);
            self.live = self.live + record.len - old.map_or(0, |old| old.len);
        }
        if let Some(entry) = self.index.get_mut(&addr) {
            self.order.remove(&(entry.used, addr));
            self.clock += 1;
            entry.used = self.clock;
            self.order.insert((self.clock, addr));
        }
    }

    /// Appends envelope `bytes` under `addr`, a result or a use of it, and
    /// notes it, then evicts and compacts as due. A write that fails is cut
    /// off again; a store without a log only stamps.
    fn append(&mut self, addr: u64, bytes: &[u8], memo: &ResultMemo) {
        let (at, len) = (self.end, bytes.len() as u64);
        let mut written = None;
        if let Some(log) = self.log.as_mut() {
            if log.write_all(bytes).is_ok() {
                self.end += len;
                written = Some(Record { at, len });
            } else {
                let _ = log.set_len(at);
            }
        }
        self.note(addr, written);
        self.settle(memo);
    }

    /// Loads the result filed under `addr`, counting a hit (and appending a
    /// use) or a miss.
    fn load(&mut self, addr: u64, memo: &ResultMemo) -> Option<(Arc<SimStats>, u64)> {
        let loaded = self.read(addr);
        if loaded.is_some() {
            self.hits += 1;
            self.disk_loads += 1;
            self.append(addr, &header_only(addr), memo);
        } else {
            self.misses += 1;
            if self.index.get(&addr).is_some_and(|e| e.record.is_some()) {
                self.forget(addr, memo);
            }
        }
        loaded
    }

    /// The result filed under `addr`, if its record passes keyed validation
    /// and decodes.
    fn read(&self, addr: u64) -> Option<(Arc<SimStats>, u64)> {
        let record = self.index.get(&addr)?.record?;
        let log = self.log.as_ref()?;
        let mut bytes = vec![0; usize::try_from(record.len).ok()?];
        log.read_exact_at(&mut bytes, record.at).ok()?;
        let mut reader = SnapshotReader::open_keyed(&bytes, PrefixKey(addr)).ok()?;
        let stats = SimStats::decode(&mut reader).ok()?;
        reader.finish().ok()?;
        Some((Arc::new(stats), envelope_checksum(&bytes)?))
    }

    /// Evicts down to the cap, least recently used first, then compacts the
    /// log if its dead bytes exceed its live ones.
    fn settle(&mut self, memo: &ResultMemo) {
        let cap = self.cap.unwrap_or(usize::MAX).max(1);
        while let Some(&(_, victim)) = self.order.first().filter(|_| self.order.len() > cap) {
            self.forget(victim, memo);
            self.evictions += 1;
        }
        if self.end.saturating_sub(HEADER_LEN as u64 + self.live) > self.live {
            self.compact();
        }
    }

    /// Drops `addr` from the index and the memo.
    fn forget(&mut self, addr: u64, memo: &ResultMemo) {
        let entry = self.index.remove(&addr).unwrap_or_default();
        self.order.remove(&(entry.used, addr));
        if let Some(old) = entry.record {
            self.live -= old.len;
        }
        if let Some((key, _)) = entry.result {
            memo.remove(&key);
        }
    }

    /// Rewrites the log as the model record and its live records in recency
    /// order, least recently used first, in a temp file renamed over it: a
    /// crash leaves one whole log or the other.
    fn compact(&mut self) {
        let (Some(path), Some(log)) = (&self.path, &self.log) else {
            return;
        };
        let records: Vec<(u64, Record)> = self
            .order
            .iter()
            .filter_map(|&(_, addr)| Some((addr, self.index.get(&addr)?.record?)))
            .collect();
        let tmp = path.with_extension("log.tmp");
        let mut bytes = Vec::new();
        let written = File::create(&tmp).and_then(|file| {
            let mut out = BufWriter::new(file);
            out.write_all(&header_only(MODEL_FINGERPRINT))?;
            for (_, record) in &records {
                bytes.resize(record.len as usize, 0);
                log.read_exact_at(&mut bytes, record.at)?;
                out.write_all(&bytes)?;
            }
            out.flush()
        });
        let renamed = written.and_then(|()| std::fs::rename(&tmp, path));
        let Ok(compacted) = renamed.and_then(|()| open_log(path)) else {
            let _ = std::fs::remove_file(&tmp);
            return;
        };
        self.log = Some(compacted);
        self.end = HEADER_LEN as u64;
        for (addr, Record { len, .. }) in records {
            let at = self.end;
            if let Some(entry) = self.index.get_mut(&addr) {
                entry.record = Some(Record { at, len });
            }
            self.end += len;
        }
    }
}

/// The log at `path`, opened to read and append, created if missing.
fn open_log(path: &Path) -> std::io::Result<File> {
    OpenOptions::new()
        .read(true)
        .append(true)
        .create(true)
        .open(path)
}

/// Reads the next record of a log of `size` bytes into `record` and returns
/// the address it is under, if it is whole and valid.
fn next_record(log: &mut impl Read, record: &mut Vec<u8>, size: u64) -> Option<u64> {
    record.resize(HEADER_LEN, 0);
    log.read_exact(record).ok()?;
    let len = envelope_len(record).filter(|&len| len <= size)?;
    record.resize(usize::try_from(len).ok()?, 0);
    log.read_exact(&mut record[HEADER_LEN..]).ok()?;
    Some(validate_envelope(record).ok()?.0)
}

/// A header-only envelope under `key`: the log's model record, or a use of
/// the result under that address.
fn header_only(key: u64) -> Vec<u8> {
    SnapshotWriter::new().seal(PrefixKey(key))
}

/// The sealed envelope `stats` is stored as under `key`, with its checksum.
fn seal_result(key: u64, stats: &SimStats) -> (Vec<u8>, u64) {
    let mut w = SnapshotWriter::new();
    stats.snapshot(&mut w);
    let sealed = w.seal(PrefixKey(key));
    let checksum = envelope_checksum(&sealed).unwrap_or(0);
    (sealed, checksum)
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

    /// The length of a header-only record: the model record, or a use.
    const HEADER: u64 = HEADER_LEN as u64;

    fn log_path(dir: &Path) -> PathBuf {
        dir.join("results.log")
    }

    fn log_len(dir: &Path) -> u64 {
        std::fs::metadata(log_path(dir)).map_or(0, |meta| meta.len())
    }

    /// The directory's file names, sorted.
    fn names(dir: &Path) -> Vec<String> {
        let mut out: Vec<String> = std::fs::read_dir(dir)
            .expect("readdir")
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        out.sort();
        out
    }

    /// The log's valid records as `(address, offset, length)`, up to the
    /// first invalid one: read from the file, not through a store.
    fn records(dir: &Path) -> Vec<(u64, u64, u64)> {
        let bytes = std::fs::read(log_path(dir)).unwrap_or_default();
        let mut out = Vec::new();
        let mut at = 0;
        while let Some(len) = bytes.get(at..).and_then(envelope_len) {
            let Some(record) = bytes.get(at..at.saturating_add(len as usize)) else {
                break;
            };
            let Ok(PrefixKey(addr)) = validate_envelope(record) else {
                break;
            };
            out.push((addr, at as u64, len));
            at += record.len();
        }
        out
    }

    /// The addresses of the store's recency order, least recently used
    /// first.
    fn lru(store: &ResultStore) -> Vec<u64> {
        store.lock().order.iter().map(|&(_, addr)| addr).collect()
    }

    /// The log is at most twice its live bytes plus one record, and the
    /// store's telemetry says how long it is.
    fn assert_compact(store: &ResultStore, dir: &Path, record: u64) {
        let t = store.stats();
        assert_eq!(t.log_bytes, log_len(dir));
        assert!(
            t.log_bytes <= 2 * t.live_bytes + record,
            "{} log bytes for {} live",
            t.log_bytes,
            t.live_bytes
        );
    }

    #[test]
    fn a_result_not_yet_on_disk_is_served_and_kept() {
        let dir = temp_dir("window");
        let store = ResultStore::with_dir(dir.clone(), None);
        let j = job(4);
        let addr = result_key(&j);
        let s = Arc::new(sample_stats(4));
        let expected = Some(seal_result(addr, &s).1);
        // The pool has memoised the result; the dispatcher has not written it.
        store.memo().insert(j.key(), Arc::clone(&s));
        let (early, early_checksum) = store.lookup(&j).expect("memo hit");
        assert!(Arc::ptr_eq(&early, &s));
        assert_eq!(Some(early_checksum), expected);
        assert_eq!(store.memo().stats().entries, 1, "not forgotten");
        assert_eq!(log_len(&dir), HEADER, "nothing to mark a use of yet");
        assert_eq!(Some(store.persist(&j, &s)), expected);
        let (late, late_checksum) = store.lookup(&j).expect("memo hit");
        assert!(Arc::ptr_eq(&late, &s));
        assert_eq!(Some(late_checksum), expected);
        let t = store.stats();
        assert_eq!((t.entries, t.hits, t.misses, t.disk_loads), (1, 2, 0, 0));
        // The model record, the result, then a header-only use of it.
        let kinds: Vec<(u64, u64)> = records(&dir).iter().map(|r| (r.0, r.2)).collect();
        let len = seal_result(addr, &s).0.len() as u64;
        assert_eq!(
            kinds,
            [(MODEL_FINGERPRINT, HEADER), (addr, len), (addr, HEADER)]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_in_memory_store_answers_from_its_memo() {
        let store = ResultStore::in_memory(None);
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
        assert_eq!((t.dir_scans, t.log_bytes, store.disk_entries()), (0, 0, 0));
    }

    #[test]
    fn hits_share_the_memo_allocation_and_disk_hits_are_promoted() {
        let dir = temp_dir("shared");
        let j = job(5);
        for store in [
            ResultStore::in_memory(None),
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
        // the checksum the record carries.
        let store = ResultStore::with_dir(dir.clone(), None);
        assert_eq!(store.get(7), Some((Arc::new(s), checksum)));
        assert_eq!(store.stats().disk_loads, 1);
        drop(store);

        // Flip the result's last payload byte: the open scan must stop
        // there, and cut off it and the use after it.
        let [(MODEL_FINGERPRINT, 0, HEADER), (7, at, len), (7, _, _)] = records(&dir)[..] else {
            panic!("the model, a result and a use: {:?}", records(&dir));
        };
        let mut bytes = std::fs::read(log_path(&dir)).expect("log");
        assert_eq!(envelope_checksum(&bytes[at as usize..]), Some(checksum));
        bytes[(at + len) as usize - 1] ^= 0xff;
        std::fs::write(log_path(&dir), &bytes).expect("rewrite");
        let store = ResultStore::with_dir(dir.clone(), None);
        assert_eq!(log_len(&dir), at, "truncated at the damaged record");
        assert_eq!(store.get(7), None);
        assert_eq!(log_len(&dir), at, "a miss writes nothing");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A kill in the middle of a write leaves the log cut anywhere inside
    /// its last record.
    #[test]
    fn a_write_cut_at_any_byte_loses_that_record_alone() {
        let dir = temp_dir("torn");
        let jobs: Vec<SimJob> = (0..3).map(job).collect();
        let stats: Vec<Arc<SimStats>> = (0..3).map(|k| Arc::new(sample_stats(k))).collect();
        let served = |k: usize| {
            Some((
                Arc::clone(&stats[k]),
                seal_result(result_key(&jobs[k]), &stats[k]).1,
            ))
        };
        let store = ResultStore::with_dir(dir.clone(), None);
        for (j, s) in jobs.iter().zip(&stats) {
            finish(&store, j, s);
        }
        drop(store);
        let whole = std::fs::read(log_path(&dir)).expect("log");
        let &(_, last, len) = records(&dir).last().expect("three records");
        for cut in last..last + len {
            std::fs::write(log_path(&dir), &whole[..cut as usize]).expect("cut");
            let store = ResultStore::with_dir(dir.clone(), None);
            assert_eq!(log_len(&dir), last, "cut at {cut}: the torn tail goes");
            assert_eq!(store.disk_entries(), 2, "cut at {cut}");
            for (k, j) in jobs.iter().enumerate() {
                let expected = if k < 2 { served(k) } else { None };
                assert_eq!(store.lookup(j), expected, "cut at {cut}: job {k}");
            }
        }
        // A persist after the truncation reads back after one more reopen.
        let store = ResultStore::with_dir(dir.clone(), None);
        finish(&store, &jobs[2], &stats[2]);
        drop(store);
        let store = ResultStore::with_dir(dir.clone(), None);
        for (k, j) in jobs.iter().enumerate() {
            assert_eq!(store.lookup(j), served(k), "job {k} after the reopen");
        }
        assert_eq!(store.stats().disk_loads, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cap_bounds_memory_and_disk_together() {
        let dir = temp_dir("cap");
        let store = ResultStore::with_dir(dir.clone(), Some(8));
        let jobs: Vec<SimJob> = (0..100).map(job).collect();
        let record = seal_result(0, &sample_stats(0)).0.len() as u64;
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
            assert_compact(&store, &dir, record);
        }
        let t = store.stats();
        assert_eq!((t.entries, store.disk_entries()), (8, 8));
        assert_eq!(store.memo().stats().entries, 8, "the memo is the memory");
        assert_eq!(store.lock().index.len(), 8, "one index entry a result");
        assert_eq!((t.dir_scans, t.disk_evictions), (1, 92));
        // The eight most recently used survive, in memory and on disk.
        let survivors = [93, 94, 95, 96, 97, 98, 99, 0];
        let addrs: Vec<u64> = survivors.iter().map(|&k| result_key(&jobs[k])).collect();
        assert_eq!(lru(&store), addrs);
        for k in survivors {
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
    fn a_cap_of_zero_keeps_the_newest_result() {
        let dir = temp_dir("cap0");
        let store = ResultStore::with_dir(dir.clone(), Some(0));
        for key in [1, 2] {
            store.insert(key, &sample_stats(key));
        }
        assert_eq!(lru(&store), [2]);
        assert_eq!((store.disk_entries(), store.stats().disk_evictions), (1, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_store_is_a_lock_and_one_log_of_sealed_envelopes() {
        let dir = temp_dir("names");
        let store = ResultStore::with_dir(dir.clone(), None);
        assert_eq!(names(&dir), ["lock", "results.log"], "open creates both");
        let mut expected = header_only(MODEL_FINGERPRINT);
        assert_eq!(std::fs::read(log_path(&dir)).ok().as_ref(), Some(&expected));
        let s = sample_stats(1);
        assert_eq!(store.get(0xAB), None);
        let checksum = store.insert(0xAB, &s);
        expected.extend(seal_result(0xAB, &s).0);
        assert_eq!(std::fs::read(log_path(&dir)).ok().as_ref(), Some(&expected));
        // A later process finds it; the load appends a use.
        drop(store);
        let reopened = ResultStore::with_dir(dir.clone(), None);
        assert_eq!(reopened.get(0xAB), Some((Arc::new(s), checksum)));
        expected.extend(header_only(0xAB));
        assert_eq!(std::fs::read(log_path(&dir)).ok(), Some(expected));
        assert_eq!(lru(&reopened), [0xAB]);
        assert_eq!(names(&dir), ["lock", "results.log"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_second_handle_on_a_held_directory_serves_from_memory() {
        let dir = temp_dir("held");
        let jobs: Vec<SimJob> = (0..2).map(job).collect();
        let stats: Vec<Arc<SimStats>> = (0..2).map(|k| Arc::new(sample_stats(k))).collect();
        let first = ResultStore::with_dir(dir.clone(), None);
        let stored = finish(&first, &jobs[0], &stats[0]);
        let log = std::fs::read(log_path(&dir)).expect("log");
        let second = ResultStore::with_dir(dir.clone(), None);
        let checksum = finish(&second, &jobs[1], &stats[1]);
        let (hit, hit_checksum) = second.lookup(&jobs[1]).expect("memo hit");
        assert!(Arc::ptr_eq(&hit, &stats[1]));
        assert_eq!(hit_checksum, checksum);
        assert_eq!(second.lookup(&jobs[0]), None, "the first handle's disk");
        let t = second.stats();
        assert_eq!((second.disk_entries(), t.log_bytes, t.dir_scans), (0, 0, 0));
        assert_eq!(std::fs::read(log_path(&dir)).ok(), Some(log));
        // Once the first is dropped, the next handle opened sees the disk.
        drop(first);
        let third = ResultStore::with_dir(dir.clone(), None);
        assert_eq!(
            third.lookup(&jobs[0]),
            Some((Arc::clone(&stats[0]), stored))
        );
        assert_eq!(third.lookup(&jobs[1]), None, "the second kept nothing");
        let t = third.stats();
        assert_eq!((third.disk_entries(), t.disk_loads, t.dir_scans), (1, 1, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cap_evicts_least_recently_used() {
        let dir = temp_dir("lru");
        let store = ResultStore::with_dir(dir.clone(), Some(2));
        let jobs: Vec<SimJob> = (0..7).map(job).collect();
        let addr = |k: usize| result_key(&jobs[k]);
        let run = |store: &ResultStore, k: usize| {
            finish(store, &jobs[k], &Arc::new(sample_stats(k as u64)))
        };
        for k in [1, 2, 3] {
            run(&store, k);
        }
        // Cap 2: storing result 3 evicted result 1, from disk and memo.
        assert_eq!(lru(&store), [addr(2), addr(3)]);
        assert!(store.memo().lookup(&jobs[1].key()).is_none());
        // A load refreshes recency: result 2 survives the next store and
        // the now-least-recently-used result 3 goes instead.
        assert!(store.get(addr(2)).is_some());
        run(&store, 4);
        assert_eq!(lru(&store), [addr(2), addr(4)]);
        // So does a memo hit.
        assert!(store.lookup(&jobs[2]).is_some());
        run(&store, 5);
        assert_eq!(lru(&store), [addr(2), addr(5)]);
        // Recency is the log's record order, so it survives a reopen, which
        // evicts again what the live store evicted.
        let live = lru(&store);
        drop(store);
        let reopened = ResultStore::with_dir(dir.clone(), Some(2));
        assert_eq!(lru(&reopened), live);
        assert_eq!(reopened.get(addr(1)), None);
        run(&reopened, 6);
        assert_eq!(lru(&reopened), [addr(5), addr(6)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_record_damaged_after_open_is_refused_and_forgotten() {
        let dir = temp_dir("corrupt");
        let store = ResultStore::with_dir(dir.clone(), None);
        // Damaged after open, so the scan cannot have caught it.
        store.insert(3, &sample_stats(3));
        let [_, (3, at, len)] = records(&dir)[..] else {
            panic!("the model and one record: {:?}", records(&dir));
        };
        let file = OpenOptions::new()
            .write(true)
            .open(log_path(&dir))
            .expect("log");
        file.write_all_at(&[0xFF], at + len - 1).expect("damage");
        assert_eq!(store.get(3), None);
        assert_eq!(store.disk_entries(), 0);
        assert!(store.lock().index.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A store that serves from memory, for each way of getting one: no
    /// directory, a directory another handle holds, and one that cannot be
    /// created (below a regular file: `ENOTDIR`, for root too). It writes
    /// nothing and keeps its cap.
    #[test]
    fn the_cap_binds_a_store_that_serves_from_memory() {
        let held = temp_dir("held-cap");
        let holder = ResultStore::with_dir(held.clone(), None);
        let blocker = temp_dir("blocked-cap");
        std::fs::write(&blocker, b"a file, not a directory").expect("blocker");
        let jobs: Vec<SimJob> = (0..3).map(job).collect();
        for store in [
            ResultStore::in_memory(Some(1)),
            ResultStore::with_dir(held.clone(), Some(1)),
            ResultStore::with_dir(blocker.join("store"), Some(1)),
        ] {
            for (k, j) in jobs.iter().enumerate() {
                finish(&store, j, &Arc::new(sample_stats(k as u64)));
            }
            assert_eq!(store.lookup(&jobs[0]), None, "evicted");
            let (hit, _) = store.lookup(&jobs[2]).expect("the newest is held");
            assert_eq!(*hit, sample_stats(2));
            let t = store.stats();
            assert_eq!((t.entries, t.disk_evictions), (1, 2));
            assert_eq!((t.log_bytes, t.dir_scans), (0, 0));
            assert_eq!(lru(&store), [result_key(&jobs[2])]);
            assert_eq!(store.disk_entries(), 0);
        }
        assert_eq!(log_len(&held), HEADER, "the holder's log is untouched");
        drop(holder);
        let _ = std::fs::remove_dir_all(&held);
        let _ = std::fs::remove_file(&blocker);
    }

    #[test]
    fn looking_up_an_evicted_result_writes_nothing() {
        let dir = temp_dir("orphan");
        let store = ResultStore::with_dir(dir.clone(), Some(2));
        let jobs: Vec<SimJob> = (1..=3).map(job).collect();
        for (k, j) in jobs.iter().enumerate() {
            finish(&store, j, &Arc::new(sample_stats(k as u64)));
        }
        // The first result was evicted; a client that still remembers it
        // asks again.
        let before = std::fs::read(log_path(&dir)).expect("log");
        assert_eq!(store.lookup(&jobs[0]), None);
        assert_eq!(std::fs::read(log_path(&dir)).ok(), Some(before));
        let t = store.stats();
        assert_eq!(
            (store.disk_entries(), t.disk_evictions, t.dir_scans),
            (2, 1, 1)
        );
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
        // The log another model wrote: its model record, then its result
        // for the same job, under its own key.
        let older = !MODEL_FINGERPRINT;
        let mut log = header_only(older);
        log.extend(seal_result(address(older, &job.key()), &sample_stats(1)).0);
        std::fs::create_dir_all(&dir).expect("store dir");
        std::fs::write(log_path(&dir), log).expect("older log");

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
        assert_eq!(
            count("store", "disk_entries"),
            Some(1),
            "the old log is cut"
        );
        daemon.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Differential test of the store against an LRU list, and of its
    /// index against the log it caches.
    ///
    /// The oracles are a list of results kept here, least recently used
    /// first, and the log's own record order, read from the file. Random
    /// sequences of the store's own operations (persist, disk-layer get,
    /// daemon lookup) and reopens run at caps `None`, 1, 3 and 8, on a
    /// directory and, with no log to check, from memory. After every step
    /// the store's order must be the list, so eviction took exactly the
    /// least recently used results; the last record naming each
    /// result must sort as the list does, so a reopen keeps the same set in
    /// the same order (checked at every reopen, exactly); the log must stay
    /// within twice its live bytes plus one record; the open scan must be
    /// the only one; and the memo must hold exactly the results the index
    /// keeps a memo key for.
    mod differential {
        use super::*;
        use proptest::prelude::*;

        const CAPS: [Option<usize>; 4] = [None, Some(1), Some(3), Some(8)];
        const JOBS: u64 = 12;

        #[derive(Clone, Copy, Debug)]
        enum Op {
            /// The daemon's pool ran job `k`; the dispatcher persists it.
            Persist(u64),
            /// The disk layer loads job `k`'s result.
            Get(u64),
            /// The daemon looks job `k` up: a memo hit or a disk load.
            Lookup(u64),
            /// The store is dropped, and the directory opened again.
            Reopen,
        }

        /// The store's own operations only, then with reopens.
        fn own_op() -> impl Strategy<Value = Op> {
            (0u8..10, 0..JOBS).prop_map(|(kind, k)| match kind {
                0..=4 => Op::Persist(k),
                5..=6 => Op::Get(k),
                _ => Op::Lookup(k),
            })
        }

        fn any_op() -> impl Strategy<Value = Op> {
            prop_oneof![own_op(), own_op(), own_op(), Just(Op::Reopen)]
        }

        /// What job `k` is stored as, and the checksum it carries.
        fn sealed(k: u64) -> (Vec<u8>, u64) {
            seal_result(result_key(&job(k)), &sample_stats(k))
        }

        /// The addresses whose results the store holds, ordered by the last
        /// record naming each in the log.
        fn log_order(dir: &Path, held: &[u64]) -> Vec<u64> {
            let mut last = BTreeMap::new();
            for (addr, at, _) in records(dir) {
                last.insert(addr, at);
            }
            let mut order: Vec<(Option<u64>, u64)> =
                held.iter().map(|a| (last.get(a).copied(), *a)).collect();
            order.sort_unstable();
            order.into_iter().map(|(_, a)| a).collect()
        }

        /// The memo holds a result exactly when the index keeps its memo
        /// key.
        fn memo_matches_index(store: &ResultStore) -> Result<(), String> {
            let keys: Vec<JobKey> = store
                .lock()
                .index
                .values()
                .filter_map(|e| e.result.as_ref().map(|(key, _)| key.clone()))
                .collect();
            prop_assert_eq!(store.memo().stats().entries, keys.len(), "memo entries");
            for key in &keys {
                prop_assert!(store.memo().held_key(key).is_some(), "memo lost {key:?}");
            }
            Ok(())
        }

        /// Runs `ops` on a store at `cap`, with a directory or, if not
        /// `on_disk`, serving from memory, where a reopen starts empty and
        /// the disk layer always misses.
        fn run(tag: &str, cap: Option<usize>, on_disk: bool, ops: &[Op]) -> Result<(), String> {
            let dir = temp_dir(&format!("prop-{tag}-{cap:?}"));
            let open = || match on_disk {
                true => ResultStore::with_dir(dir.clone(), cap),
                false => ResultStore::in_memory(cap),
            };
            let jobs: Vec<SimJob> = (0..JOBS).map(job).collect();
            let addr = |k: u64| result_key(&jobs[k as usize]);
            let served = |k: u64| Some((Arc::new(sample_stats(k)), sealed(k).1));
            let record = (0..JOBS)
                .map(|k| sealed(k).0.len() as u64)
                .max()
                .unwrap_or(0);
            let mut store = open();
            // The oracle: job numbers, least recently used first.
            let mut oracle: Vec<u64> = Vec::new();
            let use_of = |oracle: &mut Vec<u64>, k: u64| {
                oracle.retain(|&x| x != k);
                oracle.push(k);
                let excess = oracle
                    .len()
                    .saturating_sub(cap.unwrap_or(usize::MAX).max(1));
                oracle.drain(..excess);
            };
            for (step, &op) in ops.iter().enumerate() {
                let held = oracle.contains(&match op {
                    Op::Persist(k) | Op::Get(k) | Op::Lookup(k) => k,
                    Op::Reopen => JOBS,
                });
                match op {
                    Op::Persist(k) => {
                        let checksum =
                            finish(&store, &jobs[k as usize], &Arc::new(sample_stats(k)));
                        prop_assert_eq!(checksum, sealed(k).1, "step {step} {op:?}");
                        use_of(&mut oracle, k);
                    }
                    Op::Get(k) => {
                        let found = held && on_disk;
                        let expected = if found { served(k) } else { None };
                        prop_assert_eq!(store.get(addr(k)), expected, "step {step} {op:?}");
                        if found {
                            use_of(&mut oracle, k);
                        }
                    }
                    Op::Lookup(k) => {
                        let expected = if held { served(k) } else { None };
                        prop_assert_eq!(
                            store.lookup(&jobs[k as usize]),
                            expected,
                            "step {step} {op:?}"
                        );
                        if held {
                            use_of(&mut oracle, k);
                        }
                    }
                    Op::Reopen => {
                        let live = lru(&store);
                        drop(store);
                        store = open();
                        if on_disk {
                            prop_assert_eq!(lru(&store), live, "step {step}: reopened order");
                        } else {
                            oracle.clear();
                        }
                    }
                }
                let expected: Vec<u64> = oracle.iter().map(|&k| addr(k)).collect();
                prop_assert_eq!(lru(&store), expected.clone(), "step {step} {op:?}: order");
                memo_matches_index(&store).map_err(|e| format!("step {step} {op:?}: {e}"))?;
                let t = store.stats();
                if !on_disk {
                    let disk = (t.log_bytes, t.live_bytes, t.dir_scans);
                    prop_assert_eq!(disk, (0, 0, 0), "step {step} {op:?}: {t:?}");
                    continue;
                }
                prop_assert_eq!(
                    log_order(&dir, &expected),
                    expected,
                    "step {step} {op:?}: log"
                );
                prop_assert_eq!(t.log_bytes, log_len(&dir), "step {step} {op:?}: log bytes");
                let live: u64 = oracle.iter().map(|&k| sealed(k).0.len() as u64).sum();
                prop_assert_eq!(t.live_bytes, live, "step {step} {op:?}: live bytes");
                prop_assert!(
                    t.log_bytes <= 2 * live + record,
                    "step {step} {op:?}: {t:?}"
                );
                prop_assert_eq!(t.dir_scans, 1, "step {step} {op:?}: scanned again");
            }
            // A later process reads back exactly what this one knew.
            if on_disk {
                let live = lru(&store);
                drop(store);
                prop_assert_eq!(lru(&open()), live, "final reopen");
            }
            let _ = std::fs::remove_dir_all(&dir);
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// On a log nobody else writes, the store is the LRU list after
            /// every operation, and the scan opening made stays the only
            /// one.
            #[test]
            fn own_operations_keep_the_lru_order_in_the_log(
                ops in collection::vec(own_op(), 1..80),
            ) {
                for cap in CAPS {
                    run("own", cap, true, &ops)?;
                }
            }

            /// With reopens between them, the store is still the LRU list.
            #[test]
            fn reopens_keep_the_lru_order_in_the_log(
                ops in collection::vec(any_op(), 1..80),
            ) {
                for cap in CAPS {
                    run("reopen", cap, true, &ops)?;
                }
            }

            /// A store that serves from memory is the LRU list too, at
            /// every cap.
            #[test]
            fn a_store_in_memory_keeps_the_lru_order(
                ops in collection::vec(any_op(), 1..80),
            ) {
                for cap in CAPS {
                    run("memory", cap, false, &ops)?;
                }
            }
        }
    }
}
