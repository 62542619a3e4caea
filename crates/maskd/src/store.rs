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
//! memory or, across daemon restarts, from disk. A result is held once,
//! behind an `Arc` the memo and the daemon's job registry share: a hit
//! hands out a reference, not a copy.
//!
//! # On disk
//!
//! One directory (`MASKD_STORE_DIR`) of `<result_key>.msnp` files (16 hex
//! digits), each a result's `SimStats` in a sealed MSNP envelope
//! ([`mask_common::snapshot`]: magic, codec version, key echo, length,
//! FNV-1a checksum) whose modification time carries its recency. The store
//! is a pure accelerator, so every file operation is best-effort — an I/O
//! failure costs a re-simulation, never a wrong answer:
//!
//! * writes go to `<key>.msnp.<pid>.tmp` and are atomically renamed in, so
//!   concurrent processes never observe a torn file;
//! * every use stamps the file's modification time with a sequence number
//!   above every one the store knows, as whole seconds since `UNIX_EPOCH`
//!   (so filesystems that keep 1-second timestamps keep it). The numbers
//!   are read from the directory once, at [`ResultStore::with_dir`], and
//!   written back on every use, so recency survives restarts: a reopened
//!   store holds exactly the live one's index. A copy that resets
//!   modification times (`cp` without `-p`) collapses recency to file-stem
//!   order — a worse eviction order, never a wrong result;
//! * `MASKD_STORE_CAP` evicts least-recently-used results (sequence number,
//!   then file stem, so the order is fully deterministic), never below one,
//!   from disk and memo at once;
//! * a file that fails validation is deleted, never trusted: at open by a
//!   sweep of the whole directory, which also deletes envelopes under
//!   another key's name and the temp files of interrupted writes, and at a
//!   load for the one file asked for.
//!
//! # One index
//!
//! The open sweep is the only directory listing. It leaves the index that
//! every later operation keeps: by result address, what this handle knows —
//! the sequence number of its file and, once it has sealed or loaded the
//! result, the key of its memo entry and the checksum of its envelope —
//! beside the `(sequence, address)` order. Each operation therefore opens
//! the one file it names, once: a memo hit opens the file and sets its
//! modification time (and reports the checksum without re-encoding), a load
//! reads and validates it through the same handle first, a write writes and
//! stamps a temp file, renames it in (the rename keeps the stamp) and
//! removes exactly the victims the order names, with their memo entries.
//! `store.dir_scans` counts the listings so that tests can hold it to 1.
//!
//! The directory stays the truth and the index a cache of it, because other
//! writers exist: a second process on the same directory, a directory
//! filled by one handle and served by another. A result address the index
//! does not hold is still looked for on disk and adopted at the sequence
//! number its modification time carries (a plain write's wall-clock time
//! included); one whose file is gone or fails validation leaves the index
//! when that is found, and a result whose file has vanished answers once
//! more from memory and is then forgotten; evicting a file someone already
//! removed is not an error. What the index cannot see is what it was never
//! asked about, so between two handles on one directory the cap bounds the
//! entries *each handle has seen* (the next open sees them all), and two
//! handles may issue equal sequence numbers — the file stem breaks the tie.

use mask_common::snapshot::{
    envelope_checksum, validate_envelope, Fnv1a, PrefixKey, Snapshot, SnapshotReader,
    SnapshotWriter,
};
use mask_common::stats::SimStats;
use mask_common::MODEL_FINGERPRINT;
use mask_core::engine::JobKey;
use mask_core::{ResultMemo, SimJob};
use std::collections::{BTreeMap, BTreeSet};
use std::fs::File;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
#[expect(clippy::disallowed_types, reason = "parallelism island")]
use std::sync::Mutex;
use std::time::{Duration, UNIX_EPOCH};

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
    /// Times the store listed its directory: 1, at open (0 for an
    /// in-memory store).
    pub dir_scans: u64,
    /// Results `MASKD_STORE_CAP` evicted from disk (and memory) this process.
    pub disk_evictions: u64,
}

/// What the store knows of one result address.
#[derive(Default)]
struct Entry {
    /// The sequence number its file's modification time carries; `None`
    /// while no file of it is known (an in-memory store, a failed write).
    seq: Option<u64>,
    /// Once this store sealed or loaded the result: the key its memo entry
    /// sits under and the checksum of its envelope.
    result: Option<(JobKey, u64)>,
}

/// Everything behind the store's one lock, the index of its directory
/// included: results are a few kilobytes, so a file operation under the
/// lock costs less than a second lock would.
#[derive(Default)]
struct Inner {
    /// The store directory; `None` for an in-memory store.
    dir: Option<PathBuf>,
    /// Most results kept, on disk and in memory; `None` = unbounded.
    /// Enforced after every write, never below one.
    cap: Option<usize>,
    /// Every result address the store knows of.
    index: BTreeMap<u64, Entry>,
    /// `(sequence number, address)` of every file in the index, least
    /// recently used first: the order eviction takes them in.
    order: BTreeSet<(u64, u64)>,
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
    /// most `cap` results on disk and in memory (LRU). Construction lists
    /// the directory, the one time the store does: envelopes that fail
    /// validation (truncated writes, stale codec versions, checksum damage)
    /// or sit under another key's name and the temp files of interrupted
    /// writes are deleted; what survives is the index.
    #[must_use]
    pub fn with_dir(dir: PathBuf, cap: Option<usize>) -> Self {
        let store = Self::in_memory();
        store.lock().open(dir, cap);
        store
    }

    /// The memo holding this store's results in memory, for the daemon's
    /// pool to consult and fill.
    #[must_use]
    pub fn memo(&self) -> &Arc<ResultMemo> {
        &self.memo
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A poisoned store mutex means a panic mid-bookkeeping; the index
        // itself is always structurally valid, so keep serving.
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Looks up `job`'s result and the checksum of its sealed envelope: in
    /// the memo first, then on disk. A disk hit is promoted into the memo;
    /// either kind of hit re-stamps the file as most recently used. The
    /// result is the one the memo holds, shared, not a copy.
    #[must_use]
    pub fn lookup(&self, job: &SimJob) -> Option<(Arc<SimStats>, u64)> {
        let key = job.key();
        let addr = address(MODEL_FINGERPRINT, &key);
        let remembered = self.memo.lookup(&key);
        let mut inner = self.lock();
        let Some(stats) = remembered else {
            let found = inner.load(addr)?;
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
        // Memory holds nothing the disk has lost: a result whose file
        // someone removed answers this once more and is then forgotten.
        if !inner.touch(addr) {
            inner.index.remove(&addr);
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
        let mut inner = self.lock();
        inner.inserts += 1;
        if let Some(key) = key {
            inner.index.entry(addr).or_default().result = Some((key, checksum));
        }
        inner.save(addr, &sealed, &self.memo);
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
        }
    }

    /// Results currently on disk (0 for in-memory stores).
    #[must_use]
    pub fn disk_entries(&self) -> usize {
        self.lock().order.len()
    }
}

impl Inner {
    /// Makes this an on-disk store at `dir` (created if missing) and runs
    /// the hygiene sweep, the store's one directory listing.
    fn open(&mut self, dir: PathBuf, cap: Option<usize>) {
        let _ = std::fs::create_dir_all(&dir);
        self.dir_scans += 1;
        self.cap = cap;
        for entry in std::fs::read_dir(&dir).into_iter().flatten().flatten() {
            let path = entry.path();
            let ext = path.extension().map(|e| e.to_string_lossy().into_owned());
            match ext.as_deref() {
                Some("msnp") => {
                    // Kept only under the one name a load would look for.
                    let kept = read_stamped(&path).and_then(|(bytes, seq)| {
                        let addr = validate_envelope(&bytes).ok()?.0;
                        (path == envelope_path(&dir, addr)).then_some((addr, seq))
                    });
                    match kept {
                        Some((addr, seq)) => self.place(addr, seq),
                        None => {
                            let _ = std::fs::remove_file(&path);
                        }
                    }
                }
                // An interrupted write.
                Some("tmp") => {
                    let _ = std::fs::remove_file(&path);
                }
                _ => {}
            }
        }
        self.dir = Some(dir);
    }

    /// Loads and decodes the result filed under `addr`, counting a hit or
    /// a miss.
    fn load(&mut self, addr: u64) -> Option<(Arc<SimStats>, u64)> {
        let loaded = self.read(addr);
        match loaded {
            Some(_) => {
                self.hits += 1;
                self.disk_loads += 1;
            }
            None => self.misses += 1,
        }
        loaded
    }

    /// The result filed under `addr`, if its file passes keyed envelope
    /// validation (magic, version, key, length, checksum), re-stamped as
    /// most recently used. An invalid file is deleted, and a missing or
    /// invalid one leaves the index. A sound envelope whose payload is not
    /// a `SimStats` is a miss; the re-simulated result's write then
    /// replaces the file.
    fn read(&mut self, addr: u64) -> Option<(Arc<SimStats>, u64)> {
        let path = self.path(addr)?;
        let Ok(mut file) = File::open(&path) else {
            self.unfile(addr);
            return None;
        };
        let mut bytes = Vec::new();
        let envelope = match file.read_to_end(&mut bytes) {
            Ok(_) => SnapshotReader::open_keyed(&bytes, PrefixKey(addr)).ok(),
            Err(_) => None,
        };
        let Some(mut reader) = envelope else {
            let _ = std::fs::remove_file(&path);
            self.unfile(addr);
            return None;
        };
        self.stamp(addr, &file);
        let stats = SimStats::decode(&mut reader).ok()?;
        reader.finish().ok()?;
        Some((Arc::new(stats), envelope_checksum(&bytes)?))
    }

    /// Re-stamps the file of `addr` as most recently used, if it is there
    /// (`true`, as for an in-memory store); one that is not leaves the
    /// index's order.
    fn touch(&mut self, addr: u64) -> bool {
        let Some(path) = self.path(addr) else {
            return true;
        };
        match File::open(path) {
            Ok(file) => {
                self.stamp(addr, &file);
                true
            }
            Err(_) => {
                self.unfile(addr);
                false
            }
        }
    }

    /// Files `sealed` under `addr` as the most recently used entry, then
    /// evicts down to the cap; only a completed rename enters the order.
    fn save(&mut self, addr: u64, sealed: &[u8], memo: &ResultMemo) {
        let Some(path) = self.path(addr) else {
            return;
        };
        let seq = self.newest().saturating_add(1);
        if !write_stamped(&path, sealed, seq) {
            return;
        }
        self.place(addr, seq);
        let Some(cap) = self.cap else {
            return;
        };
        while self.order.len() > cap.max(1) {
            let Some((_, victim)) = self.order.pop_first() else {
                break;
            };
            if let Some(Entry {
                result: Some((key, _)),
                ..
            }) = self.index.remove(&victim)
            {
                memo.remove(&key);
            }
            if let Some(path) = self.path(victim) {
                let _ = std::fs::remove_file(path);
            }
            self.evictions += 1;
        }
    }

    /// Stamps the file of `addr`, open as `file`, one above the newest
    /// sequence number the store knows.
    fn stamp(&mut self, addr: u64, file: &File) {
        // A file another writer put there is adopted where its own
        // modification time places it.
        let seen = match self.index.get(&addr).and_then(|e| e.seq) {
            Some(seq) => seq,
            None => seq_of(file),
        };
        let next = self.newest().max(seen).saturating_add(1);
        let stamped = set_seq(file, next).is_ok();
        self.place(addr, if stamped { next } else { seen });
    }

    fn place(&mut self, addr: u64, seq: u64) {
        if let Some(old) = self.index.entry(addr).or_default().seq.replace(seq) {
            self.order.remove(&(old, addr));
        }
        self.order.insert((seq, addr));
    }

    /// The file of `addr` is gone: it leaves the order, and the index too
    /// unless the memo holds its result.
    fn unfile(&mut self, addr: u64) {
        let Some(entry) = self.index.get_mut(&addr) else {
            return;
        };
        if let Some(old) = entry.seq.take() {
            self.order.remove(&(old, addr));
        }
        if entry.result.is_none() {
            self.index.remove(&addr);
        }
    }

    fn newest(&self) -> u64 {
        self.order.last().map_or(0, |&(seq, _)| seq)
    }

    fn path(&self, addr: u64) -> Option<PathBuf> {
        Some(envelope_path(self.dir.as_deref()?, addr))
    }
}

/// Where the result filed under `addr` lives in `dir`.
fn envelope_path(dir: &Path, addr: u64) -> PathBuf {
    dir.join(format!("{addr:016x}.msnp"))
}

/// Writes `sealed` to `path` stamped with `seq`, via a process-unique temp
/// file and rename; `false`, with nothing left behind, when any step fails.
fn write_stamped(path: &Path, sealed: &[u8], seq: u64) -> bool {
    let tmp = path.with_extension(format!("msnp.{}.tmp", std::process::id()));
    let done = File::create(&tmp)
        .and_then(|mut file| {
            file.write_all(sealed)?;
            set_seq(&file, seq)
        })
        .is_ok()
        && std::fs::rename(&tmp, path).is_ok();
    if !done {
        let _ = std::fs::remove_file(&tmp);
    }
    done
}

/// The bytes of the file at `path` and the sequence number its
/// modification time carries, through one open.
fn read_stamped(path: &Path) -> Option<(Vec<u8>, u64)> {
    let mut file = File::open(path).ok()?;
    let seq = seq_of(&file);
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes).ok()?;
    Some((bytes, seq))
}

/// The sequence number `file`'s modification time carries: whole seconds
/// since `UNIX_EPOCH`, 0 when unreadable or earlier.
fn seq_of(file: &File) -> u64 {
    file.metadata()
        .and_then(|meta| meta.modified())
        .ok()
        .and_then(|time| time.duration_since(UNIX_EPOCH).ok())
        .map_or(0, |age| age.as_secs())
}

/// Sets `file`'s modification time to `seq` seconds after `UNIX_EPOCH`.
fn set_seq(file: &File, seq: u64) -> std::io::Result<()> {
    let time = UNIX_EPOCH
        .checked_add(Duration::from_secs(seq))
        .ok_or_else(|| std::io::Error::other("sequence number past the clock's range"))?;
    file.set_modified(time)
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

    /// The sequence number the file at `path` carries.
    fn mtime(path: &Path) -> u64 {
        seq_of(&File::open(path).expect("envelope"))
    }

    /// The store's order: `(sequence number, address)`, least recently
    /// used first.
    fn recency(store: &ResultStore) -> Vec<(u64, u64)> {
        store.lock().order.iter().copied().collect()
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
        std::fs::remove_file(envelope_path(&dir, result_key(&j))).expect("stored file");
        assert!(store.lookup(&j).is_some());
        assert_eq!(store.lookup(&j), None);
        let t = store.stats();
        assert_eq!((t.entries, t.hits, t.misses, t.disk_loads), (0, 3, 1, 0));
        assert!(store.lock().index.is_empty(), "the index forgot it too");
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
        assert_eq!((t.dir_scans, store.disk_entries()), (0, 0));
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
        let path = envelope_path(&dir, 7);
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
        assert_eq!(store.lock().index.len(), 8, "one index entry a result");
        assert_eq!((t.dir_scans, t.disk_evictions), (1, 92));
        // The eight most recently used survive, in memory and on disk.
        for k in [0, 93, 94, 95, 96, 97, 98, 99] {
            assert!(envelope_path(&dir, result_key(&jobs[k])).exists());
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
        assert_eq!(names(&dir), ["0000000000000002.msnp"]);
        assert_eq!((store.disk_entries(), store.stats().disk_evictions), (1, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn round_trip_uses_the_documented_file_names() {
        let dir = temp_dir("names");
        let store = ResultStore::with_dir(dir.clone(), None);
        assert!(dir.is_dir(), "open creates the directory");
        let s = sample_stats(1);
        assert_eq!(store.get(0xAB), None);
        let checksum = store.insert(0xAB, &s);
        let path = dir.join("00000000000000ab.msnp");
        assert_eq!(names(&dir), ["00000000000000ab.msnp"], "one file a result");
        assert_eq!(mtime(&path), 1, "stamped 1 s after the epoch");
        assert_eq!(std::fs::read(&path).ok(), Some(seal_result(0xAB, &s).0));
        // A later process finds it; the load re-stamps it.
        let reopened = ResultStore::with_dir(dir.clone(), None);
        assert_eq!(reopened.get(0xAB), Some((Arc::new(s), checksum)));
        assert_eq!(mtime(&path), 2);
        assert_eq!(reopened.disk_entries(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cap_evicts_least_recently_used() {
        let dir = temp_dir("lru");
        let store = ResultStore::with_dir(dir.clone(), Some(2));
        let jobs: Vec<SimJob> = (0..7).map(job).collect();
        let file = |k: usize| envelope_path(&dir, result_key(&jobs[k]));
        let run = |k: usize| finish(&store, &jobs[k], &Arc::new(sample_stats(k as u64)));
        for k in [1, 2, 3] {
            run(k);
        }
        // Cap 2: storing result 3 evicted result 1, from disk and memo.
        assert_eq!(store.disk_entries(), 2);
        assert!(!file(1).exists());
        assert!(file(2).exists() && file(3).exists());
        assert!(store.memo().lookup(&jobs[1].key()).is_none());
        // A load refreshes recency: result 2 survives the next store and
        // the now-least-recently-used result 3 goes instead.
        assert!(store.get(result_key(&jobs[2])).is_some());
        run(4);
        assert!(file(2).exists() && !file(3).exists() && file(4).exists());
        // So does a memo hit.
        assert!(store.lookup(&jobs[2]).is_some());
        run(5);
        assert!(file(2).exists() && !file(4).exists() && file(5).exists());
        // Recency is read from the directory, so it survives a reopen.
        let reopened = ResultStore::with_dir(dir.clone(), Some(2));
        assert_eq!(reopened.get(result_key(&jobs[1])), None);
        let _ = finish(&reopened, &jobs[6], &Arc::new(sample_stats(6)));
        assert!(!file(2).exists() && file(5).exists() && file(6).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_sweeps_invalid_and_temporary_files() {
        let dir = temp_dir("sweep");
        std::fs::create_dir_all(&dir).expect("store dir");
        let valid = envelope_path(&dir, 7);
        std::fs::write(&valid, seal_result(7, &sample_stats(7)).0).expect("valid envelope");
        std::fs::write(dir.join("stale.msnp"), b"not an envelope").expect("stale file");
        // A sound envelope under another key's name.
        std::fs::write(envelope_path(&dir, 8), seal_result(7, &sample_stats(7)).0)
            .expect("misfiled envelope");
        std::fs::write(dir.join("dead.msnp.123.tmp"), b"partial").expect("temp file");
        let store = ResultStore::with_dir(dir.clone(), None);
        assert_eq!(
            names(&dir),
            ["0000000000000007.msnp"],
            "only the valid envelope survives"
        );
        assert_eq!(store.disk_entries(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_entry_another_writer_left_is_adopted_at_its_wall_clock_time() {
        let dir = temp_dir("adopt");
        let store = ResultStore::with_dir(dir.clone(), None);
        let [mine, theirs, next] = [1u64, 2, 3];
        store.insert(mine, &sample_stats(mine));
        // A plain write: its modification time is the wall clock's.
        let path = envelope_path(&dir, theirs);
        std::fs::write(&path, seal_result(theirs, &sample_stats(theirs)).0)
            .expect("foreign envelope");
        let wall = mtime(&path);
        assert!(wall > 1, "a wall-clock time is far past any count of uses");
        // A reopen adopts it at that value ...
        let reopened = ResultStore::with_dir(dir.clone(), None);
        assert_eq!(recency(&reopened), [(1, mine), (wall, theirs)]);
        // ... and so does the live handle's load, which stamps above it.
        assert!(store.get(theirs).is_some());
        assert_eq!(mtime(&path), wall + 1);
        store.insert(next, &sample_stats(next));
        assert_eq!(
            recency(&store),
            [(1, mine), (wall + 1, theirs), (wall + 2, next)]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_deletes_an_envelope_that_fails_keyed_validation() {
        let dir = temp_dir("corrupt");
        let store = ResultStore::with_dir(dir.clone(), None);
        // Damaged after open, so the sweep cannot have caught it.
        store.insert(3, &sample_stats(3));
        let path = envelope_path(&dir, 3);
        let mut bytes = std::fs::read(&path).expect("stored file");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).expect("rewrite");
        assert_eq!(store.get(3), None);
        // A sound envelope under another key's name passes the unkeyed
        // sweep and must still be refused.
        std::fs::write(envelope_path(&dir, 4), seal_result(3, &sample_stats(3)).0)
            .expect("misfiled");
        assert_eq!(store.get(4), None);
        assert!(names(&dir).is_empty(), "both files are gone");
        assert_eq!(store.disk_entries(), 0);
        assert!(store.lock().index.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_rename_leaves_no_temp_file_and_no_entry() {
        let dir = temp_dir("rename");
        let store = ResultStore::with_dir(dir.clone(), Some(1));
        // A directory in the file's place makes the rename fail.
        std::fs::create_dir(envelope_path(&dir, 9)).expect("blocker");
        store.insert(9, &sample_stats(9));
        assert_eq!(names(&dir), ["0000000000000009.msnp"]);
        assert_eq!(store.disk_entries(), 0);
        assert!(store.lock().index.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
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
        assert_eq!(store.lookup(&jobs[0]), None);
        let mut expected: Vec<String> = jobs[1..]
            .iter()
            .map(|j| format!("{:016x}.msnp", result_key(j)))
            .collect();
        expected.sort();
        assert_eq!(names(&dir), expected);
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

    /// Differential test of the store's index against the directory it
    /// caches.
    ///
    /// The oracle is the listing every operation would otherwise make —
    /// `read_dir`, read every file's modification time, sort by `(sequence
    /// number, file stem)` — kept here and nowhere else. Random sequences
    /// of the store's own operations (persist, disk-layer get, daemon
    /// lookup), reopens and a *foreign* writer's (plant a valid envelope,
    /// delete one, corrupt one) run at caps `None`, 1, 3 and 8; after every
    /// step the order must say what the listing says about every result the
    /// store has been asked about since anyone else changed it, a capped
    /// persist must remove the files the listing would have picked, the
    /// memo must hold exactly the results the index keeps a memo key for, a
    /// reopened store must hold the live one's order, and no handle may
    /// have listed the directory more than the once opening does.
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
            /// The daemon looks job `k` up: a memo hit re-stamps the file
            /// without reading it, a miss loads it.
            Lookup(u64),
            Reopen,
            /// Another writer puts a valid envelope there and sets its
            /// modification time to this sequence number (0: leaves the
            /// write's wall-clock one).
            Plant(u64, u64),
            /// Another writer removes the file.
            Delete(u64),
            /// The file's last byte flips under the live store.
            Corrupt(u64),
        }

        /// The store's own operations only, then with reopens and the
        /// foreign ones.
        fn own_op() -> impl Strategy<Value = Op> {
            (0u8..10, 0..JOBS).prop_map(|(kind, k)| match kind {
                0..=4 => Op::Persist(k),
                5..=6 => Op::Get(k),
                _ => Op::Lookup(k),
            })
        }

        fn any_op() -> impl Strategy<Value = Op> {
            prop_oneof![
                own_op(),
                own_op(),
                (0u8..6, 0..JOBS, 0u64..40).prop_map(|(kind, k, seq)| match kind {
                    0 => Op::Reopen,
                    1 | 2 => Op::Plant(k, seq),
                    3 | 4 => Op::Delete(k),
                    _ => Op::Corrupt(k),
                }),
            ]
        }

        fn stem(addr: u64) -> String {
            format!("{addr:016x}")
        }

        /// The file stored for job `k`, and the checksum it carries.
        fn sealed(k: u64) -> (Vec<u8>, u64) {
            seal_result(result_key(&job(k)), &sample_stats(k))
        }

        /// The sequence number the file at `path` carries.
        fn stamp_of(path: &Path) -> Option<u64> {
            let modified = std::fs::metadata(path).ok()?.modified().ok()?;
            Some(modified.duration_since(UNIX_EPOCH).ok()?.as_secs())
        }

        /// The oracle: the files in `dir` as `(recency, file stem)`, least
        /// recently used first; recency is the modification time.
        fn list(dir: &Path) -> Vec<(u64, String)> {
            let mut out = Vec::new();
            for entry in std::fs::read_dir(dir).expect("store dir").flatten() {
                let path = entry.path();
                if path.extension().is_some_and(|e| e == "msnp") {
                    let stem = path.file_stem().expect("stem").to_string_lossy();
                    out.push((stamp_of(&path).expect("mtime"), stem.into_owned()));
                }
            }
            out.sort();
            out
        }

        /// The newest sequence number listed, leaving out the stems in
        /// `skip`.
        fn newest(listed: &[(u64, String)], skip: &BTreeSet<String>) -> u64 {
            listed
                .iter()
                .filter(|(_, stem)| !skip.contains(stem))
                .map(|(seq, _)| *seq)
                .max()
                .unwrap_or(0)
        }

        fn index(store: &ResultStore) -> Vec<(u64, String)> {
            recency(store)
                .into_iter()
                .map(|(seq, addr)| (seq, stem(addr)))
                .collect()
        }

        /// The stems a capped persist of `addr` removes when it works from
        /// the listing: stamp `addr` above everything listed, drop from the
        /// front down to the cap.
        fn listing_victims(dir: &Path, addr: u64, cap: Option<usize>) -> Vec<String> {
            let mut listed = list(dir);
            let newest = listed.iter().map(|(seq, _)| *seq).max().unwrap_or(0);
            listed.retain(|(_, s)| *s != stem(addr));
            listed.push((newest + 1, stem(addr)));
            let excess = cap.map_or(0, |cap| listed.len().saturating_sub(cap.max(1)));
            listed.into_iter().take(excess).map(|(_, s)| s).collect()
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

        fn run(tag: &str, cap: Option<usize>, ops: &[Op]) -> Result<(), String> {
            let dir = temp_dir(&format!("prop-{tag}-{cap:?}"));
            let jobs: Vec<SimJob> = (0..JOBS).map(job).collect();
            let addr = |k: u64| result_key(&jobs[k as usize]);
            let file = |k: u64| envelope_path(&dir, addr(k));
            let mut store = ResultStore::with_dir(dir.clone(), cap);
            // Stems another writer changed that the store has not been
            // asked about since: all the index may be wrong about.
            let mut stale: BTreeSet<String> = BTreeSet::new();
            for (step, &op) in ops.iter().enumerate() {
                // The number the listing says comes next, which the index
                // must arrive at too when all it has not seen is the file
                // now named: a load or memo hit adopts that file's own
                // modification time first, a persist replaces the file it
                // would have read it from.
                let listed = list(&dir);
                let exact = |k: u64| {
                    let unseen = recency(&store).iter().all(|&(_, a)| a != addr(k));
                    stale.iter().all(|s| *s == stem(addr(k)) && unseen)
                };
                let stamp = match op {
                    Op::Persist(k) if exact(k) => Some((k, newest(&listed, &stale) + 1)),
                    Op::Get(k) | Op::Lookup(k) if exact(k) => {
                        Some((k, newest(&listed, &BTreeSet::new()) + 1))
                    }
                    _ => None,
                };
                match op {
                    Op::Persist(k) => {
                        stale.remove(&stem(addr(k)));
                        let expected = listing_victims(&dir, addr(k), cap);
                        let before = index(&store);
                        let stats = Arc::new(sample_stats(k));
                        let checksum = finish(&store, &jobs[k as usize], &stats);
                        prop_assert_eq!(checksum, sealed(k).1, "step {step} {op:?}");
                        let after = index(&store);
                        let evicted: Vec<String> = before
                            .into_iter()
                            .map(|(_, s)| s)
                            .filter(|s| after.iter().all(|(_, a)| a != s))
                            .collect();
                        if stale.is_empty() {
                            prop_assert_eq!(&evicted, &expected, "step {step} {op:?}: victims");
                        }
                        for s in &evicted {
                            let gone = !dir.join(s).with_extension("msnp").exists();
                            prop_assert!(gone, "step {step} {op:?}: victim file {s}");
                            stale.remove(s);
                        }
                    }
                    Op::Get(k) => {
                        stale.remove(&stem(addr(k)));
                        let on_disk = std::fs::read(file(k))
                            .ok()
                            .filter(|b| *b == sealed(k).0)
                            .map(|_| (Arc::new(sample_stats(k)), sealed(k).1));
                        prop_assert_eq!(store.get(addr(k)), on_disk, "step {step} {op:?}");
                    }
                    Op::Lookup(k) => {
                        let j = &jobs[k as usize];
                        let held = store.memo().held_key(&j.key()).is_some();
                        let on_disk = std::fs::read(file(k)).ok();
                        let valid = on_disk.as_ref().is_some_and(|b| *b == sealed(k).0);
                        let expected =
                            (held || valid).then(|| (Arc::new(sample_stats(k)), sealed(k).1));
                        prop_assert_eq!(store.lookup(j), expected, "step {step} {op:?}");
                        // A memo hit does not read the file, so it cannot
                        // notice damage; it keeps the result while the file
                        // is there.
                        if !held || valid || on_disk.is_none() {
                            stale.remove(&stem(addr(k)));
                        }
                        if held {
                            let kept = store.memo().held_key(&j.key()).is_some();
                            prop_assert_eq!(kept, file(k).exists(), "step {step} {op:?}: kept");
                        }
                    }
                    Op::Reopen => {
                        let live = index(&store);
                        store = ResultStore::with_dir(dir.clone(), cap);
                        if stale.is_empty() {
                            prop_assert_eq!(index(&store), live, "step {step}: reopened index");
                        }
                        stale.clear();
                    }
                    Op::Plant(k, seq) => {
                        std::fs::write(file(k), sealed(k).0).expect("plant");
                        if seq != 0 {
                            File::open(file(k))
                                .and_then(|f| f.set_modified(UNIX_EPOCH + Duration::from_secs(seq)))
                                .expect("plant mtime");
                        }
                        stale.insert(stem(addr(k)));
                    }
                    Op::Delete(k) => {
                        let _ = std::fs::remove_file(file(k));
                        stale.insert(stem(addr(k)));
                    }
                    Op::Corrupt(k) => {
                        if let Ok(mut bytes) = std::fs::read(file(k)) {
                            *bytes.last_mut().expect("non-empty envelope") ^= 0xFF;
                            std::fs::write(file(k), bytes).expect("corrupt");
                            stale.insert(stem(addr(k)));
                        }
                    }
                }
                if let Some((k, next_seq)) = stamp.filter(|&(k, _)| file(k).exists()) {
                    prop_assert_eq!(stamp_of(&file(k)), Some(next_seq), "step {step} {op:?}");
                }
                let fresh = |entries: Vec<(u64, String)>| -> Vec<(u64, String)> {
                    entries
                        .into_iter()
                        .filter(|(_, s)| !stale.contains(s))
                        .collect()
                };
                prop_assert_eq!(
                    fresh(index(&store)),
                    fresh(list(&dir)),
                    "step {step} {op:?}: index (left) against listing (right)"
                );
                if stale.is_empty() {
                    let files = list(&dir).len();
                    prop_assert_eq!(store.disk_entries(), files, "step {step} {op:?}: entries");
                }
                memo_matches_index(&store).map_err(|e| format!("step {step} {op:?}: {e}"))?;
                prop_assert_eq!(
                    store.stats().dir_scans,
                    1,
                    "step {step} {op:?}: listed again"
                );
            }
            // A later process reads back exactly what this one knew.
            if stale.is_empty() {
                let reopened = ResultStore::with_dir(dir.clone(), cap);
                prop_assert_eq!(index(&reopened), index(&store), "final reopen");
            }
            let _ = std::fs::remove_dir_all(&dir);
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// On a directory nobody else writes, the index *is* the listing
            /// after every operation, and the one listing opening made stays
            /// the only one.
            #[test]
            fn own_operations_keep_the_index_equal_to_the_listing(
                ops in collection::vec(own_op(), 1..80),
            ) {
                for cap in CAPS {
                    run("own", cap, &ops)?;
                }
            }

            /// With reopens and another writer in the directory, the index
            /// is right about every result it has been asked about since.
            #[test]
            fn foreign_changes_are_found_by_the_operation_that_names_them(
                ops in collection::vec(any_op(), 1..80),
            ) {
                for cap in CAPS {
                    run("foreign", cap, &ops)?;
                }
            }
        }
    }
}
