//! The sealed-envelope directory store.
//!
//! One directory of `<key>.msnp` files, each a sealed MSNP envelope
//! ([`crate::snapshot`]: magic, codec version, key echo, length, FNV-1a
//! checksum) whose modification time carries its recency. `maskd` keeps job
//! results in one (`MASKD_STORE_DIR`). The store is a pure accelerator, so
//! every operation is best-effort — an I/O failure costs a re-simulation,
//! never a wrong answer — and nothing here returns an error:
//!
//! * writes go to `<key>.msnp.<pid>.tmp` and are atomically renamed in, so
//!   concurrent processes never observe a torn file;
//! * every use stamps the envelope's modification time with a sequence
//!   number above every one the store knows, as whole seconds since
//!   `UNIX_EPOCH` (so filesystems that keep 1-second timestamps keep it).
//!   The numbers are read from the directory once, at
//!   [`EnvelopeStore::open`], and written back on every use, so recency
//!   survives restarts: a reopened store holds exactly the live one's index.
//!   A copy that resets modification times (`cp` without `-p`) collapses
//!   recency to file-stem order — a worse eviction order, never a wrong
//!   result;
//! * a cap evicts least-recently-used entries (sequence number, then file
//!   stem, so the order is fully deterministic);
//! * a file that fails validation is deleted, never trusted: at
//!   [`EnvelopeStore::open`] by a sweep of the whole directory, at
//!   [`EnvelopeStore::load`] for the one file asked for. The sweep also
//!   deletes the `<key>.lru` recency sidecars of the store's older on-disk
//!   format, so such a directory migrates on its first open.
//!
//! # What an operation costs
//!
//! The sweep is the only directory listing. It leaves an in-memory recency
//! index — key → sequence number, and the `(sequence, key)` order — that
//! every later operation keeps, so each opens the one file it names, once,
//! and nothing that grows with the store: [`EnvelopeStore::touch`] opens the
//! envelope and sets its modification time, [`EnvelopeStore::load`] reads
//! and validates it through the same handle first, [`EnvelopeStore::store`]
//! writes and stamps a temp file, renames it in (the rename keeps the stamp)
//! and removes exactly the victims the index names, [`EnvelopeStore::len`]
//! is a field read. [`EnvelopeStore::dir_scans`] counts the listings so that
//! tests can hold it to 1.
//!
//! # Sharing
//!
//! The index is plain data behind `&mut self`; this crate takes no lock. An
//! owner that shares a store across threads puts it behind the lock it
//! already has.
//!
//! The directory stays the truth and the index is a cache of it, because
//! other writers exist: a second process on the same directory, a
//! directory filled by one handle and served by another. Every operation
//! therefore checks the one file it names: a key the index does not hold is
//! still looked for on disk and adopted at the sequence number its
//! modification time carries (a plain write's wall-clock time included); a
//! key whose file is gone or fails validation leaves the index when that is
//! found; evicting a file someone already removed is not an error. What the
//! index cannot see is what it was never asked about, so between two
//! handles on one directory the cap bounds the entries *each handle has
//! seen* (the next `open` sees them all), and two handles may issue equal
//! sequence numbers — the file stem breaks the tie.

use crate::snapshot::{validate_envelope, PrefixKey, SnapshotReader};
use std::collections::{BTreeMap, BTreeSet};
use std::fs::File;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, UNIX_EPOCH};

/// A directory of sealed envelopes with LRU eviction.
#[derive(Debug)]
pub struct EnvelopeStore {
    dir: PathBuf,
    /// Maximum number of envelopes kept; `None` = unbounded. Enforced
    /// after every successful [`EnvelopeStore::store`], never below one.
    cap: Option<usize>,
    /// The sequence number each known envelope's modification time carries.
    seqs: BTreeMap<PrefixKey, u64>,
    /// The same pairs, least recently used first.
    order: BTreeSet<(u64, PrefixKey)>,
    dir_scans: u64,
    evictions: u64,
}

impl EnvelopeStore {
    /// Opens the store at `dir` (created if missing), keeping at most
    /// `cap` envelopes. Runs the hygiene sweep: envelopes that fail full
    /// validation (truncated writes, stale codec versions, checksum
    /// damage) or sit under another key's name, temp files left by
    /// interrupted writes and the `.lru` sidecars of the older on-disk
    /// format are deleted. What survives is the recency index.
    #[must_use]
    pub fn open(dir: PathBuf, cap: Option<usize>) -> Self {
        let _ = std::fs::create_dir_all(&dir);
        let mut store = EnvelopeStore {
            dir,
            cap,
            seqs: BTreeMap::new(),
            order: BTreeSet::new(),
            dir_scans: 0,
            evictions: 0,
        };
        store.sweep();
        store
    }

    /// The sealed bytes stored under `key`, if the file exists and passes
    /// keyed envelope validation (magic, version, key, length, checksum),
    /// re-stamped as most recently used. An invalid file is deleted, and
    /// anything but a valid entry leaves the index.
    #[must_use]
    pub fn load(&mut self, key: PrefixKey) -> Option<Vec<u8>> {
        let path = self.envelope(key);
        let Ok(mut file) = File::open(&path) else {
            self.forget(key);
            return None;
        };
        let mut bytes = Vec::new();
        if file.read_to_end(&mut bytes).is_err() || SnapshotReader::open_keyed(&bytes, key).is_err()
        {
            let _ = std::fs::remove_file(&path);
            self.forget(key);
            return None;
        }
        self.stamp(key, &file);
        Some(bytes)
    }

    /// Persists `sealed` (the output of
    /// [`SnapshotWriter::seal`](crate::snapshot::SnapshotWriter::seal) for
    /// `key`), stamped as the most recently used entry; only a completed
    /// rename enters the index and counts against the cap. Returns the keys
    /// eviction removed.
    pub fn store(&mut self, key: PrefixKey, sealed: &[u8]) -> Vec<PrefixKey> {
        let seq = self.newest().saturating_add(1);
        if !self.write(key, sealed, seq) {
            return Vec::new();
        }
        self.place(key, seq);
        self.enforce_cap()
    }

    /// Stamps `key` as the most recently used entry, if its envelope is
    /// there (`true`); one that is not leaves the index.
    pub fn touch(&mut self, key: PrefixKey) -> bool {
        match File::open(self.envelope(key)) {
            Ok(file) => {
                self.stamp(key, &file);
                true
            }
            Err(_) => {
                self.forget(key);
                false
            }
        }
    }

    /// Stamps the envelope of `key`, open as `file`, one above the newest
    /// sequence number the store knows.
    fn stamp(&mut self, key: PrefixKey, file: &File) {
        // An entry another writer put there is adopted where its own
        // modification time places it.
        let seen = match self.seqs.get(&key) {
            Some(seq) => *seq,
            None => seq_of(file),
        };
        let next = self.newest().max(seen).saturating_add(1);
        let stamped = set_seq(file, next).is_ok();
        self.place(key, if stamped { next } else { seen });
    }

    /// Evicts least-recently-used entries until the cap holds and returns
    /// their keys.
    fn enforce_cap(&mut self) -> Vec<PrefixKey> {
        let mut evicted = Vec::new();
        let Some(cap) = self.cap else {
            return evicted;
        };
        while self.order.len() > cap.max(1) {
            let Some((_, key)) = self.order.pop_first() else {
                break;
            };
            self.seqs.remove(&key);
            let _ = std::fs::remove_file(self.envelope(key));
            self.evictions += 1;
            evicted.push(key);
        }
        evicted
    }

    /// Number of envelopes the store knows of.
    #[must_use]
    #[allow(clippy::len_without_is_empty)] // a count for telemetry, not a collection
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// The index as `(sequence number, key)`, least recently used first —
    /// the order eviction takes entries in.
    pub fn recency(&self) -> impl Iterator<Item = (u64, PrefixKey)> + '_ {
        self.order.iter().copied()
    }

    /// Directory listings made so far: one, by [`EnvelopeStore::open`].
    #[must_use]
    pub fn dir_scans(&self) -> u64 {
        self.dir_scans
    }

    /// Entries the cap has evicted through this handle.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    fn envelope(&self, key: PrefixKey) -> PathBuf {
        self.dir.join(format!("{key}.msnp"))
    }

    fn newest(&self) -> u64 {
        self.order.last().map_or(0, |&(seq, _)| seq)
    }

    /// Writes `sealed` stamped with `seq` via a process-unique temp file
    /// and rename; `false`, with nothing left behind, when any step fails.
    fn write(&self, key: PrefixKey, sealed: &[u8], seq: u64) -> bool {
        let tmp = self
            .dir
            .join(format!("{key}.msnp.{}.tmp", std::process::id()));
        let done = File::create(&tmp)
            .and_then(|mut file| {
                file.write_all(sealed)?;
                set_seq(&file, seq)
            })
            .is_ok()
            && std::fs::rename(&tmp, self.envelope(key)).is_ok();
        if !done {
            let _ = std::fs::remove_file(&tmp);
        }
        done
    }

    fn place(&mut self, key: PrefixKey, seq: u64) {
        if let Some(old) = self.seqs.insert(key, seq) {
            self.order.remove(&(old, key));
        }
        self.order.insert((seq, key));
    }

    fn forget(&mut self, key: PrefixKey) {
        if let Some(old) = self.seqs.remove(&key) {
            self.order.remove(&(old, key));
        }
    }

    fn sweep(&mut self) {
        self.dir_scans += 1;
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let ext = path.extension().map(|e| e.to_string_lossy().into_owned());
            match ext.as_deref() {
                Some("msnp") => {
                    // Kept only under the one name `load` would look for.
                    let kept = read_stamped(&path).and_then(|(bytes, seq)| {
                        validate_envelope(&bytes)
                            .ok()
                            .filter(|&key| path == self.envelope(key))
                            .map(|key| (key, seq))
                    });
                    match kept {
                        Some((key, seq)) => self.place(key, seq),
                        None => {
                            let _ = std::fs::remove_file(&path);
                        }
                    }
                }
                // Interrupted writes, and the older format's sidecars.
                Some("tmp" | "lru") => {
                    let _ = std::fs::remove_file(&path);
                }
                _ => {}
            }
        }
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SnapshotWriter;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mask-store-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sealed(key: PrefixKey) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.section("test");
        w.u64(key.0);
        w.seal(key)
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

    #[test]
    fn round_trip_uses_the_documented_file_names() {
        let dir = temp_dir("names");
        let mut store = EnvelopeStore::open(dir.clone(), None);
        assert!(dir.is_dir(), "open creates the directory");
        let key = PrefixKey(0xAB);
        assert_eq!(store.load(key), None);
        store.store(key, &sealed(key));
        let path = dir.join("00000000000000ab.msnp");
        assert_eq!(names(&dir), ["00000000000000ab.msnp"], "one file an entry");
        assert_eq!(mtime(&path), 1, "stamped 1 s after the epoch");
        // A later process finds it; the load re-stamps it.
        let mut reopened = EnvelopeStore::open(dir.clone(), None);
        assert_eq!(reopened.load(key), Some(sealed(key)));
        assert_eq!(mtime(&path), 2);
        assert_eq!(reopened.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cap_evicts_least_recently_used() {
        let dir = temp_dir("lru");
        let mut store = EnvelopeStore::open(dir.clone(), Some(2));
        let file = |k: u64| dir.join(format!("{}.msnp", PrefixKey(k)));
        for k in [1u64, 2, 3] {
            store.store(PrefixKey(k), &sealed(PrefixKey(k)));
        }
        // Cap 2: storing key 3 evicted key 1.
        assert_eq!(store.len(), 2);
        assert!(!file(1).exists());
        assert!(file(2).exists() && file(3).exists());
        // A load refreshes recency: key 2 survives the next store and the
        // now-least-recently-used key 3 goes instead.
        assert!(store.load(PrefixKey(2)).is_some());
        store.store(PrefixKey(4), &sealed(PrefixKey(4)));
        assert!(file(2).exists() && !file(3).exists() && file(4).exists());
        // So does a bare touch.
        store.touch(PrefixKey(2));
        store.store(PrefixKey(5), &sealed(PrefixKey(5)));
        assert!(file(2).exists() && !file(4).exists() && file(5).exists());
        // Recency is read from the directory, so it survives a reopen.
        let mut reopened = EnvelopeStore::open(dir.clone(), Some(2));
        assert_eq!(reopened.load(PrefixKey(1)), None);
        reopened.store(PrefixKey(6), &sealed(PrefixKey(6)));
        assert!(!file(2).exists() && file(5).exists() && file(6).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_sweeps_invalid_and_temporary_files() {
        let dir = temp_dir("sweep");
        std::fs::create_dir_all(&dir).expect("store dir");
        let key = PrefixKey(7);
        std::fs::write(dir.join(format!("{key}.msnp")), sealed(key)).expect("valid envelope");
        std::fs::write(dir.join("stale.msnp"), b"not an envelope").expect("stale file");
        std::fs::write(dir.join("dead.msnp.123.tmp"), b"partial").expect("temp file");
        let store = EnvelopeStore::open(dir.clone(), None);
        assert_eq!(
            names(&dir),
            [format!("{key}.msnp")],
            "only the valid envelope survives"
        );
        assert_eq!(store.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_legacy_directory_keeps_its_envelopes_and_loses_its_sidecars() {
        let dir = temp_dir("legacy");
        std::fs::create_dir_all(&dir).expect("store dir");
        // The older format: every envelope with a `.lru` sequence-number
        // sidecar, plus an orphaned sidecar and a damaged envelope's.
        let keys = [PrefixKey(1), PrefixKey(2), PrefixKey(3)];
        for (seq, key) in [3, 1, 2].into_iter().zip(keys) {
            std::fs::write(dir.join(format!("{key}.msnp")), sealed(key)).expect("envelope");
            std::fs::write(dir.join(format!("{key}.lru")), format!("{seq}\n")).expect("sidecar");
        }
        std::fs::write(dir.join("orphan.lru"), "5\n").expect("orphan sidecar");
        std::fs::write(dir.join("stale.msnp"), b"not an envelope").expect("stale file");
        std::fs::write(dir.join("stale.lru"), "9\n").expect("stale sidecar");
        let mut store = EnvelopeStore::open(dir.clone(), None);
        assert_eq!(
            names(&dir),
            keys.map(|key| format!("{key}.msnp")),
            "every valid envelope stays, no sidecar does"
        );
        assert_eq!(store.len(), 3);
        for key in keys {
            assert_eq!(store.load(key), Some(sealed(key)));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_entry_another_writer_left_is_adopted_at_its_wall_clock_time() {
        let dir = temp_dir("adopt");
        let mut store = EnvelopeStore::open(dir.clone(), None);
        let [mine, theirs, next] = [PrefixKey(1), PrefixKey(2), PrefixKey(3)];
        store.store(mine, &sealed(mine));
        // A plain write: its modification time is the wall clock's.
        let path = dir.join(format!("{theirs}.msnp"));
        std::fs::write(&path, sealed(theirs)).expect("foreign envelope");
        let wall = mtime(&path);
        assert!(wall > 1, "a wall-clock time is far past any count of uses");
        // A reopen adopts it at that value ...
        let reopened = EnvelopeStore::open(dir.clone(), None);
        assert_eq!(
            reopened.recency().collect::<Vec<_>>(),
            [(1, mine), (wall, theirs)]
        );
        // ... and so does the live handle's touch, which stamps above it.
        assert!(store.touch(theirs));
        assert_eq!(mtime(&path), wall + 1);
        store.store(next, &sealed(next));
        assert_eq!(
            store.recency().collect::<Vec<_>>(),
            [(1, mine), (wall + 1, theirs), (wall + 2, next)]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_deletes_an_envelope_that_fails_keyed_validation() {
        let dir = temp_dir("corrupt");
        let mut store = EnvelopeStore::open(dir.clone(), None);
        // Damaged after open, so the sweep cannot have caught it.
        let key = PrefixKey(3);
        store.store(key, &sealed(key));
        let path = dir.join(format!("{key}.msnp"));
        let mut bytes = std::fs::read(&path).expect("stored file");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).expect("rewrite");
        assert_eq!(store.load(key), None);
        // A sound envelope under another key's name passes the unkeyed
        // sweep and must still be refused.
        let other = PrefixKey(4);
        std::fs::write(dir.join(format!("{other}.msnp")), sealed(key)).expect("misfiled");
        assert_eq!(store.load(other), None);
        assert!(names(&dir).is_empty(), "both files are gone");
        assert_eq!(store.len(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_rename_leaves_no_temp_file_and_no_entry() {
        let dir = temp_dir("rename");
        let mut store = EnvelopeStore::open(dir.clone(), Some(1));
        let key = PrefixKey(9);
        // A directory in the envelope's place makes the rename fail.
        std::fs::create_dir(dir.join(format!("{key}.msnp"))).expect("blocker");
        store.store(key, &sealed(key));
        assert_eq!(names(&dir), [format!("{key}.msnp")]);
        assert_eq!(store.len(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn touching_an_evicted_key_writes_nothing() {
        let dir = temp_dir("orphan");
        let mut store = EnvelopeStore::open(dir.clone(), Some(2));
        for k in [1u64, 2, 3] {
            store.store(PrefixKey(k), &sealed(PrefixKey(k)));
        }
        // Key 1 was evicted; an owner that still remembers it touches it.
        assert!(!store.touch(PrefixKey(1)));
        assert_eq!(
            names(&dir),
            ["0000000000000002.msnp", "0000000000000003.msnp"]
        );
        assert_eq!(
            (store.len(), store.evictions(), store.dir_scans()),
            (2, 1, 1)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
