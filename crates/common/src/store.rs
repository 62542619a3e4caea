//! The sealed-envelope directory store.
//!
//! One directory of `<key>.msnp` files, each a sealed MSNP envelope
//! ([`crate::snapshot`]: magic, codec version, key echo, length, FNV-1a
//! checksum), each with a `<key>.lru` recency sidecar. The engine keeps
//! warm-up snapshots in one (`MASK_SNAPSHOT_DIR`) and `maskd` keeps job
//! results in another (`MASKD_STORE_DIR`); both are pure accelerators, so
//! every operation is best-effort — an I/O failure costs a re-simulation,
//! never a wrong answer — and nothing here returns an error:
//!
//! * writes go to `<key>.msnp.<pid>.tmp` and are atomically renamed in, so
//!   concurrent processes never observe a torn file;
//! * every use stamps the sidecar with a sequence number above every
//!   one the store knows — read from the directory once, at
//!   [`EnvelopeStore::open`], and written back on every use, so recency
//!   survives restarts: a reopened store holds exactly the live one's index;
//! * a cap evicts least-recently-used entries (sequence number, then file
//!   stem, so the order is fully deterministic);
//! * a file that fails validation is deleted, never trusted: at
//!   [`EnvelopeStore::open`] by a sweep of the whole directory, at
//!   [`EnvelopeStore::load`] for the one file asked for.
//!
//! # What an operation costs
//!
//! The sweep is the only directory listing. It leaves an in-memory recency
//! index — key → sequence number, and the `(sequence, key)` order — that
//! every later operation keeps, so each costs the files it names and nothing
//! that grows with the store: [`EnvelopeStore::touch`] one `stat` and one
//! sidecar write, [`EnvelopeStore::load`] one envelope read on top of that,
//! [`EnvelopeStore::store`] write + rename + stamp + the removal of exactly
//! the victims the index names, [`EnvelopeStore::len`] a field read.
//! [`EnvelopeStore::dir_scans`] counts the listings so that tests can hold
//! it to 1.
//!
//! # Sharing
//!
//! The index is plain data behind `&mut self`; this crate takes no lock. An
//! owner that shares a store across threads puts it behind the lock it
//! already has, and one that moves large payloads does the payload half —
//! [`EnvelopeFiles::read`] / [`EnvelopeFiles::write`] on a clone of
//! [`EnvelopeStore::files`] — outside that lock and only the index half
//! ([`EnvelopeStore::touch`], [`EnvelopeStore::enforce_cap`]) inside it.
//!
//! The directory stays the truth and the index is a cache of it, because
//! other writers exist: a second process on the same `MASK_SNAPSHOT_DIR`, a
//! directory filled by one handle and served by another. Every operation
//! therefore checks the one file it names: a key the index does not hold is
//! still looked for on disk and adopted at the sequence number its sidecar
//! carries; a key whose file is gone or fails validation leaves the index
//! when that is found; evicting a file someone already removed is not an
//! error. What the index cannot see is what it was never asked about, so
//! between two handles on one directory the cap bounds the entries *each
//! handle has seen* (the next `open` sees them all), and two handles may
//! issue equal sequence numbers — the file stem breaks the tie.

use crate::snapshot::{validate_envelope, PrefixKey, SnapshotReader};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// The payload half of an [`EnvelopeStore`]: reads and writes envelope
/// files and knows nothing of recency, so it needs no exclusive access.
#[derive(Clone, Debug)]
pub struct EnvelopeFiles {
    dir: PathBuf,
}

impl EnvelopeFiles {
    fn envelope(&self, key: PrefixKey) -> PathBuf {
        self.dir.join(format!("{key}.msnp"))
    }

    fn sidecar(&self, key: PrefixKey) -> PathBuf {
        self.dir.join(format!("{key}.lru"))
    }

    /// The sealed bytes stored under `key`, if the file exists and passes
    /// keyed envelope validation (magic, version, key, length, checksum).
    /// An invalid file is deleted together with its sidecar. The caller
    /// owes the store a [`EnvelopeStore::touch`] either way.
    #[must_use]
    pub fn read(&self, key: PrefixKey) -> Option<Vec<u8>> {
        let path = self.envelope(key);
        let bytes = std::fs::read(&path).ok()?;
        if SnapshotReader::open_keyed(&bytes, key).is_err() {
            remove_entry(&path);
            return None;
        }
        Some(bytes)
    }

    /// Persists `sealed` (the output of
    /// [`SnapshotWriter::seal`](crate::snapshot::SnapshotWriter::seal) for
    /// `key`) via a process-unique temp file and rename; `false`, with
    /// nothing left behind, when either fails. After a `true` the caller
    /// owes the store a [`EnvelopeStore::touch`] and an
    /// [`EnvelopeStore::enforce_cap`].
    #[must_use]
    pub fn write(&self, key: PrefixKey, sealed: &[u8]) -> bool {
        let tmp = self
            .dir
            .join(format!("{key}.msnp.{}.tmp", std::process::id()));
        let done = std::fs::write(&tmp, sealed).is_ok()
            && std::fs::rename(&tmp, self.envelope(key)).is_ok();
        if !done {
            let _ = std::fs::remove_file(&tmp);
        }
        done
    }
}

/// A directory of sealed envelopes with LRU eviction.
#[derive(Debug)]
pub struct EnvelopeStore {
    files: EnvelopeFiles,
    /// Maximum number of envelopes kept; `None` = unbounded. Enforced
    /// after every successful [`EnvelopeStore::store`], never below one.
    cap: Option<usize>,
    /// The sequence number each known envelope's sidecar carries (0: no
    /// sidecar).
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
    /// damage) or sit under another key's name, and their sidecars,
    /// sidecars whose envelope is gone, and temp files left by interrupted
    /// writes are deleted. What survives is the recency index.
    #[must_use]
    pub fn open(dir: PathBuf, cap: Option<usize>) -> Self {
        let _ = std::fs::create_dir_all(&dir);
        let mut store = EnvelopeStore {
            files: EnvelopeFiles { dir },
            cap,
            seqs: BTreeMap::new(),
            order: BTreeSet::new(),
            dir_scans: 0,
            evictions: 0,
        };
        store.sweep();
        store
    }

    /// The payload half, for an owner that keeps envelope I/O outside the
    /// lock it holds this store under (clone it once).
    #[must_use]
    pub fn files(&self) -> &EnvelopeFiles {
        &self.files
    }

    /// [`EnvelopeFiles::read`], then [`EnvelopeStore::touch`]: a valid
    /// entry is re-stamped as most recently used, anything else leaves the
    /// index.
    #[must_use]
    pub fn load(&mut self, key: PrefixKey) -> Option<Vec<u8>> {
        let bytes = self.files.read(key);
        self.touch(key);
        bytes
    }

    /// [`EnvelopeFiles::write`]; only a completed rename is stamped and
    /// counted against the cap. Returns the keys eviction removed.
    pub fn store(&mut self, key: PrefixKey, sealed: &[u8]) -> Vec<PrefixKey> {
        if !self.files.write(key, sealed) {
            return Vec::new();
        }
        self.touch(key);
        self.enforce_cap()
    }

    /// Stamps `key` as the most recently used entry, if its envelope is
    /// there (`true`); one that is not gets no sidecar and leaves the index.
    pub fn touch(&mut self, key: PrefixKey) -> bool {
        if !self.files.envelope(key).exists() {
            self.forget(key);
            return false;
        }
        let sidecar = self.files.sidecar(key);
        // An entry another writer put there is adopted where its own
        // sidecar places it.
        let seen = match self.seqs.get(&key) {
            Some(seq) => *seq,
            None => read_seq(&sidecar),
        };
        let newest = self.order.last().map_or(0, |&(seq, _)| seq);
        let next = newest.max(seen).saturating_add(1);
        let stamped = std::fs::write(&sidecar, format!("{next}\n")).is_ok();
        self.place(key, if stamped { next } else { seen });
        true
    }

    /// Evicts least-recently-used entries until the cap holds and returns
    /// their keys; [`EnvelopeStore::store`] ends with this.
    pub fn enforce_cap(&mut self) -> Vec<PrefixKey> {
        let mut evicted = Vec::new();
        let Some(cap) = self.cap else {
            return evicted;
        };
        while self.order.len() > cap.max(1) {
            let Some((_, key)) = self.order.pop_first() else {
                break;
            };
            self.seqs.remove(&key);
            remove_entry(&self.files.envelope(key));
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
        let Ok(entries) = std::fs::read_dir(&self.files.dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let ext = path.extension().map(|e| e.to_string_lossy().into_owned());
            match ext.as_deref() {
                Some("msnp") => {
                    // Kept only under the one name `load` would look for.
                    let key = std::fs::read(&path)
                        .ok()
                        .and_then(|bytes| validate_envelope(&bytes).ok())
                        .filter(|&key| path == self.files.envelope(key));
                    match key {
                        Some(key) => self.place(key, read_seq(&path.with_extension("lru"))),
                        None => remove_entry(&path),
                    }
                }
                Some("lru") if !path.with_extension("msnp").exists() => {
                    let _ = std::fs::remove_file(&path);
                }
                Some("tmp") => {
                    let _ = std::fs::remove_file(&path);
                }
                _ => {}
            }
        }
    }
}

/// The sequence number in the sidecar at `path`, 0 when absent or unreadable.
fn read_seq(path: &Path) -> u64 {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0)
}

/// Deletes the envelope at `path` together with its sidecar.
fn remove_entry(path: &Path) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(path.with_extension("lru"));
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

    #[test]
    fn round_trip_uses_the_documented_file_names() {
        let dir = temp_dir("names");
        let mut store = EnvelopeStore::open(dir.clone(), None);
        assert!(dir.is_dir(), "open creates the directory");
        let key = PrefixKey(0xAB);
        assert_eq!(store.load(key), None);
        store.store(key, &sealed(key));
        assert_eq!(
            names(&dir),
            ["00000000000000ab.lru", "00000000000000ab.msnp"]
        );
        assert_eq!(
            std::fs::read_to_string(dir.join("00000000000000ab.lru")).expect("sidecar"),
            "1\n"
        );
        // A later process finds it; the load re-stamps it.
        let mut reopened = EnvelopeStore::open(dir.clone(), None);
        assert_eq!(reopened.load(key), Some(sealed(key)));
        assert_eq!(
            std::fs::read_to_string(dir.join("00000000000000ab.lru")).expect("sidecar"),
            "2\n"
        );
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
        // Cap 2: storing key 3 evicted key 1 and its sidecar.
        assert_eq!(store.len(), 2);
        assert!(!file(1).exists() && !file(1).with_extension("lru").exists());
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
    fn open_sweeps_invalid_orphaned_and_temporary_files() {
        let dir = temp_dir("sweep");
        std::fs::create_dir_all(&dir).expect("store dir");
        let key = PrefixKey(7);
        std::fs::write(dir.join(format!("{key}.msnp")), sealed(key)).expect("valid envelope");
        std::fs::write(dir.join(format!("{key}.lru")), "1\n").expect("its sidecar");
        std::fs::write(dir.join("stale.msnp"), b"not an envelope").expect("stale file");
        std::fs::write(dir.join("stale.lru"), "9\n").expect("stale sidecar");
        std::fs::write(dir.join("orphan.lru"), "5\n").expect("orphan sidecar");
        std::fs::write(dir.join("dead.msnp.123.tmp"), b"partial").expect("temp file");
        let store = EnvelopeStore::open(dir.clone(), None);
        assert_eq!(
            names(&dir),
            [format!("{key}.lru"), format!("{key}.msnp")],
            "only the valid envelope and its sidecar survive"
        );
        assert_eq!(store.len(), 1);
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
        std::fs::write(dir.join(format!("{other}.lru")), "8\n").expect("its sidecar");
        assert_eq!(store.load(other), None);
        assert!(names(&dir).is_empty(), "files and sidecars are gone");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_rename_leaves_no_temp_file_and_no_sidecar() {
        let dir = temp_dir("rename");
        let mut store = EnvelopeStore::open(dir.clone(), Some(1));
        let key = PrefixKey(9);
        // A directory in the envelope's place makes the rename fail.
        std::fs::create_dir(dir.join(format!("{key}.msnp"))).expect("blocker");
        store.store(key, &sealed(key));
        assert_eq!(names(&dir), [format!("{key}.msnp")]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn touching_an_evicted_key_writes_no_orphan_sidecar() {
        let dir = temp_dir("orphan");
        let mut store = EnvelopeStore::open(dir.clone(), Some(2));
        for k in [1u64, 2, 3] {
            store.store(PrefixKey(k), &sealed(PrefixKey(k)));
        }
        // Key 1 was evicted; an owner that still remembers it touches it.
        assert!(!store.touch(PrefixKey(1)));
        assert_eq!(
            names(&dir),
            [
                "0000000000000002.lru",
                "0000000000000002.msnp",
                "0000000000000003.lru",
                "0000000000000003.msnp"
            ]
        );
        assert_eq!(
            (store.len(), store.evictions(), store.dir_scans()),
            (2, 1, 1)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
