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
//!   existing one — derived from the directory itself, not process state,
//!   so recency survives restarts;
//! * a cap evicts least-recently-used entries (sequence number, then file
//!   stem, so the order is fully deterministic);
//! * a file that fails validation is deleted, never trusted: at
//!   [`EnvelopeStore::open`] by a sweep of the whole directory, at
//!   [`EnvelopeStore::load`] for the one file asked for.

use crate::snapshot::{validate_envelope, PrefixKey, SnapshotReader};
use std::path::{Path, PathBuf};

/// A directory of sealed envelopes with LRU eviction.
#[derive(Debug)]
pub struct EnvelopeStore {
    dir: PathBuf,
    /// Maximum number of envelopes kept; `None` = unbounded. Enforced
    /// after every successful [`EnvelopeStore::store`], never below one.
    cap: Option<usize>,
}

impl EnvelopeStore {
    /// Opens the store at `dir` (created if missing), keeping at most
    /// `cap` envelopes. Runs the hygiene sweep: envelopes that fail full
    /// validation (truncated writes, stale codec versions, checksum
    /// damage) and their sidecars, sidecars whose envelope is gone, and
    /// temp files left by interrupted writes are deleted.
    #[must_use]
    pub fn open(dir: PathBuf, cap: Option<usize>) -> Self {
        let _ = std::fs::create_dir_all(&dir);
        let store = EnvelopeStore { dir, cap };
        store.sweep();
        store
    }

    /// The sealed bytes stored under `key`, if the file exists and passes
    /// keyed envelope validation (magic, version, key, length, checksum).
    /// A valid entry is re-stamped as most recently used; an invalid one
    /// is deleted together with its sidecar.
    #[must_use]
    pub fn load(&self, key: PrefixKey) -> Option<Vec<u8>> {
        let path = self.dir.join(format!("{key}.msnp"));
        let bytes = std::fs::read(&path).ok()?;
        if SnapshotReader::open_keyed(&bytes, key).is_err() {
            remove_entry(&path);
            return None;
        }
        self.touch(key);
        Some(bytes)
    }

    /// Persists `sealed` (the output of
    /// [`SnapshotWriter::seal`](crate::snapshot::SnapshotWriter::seal) for
    /// `key`) via a process-unique temp file and rename. Only a completed
    /// rename is stamped and counted against the cap; a failed write
    /// leaves nothing behind.
    pub fn store(&self, key: PrefixKey, sealed: &[u8]) {
        let name = format!("{key}.msnp");
        let tmp = self.dir.join(format!("{name}.{}.tmp", std::process::id()));
        if std::fs::write(&tmp, sealed).is_ok()
            && std::fs::rename(&tmp, self.dir.join(&name)).is_ok()
        {
            self.touch(key);
            if let Some(cap) = self.cap {
                self.evict(cap);
            }
        } else {
            let _ = std::fs::remove_file(&tmp);
        }
    }

    /// Stamps `key` as the most recently used entry.
    pub fn touch(&self, key: PrefixKey) {
        let next = self
            .list()
            .iter()
            .map(|(seq, _, _)| *seq)
            .max()
            .unwrap_or(0)
            .saturating_add(1);
        let _ = std::fs::write(self.dir.join(format!("{key}.lru")), format!("{next}\n"));
    }

    /// Number of envelopes currently in the directory.
    #[must_use]
    #[allow(clippy::len_without_is_empty)] // a count for telemetry, not a collection
    pub fn len(&self) -> usize {
        self.list().len()
    }

    /// The envelopes as `(recency, file stem, path)`, least recently used
    /// first. Recency is the sidecar's sequence number, 0 when absent.
    fn list(&self) -> Vec<(u64, String, PathBuf)> {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().is_some_and(|e| e == "msnp") {
                let stem = path
                    .file_stem()
                    .map_or_else(String::new, |s| s.to_string_lossy().into_owned());
                let seq = std::fs::read_to_string(path.with_extension("lru"))
                    .ok()
                    .and_then(|s| s.trim().parse().ok())
                    .unwrap_or(0);
                out.push((seq, stem, path));
            }
        }
        out.sort();
        out
    }

    fn evict(&self, cap: usize) {
        let listed = self.list();
        for (_, _, path) in listed.iter().take(listed.len().saturating_sub(cap.max(1))) {
            remove_entry(path);
        }
    }

    fn sweep(&self) {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let ext = path.extension().map(|e| e.to_string_lossy().into_owned());
            match ext.as_deref() {
                Some("msnp") => {
                    let valid =
                        std::fs::read(&path).is_ok_and(|bytes| validate_envelope(&bytes).is_ok());
                    if !valid {
                        remove_entry(&path);
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
        let store = EnvelopeStore::open(dir.clone(), None);
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
        let reopened = EnvelopeStore::open(dir.clone(), None);
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
        let store = EnvelopeStore::open(dir.clone(), Some(2));
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
        let reopened = EnvelopeStore::open(dir.clone(), Some(2));
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
        let store = EnvelopeStore::open(dir.clone(), None);
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
        let store = EnvelopeStore::open(dir.clone(), Some(1));
        let key = PrefixKey(9);
        // A directory in the envelope's place makes the rename fail.
        std::fs::create_dir(dir.join(format!("{key}.msnp"))).expect("blocker");
        store.store(key, &sealed(key));
        assert_eq!(names(&dir), [format!("{key}.msnp")]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
