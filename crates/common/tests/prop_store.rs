//! Differential test of [`EnvelopeStore`]'s in-memory recency index against
//! the directory it caches.
//!
//! The oracle is the listing every operation used to make — `read_dir`, read
//! every envelope's modification time, sort by `(sequence number, file
//! stem)` — kept here and nowhere else. Random sequences of the store's own operations, reopens
//! and a *foreign* writer's (plant a valid envelope, delete one, corrupt one)
//! run at caps `None`, 1, 3 and 8; after every step the index must say what
//! the listing says about every key the store has been asked about since
//! anyone else changed it, a capped `store` must remove the files the listing
//! would have picked, a reopened store must hold the live one's index, and no
//! handle may have listed the directory more than the once `open` does.
#![expect(
    clippy::disallowed_types,
    reason = "test cases run on parallel threads and number their directories with an atomic"
)]

use mask_common::snapshot::{PrefixKey, SnapshotWriter};
use mask_common::store::EnvelopeStore;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, UNIX_EPOCH};

const CAPS: [Option<usize>; 4] = [None, Some(1), Some(3), Some(8)];
const KEYS: u64 = 12;

#[derive(Clone, Copy, Debug)]
enum Op {
    Store(PrefixKey),
    Load(PrefixKey),
    Touch(PrefixKey),
    Reopen,
    /// Another writer puts a valid envelope there and sets its modification
    /// time to this sequence number (0: leaves the write's wall-clock one).
    Plant(PrefixKey, u64),
    /// Another writer removes the envelope.
    Delete(PrefixKey),
    /// The envelope's last byte flips under the live store.
    Corrupt(PrefixKey),
}

/// Keys spread over the 64-bit space, so stems differ in every digit.
fn key(i: u64) -> PrefixKey {
    PrefixKey((i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The store's own operations only, then with reopens and the foreign ones.
fn own_op() -> impl Strategy<Value = Op> {
    (0u8..10, 0..KEYS).prop_map(|(kind, k)| match kind {
        0..=4 => Op::Store(key(k)),
        5..=7 => Op::Load(key(k)),
        _ => Op::Touch(key(k)),
    })
}

fn any_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        own_op(),
        own_op(),
        (0u8..6, 0..KEYS, 0u64..40).prop_map(|(kind, k, seq)| match kind {
            0 => Op::Reopen,
            1 | 2 => Op::Plant(key(k), seq),
            3 | 4 => Op::Delete(key(k)),
            _ => Op::Corrupt(key(k)),
        }),
    ]
}

fn sealed(key: PrefixKey) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    w.section("prop");
    w.u64(key.0);
    w.seal(key)
}

fn temp_dir() -> PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("mask-prop-store-{}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The sequence number the file at `path` carries: its modification time
/// in whole seconds since the epoch.
fn mtime(path: &Path) -> Option<u64> {
    let modified = std::fs::metadata(path).ok()?.modified().ok()?;
    Some(modified.duration_since(UNIX_EPOCH).ok()?.as_secs())
}

/// The oracle: the envelopes in `dir` as `(recency, file stem)`, least
/// recently used first; recency is the modification time.
fn list(dir: &Path) -> Vec<(u64, String)> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).expect("store dir").flatten() {
        let path = entry.path();
        if path.extension().is_some_and(|e| e == "msnp") {
            let stem = path.file_stem().expect("stem").to_string_lossy();
            out.push((mtime(&path).expect("mtime"), stem.into_owned()));
        }
    }
    out.sort();
    out
}

/// The newest sequence number listed, leaving out the stems in `skip`.
fn newest(listed: &[(u64, String)], skip: &BTreeSet<String>) -> u64 {
    listed
        .iter()
        .filter(|(_, stem)| !skip.contains(stem))
        .map(|(seq, _)| *seq)
        .max()
        .unwrap_or(0)
}

fn index(store: &EnvelopeStore) -> Vec<(u64, String)> {
    store.recency().map(|(s, k)| (s, k.to_string())).collect()
}

/// The keys a capped store of `key` removes when it works from the listing:
/// stamp `key` above everything listed, drop from the front down to the cap.
fn listing_victims(dir: &Path, key: PrefixKey, cap: Option<usize>) -> Vec<String> {
    let mut listed = list(dir);
    let newest = listed.iter().map(|(seq, _)| *seq).max().unwrap_or(0);
    listed.retain(|(_, stem)| *stem != key.to_string());
    listed.push((newest + 1, key.to_string()));
    let excess = cap.map_or(0, |cap| listed.len().saturating_sub(cap.max(1)));
    listed.into_iter().take(excess).map(|(_, s)| s).collect()
}

fn run(cap: Option<usize>, ops: &[Op]) -> Result<(), String> {
    let dir = temp_dir();
    let file = |key: PrefixKey| dir.join(format!("{key}.msnp"));
    let mut store = EnvelopeStore::open(dir.clone(), cap);
    // Keys another writer changed that the store has not been asked about
    // since: all the index may be wrong about.
    let mut stale: BTreeSet<String> = BTreeSet::new();
    for (step, &op) in ops.iter().enumerate() {
        // The number the listing says comes next, which the index must
        // arrive at too when all it has not seen is the key now named: a
        // load or touch adopts that key's own modification time first, a
        // store replaces the file it would have read it from.
        let listed = list(&dir);
        let exact = |key: PrefixKey| {
            let unseen = store.recency().all(|(_, k)| k != key);
            stale.iter().all(|stem| *stem == key.to_string() && unseen)
        };
        let stamp = match op {
            Op::Store(key) if exact(key) => Some((key, newest(&listed, &stale) + 1)),
            Op::Load(key) | Op::Touch(key) if exact(key) => {
                Some((key, newest(&listed, &BTreeSet::new()) + 1))
            }
            _ => None,
        };
        match op {
            Op::Store(key) => {
                stale.remove(&key.to_string());
                let expected = listing_victims(&dir, key, cap);
                let evicted: Vec<String> = store
                    .store(key, &sealed(key))
                    .iter()
                    .map(PrefixKey::to_string)
                    .collect();
                if stale.is_empty() {
                    prop_assert_eq!(&evicted, &expected, "step {step} {op:?}: victims");
                }
                for stem in &evicted {
                    let gone = !dir.join(stem).with_extension("msnp").exists();
                    prop_assert!(gone, "step {step} {op:?}: victim file {stem}");
                    stale.remove(stem);
                }
            }
            Op::Load(key) => {
                stale.remove(&key.to_string());
                let on_disk = std::fs::read(file(key)).ok().filter(|b| *b == sealed(key));
                prop_assert_eq!(store.load(key), on_disk, "step {step} {op:?}");
            }
            Op::Touch(key) => {
                // A touch does not read the envelope, so it cannot notice
                // damage — it never could.
                let damaged = std::fs::read(file(key)).is_ok_and(|b| b != sealed(key));
                if !damaged {
                    stale.remove(&key.to_string());
                }
                prop_assert_eq!(store.touch(key), file(key).exists());
            }
            Op::Reopen => {
                let live = index(&store);
                store = EnvelopeStore::open(dir.clone(), cap);
                if stale.is_empty() {
                    prop_assert_eq!(index(&store), live, "step {step}: reopened index");
                }
                stale.clear();
            }
            Op::Plant(key, seq) => {
                std::fs::write(file(key), sealed(key)).expect("plant");
                if seq != 0 {
                    std::fs::File::open(file(key))
                        .and_then(|f| f.set_modified(UNIX_EPOCH + Duration::from_secs(seq)))
                        .expect("plant mtime");
                }
                stale.insert(key.to_string());
            }
            Op::Delete(key) => {
                let _ = std::fs::remove_file(file(key));
                stale.insert(key.to_string());
            }
            Op::Corrupt(key) => {
                if let Ok(mut bytes) = std::fs::read(file(key)) {
                    *bytes.last_mut().expect("non-empty envelope") ^= 0xFF;
                    std::fs::write(file(key), bytes).expect("corrupt");
                    stale.insert(key.to_string());
                }
            }
        }
        if let Some((key, next_seq)) = stamp.filter(|&(key, _)| file(key).exists()) {
            prop_assert_eq!(mtime(&file(key)), Some(next_seq), "step {step} {op:?}");
        }
        let fresh = |entries: Vec<(u64, String)>| -> Vec<(u64, String)> {
            entries
                .into_iter()
                .filter(|(_, stem)| !stale.contains(stem))
                .collect()
        };
        prop_assert_eq!(
            fresh(index(&store)),
            fresh(list(&dir)),
            "step {step} {op:?}: index (left) against listing (right)"
        );
        if stale.is_empty() {
            prop_assert_eq!(store.len(), list(&dir).len(), "step {step} {op:?}: len");
        }
        prop_assert_eq!(store.dir_scans(), 1, "step {step} {op:?}: listed again");
    }
    // A later process reads back exactly what this one knew.
    if stale.is_empty() {
        let reopened = EnvelopeStore::open(dir.clone(), cap);
        prop_assert_eq!(index(&reopened), index(&store), "final reopen");
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// On a directory nobody else writes, the index *is* the listing after
    /// every operation, and the one listing `open` made stays the only one.
    #[test]
    fn own_operations_keep_the_index_equal_to_the_listing(
        ops in collection::vec(own_op(), 1..80),
    ) {
        for cap in CAPS {
            run(cap, &ops)?;
        }
    }

    /// With reopens and another writer in the directory, the index is right
    /// about every key it has been asked about since.
    #[test]
    fn foreign_changes_are_found_by_the_operation_that_names_them(
        ops in collection::vec(any_op(), 1..80),
    ) {
        for cap in CAPS {
            run(cap, &ops)?;
        }
    }
}
