//! A generic set-associative array with true-LRU replacement.
//!
//! Shared by the L1 TLB (one fully-associative set), the shared L2 TLB
//! (16-way), the TLB bypass cache (fully associative), and the page-walk
//! cache. Data caches live in `mask-cache` and add MSHRs and banking on
//! top of the same structure.

use mask_common::siphash::SipHasher13;
use mask_common::snapshot::{SnapField, Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use std::hash::{Hash, Hasher};

/// A set-associative, true-LRU lookup structure.
///
/// Keys are hashed to pick a set; within a set, lookup is a linear scan
/// (associativities here are ≤ 64, so this is both simple and fast).
///
/// Storage is one flat allocation per field: set `s` owns the slots
/// `s * assoc .. s * assoc + lens[s]`, keys apart from values and LRU
/// stamps so that a probe reads nothing but keys until it has found its
/// way. Within a set the order of entries is behavioural (see the
/// [`Snapshot`] impl) and is the order a `Vec` per set would have: new
/// entries go to the end, removal moves the last entry into the hole.
#[derive(Clone, Debug)]
pub struct AssocArray<K, V> {
    keys: Vec<K>,
    /// `(value, last_used)` of the key at the same index.
    slots: Vec<(V, u64)>,
    /// Occupied ways per set.
    lens: Vec<usize>,
    assoc: usize,
    stamp: u64,
    /// The slot the last probe hit or the last fill wrote; `NO_SLOT` after
    /// any removal. Keys in a set are unique, so finding a key there first
    /// answers what the scan would. Derived state: not encoded.
    mru: usize,
}

const NO_SLOT: usize = usize::MAX;

impl<K: Eq + Hash + Copy + Default, V: Copy + Default> AssocArray<K, V> {
    /// Creates an array with `entries` total capacity and `assoc` ways.
    ///
    /// When `entries` is not a multiple of `assoc`, the set count is rounded
    /// **up**, so the array never holds less than the requested capacity
    /// (a structure sized "100 entries, 16-way" gets 7 sets / 112 slots,
    /// not 6 sets / 96 — capacity requests must not be silently shrunk).
    /// For a fully-associative structure pass `assoc == entries`.
    ///
    /// # Panics
    ///
    /// Panics if `entries` or `assoc` is zero.
    pub fn new(entries: usize, assoc: usize) -> Self {
        assert!(
            entries > 0 && assoc > 0,
            "capacity and associativity must be positive"
        );
        let assoc = assoc.min(entries);
        let n_sets = entries.div_ceil(assoc);
        AssocArray {
            keys: vec![K::default(); n_sets * assoc],
            slots: vec![(V::default(), 0); n_sets * assoc],
            lens: vec![0; n_sets],
            assoc,
            stamp: 0,
            mru: NO_SLOT,
        }
    }

    /// Total entry capacity.
    pub fn capacity(&self) -> usize {
        self.keys.len()
    }

    /// Number of ways per set.
    pub fn assoc(&self) -> usize {
        self.assoc
    }

    /// Number of sets.
    pub fn n_sets(&self) -> usize {
        self.lens.len()
    }

    /// Number of valid entries currently resident.
    pub fn len(&self) -> usize {
        self.lens.iter().sum()
    }

    /// Whether the array holds no entries.
    pub fn is_empty(&self) -> bool {
        self.lens.iter().all(|&n| n == 0)
    }

    fn set_index(&self, key: &K) -> usize {
        let n = self.lens.len();
        if n == 1 {
            return 0;
        }
        let mut h = SipHasher13::new();
        key.hash(&mut h);
        // Same residue as `%` for the power-of-two set counts every shipped
        // geometry uses, without the 64-bit divide on each probe.
        if n.is_power_of_two() {
            (h.finish() as usize) & (n - 1)
        } else {
            (h.finish() as usize) % n
        }
    }

    /// The slot holding `key`, if resident.
    fn find(&self, key: &K) -> Option<usize> {
        if self.keys.get(self.mru) == Some(key) {
            return Some(self.mru);
        }
        let set = self.set_index(key);
        let base = set * self.assoc;
        self.keys[base..base + self.lens[set]]
            .iter()
            .position(|k| k == key)
            .map(|way| base + way)
    }

    /// Removes the entry in `slot` of `set` by moving the set's last entry
    /// into it (`swap_remove`), returning what was there.
    fn remove_slot(&mut self, set: usize, slot: usize) -> (K, V) {
        self.mru = NO_SLOT;
        let last = set * self.assoc + self.lens[set] - 1;
        let removed = (self.keys[slot], self.slots[slot].0);
        self.keys[slot] = self.keys[last];
        self.slots[slot] = self.slots[last];
        self.lens[set] -= 1;
        removed
    }

    /// Looks up `key`, updating LRU state on a hit.
    pub fn probe(&mut self, key: &K) -> Option<V> {
        self.stamp += 1;
        let found = self.find(key)?;
        self.mru = found;
        let slot = &mut self.slots[found];
        slot.1 = self.stamp;
        Some(slot.0)
    }

    /// Looks up `key` without perturbing LRU state (for monitors/tests).
    pub fn peek(&self, key: &K) -> Option<V> {
        self.find(key).map(|slot| self.slots[slot].0)
    }

    /// Inserts `key -> value`, evicting the set's LRU entry if full.
    ///
    /// Returns the evicted `(key, value)` pair, if any. Filling an existing
    /// key updates its value and LRU position.
    pub fn fill(&mut self, key: K, value: V) -> Option<(K, V)> {
        self.stamp += 1;
        let stamp = self.stamp;
        let set = self.set_index(&key);
        let base = set * self.assoc;
        let len = self.lens[set];
        if let Some(way) = self.keys[base..base + len].iter().position(|k| *k == key) {
            self.slots[base + way] = (value, stamp);
            self.mru = base + way;
            return None;
        }
        let mut evicted = None;
        if len >= self.assoc {
            // The positionally-first minimum stamp, as a compare-and-select
            // the compiler keeps free of branches.
            let (mut victim, mut oldest) = (0, u64::MAX);
            for (way, slot) in self.slots[base..base + len].iter().enumerate() {
                if slot.1 < oldest {
                    (victim, oldest) = (way, slot.1);
                }
            }
            evicted = Some(self.remove_slot(set, base + victim));
        }
        let end = base + self.lens[set];
        self.keys[end] = key;
        self.slots[end] = (value, stamp);
        self.lens[set] += 1;
        self.mru = end;
        evicted
    }

    /// Removes `key` if present, returning its value.
    pub fn invalidate(&mut self, key: &K) -> Option<V> {
        let slot = self.find(key)?;
        Some(self.remove_slot(slot / self.assoc, slot).1)
    }

    /// Removes all entries matching a predicate (e.g. per-ASID flush),
    /// keeping the survivors of each set in order.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &V) -> bool) {
        self.mru = NO_SLOT;
        for (set, len) in self.lens.iter_mut().enumerate() {
            let base = set * self.assoc;
            let mut kept = 0;
            for way in 0..*len {
                if keep(&self.keys[base + way], &self.slots[base + way].0) {
                    self.keys[base + kept] = self.keys[base + way];
                    self.slots[base + kept] = self.slots[base + way];
                    kept += 1;
                }
            }
            *len = kept;
        }
    }

    /// Removes every entry.
    pub fn flush(&mut self) {
        self.mru = NO_SLOT;
        self.lens.fill(0);
    }

    /// Iterates over resident `(key, value)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.lens.iter().enumerate().flat_map(move |(set, &len)| {
            let base = set * self.assoc;
            (base..base + len).map(move |i| (&self.keys[i], &self.slots[i].0))
        })
    }
}

impl<K: SnapField + Eq + Hash + Copy + Default, V: SnapField + Copy + Default> Snapshot
    for AssocArray<K, V>
{
    /// Captures the stamp and every set's entries *in stored order*:
    /// eviction picks the positionally-first minimum `last_used` and
    /// removal uses `swap_remove`, so both the order and the exact LRU
    /// stamps are behaviorally significant.
    fn snapshot(&self, w: &mut SnapshotWriter) {
        w.u64(self.stamp);
        w.seq(self.lens.len());
        for (set, &len) in self.lens.iter().enumerate() {
            let base = set * self.assoc;
            w.seq(len);
            for i in base..base + len {
                self.keys[i].write(w);
                self.slots[i].0.write(w);
                w.u64(self.slots[i].1);
            }
        }
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.mru = NO_SLOT;
        self.stamp = r.u64()?;
        r.seq_exact(self.lens.len())?;
        for set in 0..self.lens.len() {
            let base = set * self.assoc;
            self.lens[set] = 0;
            let n = r.seq()?;
            if n > self.assoc {
                return Err(SnapshotError::Malformed("set holds more than assoc"));
            }
            for i in base..base + n {
                self.keys[i] = K::read(r)?;
                self.slots[i] = (V::read(r)?, r.u64()?);
            }
            self.lens[set] = n;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_then_probe_hits() {
        let mut a = AssocArray::new(8, 8);
        assert_eq!(a.probe(&1u64), None);
        a.fill(1u64, 100u64);
        assert_eq!(a.probe(&1), Some(100));
        assert_eq!(a.peek(&1), Some(100));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut a = AssocArray::new(2, 2);
        a.fill(1u64, 1u64);
        a.fill(2, 2);
        // Touch 1 so that 2 becomes LRU.
        assert_eq!(a.probe(&1), Some(1));
        let evicted = a.fill(3, 3);
        assert_eq!(evicted, Some((2, 2)));
        assert_eq!(a.peek(&1), Some(1));
        assert_eq!(a.peek(&3), Some(3));
    }

    #[test]
    fn refill_updates_value_without_eviction() {
        let mut a = AssocArray::new(2, 2);
        a.fill(1u64, 1u64);
        a.fill(2, 2);
        assert_eq!(a.fill(1, 42), None);
        assert_eq!(a.peek(&1), Some(42));
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn set_mapping_partitions_keys() {
        let mut a = AssocArray::new(64, 4);
        assert_eq!(a.n_sets(), 16);
        for k in 0..64u64 {
            a.fill(k, k);
        }
        assert!(a.len() <= 64);
        // Fully-assoc array never misses below capacity.
        let mut fa = AssocArray::new(64, 64);
        for k in 0..64u64 {
            fa.fill(k, k);
        }
        assert_eq!((0..64u64).filter(|k| fa.peek(k).is_some()).count(), 64);
    }

    #[test]
    fn retain_flushes_selectively() {
        let mut a = AssocArray::new(16, 4);
        for k in 0..16u64 {
            a.fill(k, k % 2);
        }
        let before = a.len();
        a.retain(|_, v| *v == 0);
        assert!(a.len() < before);
        assert!(a.iter().all(|(_, v)| *v == 0));
        a.flush();
        assert!(a.is_empty());
        assert_eq!(a.len(), 0);
    }

    #[test]
    fn invalidate_removes_single_key() {
        let mut a = AssocArray::new(4, 4);
        a.fill(7u64, 7u64);
        assert_eq!(a.invalidate(&7), Some(7));
        assert_eq!(a.invalidate(&7), None);
        assert_eq!(a.probe(&7), None);
    }

    #[test]
    fn capacity_respects_rounding() {
        let a: AssocArray<u64, u64> = AssocArray::new(100, 16);
        // Set count rounds UP: 7 sets of 16 ways — never below the
        // requested 100 entries.
        assert_eq!(a.n_sets(), 7);
        assert_eq!(a.capacity(), 112);
        // Exact multiples are untouched.
        let b: AssocArray<u64, u64> = AssocArray::new(128, 16);
        assert_eq!(b.n_sets(), 8);
        assert_eq!(b.capacity(), 128);
    }
}
