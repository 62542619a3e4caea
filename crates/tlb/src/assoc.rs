//! A generic set-associative array with true-LRU replacement.
//!
//! Shared by the L1 TLB (one fully-associative set), the shared L2 TLB
//! (16-way), the TLB bypass cache (fully associative), and the page-walk
//! cache. Data caches live in `mask-cache` and add MSHRs and banking on
//! top of the same structure.

use mask_common::siphash::SipHasher13;
use mask_common::snapshot::{Snapshot, SnapshotWriter};
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
///
/// Every touch takes a fresh stamp, so a set's stamps are distinct and its
/// least recently used entry is one way, which each set's recency list
/// keeps at its head: an eviction reads the victim, it does not scan for it.
#[derive(Clone, Debug)]
pub struct AssocArray<K, V> {
    keys: Vec<K>,
    /// `(value, last_used)` of the key at the same index.
    slots: Vec<(V, u64)>,
    /// Occupied ways per set.
    lens: Vec<usize>,
    /// Per slot, the ways `(older, newer)` next to it in its set's recency
    /// list; `NO_WAY` past either end. Derived state, like `ends`: the
    /// stamps say the same and are what a snapshot carries.
    order: Vec<(u16, u16)>,
    /// Per set, its `(least, most)` recently used ways; `NO_WAY` when empty.
    ends: Vec<(u16, u16)>,
    assoc: usize,
    stamp: u64,
    /// The slot the last probe hit or the last fill wrote — the newest of
    /// its set's recency list; `NO_SLOT` after any removal. Keys in a set
    /// are unique, so finding a key there first answers what the scan
    /// would. Derived state: not encoded.
    mru: usize,
}

const NO_SLOT: usize = usize::MAX;
const NO_WAY: u16 = u16::MAX;

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
    /// Panics if `entries` or `assoc` is zero, or if a set would have more
    /// ways than a recency link can name.
    pub fn new(entries: usize, assoc: usize) -> Self {
        assert!(
            entries > 0 && assoc > 0,
            "capacity and associativity must be positive"
        );
        let assoc = assoc.min(entries);
        assert!(assoc < usize::from(NO_WAY), "too many ways for a u16 link");
        let n_sets = entries.div_ceil(assoc);
        AssocArray {
            keys: vec![K::default(); n_sets * assoc],
            slots: vec![(V::default(), 0); n_sets * assoc],
            lens: vec![0; n_sets],
            order: vec![(NO_WAY, NO_WAY); n_sets * assoc],
            ends: vec![(NO_WAY, NO_WAY); n_sets],
            assoc,
            stamp: 0,
            mru: NO_SLOT,
        }
    }

    /// Total entry capacity.
    pub fn capacity(&self) -> usize {
        self.keys.len()
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

    /// The way of `set` holding `key`, if resident.
    fn way_of(&self, set: usize, key: &K) -> Option<usize> {
        let base = set * self.assoc;
        self.keys[base..base + self.lens[set]]
            .iter()
            .position(|k| k == key)
    }

    /// The slot holding `key`, if resident.
    fn find(&self, key: &K) -> Option<usize> {
        if self.keys.get(self.mru) == Some(key) {
            return Some(self.mru);
        }
        let set = self.set_index(key);
        self.way_of(set, key).map(|way| set * self.assoc + way)
    }

    /// Makes `older` and `newer` neighbours in `set`'s recency list;
    /// `NO_WAY` for either makes the other that end of the list.
    fn join(&mut self, set: usize, older: u16, newer: u16) {
        let base = set * self.assoc;
        match older {
            NO_WAY => self.ends[set].0 = newer,
            way => self.order[base + usize::from(way)].1 = newer,
        }
        match newer {
            NO_WAY => self.ends[set].1 = older,
            way => self.order[base + usize::from(way)].0 = older,
        }
    }

    /// Puts `way` into `set`'s recency list between the neighbours `older`
    /// and `newer`.
    fn splice(&mut self, set: usize, way: u16, older: u16, newer: u16) {
        self.order[set * self.assoc + usize::from(way)] = (older, newer);
        self.join(set, older, way);
        self.join(set, way, newer);
    }

    /// Takes `way` out of `set`'s recency list.
    fn unlink(&mut self, set: usize, way: u16) {
        let (older, newer) = self.order[set * self.assoc + usize::from(way)];
        self.join(set, older, newer);
    }

    /// Makes `way` the most recently used of `set`.
    fn make_newest(&mut self, set: usize, way: usize) {
        let way = way as u16;
        if self.ends[set].1 != way {
            self.unlink(set, way);
            self.splice(set, way, self.ends[set].1, NO_WAY);
        }
    }

    /// Rebuilds `set`'s recency list from its stamps, oldest first. `false`
    /// if two ways carry one stamp, which leaves no order to rebuild.
    fn relink(&mut self, set: usize) -> bool {
        let base = set * self.assoc;
        self.ends[set] = (NO_WAY, NO_WAY);
        for way in 0..self.lens[set] {
            let stamp = self.slots[base + way].1;
            // Entries are appended as they arrive, so a way is usually
            // newer than most before it: look for its place from the
            // newest end.
            let (mut older, mut newer) = (self.ends[set].1, NO_WAY);
            while older != NO_WAY && self.slots[base + usize::from(older)].1 > stamp {
                (older, newer) = (self.order[base + usize::from(older)].0, older);
            }
            if older != NO_WAY && self.slots[base + usize::from(older)].1 == stamp {
                return false;
            }
            self.splice(set, way as u16, older, newer);
        }
        true
    }

    /// The positionally-first minimum stamp of a full `set`: the victim as
    /// the stamps alone name it, which the recency list's head must be.
    fn oldest_by_stamp(&self, set: usize) -> usize {
        let base = set * self.assoc;
        let (mut victim, mut oldest) = (0, u64::MAX);
        for (way, slot) in self.slots[base..base + self.lens[set]].iter().enumerate() {
            if slot.1 < oldest {
                (victim, oldest) = (way, slot.1);
            }
        }
        victim
    }

    /// Removes the entry in `slot` of `set` by moving the set's last entry
    /// into it (`swap_remove`), returning what was there.
    fn remove_slot(&mut self, set: usize, slot: usize) -> (K, V) {
        self.mru = NO_SLOT;
        let base = set * self.assoc;
        let (way, last_way) = ((slot - base) as u16, (self.lens[set] - 1) as u16);
        let last = base + usize::from(last_way);
        let removed = (self.keys[slot], self.slots[slot].0);
        self.unlink(set, way);
        if way != last_way {
            self.keys[slot] = self.keys[last];
            self.slots[slot] = self.slots[last];
            // The moved entry keeps its place in the list under its new way.
            let (older, newer) = self.order[last];
            self.splice(set, way, older, newer);
        }
        self.lens[set] -= 1;
        removed
    }

    /// Looks up `key`, updating LRU state on a hit.
    pub fn probe(&mut self, key: &K) -> Option<V> {
        self.stamp += 1;
        // The slot `mru` names is already the newest of its set.
        let found = if self.keys.get(self.mru) == Some(key) {
            self.mru
        } else {
            let set = self.set_index(key);
            let way = self.way_of(set, key)?;
            self.make_newest(set, way);
            set * self.assoc + way
        };
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
        if let Some(way) = self.way_of(set, &key) {
            self.slots[base + way] = (value, stamp);
            self.make_newest(set, way);
            self.mru = base + way;
            return None;
        }
        let mut evicted = None;
        if self.lens[set] >= self.assoc {
            let victim = usize::from(self.ends[set].0);
            if cfg!(debug_assertions) {
                mask_obs::hooks::check(
                    victim == self.oldest_by_stamp(set),
                    "assoc-lru-order",
                    "the evicted way must be the first minimum stamp of its set",
                );
            }
            evicted = Some(self.remove_slot(set, base + victim));
        }
        let way = self.lens[set];
        self.keys[base + way] = key;
        self.slots[base + way] = (value, stamp);
        self.lens[set] += 1;
        self.splice(set, way as u16, self.ends[set].1, NO_WAY);
        self.mru = base + way;
        evicted
    }

    /// Removes all entries matching a predicate (e.g. per-ASID flush),
    /// keeping the survivors of each set in order.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &V) -> bool) {
        self.mru = NO_SLOT;
        for set in 0..self.lens.len() {
            let base = set * self.assoc;
            let len = self.lens[set];
            let mut kept = 0;
            for way in 0..len {
                if keep(&self.keys[base + way], &self.slots[base + way].0) {
                    self.keys[base + kept] = self.keys[base + way];
                    self.slots[base + kept] = self.slots[base + way];
                    kept += 1;
                }
            }
            if kept != len {
                self.lens[set] = kept;
                let distinct = self.relink(set);
                debug_assert!(distinct, "every touch takes a fresh stamp");
            }
        }
    }

    /// Removes every entry.
    pub fn flush(&mut self) {
        self.mru = NO_SLOT;
        self.lens.fill(0);
        self.ends.fill((NO_WAY, NO_WAY));
    }

    /// Iterates over resident `(key, value)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.lens.iter().enumerate().flat_map(move |(set, &len)| {
            let base = set * self.assoc;
            (base..base + len).map(move |i| (&self.keys[i], &self.slots[i].0))
        })
    }
}

impl<K: Snapshot + Eq + Hash + Copy + Default, V: Snapshot + Copy + Default> Snapshot
    for AssocArray<K, V>
{
    /// Captures the stamp and every set's entries *in stored order*:
    /// eviction picks the minimum `last_used` and removal uses
    /// `swap_remove`, so both the order and the exact LRU stamps are
    /// behaviorally significant. The recency lists are not encoded: the
    /// stamps order each set.
    fn snapshot(&self, w: &mut SnapshotWriter) {
        w.u64(self.stamp);
        w.seq(self.lens.len());
        for (set, &len) in self.lens.iter().enumerate() {
            let base = set * self.assoc;
            w.seq(len);
            for i in base..base + len {
                self.keys[i].snapshot(w);
                self.slots[i].0.snapshot(w);
                w.u64(self.slots[i].1);
            }
        }
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
        assert_eq!(a.lens.len(), 16);
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

    /// Every set's recency list, oldest first, read off its links.
    fn orders(a: &AssocArray<u64, u64>) -> Vec<Vec<usize>> {
        (0..a.lens.len())
            .map(|set| {
                let mut ways = Vec::new();
                let mut way = a.ends[set].0;
                while way != NO_WAY {
                    ways.push(usize::from(way));
                    way = a.order[set * a.assoc + usize::from(way)].1;
                }
                assert_eq!(ways.len(), a.lens[set], "the list holds every way once");
                assert_eq!(ways.last().map_or(NO_WAY, |&w| w as u16), a.ends[set].1);
                ways
            })
            .collect()
    }

    /// The same, derived from the stamps alone.
    fn orders_by_stamp(a: &AssocArray<u64, u64>) -> Vec<Vec<usize>> {
        (0..a.lens.len())
            .map(|set| {
                let mut ways: Vec<usize> = (0..a.lens[set]).collect();
                ways.sort_by_key(|&way| a.slots[set * a.assoc + way].1);
                ways
            })
            .collect()
    }

    #[test]
    fn the_recency_list_is_the_stamp_order_after_every_operation() {
        let mut a: AssocArray<u64, u64> = AssocArray::new(12, 4);
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for step in 0..4_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = x % 24;
            match (x >> 32) % 16 {
                0..=5 => drop(a.probe(&key)),
                6..=14 => drop(a.fill(key, step)),
                _ if step % 5 == 0 => a.flush(),
                _ => a.retain(|k, _| k % 3 != key % 3),
            }
            assert_eq!(orders(&a), orders_by_stamp(&a), "after step {step}");
            for set in (0..a.lens.len()).filter(|&s| a.lens[s] == a.assoc) {
                assert_eq!(usize::from(a.ends[set].0), a.oldest_by_stamp(set));
            }
        }
    }

    /// Red test for the `assoc-lru-order` premise check: a list whose head
    /// is not the oldest stamp would evict an entry LRU keeps.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "the evicted way must be the first minimum stamp of its set")]
    fn a_list_head_that_is_not_the_oldest_stamp_trips_the_sanitizer() {
        mask_obs::hooks::enter_session(mask_obs::hooks::new_session());
        let mut a: AssocArray<u64, u64> = AssocArray::new(4, 4);
        for k in 0..4u64 {
            a.fill(k, k);
        }
        a.ends[0].0 = 2;
        a.fill(9, 9);
    }

    #[test]
    fn capacity_respects_rounding() {
        let a: AssocArray<u64, u64> = AssocArray::new(100, 16);
        // Set count rounds UP: 7 sets of 16 ways — never below the
        // requested 100 entries.
        assert_eq!(a.lens.len(), 7);
        assert_eq!(a.capacity(), 112);
        // Exact multiples are untouched.
        let b: AssocArray<u64, u64> = AssocArray::new(128, 16);
        assert_eq!(b.lens.len(), 8);
        assert_eq!(b.capacity(), 128);
    }
}
