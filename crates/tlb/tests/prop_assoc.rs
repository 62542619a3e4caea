//! Property tests: the set-associative array behaves like a reference
//! model (per-set LRU map) under arbitrary operation sequences.

use mask_common::snapshot::SnapshotWriter;
use mask_common::{Asid, Ppn, Snapshot, Vpn};
use mask_tlb::{AssocArray, TlbKey};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

/// Reference model: an unbounded map plus per-key access stamps; evictions
/// are checked only through the invariant that a *recently touched* subset
/// of keys (within associativity) always survives.
#[derive(Debug, Clone)]
enum Op {
    Fill(u8, u8),
    Probe(u8),
    Invalidate(u8),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (any::<u8>(), any::<u8>()).prop_map(|(k, v)| Op::Fill(k, v)),
            any::<u8>().prop_map(Op::Probe),
            any::<u8>().prop_map(Op::Invalidate),
        ],
        0..300,
    )
}

proptest! {
    /// A probe never observes a value that was not the most recent fill.
    #[test]
    fn probes_return_latest_fill(ops in ops()) {
        let mut arr: AssocArray<u8, u8> = AssocArray::new(32, 4);
        let mut latest: BTreeMap<u8, u8> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Fill(k, v) => {
                    arr.fill(k, v);
                    latest.insert(k, v);
                }
                Op::Probe(k) => {
                    if let Some(v) = arr.probe(&k) {
                        prop_assert_eq!(Some(&v), latest.get(&k), "stale value for {}", k);
                    }
                }
                Op::Invalidate(k) => {
                    arr.invalidate(&k);
                    latest.remove(&k);
                }
            }
            prop_assert!(arr.len() <= arr.capacity());
        }
    }

    /// Fully-associative arrays below capacity never evict.
    #[test]
    fn no_eviction_below_capacity(keys in proptest::collection::hash_set(any::<u16>(), 0..64)) {
        let mut arr: AssocArray<u16, u16> = AssocArray::new(64, 64);
        for &k in &keys {
            prop_assert!(arr.fill(k, k).is_none(), "eviction below capacity");
        }
        for &k in &keys {
            prop_assert_eq!(arr.probe(&k), Some(k));
        }
    }

    /// The most recently touched key of a set is never the next eviction
    /// victim (LRU property).
    #[test]
    fn mru_key_survives_one_fill(seed_keys in proptest::collection::vec(any::<u8>(), 1..50), newcomer: u8) {
        let mut arr: AssocArray<u8, u8> = AssocArray::new(8, 8);
        for &k in &seed_keys {
            arr.fill(k, k);
        }
        let mru = *seed_keys.last().expect("non-empty");
        arr.probe(&mru);
        if newcomer != mru {
            arr.fill(newcomer, newcomer);
            prop_assert!(arr.peek(&mru).is_some(), "MRU key {} evicted", mru);
        }
    }
}

// Differential test against the layout this array replaced: one `Vec` of
// `{key, value, last_used}` per set, scanned linearly. Everything
// positional is behaviour (the victim is the positionally first minimum
// stamp, removal is `swap_remove`, insertion is `push`) and reaches the
// snapshot encoding, so the flat array must match it byte for byte.

struct Entry {
    key: TlbKey,
    value: Ppn,
    last_used: u64,
}

/// The positionally-first minimum stamp of `set` (0 for an empty one).
fn oldest(set: &[Entry]) -> usize {
    let mut victim = 0;
    for (i, e) in set.iter().enumerate() {
        if e.last_used < set[victim].last_used {
            victim = i;
        }
    }
    victim
}

struct VecOfVecs {
    sets: Vec<Vec<Entry>>,
    assoc: usize,
    stamp: u64,
}

impl VecOfVecs {
    fn new(entries: usize, assoc: usize) -> Self {
        let assoc = assoc.min(entries);
        VecOfVecs {
            sets: (0..entries.div_ceil(assoc)).map(|_| Vec::new()).collect(),
            assoc,
            stamp: 0,
        }
    }

    fn set_index(&self, key: &TlbKey) -> usize {
        if self.sets.len() == 1 {
            return 0;
        }
        // std's default hasher, as the replaced code had it: on this
        // toolchain the pinned `mask_common::siphash` is the same
        // function (its own tests say what to do when that ends).
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() as usize) % self.sets.len()
    }

    fn probe(&mut self, key: &TlbKey) -> Option<Ppn> {
        self.stamp += 1;
        let set = self.set_index(key);
        let e = self.sets[set].iter_mut().find(|e| e.key == *key)?;
        e.last_used = self.stamp;
        Some(e.value)
    }

    fn peek(&self, key: &TlbKey) -> Option<Ppn> {
        let set = self.set_index(key);
        self.sets[set]
            .iter()
            .find(|e| e.key == *key)
            .map(|e| e.value)
    }

    fn fill(&mut self, key: TlbKey, value: Ppn) -> Option<(TlbKey, Ppn)> {
        self.stamp += 1;
        let last_used = self.stamp;
        let idx = self.set_index(&key);
        let assoc = self.assoc;
        let set = &mut self.sets[idx];
        if let Some(e) = set.iter_mut().find(|e| e.key == key) {
            e.value = value;
            e.last_used = last_used;
            return None;
        }
        let mut evicted = None;
        if set.len() >= assoc {
            let e = set.swap_remove(oldest(set));
            evicted = Some((e.key, e.value));
        }
        set.push(Entry {
            key,
            value,
            last_used,
        });
        evicted
    }

    fn invalidate(&mut self, key: &TlbKey) -> Option<Ppn> {
        let set = self.set_index(key);
        let pos = self.sets[set].iter().position(|e| e.key == *key)?;
        Some(self.sets[set].swap_remove(pos).value)
    }

    fn retain(&mut self, keep: impl Fn(&TlbKey) -> bool) {
        for set in &mut self.sets {
            set.retain(|e| keep(&e.key));
        }
    }

    fn flush(&mut self) {
        self.sets.iter_mut().for_each(Vec::clear);
    }

    fn len(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    fn pairs(&self) -> Vec<(TlbKey, Ppn)> {
        self.sets
            .iter()
            .flatten()
            .map(|e| (e.key, e.value))
            .collect()
    }

    /// Per non-empty set, keys nothing else uses that map to it (enough to
    /// fill it and evict once) and its positionally-first minimum stamp.
    fn victims(&self) -> Vec<(Vec<TlbKey>, TlbKey)> {
        let mut out = Vec::new();
        for (idx, set) in self.sets.iter().enumerate() {
            if let Some(oldest) = set.get(oldest(set)) {
                let fresh = (1_000u64..)
                    .map(|v| TlbKey::new(Asid::new(7), Vpn(v)))
                    .filter(|k| self.set_index(k) == idx)
                    .take(self.assoc - set.len() + 1);
                out.push((fresh.collect(), oldest.key));
            }
        }
        out
    }

    fn encode(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.u64(self.stamp);
        w.seq(self.sets.len());
        for set in &self.sets {
            w.seq(set.len());
            for e in set {
                e.key.snapshot(&mut w);
                e.value.snapshot(&mut w);
                w.u64(e.last_used);
            }
        }
        w.seal(mask_common::PrefixKey(0))
    }
}

#[derive(Debug, Clone)]
enum TlbOp {
    Probe(u16, u64),
    Peek(u16, u64),
    Fill(u16, u64, u64),
    Invalidate(u16, u64),
    FlushAsid(u16),
    Flush,
}

fn tlb_ops() -> impl Strategy<Value = Vec<TlbOp>> {
    let key = || (0u16..3, 0u64..48);
    proptest::collection::vec(
        prop_oneof![
            key().prop_map(|(a, v)| TlbOp::Probe(a, v)),
            key().prop_map(|(a, v)| TlbOp::Probe(a, v)),
            key().prop_map(|(a, v)| TlbOp::Peek(a, v)),
            (key(), any::<u64>()).prop_map(|((a, v), p)| TlbOp::Fill(a, v, p)),
            (key(), any::<u64>()).prop_map(|((a, v), p)| TlbOp::Fill(a, v, p)),
            (key(), any::<u64>()).prop_map(|((a, v), p)| TlbOp::Fill(a, v, p)),
            key().prop_map(|(a, v)| TlbOp::Invalidate(a, v)),
            (0u16..3).prop_map(TlbOp::FlushAsid),
            (0u8..40, key()).prop_map(|(n, (a, v))| if n == 0 {
                TlbOp::Flush
            } else {
                TlbOp::Peek(a, v)
            }),
        ],
        0..400,
    )
}

fn encode<T: Snapshot>(t: &T) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    t.snapshot(&mut w);
    w.seal(mask_common::PrefixKey(0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Equal return values and a byte-identical snapshot after every
    /// operation, for a power-of-two set count, an odd one, and one set —
    /// and after every operation, in every set, the head of the recency
    /// list (what a copy of the array evicts once that set overflows) is
    /// the positionally-first minimum stamp.
    #[test]
    fn flat_array_equals_the_vec_of_vecs_it_replaced(ops in tlb_ops(), geometry in 0usize..3) {
        let (entries, assoc) = [(32, 4), (12, 4), (8, 8)][geometry];
        let mut arr: AssocArray<TlbKey, Ppn> = AssocArray::new(entries, assoc);
        let mut model = VecOfVecs::new(entries, assoc);
        let key = |a: u16, v: u64| TlbKey::new(Asid::new(a), Vpn(v));
        for op in ops {
            match op {
                TlbOp::Probe(a, v) => prop_assert_eq!(arr.probe(&key(a, v)), model.probe(&key(a, v))),
                TlbOp::Peek(a, v) => prop_assert_eq!(arr.peek(&key(a, v)), model.peek(&key(a, v))),
                TlbOp::Fill(a, v, p) => {
                    prop_assert_eq!(arr.fill(key(a, v), Ppn(p)), model.fill(key(a, v), Ppn(p)));
                }
                TlbOp::Invalidate(a, v) => {
                    prop_assert_eq!(arr.invalidate(&key(a, v)), model.invalidate(&key(a, v)));
                }
                TlbOp::FlushAsid(a) => {
                    arr.retain(|k, _| k.asid != Asid::new(a));
                    model.retain(|k| k.asid != Asid::new(a));
                }
                TlbOp::Flush => {
                    arr.flush();
                    model.flush();
                }
            }
            prop_assert_eq!(arr.len(), model.len());
            prop_assert_eq!(arr.is_empty(), model.len() == 0);
            let pairs: Vec<(TlbKey, Ppn)> = arr.iter().map(|(k, v)| (*k, *v)).collect();
            prop_assert_eq!(pairs, model.pairs());
            prop_assert_eq!(encode(&arr), model.encode());
            for (fresh, oldest) in model.victims() {
                let mut overflowed = arr.clone();
                let evicted: Vec<TlbKey> =
                    fresh.iter().filter_map(|&k| overflowed.fill(k, Ppn(0))).map(|(k, _)| k).collect();
                prop_assert_eq!(evicted, vec![oldest]);
            }
        }
    }
}
