//! Differential tests: the dense-lines MSHR table and the flat data-cache
//! arrays against the layouts they replaced, written out naively here —
//! `Vec<{line, waiters}>` scanned entry by entry, and one boxed slice of
//! `{line, last_used, valid, owner}` ways per set. Table order, way
//! position and LRU stamps are behaviour and reach the snapshot encoding,
//! so every operation must return the same value and leave byte-identical
//! snapshots.

use mask_cache::{DataCache, MshrAlloc, MshrTable};
use mask_common::addr::LineAddr;
use mask_common::ids::Asid;
use mask_common::snapshot::{PrefixKey, Snapshot, SnapshotReader, SnapshotWriter};
use proptest::prelude::*;

fn encode<T: Snapshot>(t: &T) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    t.snapshot(&mut w);
    w.seal(PrefixKey(0))
}

fn restore_into<T: Snapshot>(fresh: &mut T, bytes: &[u8]) {
    let (mut r, _) = SnapshotReader::open(bytes).expect("sealed by `encode`");
    fresh.restore(&mut r).expect("own encoding restores");
    r.finish().expect("restore consumes the payload");
}

struct NaiveMshr {
    entries: Vec<(u64, Vec<u64>)>,
    capacity: usize,
    peak_waiters: usize,
}

impl NaiveMshr {
    fn allocate(&mut self, line: u64, waiter: u64) -> MshrAlloc {
        if let Some((_, waiters)) = self.entries.iter_mut().find(|(l, _)| *l == line) {
            waiters.push(waiter);
            self.peak_waiters = self.peak_waiters.max(waiters.len());
            return MshrAlloc::Secondary;
        }
        if self.entries.len() >= self.capacity {
            return MshrAlloc::Full;
        }
        self.entries.push((line, vec![waiter]));
        self.peak_waiters = self.peak_waiters.max(1);
        MshrAlloc::Primary
    }

    fn complete(&mut self, line: u64) -> Vec<u64> {
        match self.entries.iter().position(|(l, _)| *l == line) {
            Some(i) => self.entries.swap_remove(i).1,
            None => Vec::new(),
        }
    }

    fn waiters_on(&self, line: u64) -> usize {
        self.entries
            .iter()
            .find(|(l, _)| *l == line)
            .map_or(0, |(_, w)| w.len())
    }

    fn encode(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.usize(self.peak_waiters);
        w.seq(self.entries.len());
        for (line, waiters) in &self.entries {
            w.u64(*line);
            w.seq(waiters.len());
            for &waiter in waiters {
                w.u64(waiter);
            }
        }
        w.seal(PrefixKey(0))
    }
}

#[derive(Debug, Clone)]
enum MshrOp {
    Allocate(u64, u64),
    Complete(u64),
    Contains(u64),
    RoundTrip,
}

fn mshr_ops() -> impl Strategy<Value = Vec<MshrOp>> {
    proptest::collection::vec(
        prop_oneof![
            (0u64..12, any::<u64>()).prop_map(|(l, w)| MshrOp::Allocate(l, w)),
            (0u64..12, any::<u64>()).prop_map(|(l, w)| MshrOp::Allocate(l, w)),
            (0u64..12).prop_map(MshrOp::Complete),
            (0u64..12).prop_map(MshrOp::Contains),
            (0u8..16).prop_map(|n| if n == 0 {
                MshrOp::RoundTrip
            } else {
                MshrOp::Complete(u64::from(n) % 12)
            }),
        ],
        0..300,
    )
}

struct Way {
    line: u64,
    last_used: u64,
    valid: bool,
    owner: u16,
}

#[derive(Clone, Copy, Debug)]
enum Split {
    Shared,
    Ways(usize),
    Sets(usize),
}

struct NaiveCache {
    sets: Vec<Vec<Way>>,
    assoc: usize,
    stamp: u64,
    split: Split,
}

/// Everyone gets `total / n`, the last takes the remainder.
fn share(total: usize, n: usize, i: usize) -> (usize, usize) {
    let per = total / n;
    (i * per, if i == n - 1 { total } else { (i + 1) * per })
}

impl NaiveCache {
    fn new(bytes: usize, assoc: usize, split: Split) -> Self {
        let n_sets = bytes / 128 / assoc;
        let way = || Way {
            line: 0,
            last_used: 0,
            valid: false,
            owner: 0,
        };
        NaiveCache {
            sets: (0..n_sets)
                .map(|_| (0..assoc).map(|_| way()).collect())
                .collect(),
            assoc,
            stamp: 0,
            split,
        }
    }

    fn set_index(&self, line: u64, asid: u16) -> usize {
        let folded = line ^ (line >> 16);
        match self.split {
            Split::Sets(n) => {
                let (start, end) = share(self.sets.len(), n, usize::from(asid) % n);
                start + (folded % (end - start) as u64) as usize
            }
            _ => (folded % self.sets.len() as u64) as usize,
        }
    }

    fn probe(&mut self, line: u64, asid: u16) -> bool {
        self.stamp += 1;
        let set = self.set_index(line, asid);
        match self.sets[set]
            .iter_mut()
            .find(|w| w.valid && w.line == line)
        {
            Some(w) => {
                w.last_used = self.stamp;
                true
            }
            None => false,
        }
    }

    fn peek(&self, line: u64, asid: u16) -> bool {
        let set = self.set_index(line, asid);
        self.sets[set].iter().any(|w| w.valid && w.line == line)
    }

    fn fill(&mut self, line: u64, asid: u16) -> Option<u64> {
        self.stamp += 1;
        let set = self.set_index(line, asid);
        let (lo, hi) = match self.split {
            Split::Ways(n) if usize::from(asid) < n => share(self.assoc, n, usize::from(asid)),
            _ => (0, self.assoc),
        };
        let ways = &mut self.sets[set];
        if let Some(w) = ways.iter_mut().find(|w| w.valid && w.line == line) {
            w.last_used = self.stamp;
            return None;
        }
        let age = |w: &Way| if w.valid { w.last_used } else { 0 };
        let mut victim = lo;
        for i in lo..hi {
            if age(&ways[i]) < age(&ways[victim]) {
                victim = i;
            }
        }
        let evicted = ways[victim].valid.then_some(ways[victim].line);
        ways[victim] = Way {
            line,
            last_used: self.stamp,
            valid: true,
            owner: asid,
        };
        evicted
    }

    fn flush(&mut self) {
        for w in self.sets.iter_mut().flatten() {
            w.valid = false;
        }
    }

    fn encode(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.u64(self.stamp);
        w.seq(self.sets.len());
        for way in self.sets.iter().flatten() {
            w.u64(way.line);
            w.u64(way.last_used);
            w.bool(way.valid);
            w.u16(way.owner);
        }
        w.seal(PrefixKey(0))
    }
}

fn cache(bytes: usize, assoc: usize, split: Split) -> DataCache {
    let mut c = DataCache::new(bytes, assoc);
    match split {
        Split::Shared => {}
        Split::Ways(n) => c.partition_ways(n),
        Split::Sets(n) => c.partition_sets(n),
    }
    c
}

#[derive(Debug, Clone)]
enum CacheOp {
    Probe(u64, u16),
    Peek(u64, u16),
    Fill(u64, u16),
    Flush,
    RoundTrip,
}

fn cache_ops() -> impl Strategy<Value = Vec<CacheOp>> {
    // Low lines collide in sets; the shifted ones exercise the index fold.
    let line = || {
        prop_oneof![
            0u64..96,
            0u64..96,
            (0u64..96).prop_map(|l| (l << 16) | (l >> 2)),
        ]
    };
    proptest::collection::vec(
        prop_oneof![
            (line(), 0u16..3).prop_map(|(l, a)| CacheOp::Probe(l, a)),
            (line(), 0u16..3).prop_map(|(l, a)| CacheOp::Probe(l, a)),
            (line(), 0u16..3).prop_map(|(l, a)| CacheOp::Peek(l, a)),
            (line(), 0u16..3).prop_map(|(l, a)| CacheOp::Fill(l, a)),
            (line(), 0u16..3).prop_map(|(l, a)| CacheOp::Fill(l, a)),
            (line(), 0u16..3).prop_map(|(l, a)| CacheOp::Fill(l, a)),
            (0u8..30).prop_map(|n| if n == 0 {
                CacheOp::Flush
            } else {
                CacheOp::RoundTrip
            }),
        ],
        0..400,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn mshr_table_equals_the_entry_scan_it_replaced(ops in mshr_ops(), capacity in 1usize..9) {
        let mut table: MshrTable<u64> = MshrTable::new(capacity);
        let mut model = NaiveMshr { entries: Vec::new(), capacity, peak_waiters: 0 };
        let mut out = vec![u64::MAX]; // `complete_into` appends, never clears
        for op in ops {
            match op {
                MshrOp::Allocate(line, waiter) => {
                    prop_assert_eq!(table.allocate(LineAddr(line), waiter), model.allocate(line, waiter));
                }
                MshrOp::Complete(line) => {
                    let want = model.complete(line);
                    out.truncate(1);
                    prop_assert_eq!(table.complete_into(LineAddr(line), &mut out), want.len());
                    prop_assert_eq!(&out[1..], &want[..]);
                    prop_assert_eq!(out[0], u64::MAX);
                }
                MshrOp::Contains(line) => {
                    prop_assert_eq!(table.contains(LineAddr(line)), model.waiters_on(line) > 0);
                    prop_assert_eq!(table.waiters_on(LineAddr(line)), model.waiters_on(line));
                }
                MshrOp::RoundTrip => {
                    let mut fresh: MshrTable<u64> = MshrTable::new(capacity);
                    restore_into(&mut fresh, &encode(&table));
                    table = fresh;
                }
            }
            prop_assert_eq!(table.len(), model.entries.len());
            prop_assert_eq!(table.is_full(), model.entries.len() >= capacity);
            prop_assert_eq!(table.peak_waiters(), model.peak_waiters);
            let order: Vec<(u64, Vec<u64>)> =
                table.entries().map(|e| (e.line.0, e.waiters.clone())).collect();
            prop_assert_eq!(&order, &model.entries);
            prop_assert_eq!(encode(&table), model.encode());
        }
    }

    #[test]
    fn flat_data_cache_equals_the_boxed_sets_it_replaced(ops in cache_ops(), mode in 0usize..5) {
        // 32 lines: 8 sets of 4 ways, or 2 sets of 16.
        let (bytes, assoc, split) = [
            (4096, 4, Split::Shared),
            (4096, 4, Split::Ways(2)),
            (4096, 16, Split::Ways(3)),
            (4096, 4, Split::Sets(3)),
            (4096, 4, Split::Sets(2)),
        ][mode];
        let mut c = cache(bytes, assoc, split);
        let mut model = NaiveCache::new(bytes, assoc, split);
        // A coloured cache has one colour per application (the sanitizer
        // holds every set to a single owner).
        let asid = |a: u16| match split {
            Split::Sets(n) => a % n as u16,
            _ => a,
        };
        for op in ops {
            let op = match op {
                CacheOp::Probe(l, a) => CacheOp::Probe(l, asid(a)),
                CacheOp::Peek(l, a) => CacheOp::Peek(l, asid(a)),
                CacheOp::Fill(l, a) => CacheOp::Fill(l, asid(a)),
                other => other,
            };
            match op {
                CacheOp::Probe(l, a) => prop_assert_eq!(c.probe(LineAddr(l), Asid::new(a)), model.probe(l, a)),
                CacheOp::Peek(l, a) => prop_assert_eq!(c.peek(LineAddr(l), Asid::new(a)), model.peek(l, a)),
                CacheOp::Fill(l, a) => {
                    prop_assert_eq!(c.fill(LineAddr(l), Asid::new(a)), model.fill(l, a).map(LineAddr));
                }
                CacheOp::Flush => {
                    c.flush();
                    model.flush();
                }
                CacheOp::RoundTrip => {
                    let mut fresh = cache(bytes, assoc, split);
                    restore_into(&mut fresh, &encode(&c));
                    c = fresh;
                }
            }
            prop_assert_eq!(c.len(), model.sets.iter().flatten().filter(|w| w.valid).count());
            prop_assert_eq!(encode(&c), model.encode());
        }
    }
}
