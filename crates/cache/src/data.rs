//! A line-granularity set-associative data cache with LRU replacement and
//! optional per-ASID way partitioning or set coloring.
//!
//! Way partitioning implements the `Static` baseline of §7: "an oracle is
//! used to partition GPU cores, but the shared L2 cache and memory channels
//! are partitioned equally across applications". Probes search *all* ways
//! (correctness is unaffected by partitioning); only victim selection is
//! restricted to the ASID's way range.
//!
//! Set coloring implements the FGPU-style `Partitioned` design: each ASID's
//! accesses index into a disjoint range of sets, so no set ever holds lines
//! of two applications (an invariant the sanitizer enforces on every fill).

use mask_common::addr::LineAddr;
use mask_common::ids::{split_ranges, Asid};

/// A set-associative cache over physical lines.
///
/// Way `w` of set `s` lives at index `s * assoc + w` of four parallel
/// vectors, tags apart from LRU stamps: a probe reads one set's tags and
/// valid bits and nothing else until it has found its way.
#[derive(Debug)]
pub struct DataCache {
    /// Line tag per way (stale, not cleared, in an invalid way).
    lines: Vec<u64>,
    valid: Vec<bool>,
    /// `last_used` stamp per way.
    stamps: Vec<u64>,
    /// Filling ASID per way (isolation bookkeeping for the colored designs).
    owner: Vec<u16>,
    n_sets: usize,
    assoc: usize,
    stamp: u64,
    /// Way-range restriction `(start, end)` per ASID (Static design);
    /// `None` = shared.
    partition: Option<Vec<(usize, usize)>>,
    /// Set-range restriction per ASID (Partitioned design); `None` =
    /// shared indexing. `(start, len)` per ASID.
    set_colors: Option<Vec<(usize, usize)>>,
}

impl DataCache {
    /// Creates a cache of `bytes` capacity with `assoc` ways over 128 B
    /// lines.
    ///
    /// # Panics
    ///
    /// Panics if the configuration yields zero sets or zero ways.
    pub fn new(bytes: usize, assoc: usize) -> Self {
        let lines = bytes as u64 / mask_common::addr::LINE_SIZE;
        let n_sets = (lines as usize / assoc).max(1);
        assert!(assoc > 0 && lines > 0, "cache must have capacity");
        DataCache {
            lines: vec![0; n_sets * assoc],
            valid: vec![false; n_sets * assoc],
            stamps: vec![0; n_sets * assoc],
            owner: vec![0; n_sets * assoc],
            n_sets,
            assoc,
            stamp: 0,
            partition: None,
            set_colors: None,
        }
    }

    /// Splits the ways among `n_apps` address spaces (Static design).
    /// ASID `i` may only allocate into its own way range; an uneven split
    /// gives every app `assoc / n_apps` ways and the last app the
    /// remainder (see [`split_ranges`]).
    ///
    /// # Panics
    ///
    /// Panics if `n_apps` is zero or exceeds the associativity.
    pub fn partition_ways(&mut self, n_apps: usize) {
        assert!(
            n_apps > 0 && n_apps <= self.assoc,
            "cannot partition {} ways {n_apps} ways",
            self.assoc
        );
        self.partition = Some(
            split_ranges(self.assoc, n_apps)
                .into_iter()
                .map(|(start, len)| (start, start + len))
                .collect(),
        );
    }

    /// Colors the sets among `n_apps` address spaces (the `Partitioned`
    /// design): ASID `i` indexes exclusively into its own contiguous set
    /// range, so no set ever holds two applications' lines. Uneven splits
    /// follow the same deterministic remainder-to-last rule as
    /// [`DataCache::partition_ways`].
    ///
    /// # Panics
    ///
    /// Panics if `n_apps` is zero or exceeds the set count.
    pub fn partition_sets(&mut self, n_apps: usize) {
        let n_sets = self.n_sets;
        assert!(
            n_apps > 0 && n_apps <= n_sets,
            "cannot color {n_sets} sets for {n_apps} apps"
        );
        self.set_colors = Some(split_ranges(n_sets, n_apps));
    }

    fn set_index(&self, line: LineAddr, asid: Asid) -> usize {
        // Low line bits index the set (plus a simple hash fold of higher
        // bits to avoid pathological power-of-two strides). Set counts are
        // powers of two for every shipped geometry, where a mask computes
        // the same residue as `%` without the 64-bit divide.
        let folded = line.0 ^ (line.0 >> 16);
        if let Some(colors) = &self.set_colors {
            // Set coloring: the nominal index is folded into the ASID's
            // disjoint set range (color lengths are rarely powers of two,
            // so this path pays the divide).
            let (start, len) = colors[asid.index() % colors.len()];
            return start + (folded % len as u64) as usize;
        }
        let n = self.n_sets as u64;
        if n.is_power_of_two() {
            (folded & (n - 1)) as usize
        } else {
            (folded % n) as usize
        }
    }

    /// The index of the valid way holding `line` in the set starting at
    /// `base`.
    fn find(&self, base: usize, line: LineAddr) -> Option<usize> {
        let tags = &self.lines[base..base + self.assoc];
        let valid = &self.valid[base..base + self.assoc];
        tags.iter()
            .zip(valid)
            .position(|(tag, valid)| *tag == line.0 && *valid)
            .map(|way| base + way)
    }

    /// Probes for `line` on behalf of `asid`, updating LRU on hit.
    pub fn probe(&mut self, line: LineAddr, asid: Asid) -> bool {
        self.stamp += 1;
        let base = self.set_index(line, asid) * self.assoc;
        match self.find(base, line) {
            Some(i) => {
                self.stamps[i] = self.stamp;
                true
            }
            None => false,
        }
    }

    /// Advances the LRU clock by one — all a probe that misses does.
    pub fn advance_clock(&mut self) {
        self.stamp += 1;
    }

    /// Checks residency without perturbing LRU.
    pub fn peek(&self, line: LineAddr, asid: Asid) -> bool {
        let base = self.set_index(line, asid) * self.assoc;
        self.find(base, line).is_some()
    }

    /// Fills `line` on behalf of `asid`, evicting the LRU way within the
    /// ASID's allowed range. Returns the evicted line, if any.
    pub fn fill(&mut self, line: LineAddr, asid: Asid) -> Option<LineAddr> {
        self.stamp += 1;
        let stamp = self.stamp;
        let base = self.set_index(line, asid) * self.assoc;
        let (lo, hi) = match &self.partition {
            Some(ranges) => *ranges.get(asid.index()).unwrap_or(&(0, self.assoc)),
            None => (0, self.assoc),
        };
        // Already resident (raced fills): refresh.
        if let Some(i) = self.find(base, line) {
            self.stamps[i] = stamp;
            return None;
        }
        let victim = (base + lo..base + hi)
            .min_by_key(|&i| if self.valid[i] { self.stamps[i] } else { 0 })
            .expect("way range is non-empty");
        let evicted = self.valid[victim].then_some(LineAddr(self.lines[victim]));
        self.lines[victim] = line.0;
        self.stamps[victim] = stamp;
        self.valid[victim] = true;
        self.owner[victim] = asid.raw();
        if cfg!(debug_assertions) {
            let ways = || base..base + self.assoc;
            let resident = ways()
                .filter(|&i| self.valid[i] && self.lines[i] == line.0)
                .count();
            mask_obs::hooks::check(
                resident == 1,
                "l2-data-array",
                "a line must be resident in exactly one way of its set",
            );
            if self.set_colors.is_some() {
                // Partitioned-design isolation: a colored set only ever
                // holds lines filled by its owning application.
                let foreign = ways().any(|i| self.valid[i] && self.owner[i] != asid.raw());
                mask_obs::hooks::check(
                    !foreign,
                    "l2-set-color",
                    "a colored L2 set must hold a single application's lines",
                );
            }
        }
        evicted
    }

    /// Invalidates every line (context switch / flush experiments).
    pub fn flush(&mut self) {
        self.valid.fill(false);
    }

    /// Number of valid lines.
    pub fn len(&self) -> usize {
        self.valid.iter().filter(|&&v| v).count()
    }

    /// Whether no lines are valid.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl mask_common::snapshot::Snapshot for DataCache {
    /// Serializes the stamp and every way (valid or not) of every set: the
    /// geometry is fixed at construction, so the layout is positional.
    /// Partitioning and set coloring are config-derived and not captured.
    fn snapshot(&self, w: &mut mask_common::snapshot::SnapshotWriter) {
        w.u64(self.stamp);
        w.seq(self.n_sets);
        for i in 0..self.lines.len() {
            w.u64(self.lines[i]);
            w.u64(self.stamps[i]);
            w.bool(self.valid[i]);
            w.u16(self.owner[i]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> DataCache {
        DataCache::new(16 * 1024, 4) // 128 lines, 32 sets
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = cache();
        let line = LineAddr(1234);
        assert!(!c.probe(line, Asid::new(0)));
        c.fill(line, Asid::new(0));
        assert!(c.probe(line, Asid::new(0)));
        assert!(c.peek(line, Asid::new(0)));
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = DataCache::new(512, 4); // a single set of 4 ways
        assert_eq!(c.n_sets, 1);
        for i in 0..4u64 {
            c.fill(LineAddr(i), Asid::new(0));
        }
        assert!(c.probe(LineAddr(0), Asid::new(0))); // 0 is now MRU; 1 is LRU
        let evicted = c.fill(LineAddr(99), Asid::new(0));
        assert_eq!(evicted, Some(LineAddr(1)));
        assert!(c.peek(LineAddr(0), Asid::new(0)));
    }

    #[test]
    fn refill_of_resident_line_evicts_nothing() {
        let mut c = cache();
        c.fill(LineAddr(7), Asid::new(0));
        assert_eq!(c.fill(LineAddr(7), Asid::new(0)), None);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn partition_restricts_victims_not_hits() {
        let mut c = DataCache::new(512, 4); // one set
        c.partition_ways(2);
        // App 0 may use ways 0-1, app 1 ways 2-3.
        c.fill(LineAddr(1), Asid::new(0));
        c.fill(LineAddr(2), Asid::new(0));
        c.fill(LineAddr(3), Asid::new(1));
        c.fill(LineAddr(4), Asid::new(1));
        // App 0 filling again may only evict its own lines.
        let evicted = c.fill(LineAddr(5), Asid::new(0)).expect("must evict");
        assert!(evicted == LineAddr(1) || evicted == LineAddr(2));
        // App 1's lines are untouched and still probeable by anyone.
        assert!(c.probe(LineAddr(3), Asid::new(1)));
        assert!(c.probe(LineAddr(4), Asid::new(1)));
    }

    #[test]
    fn uneven_way_partition_gives_remainder_to_last_app() {
        let mut c = DataCache::new(2048, 16); // one set of 16 ways
        assert_eq!(c.n_sets, 1);
        c.partition_ways(3);
        // 16 ways / 3 apps = 5, 5, 6 deterministically.
        for (asid, count) in [(0u16, 5u64), (1, 5), (2, 6)] {
            for i in 0..count {
                let line = LineAddr(u64::from(asid) * 1000 + i);
                assert_eq!(c.fill(line, Asid::new(asid)), None, "no self-eviction");
            }
            // The range is now full: one more fill evicts from *this* app.
            let extra = LineAddr(u64::from(asid) * 1000 + 999);
            let evicted = c.fill(extra, Asid::new(asid)).expect("range full");
            assert_eq!(evicted.0 / 1000, u64::from(asid), "evicts own lines only");
        }
    }

    #[test]
    fn set_coloring_indexes_disjoint_ranges() {
        let mut c = DataCache::new(16 * 1024, 4); // 32 sets
        c.partition_sets(3);
        // 32 sets / 3 apps = 10, 10, 12 deterministically.
        let colors = split_ranges(32, 3);
        assert_eq!(colors, [(0, 10), (10, 10), (20, 12)]);
        // The same line indexes into different sets per ASID, each within
        // the owner's range — so cross-app conflict misses cannot happen.
        for line in 0..200u64 {
            for (asid, &(start, len)) in (0u16..).zip(&colors) {
                let set = c.set_index(LineAddr(line), Asid::new(asid));
                assert!(set >= start && set < start + len);
            }
        }
    }

    #[test]
    fn set_coloring_isolates_fills() {
        let mut c = DataCache::new(4096, 4); // 8 sets
        c.partition_sets(2);
        for i in 0..64u64 {
            c.fill(LineAddr(i), Asid::new(0));
            c.fill(LineAddr(i), Asid::new(1));
        }
        // Both apps still see their own copies: disjoint sets, no
        // cross-app eviction possible.
        assert!(c.peek(LineAddr(63), Asid::new(0)));
        assert!(c.peek(LineAddr(63), Asid::new(1)));
    }

    #[test]
    fn flush_clears_cache() {
        let mut c = cache();
        for i in 0..50u64 {
            c.fill(LineAddr(i * 3), Asid::new(0));
        }
        assert!(!c.is_empty());
        c.flush();
        assert!(c.is_empty());
        assert!(!c.probe(LineAddr(3), Asid::new(0)));
    }

    #[test]
    fn capacity_matches_geometry() {
        let c = DataCache::new(2 * 1024 * 1024, 16);
        assert_eq!(c.n_sets, 1024); // 2 MB / 128 B / 16 ways
        assert_eq!(c.lines.len(), 16384);
    }

    #[test]
    #[should_panic(expected = "cannot partition")]
    fn partition_more_apps_than_ways_panics() {
        let mut c = DataCache::new(512, 4);
        c.partition_ways(5);
    }
}
