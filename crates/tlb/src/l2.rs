//! The shared L2 TLB (Fig. 2b), with MASK's token-controlled fill path.
//!
//! Every warp can *probe* the shared L2 TLB, but under MASK only warps
//! holding a token may *fill* it; fills from tokenless warps are diverted
//! to the small TLB bypass cache, and "the GPU probes tags for both the
//! shared L2 TLB and the TLB bypass cache in parallel. A hit in either ...
//! yields a TLB hit" (§5.2).

use crate::assoc::AssocArray;
use crate::bypass::TlbBypassCache;
use crate::TlbKey;
use mask_common::addr::{Ppn, Vpn};
use mask_common::ids::Asid;
use mask_common::stats::HitStats;

/// Where a shared-L2-TLB probe hit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum L2TlbProbe {
    /// Hit in the main shared L2 TLB array.
    HitMain(Ppn),
    /// Hit in the TLB bypass cache (MASK designs only).
    HitBypassCache(Ppn),
    /// Missed in both structures; a page walk is required.
    Miss,
}

impl L2TlbProbe {
    /// The translation, if the probe hit anywhere.
    pub fn ppn(self) -> Option<Ppn> {
        match self {
            L2TlbProbe::HitMain(p) | L2TlbProbe::HitBypassCache(p) => Some(p),
            L2TlbProbe::Miss => None,
        }
    }
}

/// The shared L2 TLB, ASID-tagged, with optional MASK bypass cache.
#[derive(Clone, Debug)]
pub struct SharedL2Tlb {
    entries: AssocArray<TlbKey, Ppn>,
    bypass: Option<TlbBypassCache>,
    /// Per-ASID probe statistics for the current epoch (drives token
    /// adaptation, §5.2).
    epoch: Vec<HitStats>,
    /// Per-ASID lifetime statistics.
    lifetime: Vec<HitStats>,
}

impl SharedL2Tlb {
    /// Creates a shared L2 TLB.
    ///
    /// `bypass_entries` > 0 attaches a TLB bypass cache (MASK designs);
    /// 0 disables it (baselines).
    pub fn new(entries: usize, assoc: usize, n_asids: usize, bypass_entries: usize) -> Self {
        SharedL2Tlb {
            entries: AssocArray::new(entries, assoc),
            bypass: (bypass_entries > 0).then(|| TlbBypassCache::new(bypass_entries)),
            epoch: vec![HitStats::default(); n_asids],
            lifetime: vec![HitStats::default(); n_asids],
        }
    }

    /// Probes main array and bypass cache in parallel (§5.2).
    pub fn probe(&mut self, asid: Asid, vpn: Vpn) -> L2TlbProbe {
        let key = TlbKey::new(asid, vpn);
        let main = self.entries.probe(&key);
        let outcome = if let Some(ppn) = main {
            L2TlbProbe::HitMain(ppn)
        } else if let Some(ppn) = self.bypass.as_mut().and_then(|b| b.probe(asid, vpn)) {
            L2TlbProbe::HitBypassCache(ppn)
        } else {
            L2TlbProbe::Miss
        };
        let hit = !matches!(outcome, L2TlbProbe::Miss);
        if let Some(s) = self.epoch.get_mut(asid.index()) {
            s.record(hit);
        }
        if let Some(s) = self.lifetime.get_mut(asid.index()) {
            s.record(hit);
        }
        outcome
    }

    /// Fills a completed translation.
    ///
    /// `has_token == true` (or any non-MASK design, which passes `true`
    /// unconditionally) fills the main array; otherwise the entry is
    /// buffered in the bypass cache only (§5.2). Returns `true` if the fill
    /// was diverted to the bypass cache.
    pub fn fill(&mut self, asid: Asid, vpn: Vpn, ppn: Ppn, has_token: bool) -> bool {
        match &mut self.bypass {
            Some(bypass) if !has_token => {
                bypass.fill(asid, vpn, ppn);
                true
            }
            _ => {
                self.entries.fill(TlbKey::new(asid, vpn), ppn);
                mask_obs::hooks::array_fill("l2-tlb", self.entries.len(), self.entries.capacity());
                false
            }
        }
    }

    /// Per-ASID miss rate over the current epoch.
    pub fn epoch_miss_rate(&self, asid: Asid) -> f64 {
        self.epoch
            .get(asid.index())
            .map_or(0.0, HitStats::miss_rate)
    }

    /// Per-ASID probes this epoch (to ignore idle apps during adaptation).
    pub fn epoch_accesses(&self, asid: Asid) -> u64 {
        self.epoch.get(asid.index()).map_or(0, |s| s.accesses)
    }

    /// Clears the per-epoch counters (called at each epoch boundary).
    pub fn reset_epoch(&mut self) {
        for s in &mut self.epoch {
            *s = HitStats::default();
        }
    }

    /// Zeroes the lifetime counters (measurement-window reset; epoch and
    /// resident entries are untouched).
    pub fn reset_lifetime(&mut self) {
        for s in &mut self.lifetime {
            *s = HitStats::default();
        }
        if let Some(b) = &mut self.bypass {
            b.reset_stats();
        }
    }

    /// Lifetime hit statistics for `asid`.
    pub fn lifetime_stats(&self, asid: Asid) -> HitStats {
        self.lifetime.get(asid.index()).copied().unwrap_or_default()
    }

    /// Lifetime hit statistics of the attached bypass cache, if any.
    pub fn bypass_cache_stats(&self) -> Option<HitStats> {
        self.bypass.as_ref().map(TlbBypassCache::stats)
    }

    /// Flushes all entries belonging to `asid` from the main array and the
    /// bypass cache (§5.1: L2 flushes match the ASID).
    pub fn flush_asid(&mut self, asid: Asid) {
        self.entries.retain(|k, _| k.asid != asid);
        if let Some(b) = &mut self.bypass {
            b.flush_asid(asid);
        }
    }

    /// Flushes everything (PTE modification, §5.2: "MASK flushes all
    /// contents of the TLB and the TLB bypass cache when a PTE is
    /// modified").
    pub fn flush(&mut self) {
        self.entries.flush();
        if let Some(b) = &mut self.bypass {
            b.flush();
        }
    }

    /// Resident entries in the main array.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the main array is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl mask_common::snapshot::Snapshot for SharedL2Tlb {
    fn snapshot(&self, w: &mut mask_common::snapshot::SnapshotWriter) {
        w.section("l2tlb");
        self.entries.snapshot(w);
        // Presence of the bypass cache is config-derived; only its contents
        // are state.
        if let Some(b) = &self.bypass {
            b.snapshot(w);
        }
        w.seq(self.epoch.len());
        for s in &self.epoch {
            s.snapshot(w);
        }
        w.seq(self.lifetime.len());
        for s in &self.lifetime {
            s.snapshot(w);
        }
    }

    fn restore(
        &mut self,
        r: &mut mask_common::snapshot::SnapshotReader<'_>,
    ) -> Result<(), mask_common::snapshot::SnapshotError> {
        r.section("l2tlb")?;
        self.entries.restore(r)?;
        if let Some(b) = &mut self.bypass {
            b.restore(r)?;
        }
        r.seq_exact(self.epoch.len())?;
        for s in &mut self.epoch {
            s.restore(r)?;
        }
        r.seq_exact(self.lifetime.len())?;
        for s in &mut self.lifetime {
            s.restore(r)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tlb(bypass: usize) -> SharedL2Tlb {
        SharedL2Tlb::new(64, 16, 2, bypass)
    }

    #[test]
    fn fill_and_probe_main() {
        let mut t = tlb(0);
        let (a, v, p) = (Asid::new(0), Vpn(3), Ppn(4));
        assert_eq!(t.probe(a, v), L2TlbProbe::Miss);
        assert!(!t.fill(a, v, p, true));
        assert_eq!(t.probe(a, v), L2TlbProbe::HitMain(p));
        assert_eq!(t.probe(a, v).ppn(), Some(p));
    }

    #[test]
    fn tokenless_fill_goes_to_bypass_cache() {
        let mut t = tlb(8);
        let (a, v, p) = (Asid::new(0), Vpn(3), Ppn(4));
        assert!(t.fill(a, v, p, false), "fill should be diverted");
        assert_eq!(t.probe(a, v), L2TlbProbe::HitBypassCache(p));
        assert_eq!(t.len(), 0, "main array untouched");
    }

    #[test]
    fn tokenless_fill_without_bypass_cache_fills_main() {
        // Baselines have no bypass cache; every fill goes to the main array.
        let mut t = tlb(0);
        assert!(!t.fill(Asid::new(0), Vpn(1), Ppn(1), false));
        assert_eq!(t.probe(Asid::new(0), Vpn(1)), L2TlbProbe::HitMain(Ppn(1)));
    }

    #[test]
    fn epoch_miss_rates_are_per_asid() {
        let mut t = tlb(0);
        t.fill(Asid::new(0), Vpn(1), Ppn(1), true);
        // App 0: one hit, one miss. App 1: two misses.
        t.probe(Asid::new(0), Vpn(1));
        t.probe(Asid::new(0), Vpn(9));
        t.probe(Asid::new(1), Vpn(1));
        t.probe(Asid::new(1), Vpn(2));
        assert!((t.epoch_miss_rate(Asid::new(0)) - 0.5).abs() < 1e-12);
        assert!((t.epoch_miss_rate(Asid::new(1)) - 1.0).abs() < 1e-12);
        assert_eq!(t.epoch_accesses(Asid::new(1)), 2);
        t.reset_epoch();
        assert_eq!(t.epoch_accesses(Asid::new(0)), 0);
        // Lifetime counters survive epoch resets.
        assert_eq!(t.lifetime_stats(Asid::new(0)).accesses, 2);
    }

    #[test]
    fn flush_asid_clears_both_structures() {
        let mut t = tlb(8);
        t.fill(Asid::new(0), Vpn(1), Ppn(1), true);
        t.fill(Asid::new(0), Vpn(2), Ppn(2), false);
        t.fill(Asid::new(1), Vpn(3), Ppn(3), true);
        t.flush_asid(Asid::new(0));
        assert_eq!(t.probe(Asid::new(0), Vpn(1)), L2TlbProbe::Miss);
        assert_eq!(t.probe(Asid::new(0), Vpn(2)), L2TlbProbe::Miss);
        assert_eq!(t.probe(Asid::new(1), Vpn(3)), L2TlbProbe::HitMain(Ppn(3)));
    }

    #[test]
    fn full_flush_clears_everything() {
        let mut t = tlb(8);
        t.fill(Asid::new(0), Vpn(1), Ppn(1), true);
        t.fill(Asid::new(1), Vpn(2), Ppn(2), false);
        t.flush();
        assert!(t.is_empty());
        assert_eq!(t.probe(Asid::new(1), Vpn(2)), L2TlbProbe::Miss);
    }

    #[test]
    fn thrashing_under_shared_capacity() {
        // Two apps each streaming over > capacity pages thrash each other —
        // the Fig. 7 phenomenon in miniature.
        let mut t = tlb(0);
        for round in 0..4u64 {
            for i in 0..64u64 {
                let vpn = Vpn(i);
                for asid in [Asid::new(0), Asid::new(1)] {
                    if t.probe(asid, vpn).ppn().is_none() {
                        t.fill(asid, vpn, Ppn(i + 1), true);
                    }
                }
                let _ = round;
            }
        }
        // 128 distinct keys compete for 64 entries: miss rates stay high.
        assert!(t.epoch_miss_rate(Asid::new(0)) > 0.3);
        assert!(t.epoch_miss_rate(Asid::new(1)) > 0.3);
    }
}
