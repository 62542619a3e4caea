//! §7.2: component-by-component analysis of MASK's mechanisms.
//!
//! Reports, per the paper's discussion:
//!
//! * shared-L2-TLB hit-rate change of `MASK-TLB` over `SharedTLB` (the
//!   paper measures +49.9% on average) and the TLB bypass cache hit rate
//!   (66.5%);
//! * L2 bypass volume under `MASK-Cache`, and the per-walk-level L2 cache
//!   hit rates under `SharedTLB` that motivate it (§4.3: 99.8%, 98.8%,
//!   68.7% and 1.0% from root to leaf);
//! * DRAM latency of translation vs data under `MASK-DRAM` compared to the
//!   baseline.

use super::{avg_ws, ExpOptions};
use crate::metrics::mean;
use crate::table::Table;
use mask_common::config::DesignKind;
use mask_common::stats::HitStats;

/// The designs the §7.2 analysis contrasts, in batch order.
const COMPONENT_DESIGNS: [DesignKind; 4] = [
    DesignKind::SharedTlb,
    DesignKind::MaskTlb,
    DesignKind::MaskCache,
    DesignKind::MaskDram,
];

/// Runs the §7.2 analysis over the configured pairs; the whole
/// pair × design grid goes out as one job batch.
pub fn run(opts: &ExpOptions) -> Table {
    let runner = opts.runner();
    let pairs = opts.pressured_pairs();
    let mut base_hit = Vec::new();
    let mut tlb_hit = Vec::new();
    let mut bypass_hits = Vec::new();
    let mut base_xlat_lat = Vec::new();
    let mut dram_xlat_lat = Vec::new();
    let mut cache_bypassed = Vec::new();
    let mut walk_levels = [HitStats::default(); 4];
    let outcomes = runner.run_pairs(&pairs, &COMPONENT_DESIGNS);
    for chunk in outcomes.chunks(COMPONENT_DESIGNS.len()) {
        let (base, tlb, cache, dram) = (&chunk[0], &chunk[1], &chunk[2], &chunk[3]);
        for i in 0..2 {
            base_hit.push(base.stats.apps[i].l2_tlb.hit_rate());
            tlb_hit.push(tlb.stats.apps[i].l2_tlb.hit_rate());
            base_xlat_lat.push(base.stats.apps[i].dram_translation.avg_latency());
            dram_xlat_lat.push(dram.stats.apps[i].dram_translation.avg_latency());
            cache_bypassed.push(cache.stats.apps[i].l2_translation_bypassed as f64);
            for (level, hits) in walk_levels.iter_mut().enumerate() {
                hits.merge(&base.stats.apps[i].l2_translation[level]);
            }
        }
        bypass_hits.push(tlb.stats.apps[0].tlb_bypass_cache.hit_rate());
    }
    let mut t = Table::new("Sec. 7.2: MASK component analysis", &["metric", "value"]);
    let base_avg = mean(base_hit.iter().copied());
    let tlb_avg = mean(tlb_hit.iter().copied());
    t.row_f64("SharedTLB avg L2 TLB hit rate", &[base_avg]);
    t.row_f64("MASK-TLB avg L2 TLB hit rate", &[tlb_avg]);
    if base_avg > 0.0 {
        t.row(
            "L2 TLB hit-rate improvement (%)",
            vec![format!("{:.1}", (tlb_avg / base_avg - 1.0) * 100.0)],
        );
    }
    t.row(
        "TLB bypass cache hit rate",
        vec![format!("{:.3}", mean(bypass_hits.iter().copied()))],
    );
    t.row(
        "Avg translation requests bypassing L2 (MASK-Cache)",
        vec![format!("{:.0}", mean(cache_bypassed.iter().copied()))],
    );
    t.row(
        "Baseline DRAM translation latency (cycles)",
        vec![format!("{:.0}", mean(base_xlat_lat.iter().copied()))],
    );
    t.row(
        "MASK-DRAM translation latency (cycles)",
        vec![format!("{:.0}", mean(dram_xlat_lat.iter().copied()))],
    );
    let ws = avg_ws(&outcomes, COMPONENT_DESIGNS.len());
    for (design, ws) in COMPONENT_DESIGNS.iter().zip(ws) {
        t.row_f64(format!("Avg WS: {}", design.label()), &[ws]);
    }
    for (level, hits) in walk_levels.iter().enumerate() {
        t.row(
            format!("SharedTLB L2 hit rate, walk level {}", level + 1),
            vec![format!("{:.3}", hits.hit_rate())],
        );
    }
    t
}
