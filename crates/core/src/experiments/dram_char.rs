//! Figures 8 and 9: DRAM behaviour of translation vs data requests (§4.3).
//!
//! * Fig. 8 — "DRAM bandwidth utilization of address translation requests
//!   and data demand requests", normalized to the maximum available
//!   bandwidth;
//! * Fig. 9 — "Latency of address translation requests and data demand
//!   requests".
//!
//! Both on the `SharedTLB` baseline over the two-application workloads. The
//! paper's headline observations: translation consumes a small fraction of
//! bandwidth (13.8% of *utilized* bandwidth) yet sees *higher* average
//! latency than data — the FR-FCFS row-hit-first policy de-prioritizes the
//! low-row-locality translation stream.

use super::ExpOptions;
use crate::metrics::mean;
use crate::table::{num, Table};
use mask_common::config::DesignKind;
use mask_common::stats::SimStats;
use mask_workloads::AppPair;

/// Per-pair DRAM characterization.
#[derive(Clone, Debug)]
pub struct DramRow {
    /// Workload name.
    pub name: String,
    /// Translation share of the *maximum* DRAM bandwidth.
    pub xlat_bw: f64,
    /// Data share of the maximum DRAM bandwidth.
    pub data_bw: f64,
    /// Average DRAM latency of translation requests (cycles; `None` if
    /// none reached DRAM).
    pub xlat_latency: Option<f64>,
    /// Average DRAM latency of data requests (cycles; `None` if none
    /// reached DRAM).
    pub data_latency: Option<f64>,
}

fn characterize(name: String, stats: &SimStats) -> DramRow {
    let denom = (stats.cycles as f64) * stats.dram_channels as f64;
    let (mut xb, mut db) = (0u64, 0u64);
    let mut xl = mask_common::stats::DramClassStats::default();
    let mut dl = mask_common::stats::DramClassStats::default();
    for a in &stats.apps {
        xb += a.dram_translation.bus_busy_cycles;
        db += a.dram_data.bus_busy_cycles;
        xl.merge(&a.dram_translation);
        dl.merge(&a.dram_data);
    }
    DramRow {
        name,
        xlat_bw: xb as f64 / denom,
        data_bw: db as f64 / denom,
        xlat_latency: xl.avg_latency(),
        data_latency: dl.avg_latency(),
    }
}

/// Runs the Fig. 8/9 sweep on the `SharedTLB` baseline as one job batch.
pub fn measure(opts: &ExpOptions) -> Vec<DramRow> {
    let runner = opts.runner();
    let pairs = opts.pairs();
    let mixes: Vec<_> = pairs.iter().map(|p| vec![p.a, p.b]).collect();
    let runs = runner.run_apps(&runner.even_placements(&mixes), &[DesignKind::SharedTlb]);
    let names = pairs.iter().map(AppPair::name);
    names.zip(runs).map(|(n, s)| characterize(n, &s)).collect()
}

/// Fig. 8 table: normalized DRAM bandwidth by request class.
pub fn fig08(rows: &[DramRow]) -> Table {
    let mut t = Table::new(
        "Figure 8: DRAM bandwidth utilization (fraction of max) by request class",
        &["workload", "translation", "data"],
    );
    for r in rows {
        t.row_f64(r.name.clone(), &[r.xlat_bw, r.data_bw]);
    }
    t.row_f64(
        "Average",
        &[
            mean(rows.iter().map(|r| r.xlat_bw)),
            mean(rows.iter().map(|r| r.data_bw)),
        ],
    );
    t
}

/// Fig. 9 table: average DRAM latency by request class.
pub fn fig09(rows: &[DramRow]) -> Table {
    let mut t = Table::new(
        "Figure 9: DRAM latency (cycles) by request class",
        &["workload", "translation", "data"],
    );
    for r in rows {
        t.row(
            r.name.clone(),
            vec![num(r.xlat_latency, 0), num(r.data_latency, 0)],
        );
    }
    t.row(
        "Average",
        vec![
            num(mean(rows.iter().filter_map(|r| r.xlat_latency)), 0),
            num(mean(rows.iter().filter_map(|r| r.data_latency)), 0),
        ],
    );
    t
}
