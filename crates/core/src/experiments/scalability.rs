//! Table 3: scalability from 1 to 5 concurrent applications (§7.3).
//!
//! "We compare the performance of `SharedTLB` ... and MASK, normalized to
//! Ideal performance, as the number of concurrently-running applications
//! increases from one to five."

use super::ExpOptions;
use crate::table::Table;
use mask_common::config::DesignKind;
use mask_common::stats::SimStats;
use mask_workloads::{app_by_name, AppProfile};

/// Representative application mixes per concurrency level. The paper does
/// not publish its exact n-app mixes; we grow an all-High/High mix one app
/// at a time so that shared-TLB/walker contention rises monotonically with
/// the application count, which is the effect Table 3 demonstrates.
pub fn mixes() -> Vec<Vec<AppProfile>> {
    let get = |n: &str| app_by_name(n).expect("known app");
    vec![
        vec![get("CONS")],
        vec![get("CONS"), get("MM")],
        vec![get("CONS"), get("MM"), get("RED")],
        vec![get("CONS"), get("MM"), get("RED"), get("TRD")],
        vec![get("CONS"), get("MM"), get("RED"), get("TRD"), get("SC")],
    ]
}

/// Table 3 on the mix's aggregate IPC, the raw performance the paper
/// normalizes; all mix × design shared runs go out as one job batch.
pub fn throughput(opts: &ExpOptions) -> Table {
    let runner = opts.runner();
    let mut t = Table::new(
        "Table 3: IPC throughput normalized to Ideal as application count grows",
        &["n_apps", "SharedTLB/Ideal", "MASK/Ideal"],
    );
    let designs = [DesignKind::Ideal, DesignKind::SharedTlb, DesignKind::Mask];
    let mixes: Vec<Vec<AppProfile>> = mixes()
        .into_iter()
        .filter(|mix| mix.len() <= opts.n_cores)
        .collect();
    let stats = runner.run_apps(&runner.even_placements(&mixes), &designs);
    let ipc = |s: &SimStats| s.apps.iter().map(|a| a.ipc().unwrap_or(0.0)).sum::<f64>();
    for (mix, chunk) in mixes.iter().zip(stats.chunks(designs.len())) {
        let [ideal, shared, mask] = [0, 1, 2].map(|d| ipc(&chunk[d]));
        t.row_f64(
            mix.len().to_string(),
            &[shared, mask].map(|v| norm(v, ideal)),
        );
    }
    t
}

/// `v` over Ideal's throughput; `None` (no data, not 0) if Ideal ran nothing.
fn norm(v: f64, ideal: f64) -> Option<f64> {
    (ideal > 0.0).then(|| v / ideal)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixes_grow_one_app_at_a_time() {
        let m = mixes();
        assert_eq!(m.len(), 5);
        for (i, mix) in m.iter().enumerate() {
            assert_eq!(mix.len(), i + 1);
        }
    }

    #[test]
    fn a_zero_ideal_throughput_normalises_to_no_data() {
        assert_eq!(norm(0.5, 0.0), None);
        assert_eq!(norm(0.0, 0.0), None);
        assert_eq!(norm(0.5, 2.0), Some(0.25));
    }
}
