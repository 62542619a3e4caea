//! Table 3: scalability from 1 to 5 concurrent applications (§7.3).
//!
//! "We compare the performance of `SharedTLB` ... and MASK, normalized to
//! Ideal performance, as the number of concurrently-running applications
//! increases from one to five."

use super::ExpOptions;
use crate::runner::PairOutcome;
use crate::table::Table;
use mask_common::config::DesignKind;
use mask_workloads::{app_by_name, AppProfile};

/// Representative application mixes per concurrency level. The paper does
/// not publish its exact n-app mixes; we grow an all-High/High mix one app
/// at a time so that shared-TLB/walker contention rises monotonically with
/// the application count, which is the effect Table 3 demonstrates.
pub fn mixes() -> Vec<Vec<&'static AppProfile>> {
    let get = |n: &str| app_by_name(n).expect("known app");
    vec![
        vec![get("CONS")],
        vec![get("CONS"), get("MM")],
        vec![get("CONS"), get("MM"), get("RED")],
        vec![get("CONS"), get("MM"), get("RED"), get("TRD")],
        vec![get("CONS"), get("MM"), get("RED"), get("TRD"), get("SC")],
    ]
}

/// Runs Table 3 on weighted speedup; all mix × design runs go out as one
/// job batch.
pub fn run(opts: &ExpOptions) -> Table {
    normalized(
        opts,
        "Table 3: performance normalized to Ideal as application count grows",
        |o| o.weighted_speedup,
    )
}

/// Table 3 on the mix's aggregate IPC instead: the raw performance the
/// paper normalizes. Weighted speedup scores a lone app 1 under every
/// design, so [`run`]'s 1-app row is 1 by construction; this one is not.
pub fn throughput(opts: &ExpOptions) -> Table {
    normalized(
        opts,
        "Table 3: IPC throughput normalized to Ideal as application count grows",
        |o| o.ipc_throughput,
    )
}

fn normalized(opts: &ExpOptions, title: &str, metric: fn(&PairOutcome) -> f64) -> Table {
    let runner = opts.runner();
    let mut t = Table::new(title, &["n_apps", "SharedTLB/Ideal", "MASK/Ideal"]);
    let designs = [DesignKind::Ideal, DesignKind::SharedTlb, DesignKind::Mask];
    let mixes: Vec<Vec<&'static AppProfile>> = mixes()
        .into_iter()
        .filter(|mix| mix.len() <= opts.n_cores)
        .collect();
    let outcomes = runner.run_multi_batch(&mixes, &designs);
    for (mix, chunk) in mixes.iter().zip(outcomes.chunks(designs.len())) {
        let [ideal, shared, mask] = [&chunk[0], &chunk[1], &chunk[2]].map(metric);
        let norm = |v: f64| if ideal > 0.0 { v / ideal } else { 0.0 };
        t.row_f64(mix.len().to_string(), &[norm(shared), norm(mask)]);
    }
    t
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
}
