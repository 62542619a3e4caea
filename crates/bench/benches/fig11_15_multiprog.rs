//! Figures 11-15: multiprogrammed performance and fairness, all designs.

use mask_bench::{banner, emit, options, timed};
use mask_core::experiments::multiprog::{sweep, FIG11_DESIGNS};
use mask_workloads::HmrCategory;

fn main() {
    let opts = options(35);
    banner("Figures 11-15: multiprogrammed sweep (8 designs)", &opts);
    timed("fig11-15", || {
        let s = sweep(&opts, &FIG11_DESIGNS);
        emit(&s.fig11_weighted_speedup());
        for cat in HmrCategory::ALL {
            emit(&s.fig12_14_per_workload(cat));
        }
        emit(&s.fig15_unfairness());
        emit(&s.headline());
    });
}
