//! Figure 3: baseline designs (`PWCache`, `SharedTLB`) vs ideal performance.

use mask_bench::{banner, emit, options, timed};
use mask_core::experiments::baseline;

fn main() {
    let opts = options(35);
    banner("Figure 3: baselines vs ideal", &opts);
    timed("fig03", || emit(&baseline::run(&opts)));
}
