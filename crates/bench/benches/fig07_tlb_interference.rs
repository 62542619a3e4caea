//! Figure 7: inter-address-space interference at the shared L2 TLB.

use mask_bench::{banner, emit, options, timed};
use mask_core::experiments::interference;

fn main() {
    let opts = options(35);
    banner("Figure 7: shared L2 TLB interference", &opts);
    timed("fig07", || emit(&interference::run(&opts)));
}
