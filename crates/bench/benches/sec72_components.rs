//! Section 7.2: component-by-component analysis of MASK's mechanisms.

use mask_bench::{banner, emit, options, timed};
use mask_core::experiments::components;

fn main() {
    let opts = options(8);
    banner("Sec. 7.2: component analysis", &opts);
    timed("sec72", || emit(&components::run(&opts)));
}
