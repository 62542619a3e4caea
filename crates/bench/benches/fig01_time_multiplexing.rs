//! Figure 1: time-multiplexing overhead vs concurrent process count.

use mask_bench::{banner, emit, options, timed};
use mask_core::experiments::timemux;

fn main() {
    let opts = options(35);
    banner("Figure 1: time multiplexing", &opts);
    timed("fig01", || emit(&timemux::run(&opts)));
}
