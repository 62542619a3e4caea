//! Table 4: generality across Fermi / integrated-GPU architectures.

use mask_bench::{banner, emit, options, timed};
use mask_core::experiments::generality;

fn main() {
    let opts = options(6);
    banner("Table 4: architecture generality", &opts);
    timed("tab04", || emit(&generality::run(&opts)));
}
