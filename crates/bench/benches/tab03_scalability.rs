//! Table 3: scalability from 1 to 5 concurrent applications.

use mask_bench::{banner, emit, options, timed};
use mask_core::experiments::scalability;

fn main() {
    let opts = options(35);
    banner("Table 3: scalability", &opts);
    timed("tab03", || {
        let t = scalability::run(&opts);
        emit(&t);
        println!(
            "MASK/SharedTLB average advantage: {:.3}x",
            scalability::mask_advantage(&t)
        );
    });
}
