//! Table 2: workload categorization by measured L1/L2 TLB miss rates.

use mask_bench::{emit, timed};
use mask_core::experiments::single_app;

fn main() {
    println!("=== Table 2: workload classification ===\n");
    timed("tab02", || emit(&single_app::tab02()));
}
