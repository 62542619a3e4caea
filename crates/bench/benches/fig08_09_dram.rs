//! Figures 8 and 9: DRAM bandwidth and latency by request class.

use mask_bench::{banner, emit, options, timed};
use mask_core::experiments::dram_char;

fn main() {
    let opts = options(35);
    banner("Figures 8-9: DRAM characterization", &opts);
    timed("fig08/09", || {
        let rows = dram_char::measure(&opts);
        emit(&dram_char::fig08(&rows));
        emit(&dram_char::fig09(&rows));
    });
}
