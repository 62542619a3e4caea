//! Figures 5 and 6: single-application page-walk pressure.

use mask_bench::{banner, emit, options, timed};
use mask_core::experiments::single_app;

fn main() {
    let opts = options(35);
    banner("Figures 5-6: single-app translation pressure", &opts);
    timed("fig05/06", || {
        let rows = single_app::measure(&opts);
        emit(&single_app::fig05(&rows));
        emit(&single_app::fig06(&rows));
    });
}
