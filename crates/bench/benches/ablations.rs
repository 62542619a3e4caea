//! Design-choice ablations (DESIGN.md experiment index).

use mask_bench::{banner, emit, options, timed};
use mask_core::experiments::ablation;

fn main() {
    let opts = options(2);
    banner("Ablations: MASK design choices", &opts);
    timed("ablations", || {
        emit(&ablation::token_policy(&opts));
        emit(&ablation::bypass_margin(&opts));
        emit(&ablation::golden_capacity(&opts));
        emit(&ablation::epoch_length(&opts));
    });
}
