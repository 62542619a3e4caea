//! Section 7.3 sensitivity studies: TLB size, page size, memory policies.

use mask_bench::{banner, emit, options, timed};
use mask_core::experiments::sensitivity;

fn main() {
    let opts = options(2);
    banner("Sec. 7.3: sensitivity studies", &opts);
    timed("sec73", || {
        emit(&sensitivity::tlb_size_sweep(&opts));
        emit(&sensitivity::large_pages(&opts));
        emit(&sensitivity::memory_policies(&opts));
        emit(&sensitivity::demand_paging(&opts));
        emit(&sensitivity::walker_slots(&opts));
    });
}
