//! The workload parameter space.

/// The page-level access pattern of an application.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Pattern {
    /// Burst-streaming: warps march through pages in groups, issuing
    /// `burst` memory instructions per page before advancing.
    ///
    /// First touch of each page misses everywhere (high L2 TLB miss rate);
    /// the burst amortizes that miss (low L1 TLB miss rate for large
    /// `burst`). `group` warps share the same page stream, so one TLB miss
    /// stalls the whole group — the Fig. 6 effect.
    Stream {
        /// Pages in the streamed region.
        pages: u64,
        /// Memory instructions issued per page before advancing.
        burst: u64,
        /// Warps per page-sharing group.
        group: u32,
    },
    /// Uniform random pages from a shared set (GUPS/backprop style).
    ///
    /// `pages` far above the L1 TLB capacity but below the shared L2
    /// capacity yields the High-L1 / Low-L2 quadrant; `pages` far above
    /// both yields High/High.
    Random {
        /// Pages in the randomly-accessed region.
        pages: u64,
        /// Distinct pages touched per memory instruction (scatter degree).
        pages_per_instr: u32,
    },
    /// A hot working set with a background stream (tiled/blocked kernels).
    TiledHot {
        /// Pages in the hot set (shared by all warps).
        hot: u64,
        /// Probability an access targets the hot set.
        p_hot: f64,
        /// Pages in the background stream region.
        stream_pages: u64,
        /// Memory instructions per background page before advancing.
        burst: u64,
        /// Warps per page-sharing group for the background stream.
        group: u32,
    },
    /// A hot set that fits the L1 TLB plus uniform random accesses over a
    /// cold set that fits the shared L2 TLB (LUD/NN-style blocked kernels).
    ///
    /// With `p_hot` close to 1 both miss rates are low: the hot tile stays
    /// L1-resident and the occasional cold access finds its page in the
    /// shared L2 TLB.
    HotCold {
        /// Pages in the hot set.
        hot: u64,
        /// Probability an access targets the hot set.
        p_hot: f64,
        /// Pages in the cold region (hot + cold should fit the L2 TLB).
        cold: u64,
    },
}

/// A complete application signature.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AppProfile {
    /// Benchmark name (paper's abbreviation, e.g. `"3DS"`).
    pub name: &'static str,
    /// Page-level access pattern.
    pub pattern: Pattern,
    /// Cache lines touched per memory instruction (coalescing degree;
    /// 1 = fully scattered, up to 8 = well-coalesced half-warp).
    pub lines_per_instr: u32,
    /// Average compute instructions between memory instructions
    /// (memory intensity knob).
    pub compute_per_mem: u32,
    /// Probability a line access re-touches a recently used line
    /// (drives the L1 *data* cache hit rate).
    pub line_locality: f64,
}
