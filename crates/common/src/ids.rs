//! Identifier newtypes for cores, warps and address spaces.
//!
//! The paper's key abstraction is the *address space* (§1, footnote 1): a
//! distinct memory-protection domain. Each concurrently-executing application
//! owns one address space; MASK tags every shared TLB entry with an address
//! space identifier ([`Asid`]) so that entries from different applications
//! are isolated (§5.1).

use core::fmt;

/// An address-space identifier (the paper uses 9-bit ASIDs, §7.4).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Asid(u16);

impl Asid {
    /// Creates an ASID.
    #[inline]
    pub const fn new(id: u16) -> Self {
        Asid(id)
    }

    /// The raw identifier value.
    #[inline]
    pub const fn raw(self) -> u16 {
        self.0
    }

    /// The identifier as a `usize` index (for per-app stat arrays).
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Asid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Asid({})", self.0)
    }
}

impl fmt::Display for Asid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A GPU core (streaming multiprocessor) index.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CoreId(u16);

impl CoreId {
    /// Creates a core id.
    #[inline]
    pub const fn new(id: u16) -> Self {
        CoreId(id)
    }

    /// The raw id.
    #[inline]
    pub const fn raw(self) -> u16 {
        self.0
    }

    /// The id as a `usize` index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Core({})", self.0)
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A warp slot index within one core.
///
/// TLB-Fill Tokens are handed out in warp-ID order (§5.2): "if there are
/// `n` tokens, the `n` warps with the lowest warp ID values receive tokens".
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct WarpId(u16);

impl WarpId {
    /// Creates a warp id.
    #[inline]
    pub const fn new(id: u16) -> Self {
        WarpId(id)
    }

    /// The raw id.
    #[inline]
    pub const fn raw(self) -> u16 {
        self.0
    }

    /// The id as a `usize` index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for WarpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Warp({})", self.0)
    }
}

impl fmt::Display for WarpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A globally-unique warp reference: (core, warp slot).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct GlobalWarpId {
    /// The core the warp executes on.
    pub core: CoreId,
    /// The warp slot within that core.
    pub warp: WarpId,
}

impl GlobalWarpId {
    /// Creates a global warp reference.
    #[inline]
    pub const fn new(core: CoreId, warp: WarpId) -> Self {
        GlobalWarpId { core, warp }
    }
}

/// Splits `total` resources (cache ways or sets, DRAM channels or banks)
/// among `n_apps` address spaces as `(start, len)` ranges: everyone gets
/// `total / n_apps` and the *last* application absorbs the remainder, so
/// 16 ways over 3 apps yield 5, 5 and 6, and 8 channels yield 2, 2 and 4.
/// The one remainder rule every partitioned design uses.
///
/// # Panics
///
/// Panics if `n_apps` is zero or exceeds `total`.
#[must_use]
pub fn split_ranges(total: usize, n_apps: usize) -> Vec<(usize, usize)> {
    assert!(
        n_apps > 0 && n_apps <= total,
        "cannot split {total} resources {n_apps} ways"
    );
    let per = total / n_apps;
    (0..n_apps)
        .map(|i| {
            let start = i * per;
            let len = if i == n_apps - 1 { total - start } else { per };
            (start, len)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_ranges_gives_the_remainder_to_the_last_app() {
        assert_eq!(split_ranges(16, 3), [(0, 5), (5, 5), (10, 6)]);
        assert_eq!(split_ranges(8, 3), [(0, 2), (2, 2), (4, 4)]);
        assert_eq!(split_ranges(4, 4), [(0, 1), (1, 1), (2, 1), (3, 1)]);
        assert_eq!(split_ranges(7, 1), [(0, 7)]);
    }

    #[test]
    fn ids_order_by_raw_value() {
        assert!(WarpId::new(3) < WarpId::new(7));
        assert!(CoreId::new(0) < CoreId::new(29));
        assert!(Asid::new(1) < Asid::new(2));
    }

    #[test]
    fn display_is_raw_number() {
        assert_eq!(CoreId::new(12).to_string(), "12");
    }
}
