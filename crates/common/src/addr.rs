//! Strongly-typed virtual and physical addresses.
//!
//! The paper simulates CUDA Unified Virtual Addressing with x86-64-style
//! 4-level page tables, so virtual addresses are 48 bits wide and are split
//! into four 9-bit radix indices plus a page offset. Pages are 4 KB by
//! default; the large-page sensitivity study (§7.3) uses 2 MB pages, so the
//! page-size log2 is a runtime parameter rather than a compile-time constant.

use core::fmt;

/// log2 of the cache-line/sector size used throughout the memory hierarchy.
///
/// GPUs fetch 128-byte lines from L2/DRAM (GDDR5 burst of 8 over a 128-bit
/// bus per channel pair); we use 128 B everywhere for simplicity.
pub const LINE_SIZE_LOG2: u32 = 7;
/// Cache-line size in bytes (`1 << LINE_SIZE_LOG2`).
pub const LINE_SIZE: u64 = 1 << LINE_SIZE_LOG2;
/// log2 of the base (small) page size: 4 KB.
pub const PAGE_SIZE_4K_LOG2: u32 = 12;
/// log2 of the large page size used in the §7.3 sensitivity study: 2 MB.
pub const PAGE_SIZE_2M_LOG2: u32 = 21;
/// Number of radix levels in the simulated page table (x86-64 style).
pub const PAGE_TABLE_LEVELS: u8 = 4;
/// Bits of virtual-page-number consumed by each radix level.
pub const BITS_PER_LEVEL: u32 = 9;
/// Virtual addresses are 48 bits (standard x86-64 canonical user space).
pub const VA_BITS: u32 = 48;

/// A virtual address within one application's address space.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtAddr(u64);

impl VirtAddr {
    /// Creates a virtual address, truncating to the 48-bit canonical range.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        VirtAddr(raw & ((1 << VA_BITS) - 1))
    }

    /// The raw 48-bit address value.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The virtual page number for a given page size.
    #[inline]
    pub const fn vpn(self, page_size_log2: u32) -> Vpn {
        Vpn(self.0 >> page_size_log2)
    }

    /// The byte offset within its page for a given page size.
    #[inline]
    pub const fn page_offset(self, page_size_log2: u32) -> u64 {
        self.0 & ((1 << page_size_log2) - 1)
    }
}

impl fmt::Debug for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VA({:#014x})", self.0)
    }
}

impl fmt::Display for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#014x}", self.0)
    }
}

impl From<u64> for VirtAddr {
    fn from(raw: u64) -> Self {
        VirtAddr::new(raw)
    }
}

/// A physical (machine) address.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysAddr(u64);

impl PhysAddr {
    /// Creates a physical address from a raw byte address.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        PhysAddr(raw)
    }

    /// The raw byte address.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The physical frame number for a given page size.
    #[inline]
    pub const fn ppn(self, page_size_log2: u32) -> Ppn {
        Ppn(self.0 >> page_size_log2)
    }

    /// The cache-line address containing this byte.
    #[inline]
    pub const fn line(self) -> LineAddr {
        LineAddr(self.0 >> LINE_SIZE_LOG2)
    }
}

impl fmt::Debug for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PA({:#014x})", self.0)
    }
}

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#014x}", self.0)
    }
}

impl From<u64> for PhysAddr {
    fn from(raw: u64) -> Self {
        PhysAddr::new(raw)
    }
}

/// A virtual page number (virtual address shifted down by the page size).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Vpn(pub u64);

impl Vpn {
    /// The radix index for page-table `level` (1 = root .. 4 = leaf) given
    /// the page size used by the leaf level.
    ///
    /// For 4 KB pages all four 9-bit groups index page-table nodes. For 2 MB
    /// pages the translation stops one level early (level 4 is absorbed into
    /// the page offset), but we keep the same indexing scheme and simply use
    /// three levels.
    #[inline]
    pub fn level_index(self, level: u8, page_size_log2: u32) -> u64 {
        debug_assert!((1..=PAGE_TABLE_LEVELS).contains(&level));
        let levels = levels_for_page_size(page_size_log2);
        let shift = BITS_PER_LEVEL * (u32::from(levels) - u32::from(level));
        (self.0 >> shift) & ((1 << BITS_PER_LEVEL) - 1)
    }
}

impl fmt::Debug for Vpn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VPN({:#x})", self.0)
    }
}

/// Number of radix levels actually walked for a given page size.
///
/// 4 KB pages walk all [`PAGE_TABLE_LEVELS`] levels; 2 MB pages walk one
/// fewer because the leaf level is absorbed into the page offset.
#[inline]
pub fn levels_for_page_size(page_size_log2: u32) -> u8 {
    if page_size_log2 >= PAGE_SIZE_2M_LOG2 {
        PAGE_TABLE_LEVELS - 1
    } else {
        PAGE_TABLE_LEVELS
    }
}

/// A physical frame number.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ppn(pub u64);

impl Ppn {
    /// Translates a virtual address that maps to this frame.
    #[inline]
    pub const fn translate(self, va: VirtAddr, page_size_log2: u32) -> PhysAddr {
        PhysAddr((self.0 << page_size_log2) | va.page_offset(page_size_log2))
    }
}

impl fmt::Debug for Ppn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PPN({:#x})", self.0)
    }
}

/// A physical cache-line address (physical address shifted by the line size).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(pub u64);

impl fmt::Debug for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Line({:#x})", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virt_addr_truncates_to_48_bits() {
        let va = VirtAddr::new(u64::MAX);
        assert_eq!(va.raw(), (1 << VA_BITS) - 1);
    }

    #[test]
    fn vpn_and_offset_roundtrip() {
        let va = VirtAddr::new(0x1234_5678_9abc);
        let vpn = va.vpn(PAGE_SIZE_4K_LOG2);
        let off = va.page_offset(PAGE_SIZE_4K_LOG2);
        assert_eq!((vpn.0 << PAGE_SIZE_4K_LOG2) + off, va.raw());
    }

    #[test]
    fn level_indices_cover_vpn_bits() {
        let va = VirtAddr::new(0x0000_7fff_ffff_f000);
        let vpn = va.vpn(PAGE_SIZE_4K_LOG2);
        let mut rebuilt = 0u64;
        for level in 1..=PAGE_TABLE_LEVELS {
            rebuilt = (rebuilt << BITS_PER_LEVEL) | vpn.level_index(level, PAGE_SIZE_4K_LOG2);
        }
        assert_eq!(rebuilt, vpn.0);
    }

    #[test]
    fn large_pages_walk_three_levels() {
        assert_eq!(levels_for_page_size(PAGE_SIZE_4K_LOG2), 4);
        assert_eq!(levels_for_page_size(PAGE_SIZE_2M_LOG2), 3);
    }

    #[test]
    fn translate_preserves_offset() {
        let va = VirtAddr::new(0xdead_beef);
        let ppn = Ppn(0x42);
        let pa = ppn.translate(va, PAGE_SIZE_4K_LOG2);
        assert_eq!(pa.raw() & 0xfff, va.raw() & 0xfff);
        assert_eq!(pa.ppn(PAGE_SIZE_4K_LOG2), ppn);
    }

    #[test]
    fn line_alignment() {
        let pa = PhysAddr::new(0x1fff);
        assert_eq!(pa.line(), LineAddr(0x1f80 >> LINE_SIZE_LOG2));
    }
}
