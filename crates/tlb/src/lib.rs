//! TLB structures and MASK's TLB-Fill Tokens mechanism.
//!
//! This crate implements every address-translation caching structure of the
//! paper's two baseline designs (Fig. 2) and of MASK (Fig. 10):
//!
//! * per-core, fully-associative **L1 TLBs** ([`l1::L1Tlb`]),
//! * the **shared L2 TLB** with ASID-tagged entries ([`l2::SharedL2Tlb`]),
//! * the **page-walk cache** of the `PWCache` baseline variant
//!   ([`pwc::PageWalkCache`]),
//! * MASK's **TLB bypass cache** ([`bypass::TlbBypassCache`]) and the
//!   epoch-based **TLB-Fill Tokens** controller ([`tokens::TokenAllocator`])
//!   — mechanism ❶ of Fig. 10 (§5.2).
//!
//! All replacement is LRU, matching Table 1 ("L1 and L2 TLBs use the LRU
//! replacement policy").

pub mod assoc;
pub mod bypass;
pub mod l1;
pub mod l2;
pub mod pwc;
pub mod tokens;

pub use assoc::AssocArray;
pub use bypass::TlbBypassCache;
pub use l1::L1Tlb;
pub use l2::{L2TlbProbe, SharedL2Tlb};
pub use pwc::PageWalkCache;
pub use tokens::{TokenAllocator, TokenPolicy};

/// A TLB entry key: (address space, virtual page).
///
/// The shared structures are ASID-tagged (§5.1: "We extend each L2 TLB
/// entry with an address space identifier"); private L1 TLBs carry the tag
/// too so that core reassignment flushes work uniformly.
#[derive(Clone, Copy, Eq, Debug, Default)]
pub struct TlbKey {
    /// The address space identifier.
    pub asid: mask_common::Asid,
    /// The virtual page number.
    pub vpn: mask_common::Vpn,
}

impl PartialEq for TlbKey {
    /// Page first: the arrays find a key by scanning a set, where nearly
    /// every comparison fails — on the page number, predictably. Address
    /// space first, a shared set that interleaves two applications' entries
    /// mispredicts every other comparison (the shared L2 TLB probe costs
    /// twice as much that way).
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.vpn == other.vpn && self.asid == other.asid
    }
}

impl std::hash::Hash for TlbKey {
    /// Address space, then page: the byte stream the set index is hashed
    /// from (what `#[derive(Hash)]` produces for this field order).
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.asid.hash(state);
        self.vpn.hash(state);
    }
}

impl TlbKey {
    /// Creates a key.
    pub const fn new(asid: mask_common::Asid, vpn: mask_common::Vpn) -> Self {
        TlbKey { asid, vpn }
    }
}

impl mask_common::snapshot::Snapshot for TlbKey {
    fn snapshot(&self, w: &mut mask_common::snapshot::SnapshotWriter) {
        self.asid.snapshot(w);
        self.vpn.snapshot(w);
    }
}

#[cfg(test)]
mod tests {
    use super::TlbKey;
    use mask_common::siphash::SipHasher13;
    use mask_common::{Asid, Vpn};
    use std::hash::{Hash, Hasher};

    fn digest(key: &impl Hash) -> u64 {
        let mut h = SipHasher13::new();
        key.hash(&mut h);
        h.finish()
    }

    #[test]
    fn key_hashes_as_its_fields_in_order_and_equals_on_both() {
        for (asid, vpn) in [(0u16, 0u64), (1, 0x7_f123_4567), (511, u64::MAX)] {
            let key = TlbKey::new(Asid::new(asid), Vpn(vpn));
            assert_eq!(digest(&key), digest(&(Asid::new(asid), Vpn(vpn))));
            assert_eq!(key, TlbKey::new(Asid::new(asid), Vpn(vpn)));
            assert_ne!(key, TlbKey::new(Asid::new(asid ^ 1), Vpn(vpn)));
            assert_ne!(key, TlbKey::new(Asid::new(asid), Vpn(vpn ^ 1)));
        }
    }
}
