//! SipHash-1-3 with zero keys: the set-index hash of the associative arrays.
//!
//! `std::collections::hash_map::DefaultHasher` computes the same function
//! today, but std documents its algorithm as subject to change, and the
//! L2-TLB / page-walk-cache set mapping — and with it every oracle checksum
//! — must not depend on the toolchain. This is the algorithm, pinned here.
//!
//! The byte stream is the one `#[derive(Hash)]` produces: every integer as
//! its native-endian bytes, fields in declaration order (`u16` ASID then
//! `u64` VPN for a TLB key, one `u64` for a `LineAddr`).

use std::hash::Hasher;

/// Streaming SipHash-1-3 (one compression round, three finalization rounds).
#[derive(Clone, Copy, Debug)]
pub struct SipHasher13 {
    v0: u64,
    v1: u64,
    v2: u64,
    v3: u64,
    /// Bytes not yet compressed, packed little-endian from bit 0.
    tail: u64,
    /// How many bytes of `tail` are occupied (always < 8).
    ntail: usize,
    /// Total bytes absorbed; only the low 8 bits enter the digest.
    length: usize,
}

impl Default for SipHasher13 {
    fn default() -> Self {
        Self::new()
    }
}

impl SipHasher13 {
    /// A fresh hasher with both key halves zero.
    #[must_use]
    pub fn new() -> Self {
        Self::with_keys(0, 0)
    }

    fn with_keys(k0: u64, k1: u64) -> Self {
        SipHasher13 {
            v0: k0 ^ 0x736f_6d65_7073_6575,
            v1: k1 ^ 0x646f_7261_6e64_6f6d,
            v2: k0 ^ 0x6c79_6765_6e65_7261,
            v3: k1 ^ 0x7465_6462_7974_6573,
            tail: 0,
            ntail: 0,
            length: 0,
        }
    }

    #[inline]
    fn round(&mut self) {
        self.v0 = self.v0.wrapping_add(self.v1);
        self.v1 = self.v1.rotate_left(13);
        self.v1 ^= self.v0;
        self.v0 = self.v0.rotate_left(32);
        self.v2 = self.v2.wrapping_add(self.v3);
        self.v3 = self.v3.rotate_left(16);
        self.v3 ^= self.v2;
        self.v0 = self.v0.wrapping_add(self.v3);
        self.v3 = self.v3.rotate_left(21);
        self.v3 ^= self.v0;
        self.v2 = self.v2.wrapping_add(self.v1);
        self.v1 = self.v1.rotate_left(17);
        self.v1 ^= self.v2;
        self.v2 = self.v2.rotate_left(32);
    }

    /// Absorbs the low `size` bytes of `x` (1 ≤ `size` ≤ 8; the bytes above
    /// them must be zero), where `x` is the little-endian reading of the
    /// bytes being hashed.
    #[inline]
    fn absorb(&mut self, x: u64, size: usize) {
        debug_assert!((1..=8).contains(&size));
        self.length = self.length.wrapping_add(size);
        let room = 8 - self.ntail;
        self.tail |= x << (8 * self.ntail);
        if size < room {
            self.ntail += size;
            return;
        }
        let m = self.tail;
        self.v3 ^= m;
        self.round();
        self.v0 ^= m;
        self.ntail = size - room;
        self.tail = if room < 8 { x >> (8 * room) } else { 0 };
    }
}

impl Hasher for SipHasher13 {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.absorb(u64::from_le_bytes(word), chunk.len());
        }
    }

    // The integer writes skip the byte-slice detour; `to_le` turns the value
    // into the little-endian reading of its native-endian bytes.
    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.absorb(u64::from(i), 1);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.absorb(u64::from(i.to_le()), 2);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.absorb(u64::from(i.to_le()), 4);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.absorb(i.to_le(), 8);
    }

    #[inline]
    fn finish(&self) -> u64 {
        let mut s = *self;
        let b = ((self.length as u64 & 0xff) << 56) | self.tail;
        s.v3 ^= b;
        s.round();
        s.v0 ^= b;
        s.v2 ^= 0xff;
        s.round();
        s.round();
        s.round();
        s.v0 ^ s.v1 ^ s.v2 ^ s.v3
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{LineAddr, Vpn};
    use crate::ids::Asid;
    use crate::rng::Pcg32;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::Hash;

    fn sip(key: &impl Hash) -> u64 {
        let mut h = SipHasher13::new();
        key.hash(&mut h);
        h.finish()
    }

    fn std_hash(key: &impl Hash) -> u64 {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        h.finish()
    }

    /// The published SipHash-1-3 vectors use the key 00 01 .. 0f over the
    /// messages (), (00), (00 01), ...; these are the first ten.
    #[test]
    fn reference_vectors_with_the_published_key() {
        let k0 = u64::from_le_bytes([0, 1, 2, 3, 4, 5, 6, 7]);
        let k1 = u64::from_le_bytes([8, 9, 10, 11, 12, 13, 14, 15]);
        let published: [[u8; 8]; 10] = [
            [0xdc, 0xc4, 0x0f, 0x05, 0x58, 0x01, 0xac, 0xab],
            [0x93, 0xca, 0x57, 0x7d, 0xf3, 0x9b, 0xf4, 0xc9],
            [0x4d, 0xd4, 0xc7, 0x4d, 0x02, 0x9b, 0xcb, 0x82],
            [0xfb, 0xf7, 0xdd, 0xe7, 0xb8, 0x0a, 0xf8, 0x8b],
            [0x28, 0x83, 0xd3, 0x88, 0x60, 0x57, 0x75, 0xcf],
            [0x67, 0x3b, 0x53, 0x49, 0x2f, 0xd5, 0xf9, 0xde],
            [0xa7, 0x22, 0x9f, 0xc5, 0x50, 0x2b, 0x0d, 0xc5],
            [0x40, 0x11, 0xb1, 0x9b, 0x98, 0x7d, 0x92, 0xd3],
            [0x8e, 0x9a, 0x29, 0x8d, 0x11, 0x95, 0x90, 0x36],
            [0xe4, 0x3d, 0x06, 0x6c, 0xb3, 0x8e, 0xa4, 0x25],
        ];
        let msg: Vec<u8> = (0u8..16).collect();
        for (n, want) in published.iter().enumerate() {
            let mut h = SipHasher13::with_keys(k0, k1);
            h.write(&msg[..n]);
            assert_eq!(h.finish().to_le_bytes(), *want, "message length {n}");
        }
    }

    /// Zero-key answers for the two key shapes the simulator hashes (the
    /// stream is native-endian, so the answers are a little-endian host's).
    #[cfg(target_endian = "little")]
    #[test]
    fn known_answers_for_tlb_keys_and_lines() {
        assert_eq!(sip(&(Asid::new(0), Vpn(0))), 0x0a9c_6325_141d_82e8);
        assert_eq!(
            sip(&(Asid::new(1), Vpn(0x7_f123_4567))),
            0x3d18_b089_ae38_dcef
        );
        assert_eq!(sip(&LineAddr(0)), 0xbd60_acb6_58c7_9e45);
        assert_eq!(sip(&LineAddr(0xdead_beef)), 0x1e1d_875f_b6b6_9775);
    }

    /// On the toolchain this was written against, std's default hasher is
    /// this function. Should std ever change algorithm this test goes red
    /// and is then deleted: the pinned vectors above are the contract.
    #[test]
    fn equals_the_default_hasher_over_seeded_keys() {
        let mut rng = Pcg32::new(2018, 14);
        for _ in 0..10_000 {
            let asid = Asid::new(rng.next_u32() as u16);
            let vpn = Vpn(rng.next_u64());
            assert_eq!(sip(&(asid, vpn)), std_hash(&(asid, vpn)));
            assert_eq!(sip(&LineAddr(vpn.0)), std_hash(&LineAddr(vpn.0)));
            assert_eq!(sip(&(vpn.0 as u8)), std_hash(&(vpn.0 as u8)));
            assert_eq!(sip(&(vpn.0 as u32, asid)), std_hash(&(vpn.0 as u32, asid)));
        }
    }

    /// The byte-slice path and the integer path are one stream, whatever
    /// the split.
    #[test]
    fn slices_and_integers_absorb_identically() {
        let bytes: Vec<u8> = (0u8..40).map(|b| b.wrapping_mul(37)).collect();
        for n in 0..bytes.len() {
            let mut whole = DefaultHasher::new();
            whole.write(&bytes[..n]);
            for split in 0..=n {
                let mut h = SipHasher13::new();
                h.write(&bytes[..split]);
                h.write(&bytes[split..n]);
                assert_eq!(h.finish(), whole.finish(), "len {n} split {split}");
            }
        }
    }
}
