//! Snapshot encoding: a versioned, checksummed binary codec and the
//! [`Snapshot`] encoder implemented by every stateful simulator structure.
//!
//! # Model
//!
//! A snapshot captures the *dynamic* state of a structure — queues, cache
//! arrays, RNG streams, counters — and deliberately excludes anything
//! derivable from the configuration (capacities, latencies, policy
//! objects) or from other encoded state (recency lists, queue keys, walk
//! nodes). This keeps workload profiles, which are configuration carried
//! by value, and scratch buffers out of the encoded bytes entirely.
//!
//! The codec is encode-only for simulator state. The simulator is
//! deterministic, so a snapshot is reproduced, not decoded: `GpuSim`'s
//! `restore_snapshot` reads the cycle count, simulates a fresh machine that
//! far and accepts the result only if it re-encodes to the same bytes. The
//! one decoder is [`SimStats::decode`], for the statistics blocks a result
//! store reads back from disk.
//!
//! A snapshot may be taken at any cycle between two steps: every per-step
//! scratch vector is empty there, and a replay reaches any cycle.
//!
//! # Wire format
//!
//! ```text
//! magic "MSNP" | version u32 | prefix key u64 | payload len u64 |
//! FNV-1a(payload) u64 | payload bytes
//! ```
//!
//! All integers are little-endian. The payload is a flat stream of
//! primitive fields interleaved with 64-bit section tags (FNV-1a of a
//! static name) so a reader that drifts out of sync fails loudly at the
//! next section boundary instead of silently reinterpreting bytes.
//! Corruption, truncation, and version skew are all hard errors: a
//! snapshot is either reproduced exactly or rejected.

use crate::stats::{AppStats, DramClassStats, Field, FieldMut, FieldRef, HitStats, SimStats};
use std::fmt;

/// First four bytes of every encoded snapshot.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"MSNP";

/// Bumped whenever the payload layout of any `Snapshot` impl changes.
/// Readers reject every version other than their own — there is no
/// migration path, because a stale prefix is always recomputable.
pub const SNAPSHOT_VERSION: u32 = 1;

const HEADER_LEN: usize = 4 + 4 + 8 + 8 + 8;

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming FNV-1a over arbitrary bytes; used for the payload checksum,
/// [`PrefixKey`] derivation and, as a [`Hasher`](std::hash::Hasher), the
/// translation MSHR's map.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    #[inline]
    fn default() -> Self {
        Fnv1a(FNV_OFFSET)
    }
}

impl Fnv1a {
    /// A fresh hasher at the offset basis.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorbs raw bytes.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    /// Absorbs a little-endian `u64`.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The current digest.
    #[must_use]
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// `Hasher` integer writers that feed `to_le_bytes`.
macro_rules! le_writers {
    ($($name:ident: $t:ty),*) => {$(
        #[inline]
        fn $name(&mut self, v: $t) {
            Fnv1a::write(self, &v.to_le_bytes());
        }
    )*};
}

/// Feeds every integer as little-endian bytes, like the inherent
/// [`Fnv1a::write_u64`], so `x.hash(&mut h)` and `h.write_u64(x)` agree
/// and no digest depends on the host's byte order.
impl std::hash::Hasher for Fnv1a {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        Fnv1a::write(self, bytes);
    }

    le_writers!(
        write_u16: u16,
        write_u32: u32,
        write_u64: u64,
        write_u128: u128,
        write_usize: usize
    );

    #[inline]
    fn finish(&self) -> u64 {
        Fnv1a::finish(self)
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// Why a snapshot could not be decoded or reproduced. Every variant is a
/// hard failure: the caller must fall back to simulating from cycle zero.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// Fewer bytes than the reader needed.
    Truncated {
        /// Bytes the read required.
        need: usize,
        /// Bytes remaining.
        have: usize,
    },
    /// The leading magic was not [`SNAPSHOT_MAGIC`].
    BadMagic([u8; 4]),
    /// Encoded with a different codec version.
    BadVersion {
        /// Version found in the header.
        found: u32,
        /// Version this build understands.
        expected: u32,
    },
    /// Payload bytes do not hash to the header checksum.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        stored: u64,
        /// Checksum of the actual payload.
        computed: u64,
    },
    /// The snapshot was taken under a different [`PrefixKey`].
    KeyMismatch {
        /// Key recorded in the header.
        stored: u64,
        /// Key the restoring job computed.
        expected: u64,
    },
    /// A section tag did not match the structure the reader expected.
    BadSection {
        /// Section the reader expected next.
        expected: &'static str,
    },
    /// A field decoded to a value the target structure cannot hold, or a
    /// replay did not reproduce the snapshot.
    Malformed(&'static str),
    /// Payload bytes were left over after a full decode.
    TrailingBytes(usize),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated { need, have } => {
                write!(f, "snapshot truncated: needed {need} bytes, {have} left")
            }
            SnapshotError::BadMagic(m) => write!(f, "not a snapshot (magic {m:02x?})"),
            SnapshotError::BadVersion { found, expected } => {
                write!(f, "snapshot version {found}, this build reads {expected}")
            }
            SnapshotError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot checksum mismatch: header {stored:#018x}, payload {computed:#018x}"
            ),
            SnapshotError::KeyMismatch { stored, expected } => write!(
                f,
                "snapshot prefix key {stored:#018x} does not match job key {expected:#018x}"
            ),
            SnapshotError::BadSection { expected } => {
                write!(f, "snapshot section mismatch: expected `{expected}`")
            }
            SnapshotError::Malformed(what) => write!(f, "malformed snapshot field: {what}"),
            SnapshotError::TrailingBytes(n) => {
                write!(f, "snapshot has {n} unconsumed payload bytes")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Serializes dynamic state into a flat little-endian byte stream.
///
/// Allocation here is deliberate and fine: snapshots are taken far off the
/// per-cycle hot path.
#[derive(Debug, Default)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
}

impl SnapshotWriter {
    /// An empty writer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes of payload written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Starts a named section; the matching [`SnapshotReader::section`]
    /// call re-synchronizes or fails loudly.
    pub fn section(&mut self, tag: &'static str) {
        self.u64(fnv1a(tag.as_bytes()));
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `bool` as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Writes a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u128`.
    pub fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64` (platform-independent layout).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes an `i8` as its two's-complement byte.
    pub fn i8(&mut self, v: i8) {
        self.u8(v as u8);
    }

    /// Writes an `f64` by exact bit pattern — a replay is checked byte for
    /// byte, so floats never round-trip through decimal.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a collection length (`u64`) ahead of its elements.
    pub fn seq(&mut self, len: usize) {
        self.usize(len);
    }

    /// Seals the payload into a self-describing envelope carrying `key`.
    #[must_use]
    pub fn seal(self, key: PrefixKey) -> Vec<u8> {
        let checksum = fnv1a(&self.buf);
        let mut out = Vec::with_capacity(HEADER_LEN + self.buf.len());
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        out.extend_from_slice(&key.0.to_le_bytes());
        out.extend_from_slice(&(self.buf.len() as u64).to_le_bytes());
        out.extend_from_slice(&checksum.to_le_bytes());
        out.extend_from_slice(&self.buf);
        out
    }
}

/// Reads the payload checksum out of a sealed envelope without validating
/// or hashing the payload. Returns `None` when `bytes` is too short to
/// even hold a header.
#[must_use]
pub fn envelope_checksum(bytes: &[u8]) -> Option<u64> {
    let field = bytes.get(24..32)?;
    Some(u64::from_le_bytes(field.try_into().expect("8 bytes")))
}

/// Validates an envelope end to end — magic, version, length, checksum —
/// without decoding any payload field.
///
/// The disk-store startup sweep uses this to drop stale or truncated
/// `.msnp` files cheaply; it accepts exactly the byte strings
/// [`SnapshotReader::open`] would accept.
pub fn validate_envelope(bytes: &[u8]) -> Result<PrefixKey, SnapshotError> {
    SnapshotReader::open(bytes).map(|(_, key)| key)
}

/// Decodes the byte stream produced by [`SnapshotWriter`], validating the
/// envelope before any field is interpreted.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapshotReader<'a> {
    /// Validates magic, version, length, and checksum, and returns a
    /// reader over the payload plus the stored [`PrefixKey`].
    pub fn open(bytes: &'a [u8]) -> Result<(Self, PrefixKey), SnapshotError> {
        if bytes.len() < HEADER_LEN {
            return Err(SnapshotError::Truncated {
                need: HEADER_LEN,
                have: bytes.len(),
            });
        }
        let magic: [u8; 4] = bytes[0..4].try_into().expect("4 bytes");
        if magic != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic(magic));
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::BadVersion {
                found: version,
                expected: SNAPSHOT_VERSION,
            });
        }
        let key = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
        let len = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes")) as usize;
        let stored = u64::from_le_bytes(bytes[24..32].try_into().expect("8 bytes"));
        let payload = &bytes[HEADER_LEN..];
        if payload.len() != len {
            return Err(SnapshotError::Truncated {
                need: len,
                have: payload.len(),
            });
        }
        let computed = fnv1a(payload);
        if computed != stored {
            return Err(SnapshotError::ChecksumMismatch { stored, computed });
        }
        Ok((
            SnapshotReader {
                buf: payload,
                pos: 0,
            },
            PrefixKey(key),
        ))
    }

    /// Like [`SnapshotReader::open`], additionally rejecting a snapshot
    /// whose stored key differs from `expected`.
    pub fn open_keyed(bytes: &'a [u8], expected: PrefixKey) -> Result<Self, SnapshotError> {
        let (reader, stored) = Self::open(bytes)?;
        if stored != expected {
            return Err(SnapshotError::KeyMismatch {
                stored: stored.0,
                expected: expected.0,
            });
        }
        Ok(reader)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let have = self.buf.len() - self.pos;
        if have < n {
            return Err(SnapshotError::Truncated { need: n, have });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Consumes and checks a section tag written by
    /// [`SnapshotWriter::section`].
    pub fn section(&mut self, tag: &'static str) -> Result<(), SnapshotError> {
        if self.u64()? != fnv1a(tag.as_bytes()) {
            return Err(SnapshotError::BadSection { expected: tag });
        }
        Ok(())
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Reads a `usize` stored as `u64`.
    pub fn usize(&mut self) -> Result<usize, SnapshotError> {
        usize::try_from(self.u64()?).map_err(|_| SnapshotError::Malformed("usize overflow"))
    }

    /// Reads a collection length, bounded to keep a corrupt length from
    /// driving a pathological allocation.
    pub fn seq(&mut self) -> Result<usize, SnapshotError> {
        let n = self.usize()?;
        // An element is at least one byte, so a valid length can never
        // exceed the bytes remaining.
        if n > self.buf.len() - self.pos {
            return Err(SnapshotError::Malformed("sequence longer than payload"));
        }
        Ok(n)
    }

    /// Checks that every payload byte was consumed.
    pub fn finish(self) -> Result<(), SnapshotError> {
        let left = self.buf.len() - self.pos;
        if left != 0 {
            return Err(SnapshotError::TrailingBytes(left));
        }
        Ok(())
    }
}

/// Appends a structure's dynamic state to a snapshot stream: a whole
/// simulator structure, or a plain-data key or entry inside a generic
/// container.
pub trait Snapshot {
    /// Appends this value's dynamic state to `w`.
    fn snapshot(&self, w: &mut SnapshotWriter);
}

impl Snapshot for crate::rng::Pcg32 {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        let (state, inc) = self.raw_parts();
        w.u64(state);
        w.u64(inc);
    }
}

/// Writes every `u64` leaf under `fields`, in table order.
fn write_fields<'a>(
    fields: impl Iterator<Item = (&'static str, FieldRef<'a>)>,
    w: &mut SnapshotWriter,
) {
    for (_, field) in fields {
        match field {
            Field::Counter(v) | Field::Level(v) => w.u64(*v),
            Field::Hit(h) => h.snapshot(w),
            Field::Dram(d) => d.snapshot(w),
            Field::HitLevels(levels) => levels.iter().for_each(|h| h.snapshot(w)),
        }
    }
}

/// Inverse of [`write_fields`], rejecting a hit/access pair with more hits
/// than accesses.
fn read_fields<'a>(
    fields: impl Iterator<Item = (&'static str, FieldMut<'a>)>,
    r: &mut SnapshotReader<'_>,
) -> Result<(), SnapshotError> {
    for (_, field) in fields {
        match field {
            Field::Counter(v) | Field::Level(v) => *v = r.u64()?,
            Field::Hit(h) => read_hits(h, r)?,
            Field::Dram(d) => read_fields(d.fields_mut(), r)?,
            Field::HitLevels(levels) => levels.iter_mut().try_for_each(|h| read_hits(h, r))?,
        }
    }
    Ok(())
}

fn read_hits(h: &mut HitStats, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
    read_fields(h.fields_mut(), r)?;
    if h.hits > h.accesses {
        return Err(SnapshotError::Malformed("hits exceed accesses"));
    }
    Ok(())
}

impl Snapshot for HitStats {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        write_fields(self.fields(), w);
    }
}

impl Snapshot for DramClassStats {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        write_fields(self.fields(), w);
    }
}

impl Snapshot for AppStats {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        write_fields(self.fields(), w);
    }
}

impl Snapshot for SimStats {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        w.section("stats");
        w.seq(self.apps.len());
        for app in &self.apps {
            app.snapshot(w);
        }
        w.u64(self.cycles);
        w.u64(self.dram_bus_busy);
        w.usize(self.dram_channels);
    }
}

impl SimStats {
    /// Reads back a statistics block written by its [`Snapshot`] encoder.
    ///
    /// # Errors
    ///
    /// Propagates stream truncation and section mismatches, and rejects a
    /// hit/access pair with more hits than accesses.
    pub fn decode(r: &mut SnapshotReader<'_>) -> Result<SimStats, SnapshotError> {
        r.section("stats")?;
        let mut apps = vec![AppStats::default(); r.seq()?];
        for app in &mut apps {
            read_fields(app.fields_mut(), r)?;
        }
        Ok(SimStats {
            apps,
            cycles: r.u64()?,
            dram_bus_busy: r.u64()?,
            dram_channels: r.usize()?,
        })
    }
}

impl Snapshot for () {
    fn snapshot(&self, _w: &mut SnapshotWriter) {}
}

impl Snapshot for u64 {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        w.u64(*self);
    }
}

impl Snapshot for usize {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        w.usize(*self);
    }
}

impl Snapshot for crate::addr::LineAddr {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        w.u64(self.0);
    }
}

impl Snapshot for crate::addr::VirtAddr {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        w.u64(self.raw());
    }
}

impl Snapshot for crate::addr::Vpn {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        w.u64(self.0);
    }
}

impl Snapshot for crate::addr::Ppn {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        w.u64(self.0);
    }
}

impl Snapshot for crate::ids::Asid {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        w.u16(self.raw());
    }
}

impl Snapshot for crate::ids::CoreId {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        w.u16(self.raw());
    }
}

impl Snapshot for crate::ids::WarpId {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        w.u16(self.raw());
    }
}

impl Snapshot for crate::ids::GlobalWarpId {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        self.core.snapshot(w);
        self.warp.snapshot(w);
    }
}

impl Snapshot for crate::req::ReqId {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        w.u64(self.0);
    }
}

impl Snapshot for crate::req::RequestClass {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        // depth_tag is a faithful encoding: 0 = data, 1..=4 = walk level.
        w.u8(self.depth_tag());
    }
}

impl Snapshot for crate::req::MemRequest {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        self.id.snapshot(w);
        self.line.snapshot(w);
        self.asid.snapshot(w);
        self.core.snapshot(w);
        self.class.snapshot(w);
        w.u64(self.issued_at);
    }
}

/// Content-addressed identity of a warm-up prefix.
///
/// Two jobs share a key exactly when running their first `warm-up` cycles
/// is guaranteed to produce bit-identical simulator state. The job engine
/// derives it (`SimJob::prefix_key` in `mask-core`) as the FNV-1a digest
/// of the job's canonical key with everything that provably cannot affect
/// the prefix normalised away; the same newtype addresses every sealed
/// envelope, `maskd`'s stored results included.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PrefixKey(pub u64);

impl fmt::Display for PrefixKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stats() -> SimStats {
        let mut s = SimStats::new(2, 8);
        s.cycles = 123_456;
        s.dram_bus_busy = 777;
        s.apps[0].instructions = 42;
        s.apps[0].l1_tlb.record(true);
        s.apps[0].l1_tlb.record(false);
        s.apps[1].dram_data.requests = 9;
        s.apps[1].l2_translation[2].record(true);
        s
    }

    #[test]
    fn envelope_round_trip() {
        let stats = sample_stats();
        let mut w = SnapshotWriter::new();
        stats.snapshot(&mut w);
        let bytes = w.seal(PrefixKey(0xdead_beef));

        let mut r = SnapshotReader::open_keyed(&bytes, PrefixKey(0xdead_beef)).unwrap();
        let out = SimStats::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(out, stats);
    }

    /// `Hash` through the `Hasher` impl feeds the same little-endian bytes
    /// as the inherent writers, on any host.
    #[test]
    fn hashing_an_integer_matches_the_inherent_writer() {
        use std::hash::Hash;
        let v = 0x0123_4567_89ab_cdef_u64;
        let mut via_hash = Fnv1a::new();
        (v as u16, v).hash(&mut via_hash);
        let mut direct = Fnv1a::new();
        direct.write(&(v as u16).to_le_bytes());
        direct.write_u64(v);
        assert_eq!(std::hash::Hasher::finish(&via_hash), direct.finish());
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = SnapshotWriter::new().seal(PrefixKey(0));
        bytes[0] = b'X';
        assert!(matches!(
            SnapshotReader::open(&bytes),
            Err(SnapshotError::BadMagic(_))
        ));
    }

    #[test]
    fn rejects_wrong_version() {
        let mut bytes = SnapshotWriter::new().seal(PrefixKey(0));
        bytes[4] = SNAPSHOT_VERSION as u8 + 1;
        assert!(matches!(
            SnapshotReader::open(&bytes),
            Err(SnapshotError::BadVersion { .. })
        ));
    }

    #[test]
    fn rejects_flipped_payload_bit() {
        let mut w = SnapshotWriter::new();
        sample_stats().snapshot(&mut w);
        let mut bytes = w.seal(PrefixKey(0));
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        assert!(matches!(
            SnapshotReader::open(&bytes),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn rejects_truncation() {
        let mut w = SnapshotWriter::new();
        sample_stats().snapshot(&mut w);
        let bytes = w.seal(PrefixKey(0));
        for cut in [0, 10, HEADER_LEN, bytes.len() - 1] {
            assert!(
                SnapshotReader::open(&bytes[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn rejects_key_mismatch() {
        let bytes = SnapshotWriter::new().seal(PrefixKey(5));
        assert!(matches!(
            SnapshotReader::open_keyed(&bytes, PrefixKey(6)),
            Err(SnapshotError::KeyMismatch { .. })
        ));
    }

    #[test]
    fn section_mismatch_is_loud() {
        let mut w = SnapshotWriter::new();
        w.section("alpha");
        let bytes = w.seal(PrefixKey(0));
        let (mut r, _) = SnapshotReader::open(&bytes).unwrap();
        assert_eq!(
            r.section("beta"),
            Err(SnapshotError::BadSection { expected: "beta" })
        );
    }

    #[test]
    fn finish_flags_trailing_bytes() {
        let mut w = SnapshotWriter::new();
        w.u64(1);
        w.u64(2);
        let bytes = w.seal(PrefixKey(0));
        let (mut r, _) = SnapshotReader::open(&bytes).unwrap();
        let _ = r.u64().unwrap();
        assert_eq!(r.finish(), Err(SnapshotError::TrailingBytes(8)));
    }

    #[test]
    fn hits_above_accesses_are_rejected() {
        let mut stats = sample_stats();
        stats.apps[1].l2_translation[2].hits = stats.apps[1].l2_translation[2].accesses + 1;
        let mut w = SnapshotWriter::new();
        stats.snapshot(&mut w);
        let bytes = w.seal(PrefixKey(0));
        let (mut r, _) = SnapshotReader::open(&bytes).unwrap();
        assert_eq!(
            SimStats::decode(&mut r),
            Err(SnapshotError::Malformed("hits exceed accesses"))
        );
    }

    #[test]
    fn envelope_peeks_match_open() {
        let mut w = SnapshotWriter::new();
        sample_stats().snapshot(&mut w);
        let bytes = w.seal(PrefixKey(0xBEEF));
        assert_eq!(envelope_checksum(&bytes), Some(fnv1a(&bytes[HEADER_LEN..])));
        assert_eq!(validate_envelope(&bytes), Ok(PrefixKey(0xBEEF)));
        // Peeks refuse sub-header inputs instead of panicking.
        assert_eq!(envelope_checksum(&bytes[..31]), None);
        assert!(validate_envelope(&bytes[..31]).is_err());
        // validate_envelope rejects exactly what open rejects.
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 1;
        assert!(matches!(
            validate_envelope(&bad),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn default_stats_round_trip() {
        let stats = SimStats::new(3, 0);
        let mut w = SnapshotWriter::new();
        stats.snapshot(&mut w);
        let bytes = w.seal(PrefixKey(0));
        let (mut r, _) = SnapshotReader::open(&bytes).unwrap();
        assert_eq!(SimStats::decode(&mut r), Ok(stats));
        r.finish().unwrap();
    }
}
