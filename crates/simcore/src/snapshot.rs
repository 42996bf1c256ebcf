//! Versioned, checksummed binary encoding of simulator state.
//!
//! The campaign engine pays functional warm-up once per (machine, mix)
//! and forks the resulting chip state across every sweep point that
//! shares it. That requires a stable byte encoding of the mutable state
//! of every component — this module provides the primitives: a
//! [`SnapshotWriter`] that frames a payload with a magic/version header
//! and an FNV-1a checksum trailer, and a [`SnapshotReader`] that
//! verifies both before any field is decoded.
//!
//! Design rules (see DESIGN.md §9):
//!
//! - **Little-endian, fixed-width.** Every integer is written LE at its
//!   natural width; `f64` travels as its IEEE-754 bit pattern. No
//!   varints — decode offsets must not depend on values.
//! - **Mutable state only.** Components encode the fields a functional
//!   warm run can change and *nothing derived from configuration*
//!   (latencies, geometries, probabilities). Restoring into a freshly
//!   constructed component therefore keeps the new configuration's
//!   derived values, which is what lets one warm snapshot serve sweep
//!   points that differ only in timing knobs.
//! - **Fail closed.** Every decode path returns [`SnapshotError`];
//!   truncation, magic/version mismatch, checksum mismatch and
//!   structural mismatch (e.g. restoring a 4-core snapshot into a
//!   2-core chip) are all distinct, reportable errors.

use std::fmt;

use crate::types::Cycle;

/// First four payload bytes: "NUCS" as a little-endian `u32`.
pub const MAGIC: u32 = u32::from_le_bytes(*b"NUCS");

/// Current encoding version. Bump on any layout change; readers reject
/// other versions outright instead of guessing.
pub const VERSION: u32 = 4;

/// Byte length of the header (magic + version).
const HEADER_BYTES: usize = 8;

/// Byte length of the checksum trailer.
const TRAILER_BYTES: usize = 8;

/// Why a snapshot could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer ended before the requested field.
    Truncated {
        /// Byte offset at which the read was attempted.
        offset: usize,
    },
    /// The first four bytes are not [`MAGIC`].
    BadMagic(u32),
    /// The version field is not [`VERSION`].
    BadVersion(u32),
    /// The FNV-1a trailer does not match the payload.
    BadChecksum {
        /// Checksum recomputed over the payload.
        expected: u64,
        /// Checksum stored in the trailer.
        found: u64,
    },
    /// A field decoded but contradicts the restoring component's
    /// structure (wrong core count, geometry, organization, …).
    Mismatch(&'static str),
    /// A field decoded to a value no encoder writes.
    Corrupt(&'static str),
    /// Decoding finished with payload bytes left over.
    TrailingBytes {
        /// Unconsumed payload bytes.
        remaining: usize,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated { offset } => {
                write!(f, "snapshot truncated at byte {offset}")
            }
            SnapshotError::BadMagic(m) => {
                write!(f, "bad snapshot magic {m:#010x} (expected {MAGIC:#010x})")
            }
            SnapshotError::BadVersion(v) => {
                write!(f, "unsupported snapshot version {v} (expected {VERSION})")
            }
            SnapshotError::BadChecksum { expected, found } => write!(
                f,
                "snapshot checksum mismatch: payload hashes to {expected:#018x}, trailer says {found:#018x}"
            ),
            SnapshotError::Mismatch(what) => {
                write!(f, "snapshot does not match this machine: {what}")
            }
            SnapshotError::Corrupt(what) => write!(f, "corrupt snapshot field: {what}"),
            SnapshotError::TrailingBytes { remaining } => {
                write!(f, "snapshot decoded with {remaining} byte(s) left over")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// 64-bit FNV-1a over a byte slice — cheap, dependency-free and stable
/// across platforms, which is all an integrity trailer needs.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Append-only encoder. Construction writes the header; [`finish`]
/// appends the checksum trailer and yields the bytes.
///
/// [`finish`]: SnapshotWriter::finish
#[derive(Debug, Clone)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
}

impl Default for SnapshotWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl SnapshotWriter {
    /// A writer primed with the magic/version header.
    pub fn new() -> Self {
        let mut w = SnapshotWriter {
            buf: Vec::with_capacity(4096),
        };
        w.put_u32(MAGIC);
        w.put_u32(VERSION);
        w
    }

    /// Bytes written so far (header included).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing beyond the header was written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.len() <= HEADER_BYTES
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `bool` as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Writes a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u128`, little-endian.
    pub fn put_u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Writes an `f64` as its IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Writes a [`Cycle`] as its raw count.
    pub fn put_cycle(&mut self, c: Cycle) {
        self.put_u64(c.raw());
    }

    /// Writes a `u64` slice with a length prefix.
    pub fn put_u64_slice(&mut self, vs: &[u64]) {
        self.put_usize(vs.len());
        for &v in vs {
            self.put_u64(v);
        }
    }

    /// Writes a `u32` slice with a length prefix.
    pub fn put_u32_slice(&mut self, vs: &[u32]) {
        self.put_usize(vs.len());
        for &v in vs {
            self.put_u32(v);
        }
    }

    /// Writes a `u8` slice with a length prefix.
    pub fn put_u8_slice(&mut self, vs: &[u8]) {
        self.put_usize(vs.len());
        self.buf.extend_from_slice(vs);
    }

    /// Appends the FNV-1a trailer and returns the finished bytes.
    #[must_use]
    pub fn finish(mut self) -> Vec<u8> {
        let sum = fnv1a64(&self.buf);
        self.buf.extend_from_slice(&sum.to_le_bytes());
        self.buf
    }
}

/// Sequential decoder over a finished snapshot. Construction verifies
/// the trailer checksum, magic and version before any field is read.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    /// Payload only: header consumed, trailer stripped.
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapshotReader<'a> {
    /// Opens a snapshot, verifying checksum, magic and version.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] when shorter than header + trailer,
    /// [`SnapshotError::BadChecksum`], [`SnapshotError::BadMagic`] or
    /// [`SnapshotError::BadVersion`] when framing fails.
    pub fn open(bytes: &'a [u8]) -> Result<Self, SnapshotError> {
        if bytes.len() < HEADER_BYTES + TRAILER_BYTES {
            return Err(SnapshotError::Truncated {
                offset: bytes.len(),
            });
        }
        let split = bytes.len() - TRAILER_BYTES;
        let (payload, trailer) = bytes.split_at(split);
        let mut found = [0u8; 8];
        found.copy_from_slice(trailer);
        let found = u64::from_le_bytes(found);
        let expected = fnv1a64(payload);
        if expected != found {
            return Err(SnapshotError::BadChecksum { expected, found });
        }
        let mut r = SnapshotReader {
            buf: payload,
            pos: 0,
        };
        let magic = r.get_u32()?;
        if magic != MAGIC {
            return Err(SnapshotError::BadMagic(magic));
        }
        let version = r.get_u32()?;
        if version != VERSION {
            return Err(SnapshotError::BadVersion(version));
        }
        Ok(r)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or(SnapshotError::Truncated { offset: self.pos })?;
        let slice = self
            .buf
            .get(self.pos..end)
            .ok_or(SnapshotError::Truncated { offset: self.pos })?;
        self.pos = end;
        Ok(slice)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] at end of payload.
    pub fn get_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?.first().copied().unwrap_or_default())
    }

    /// Reads a `bool`; any byte other than 0/1 is corruption.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] or [`SnapshotError::Corrupt`].
    pub fn get_bool(&mut self) -> Result<bool, SnapshotError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Corrupt("bool byte not 0 or 1")),
        }
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] at end of payload.
    pub fn get_u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.take(4)?;
        let mut a = [0u8; 4];
        a.copy_from_slice(b);
        Ok(u32::from_le_bytes(a))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] at end of payload.
    pub fn get_u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Reads a little-endian `u128`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] at end of payload.
    pub fn get_u128(&mut self) -> Result<u128, SnapshotError> {
        let b = self.take(16)?;
        let mut a = [0u8; 16];
        a.copy_from_slice(b);
        Ok(u128::from_le_bytes(a))
    }

    /// Reads a `usize` written by [`SnapshotWriter::put_usize`].
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`], or [`SnapshotError::Corrupt`] when
    /// the value does not fit this platform's `usize`.
    pub fn get_usize(&mut self) -> Result<usize, SnapshotError> {
        usize::try_from(self.get_u64()?).map_err(|_| SnapshotError::Corrupt("usize overflow"))
    }

    /// Reads an `f64` bit pattern.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] at end of payload.
    pub fn get_f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a [`Cycle`].
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] at end of payload.
    pub fn get_cycle(&mut self) -> Result<Cycle, SnapshotError> {
        Ok(Cycle::new(self.get_u64()?))
    }

    /// Reads a length-prefixed `u64` vector.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] or [`SnapshotError::Corrupt`] when
    /// the prefix exceeds the remaining payload.
    pub fn get_u64_vec(&mut self) -> Result<Vec<u64>, SnapshotError> {
        let n = self.checked_len(8)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.get_u64()?);
        }
        Ok(out)
    }

    /// Reads a length-prefixed `u32` vector.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] or [`SnapshotError::Corrupt`] when
    /// the prefix exceeds the remaining payload.
    pub fn get_u32_vec(&mut self) -> Result<Vec<u32>, SnapshotError> {
        let n = self.checked_len(4)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.get_u32()?);
        }
        Ok(out)
    }

    /// Reads a length-prefixed `u8` vector.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] or [`SnapshotError::Corrupt`] when
    /// the prefix exceeds the remaining payload.
    pub fn get_u8_vec(&mut self) -> Result<Vec<u8>, SnapshotError> {
        let n = self.checked_len(1)?;
        Ok(self.take(n)?.to_vec())
    }

    /// Reads a length prefix for records of `elem_bytes` bytes each: the
    /// declared element count must fit in the bytes that remain, so
    /// corrupt prefixes fail fast instead of attempting multi-gigabyte
    /// allocations.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] or [`SnapshotError::Corrupt`] when
    /// the prefix exceeds the remaining payload.
    pub fn checked_len(&mut self, elem_bytes: usize) -> Result<usize, SnapshotError> {
        let n = self.get_usize()?;
        let remaining = self.buf.len().saturating_sub(self.pos);
        if n.checked_mul(elem_bytes).is_none_or(|b| b > remaining) {
            return Err(SnapshotError::Corrupt("length prefix exceeds payload"));
        }
        Ok(n)
    }

    /// Payload bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// Declares decoding complete.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::TrailingBytes`] when payload bytes are left —
    /// a decoder that stopped early almost certainly mis-decoded.
    pub fn finish(self) -> Result<(), SnapshotError> {
        if self.pos != self.buf.len() {
            return Err(SnapshotError::TrailingBytes {
                remaining: self.buf.len() - self.pos,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_primitives() {
        let mut w = SnapshotWriter::new();
        w.put_u8(0xab);
        w.put_bool(true);
        w.put_u32(0xdead_beef);
        w.put_u64(0x0123_4567_89ab_cdef);
        w.put_u128(u128::MAX - 7);
        w.put_f64(-0.25);
        w.put_cycle(Cycle::new(42));
        w.put_u64_slice(&[1, 2, 3]);
        w.put_u32_slice(&[9, 8]);
        w.put_u8_slice(&[5]);
        let bytes = w.finish();
        let mut r = SnapshotReader::open(&bytes).unwrap();
        assert_eq!(r.get_u8().unwrap(), 0xab);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_u32().unwrap(), 0xdead_beef);
        assert_eq!(r.get_u64().unwrap(), 0x0123_4567_89ab_cdef);
        assert_eq!(r.get_u128().unwrap(), u128::MAX - 7);
        assert_eq!(r.get_f64().unwrap(), -0.25);
        assert_eq!(r.get_cycle().unwrap(), Cycle::new(42));
        assert_eq!(r.get_u64_vec().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.get_u32_vec().unwrap(), vec![9, 8]);
        assert_eq!(r.get_u8_vec().unwrap(), vec![5]);
        r.finish().unwrap();
    }

    #[test]
    fn bit_flip_anywhere_fails_checksum() {
        let mut w = SnapshotWriter::new();
        w.put_u64(77);
        let bytes = w.finish();
        for i in 0..bytes.len() - 8 {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            let err = SnapshotReader::open(&bad).unwrap_err();
            assert!(
                matches!(err, SnapshotError::BadChecksum { .. }),
                "flip at {i}: {err}"
            );
        }
    }

    #[test]
    fn version_and_magic_are_checked() {
        // Hand-build a frame with the wrong version but a valid checksum.
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC.to_le_bytes());
        buf.extend_from_slice(&(VERSION + 1).to_le_bytes());
        let sum = fnv1a64(&buf);
        buf.extend_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            SnapshotReader::open(&buf).unwrap_err(),
            SnapshotError::BadVersion(v) if v == VERSION + 1
        ));

        let mut buf = Vec::new();
        buf.extend_from_slice(&0x1234_5678u32.to_le_bytes());
        buf.extend_from_slice(&VERSION.to_le_bytes());
        let sum = fnv1a64(&buf);
        buf.extend_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            SnapshotReader::open(&buf).unwrap_err(),
            SnapshotError::BadMagic(0x1234_5678)
        ));
    }

    #[test]
    fn truncation_and_trailing_bytes_are_reported() {
        assert!(matches!(
            SnapshotReader::open(&[1, 2, 3]).unwrap_err(),
            SnapshotError::Truncated { .. }
        ));
        let mut w = SnapshotWriter::new();
        w.put_u64(1);
        let bytes = w.finish();
        let r = SnapshotReader::open(&bytes).unwrap();
        assert!(matches!(
            r.finish(),
            Err(SnapshotError::TrailingBytes { remaining: 8 })
        ));
        let mut r = SnapshotReader::open(&bytes).unwrap();
        let _ = r.get_u64().unwrap();
        assert!(matches!(
            r.get_u64().unwrap_err(),
            SnapshotError::Truncated { .. }
        ));
    }

    #[test]
    fn corrupt_length_prefix_fails_fast() {
        // A length prefix claiming more elements than bytes remain must
        // error without allocating.
        let mut w = SnapshotWriter::new();
        w.put_u64(u64::MAX); // absurd length prefix
        let bytes = w.finish();
        let mut r = SnapshotReader::open(&bytes).unwrap();
        assert!(matches!(
            r.get_u64_vec().unwrap_err(),
            SnapshotError::Corrupt(_)
        ));
    }

    #[test]
    fn error_messages_name_the_failure() {
        let s = SnapshotError::BadVersion(9).to_string();
        assert!(s.contains("version 9"));
        let s = SnapshotError::Mismatch("core count").to_string();
        assert!(s.contains("core count"));
    }
}
