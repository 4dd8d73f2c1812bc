//! Hand-rolled binary codec for snapshot serialization.
//!
//! The workspace's vendored `serde` is a no-op stand-in (the derives expand
//! to nothing), so persistent artefacts are encoded with this explicit,
//! versioned little-endian format instead. The rules are deliberately
//! boring:
//!
//! - integers are fixed-width little-endian (`usize` travels as `u64`),
//! - floats are encoded via [`f32::to_bits`]/[`f64::to_bits`] so decode is
//!   bit-exact (NaN payloads and signed zeros included),
//! - sequences are a `u64` length followed by the elements,
//! - maps and sets are canonicalised by sorting keys before writing, so the
//!   same logical snapshot always produces the same bytes.
//!
//! Each crate implements [`Codec`] for its own types (the orphan rule and
//! private fields both point the same way); this module only provides the
//! primitives and the container plumbing.

use crate::error::{FossError, Result};

/// Append-only byte sink used by [`Codec::encode`].
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consume the writer, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append raw bytes verbatim.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Append a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `usize` as a little-endian `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Append an `f32` as its IEEE-754 bit pattern.
    pub fn put_f32(&mut self, v: f32) {
        self.put_u32(v.to_bits());
    }

    /// Append an `f64` as its IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_usize(v.len());
        self.put_bytes(v.as_bytes());
    }
}

/// Cursor over encoded bytes used by [`Codec::decode`].
///
/// Every read is bounds-checked and surfaces [`FossError::Serde`] on
/// truncation, so corrupt snapshot files fail loudly instead of panicking.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Error out unless every byte was consumed (trailing garbage means the
    /// payload does not match the expected schema).
    pub fn finish(&self) -> Result<()> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(FossError::Serde(format!(
                "{} trailing bytes after decode",
                self.remaining()
            )))
        }
    }

    /// Take the next `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(FossError::Serde(format!(
                "truncated input: wanted {n} bytes, {} left",
                self.remaining()
            )));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read a `usize` (encoded as `u64`), rejecting values beyond this
    /// platform's address width.
    pub fn get_usize(&mut self) -> Result<usize> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| FossError::Serde(format!("usize overflow: {v}")))
    }

    /// Read a sequence length, capped against the remaining payload so a
    /// corrupt length prefix cannot trigger a huge allocation.
    pub fn get_len(&mut self) -> Result<usize> {
        let n = self.get_usize()?;
        // Every element of any sequence occupies at least one byte.
        if n > self.remaining() {
            return Err(FossError::Serde(format!(
                "sequence length {n} exceeds {} remaining bytes",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// How many `T`s to reserve up front for a declared length of `n`: no
    /// more memory than the remaining payload itself occupies. [`get_len`]
    /// bounds `n` by remaining *bytes*, so reserving `n` elements outright
    /// would let a crafted prefix allocate `size_of::<T>()` times the
    /// payload before the first element fails to decode; honest input that
    /// outgrows the reservation grows on push.
    ///
    /// [`get_len`]: ByteReader::get_len
    fn reservation<T>(&self, n: usize) -> usize {
        n.min(self.remaining() / std::mem::size_of::<T>().max(1))
    }

    /// Read an `f32` from its bit pattern.
    pub fn get_f32(&mut self) -> Result<f32> {
        Ok(f32::from_bits(self.get_u32()?))
    }

    /// Read an `f64` from its bit pattern.
    pub fn get_f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a bool, rejecting anything but 0 or 1.
    pub fn get_bool(&mut self) -> Result<bool> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(FossError::Serde(format!("invalid bool byte {other}"))),
        }
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String> {
        let n = self.get_len()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| FossError::Serde(format!("invalid utf-8 string: {e}")))
    }
}

/// Self-describing binary round trip: `decode(encode(x)) == x` for the
/// fields inference reads (training-only scratch such as gradients may be
/// reset to zero by `decode`).
pub trait Codec: Sized {
    /// Append this value to `w`.
    fn encode(&self, w: &mut ByteWriter);

    /// Reconstruct a value, consuming exactly the bytes `encode` wrote.
    fn decode(r: &mut ByteReader<'_>) -> Result<Self>;
}

impl Codec for u8 {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u8(*self);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
        r.get_u8()
    }
}

impl Codec for u32 {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u32(*self);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
        r.get_u32()
    }
}

impl Codec for u64 {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u64(*self);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
        r.get_u64()
    }
}

impl Codec for usize {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_usize(*self);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
        r.get_usize()
    }
}

impl Codec for f32 {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_f32(*self);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
        r.get_f32()
    }
}

impl Codec for f64 {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_f64(*self);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
        r.get_f64()
    }
}

impl Codec for bool {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_bool(*self);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
        r.get_bool()
    }
}

impl Codec for String {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_str(self);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
        r.get_str()
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_usize(self.len());
        for item in self {
            item.encode(w);
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
        let n = r.get_len()?;
        let mut out = Vec::with_capacity(r.reservation::<T>(n));
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            other => Err(FossError::Serde(format!("invalid option tag {other}"))),
        }
    }
}

impl Codec for crate::ids::QueryId {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u32(self.0);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(Self(r.get_u32()?))
    }
}

impl Codec for crate::ids::TableId {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u32(self.0);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(Self(r.get_u32()?))
    }
}

impl Codec for crate::ids::ColumnId {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_u32(self.0);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(Self(r.get_u32()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::QueryId;

    fn round_trip<T: Codec + PartialEq + std::fmt::Debug>(v: T) {
        let mut w = ByteWriter::new();
        v.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = T::decode(&mut r).expect("decode");
        r.finish().expect("all bytes consumed");
        assert_eq!(back, v);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(u8::MAX);
        round_trip(u32::MAX);
        round_trip(u64::MAX);
        round_trip(usize::MAX);
        round_trip(true);
        round_trip(false);
        round_trip(1.5f32);
        round_trip(-0.0f64);
        round_trip(f64::INFINITY);
        round_trip(String::from("héllo"));
        round_trip(vec![1u32, 2, 3]);
        round_trip(Option::<u32>::None);
        round_trip(Some(7u64));
        round_trip(QueryId(9));
    }

    #[test]
    fn floats_are_bit_exact() {
        let nan = f32::from_bits(0x7fc0_1234);
        let mut w = ByteWriter::new();
        nan.encode(&mut w);
        let bytes = w.into_bytes();
        let back = f32::decode(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(back.to_bits(), nan.to_bits());
    }

    #[test]
    fn truncated_input_is_a_serde_error() {
        let mut w = ByteWriter::new();
        12345u64.encode(&mut w);
        let bytes = w.into_bytes();
        let err = u64::decode(&mut ByteReader::new(&bytes[..5])).unwrap_err();
        assert!(matches!(err, FossError::Serde(_)), "{err}");
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut w = ByteWriter::new();
        w.put_usize(usize::MAX);
        let bytes = w.into_bytes();
        let err = Vec::<u8>::decode(&mut ByteReader::new(&bytes)).unwrap_err();
        assert!(matches!(err, FossError::Serde(_)), "{err}");
    }

    /// A length prefix that passes `get_len` (it fits the remaining *bytes*)
    /// must not reserve `size_of::<T>()` times the payload: a `Vec<String>`
    /// prefix of 1 Mi over 1 MiB of zeros would otherwise reserve 24 MiB
    /// before the second element fails to decode.
    #[test]
    fn crafted_length_prefix_cannot_amplify_the_reservation() {
        const N: usize = 1 << 20;
        let mut w = ByteWriter::new();
        w.put_usize(N);
        let mut bytes = w.into_bytes();
        bytes.resize(bytes.len() + N, 0);
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_len().unwrap(), N);
        let cap = r.reservation::<String>(N);
        assert!(cap * std::mem::size_of::<String>() <= N, "reserved {cap}");
        // One-byte elements still reserve exactly what they will hold, and
        // zero-sized ones do not divide by zero.
        assert_eq!(r.reservation::<u8>(N), N);
        assert_eq!(r.reservation::<()>(N), N);
        // Zero-length strings consume 8 bytes each, so the 1 Mi-element
        // claim runs out of payload and is a decode error, not a panic.
        let err = Vec::<String>::decode(&mut ByteReader::new(&bytes)).unwrap_err();
        assert!(matches!(err, FossError::Serde(_)), "{err}");
    }

    #[test]
    fn trailing_bytes_are_detected() {
        let mut w = ByteWriter::new();
        7u32.encode(&mut w);
        w.put_u8(0xFF);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        u32::decode(&mut r).unwrap();
        assert!(r.finish().is_err());
    }
}
