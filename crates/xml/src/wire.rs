//! Minimal little-endian wire format used by summary persistence.
//!
//! A summary is built once per document (possibly over millions of
//! elements) but consulted by every query compilation, so being able to
//! save and reload it matters in practice. The format is deliberately
//! simple — fixed-width little-endian scalars, length-prefixed strings —
//! and versioned by the top-level [`crate::TagInterner`]/summary encoders;
//! no external serialization dependency is needed.

use std::fmt;

/// CRC-32 (IEEE 802.3, the ubiquitous zlib/PNG polynomial) lookup tables
/// for slicing by 8, built at compile time so the checksum needs no
/// runtime initialization. `CRC32_TABLES[0]` is the classic bytewise
/// table; `CRC32_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero
/// bytes, so eight table lookups advance the CRC over eight bytes.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE) of `bytes` — the integrity trailer summary persistence
/// appends so a bit-flipped or silently-truncated file is rejected with a
/// typed error instead of decoding into a subtly wrong synopsis. Eight
/// bytes per step (slicing by 8), then the tail byte by byte.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Ceiling on the element count any decoder preallocates from an
/// untrusted length prefix. Collections grow to their true size as
/// elements actually decode; the cap only bounds the *speculative*
/// allocation, so a corrupt or hostile count field (e.g. `0xFFFF_FFFF`)
/// costs at most this many slots before the truncation check fires
/// instead of a multi-gigabyte `Vec::with_capacity`.
pub const MAX_PREALLOC: usize = 4096;

/// The capacity to preallocate for a length-prefixed collection whose
/// count field `n` has not yet been validated: `min(n, MAX_PREALLOC)`.
/// Use for every `Vec::with_capacity`/`HashMap::with_capacity` whose
/// size comes off the wire.
#[inline]
pub fn cap_alloc(n: usize) -> usize {
    n.min(MAX_PREALLOC)
}

/// Appends a `u32`.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64`.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64`.
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, u32::try_from(s.len()).expect("string too long"));
    buf.extend_from_slice(s.as_bytes());
}

/// Decode failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the expected field.
    Truncated,
    /// A string field held invalid UTF-8.
    BadUtf8,
    /// A header or version check failed.
    BadHeader(&'static str),
    /// A well-formed payload was followed by unconsumed bytes — the input
    /// is longer than the encoding it claims to hold.
    TrailingBytes {
        /// Number of bytes left after the payload.
        remaining: usize,
    },
    /// A decoded handle points outside the table it indexes.
    OutOfRange {
        /// Which handle, e.g. `"p-histogram pid"`.
        what: &'static str,
        /// The decoded handle.
        index: usize,
        /// The size of the table it indexes.
        len: usize,
    },
    /// A per-tag table holds a different number of entries than the
    /// image has tags.
    LengthMismatch {
        /// Which table, e.g. `"p-histogram set"`.
        what: &'static str,
        /// Its decoded entry count.
        len: usize,
        /// The count it must have.
        expected: usize,
    },
}

/// `Ok` when `index` addresses a table of `len` entries; the typed
/// [`WireError::OutOfRange`] otherwise.
pub fn check_index(what: &'static str, index: usize, len: usize) -> Result<(), WireError> {
    if index < len {
        Ok(())
    } else {
        Err(WireError::OutOfRange { what, index, len })
    }
}

/// `Ok` when a table holds the `expected` number of entries; the typed
/// [`WireError::LengthMismatch`] otherwise.
pub fn check_len(what: &'static str, len: usize, expected: usize) -> Result<(), WireError> {
    if len == expected {
        Ok(())
    } else {
        Err(WireError::LengthMismatch {
            what,
            len,
            expected,
        })
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "input truncated"),
            WireError::BadUtf8 => write!(f, "invalid UTF-8 in string field"),
            WireError::BadHeader(what) => write!(f, "bad header: {what}"),
            WireError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing byte(s) after a complete payload")
            }
            WireError::OutOfRange { what, index, len } => {
                write!(f, "{what} {index} is out of range for a table of {len}")
            }
            WireError::LengthMismatch {
                what,
                len,
                expected,
            } => write!(
                f,
                "{what} holds {len} entries where {expected} are expected"
            ),
        }
    }
}

impl std::error::Error for WireError {}

/// Sequential reader over an encoded buffer.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a buffer.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Whether every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Byte offset of the next read — with [`bytes`](Self::bytes), the
    /// primitive zero-copy section walkers use to record where a record
    /// starts and ends without materializing it.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Number of unconsumed bytes.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Succeeds only when every byte has been consumed; otherwise reports
    /// the leftover count. Top-level decoders call this after the last
    /// field so over-long inputs are rejected, not silently accepted.
    pub fn expect_exhausted(&self) -> Result<(), WireError> {
        match self.remaining() {
            0 => Ok(()),
            remaining => Err(WireError::TrailingBytes { remaining }),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads an `f64`.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads `n` raw bytes, borrowed from the underlying buffer — the
    /// zero-copy primitive: no allocation, the slice lives as long as
    /// the buffer. Also how section walkers skip over records they do
    /// not materialize.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string as a slice borrowed from the
    /// buffer: validated in place, never copied.
    pub fn str_ref(&mut self) -> Result<&'a str, WireError> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?).map_err(|_| WireError::BadUtf8)
    }

    /// Reads a length-prefixed UTF-8 string (owned).
    pub fn str(&mut self) -> Result<String, WireError> {
        self.str_ref().map(str::to_owned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX - 1);
        put_f64(&mut buf, -1.5);
        put_str(&mut buf, "héllo");
        let mut r = Reader::new(&buf);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f64().unwrap(), -1.5);
        assert_eq!(r.str().unwrap(), "héllo");
        assert!(r.is_exhausted());
    }

    #[test]
    fn truncation_detected() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 7);
        let mut r = Reader::new(&buf[..2]);
        assert_eq!(r.u32(), Err(WireError::Truncated));
        // String length pointing past the end.
        let mut buf = Vec::new();
        put_u32(&mut buf, 100);
        buf.extend_from_slice(b"short");
        let mut r = Reader::new(&buf);
        assert_eq!(r.str(), Err(WireError::Truncated));
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 7);
        let mut r = Reader::new(&buf);
        r.u32().unwrap();
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.expect_exhausted(), Ok(()));
        buf.extend_from_slice(&[1, 2, 3]);
        let mut r = Reader::new(&buf);
        r.u32().unwrap();
        assert_eq!(r.remaining(), 3);
        assert_eq!(
            r.expect_exhausted(),
            Err(WireError::TrailingBytes { remaining: 3 })
        );
    }

    #[test]
    fn crc32_known_vectors() {
        // Reference values of the IEEE polynomial (same as zlib's crc32).
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// The CRC one table lookup per byte: the definition the sliced
    /// loop must match.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC32_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn sliced_crc32_matches_the_bytewise_reference() {
        // A fixed xorshift stream: random bytes without a dependency.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let buf: Vec<u8> = (0..300_000)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 24) as u8
            })
            .collect();
        for offset in 0..8 {
            for len in 0..=64 {
                let slice = &buf[offset..offset + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "offset {offset} len {len}"
                );
            }
        }
        assert_eq!(crc32(&buf), crc32_bytewise(&buf));
    }

    #[test]
    fn crc32_detects_single_bit_flips() {
        let mut data = b"xpe summary payload bytes".to_vec();
        let clean = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(crc32(&data), clean, "flip at byte {byte} bit {bit}");
                data[byte] ^= 1 << bit;
            }
        }
        assert_eq!(crc32(&data), clean);
    }

    #[test]
    fn bad_utf8_detected() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 2);
        buf.extend_from_slice(&[0xFF, 0xFE]);
        let mut r = Reader::new(&buf);
        assert_eq!(r.str(), Err(WireError::BadUtf8));
    }
}
