//! Summary persistence.
//!
//! A summary is built once (over a possibly multi-million-element
//! document) and consulted forever after; [`Summary::to_bytes`] /
//! [`Summary::from_bytes`] let applications ship it without the document.
//! The payload is the versioned little-endian encoding of
//! [`xpe_xml::wire`]; the path-id binary tree is rebuilt from the interned
//! ids on load (it is derived data), and build timings are not persisted.
//!
//! # Integrity envelope (format version 2)
//!
//! ```text
//! magic "XPES" | version u32 | payload_len u64 | payload | crc32 u32
//! ```
//!
//! The CRC-32 trailer covers every preceding byte, and the explicit
//! payload length makes the expected total size computable from the first
//! 16 bytes. Verification runs **before** structural decode, so a
//! bit-flipped, truncated, or padded file is rejected with a typed
//! [`LoadError`] — [`ChecksumMismatch`](LoadError::ChecksumMismatch),
//! `Truncated`, or `TrailingBytes` respectively — without the decoder ever
//! walking attacker-controlled field lengths. Version 1 files (no length,
//! no checksum) are still accepted for compatibility; they get structural
//! validation only, which is exactly what they always had.

use std::io::{self, Read, Write};
use std::path::Path;

use xpe_pathid::{EncodingTable, PathIdTree, PidInterner};
use xpe_xml::wire::{self, Reader, WireError};
use xpe_xml::TagInterner;

use crate::ohistogram::OHistogramSet;
use crate::phistogram::PHistogramSet;
use crate::summary::{BuildTimings, Summary, SummaryConfig};

/// `"XPES"` — the serialized summary magic.
const MAGIC: u32 = 0x5345_5058;
/// Current format version: length-framed payload + CRC-32 trailer.
const VERSION: u32 = 2;
/// First version: bare payload, no length framing, no checksum. Still
/// readable; see the module docs.
const VERSION_UNCHECKED: u32 = 1;
/// Bytes before the payload in a v2 image: magic, version, payload_len.
const V2_HEADER_LEN: usize = 4 + 4 + 8;
/// Bytes after the payload in a v2 image: the CRC-32 trailer.
const V2_TRAILER_LEN: usize = 4;

/// Errors loading a serialized summary.
#[derive(Debug)]
pub enum LoadError {
    /// I/O failure reading the source.
    Io(io::Error),
    /// Structural decode failure.
    Wire(WireError),
    /// The CRC-32 trailer does not match the stored bytes: the file was
    /// corrupted (bit rot, torn write, transfer damage) after it was
    /// written.
    ChecksumMismatch {
        /// Checksum recorded in the file's trailer.
        stored: u32,
        /// Checksum computed over the file's actual bytes.
        computed: u32,
    },
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "I/O error: {e}"),
            LoadError::Wire(e) => write!(f, "decode error: {e}"),
            LoadError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch: file records {stored:#010x} but bytes hash to \
                 {computed:#010x} — the summary is corrupted"
            ),
        }
    }
}

impl std::error::Error for LoadError {}

impl From<io::Error> for LoadError {
    fn from(e: io::Error) -> Self {
        LoadError::Io(e)
    }
}

impl From<WireError> for LoadError {
    fn from(e: WireError) -> Self {
        LoadError::Wire(e)
    }
}

/// Validates the integrity envelope of a serialized summary and returns
/// `(version, payload)` with the payload borrowed from `bytes` — **the**
/// single envelope path: [`Summary::from_bytes`] decodes the returned
/// slice into owned structures, and [`SummaryView`](crate::SummaryView)
/// walks it in place without materializing anything.
///
/// For a v2 image this checks magic, version, the recorded payload
/// length against the actual byte count (short ⇒ `Truncated`, long ⇒
/// `TrailingBytes`), and the CRC-32 trailer — all before any structural
/// field is touched. A v1 image (no framing, no checksum) passes its
/// bare payload through for structural validation only.
pub(crate) fn validated_payload(bytes: &[u8]) -> Result<(u32, &[u8]), LoadError> {
    let mut r = Reader::new(bytes);
    if r.u32()? != MAGIC {
        return Err(WireError::BadHeader("not an xpe summary").into());
    }
    match r.u32()? {
        VERSION_UNCHECKED => Ok((VERSION_UNCHECKED, &bytes[8..])),
        VERSION => {
            let payload_len = r.u64()? as usize;
            let expected_total = V2_HEADER_LEN
                .checked_add(payload_len)
                .and_then(|n| n.checked_add(V2_TRAILER_LEN))
                .ok_or(WireError::Truncated)?;
            if bytes.len() < expected_total {
                return Err(WireError::Truncated.into());
            }
            if bytes.len() > expected_total {
                return Err(WireError::TrailingBytes {
                    remaining: bytes.len() - expected_total,
                }
                .into());
            }
            let body = &bytes[..expected_total - V2_TRAILER_LEN];
            let stored = u32::from_le_bytes(
                bytes[expected_total - V2_TRAILER_LEN..expected_total]
                    .try_into()
                    .expect("4 trailer bytes"),
            );
            let computed = wire::crc32(body);
            if stored != computed {
                return Err(LoadError::ChecksumMismatch { stored, computed });
            }
            Ok((VERSION, &body[V2_HEADER_LEN..]))
        }
        _ => Err(WireError::BadHeader("unsupported summary version").into()),
    }
}

impl Summary {
    /// Serializes the summary payload fields (everything between the
    /// header and the trailer), shared by every format version.
    fn encode_payload(&self, buf: &mut Vec<u8>) {
        self.tags.encode(buf);
        self.encoding.encode(buf);
        self.pids.encode(buf);
        wire::put_f64(buf, self.config.p_variance);
        wire::put_f64(buf, self.config.o_variance);
        self.phist.encode(buf);
        self.ohist.encode(buf);
    }

    /// Serializes the summary in the current (checksummed) format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(4096);
        wire::put_u32(&mut buf, MAGIC);
        wire::put_u32(&mut buf, VERSION);
        wire::put_u64(&mut buf, 0); // payload_len backpatched below
        self.encode_payload(&mut buf);
        let payload_len = (buf.len() - V2_HEADER_LEN) as u64;
        buf[8..16].copy_from_slice(&payload_len.to_le_bytes());
        let crc = wire::crc32(&buf);
        wire::put_u32(&mut buf, crc);
        buf
    }

    /// Decodes the payload fields; `r` must span exactly the payload.
    pub(crate) fn decode_payload(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let tags = TagInterner::decode(r)?;
        let encoding = EncodingTable::decode(r)?;
        // The pid width is redundant with the encoding table's path
        // count; cross-checking it here blocks a corrupt width from
        // sizing multi-gigabyte bit sequences during decode.
        let pids = PidInterner::decode_checked(r, encoding.len() as u32)?;
        let config = SummaryConfig {
            p_variance: r.f64()?,
            o_variance: r.f64()?,
        };
        let phist = PHistogramSet::decode(r)?;
        let ohist = OHistogramSet::decode(r)?;
        r.expect_exhausted()?;
        let pid_tree = PathIdTree::new(&pids);
        // Derived indexes (like the p-histograms' entry lists) are rebuilt
        // from the decoded structures rather than persisted.
        let root_pids = crate::rootpids::RootPidIndex::build(&encoding, &pids);
        Ok(Summary {
            tags,
            encoding,
            pids,
            pid_tree,
            phist,
            ohist,
            config,
            timings: BuildTimings::default(),
            root_pids,
        })
    }

    /// Deserializes a summary produced by [`to_bytes`](Self::to_bytes).
    ///
    /// Integrity is checked before structure: a version-2 image whose
    /// CRC-32 trailer disagrees with its bytes is rejected as
    /// [`LoadError::ChecksumMismatch`] without decoding any field, an
    /// image shorter than its recorded length is `Truncated`, and one
    /// longer is `TrailingBytes` with the exact leftover count. Version-1
    /// images (written before the checksum existed) are accepted with
    /// structural validation only.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, LoadError> {
        let (_, payload) = validated_payload(bytes)?;
        let mut r = Reader::new(payload);
        Ok(Self::decode_payload(&mut r)?)
    }

    /// Writes the serialized summary to `w`.
    pub fn save<W: Write>(&self, mut w: W) -> io::Result<()> {
        w.write_all(&self.to_bytes())
    }

    /// Writes the serialized summary to a file.
    pub fn save_to_file<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        std::fs::write(path, self.to_bytes())
    }

    /// Reads a summary from `r`. Every load route — this method,
    /// [`load_from_file`](Self::load_from_file), and
    /// [`SummaryView::to_summary`](crate::SummaryView::to_summary) —
    /// funnels through [`from_bytes`](Self::from_bytes) and its single
    /// envelope-validation path, so integrity and version handling can
    /// never diverge between them.
    pub fn load<R: Read>(mut r: R) -> Result<Self, LoadError> {
        let mut bytes = Vec::new();
        r.read_to_end(&mut bytes)?;
        Self::from_bytes(&bytes)
    }

    /// Reads a summary from a file; delegates to [`load`](Self::load).
    pub fn load_from_file<P: AsRef<Path>>(path: P) -> Result<Self, LoadError> {
        Self::load(std::fs::File::open(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::SummaryConfig;

    fn summary() -> Summary {
        Summary::build(
            &xpe_xml::fixtures::paper_figure1(),
            SummaryConfig {
                p_variance: 1.0,
                o_variance: 2.0,
            },
        )
    }

    /// Re-frames a v2 image as a version-1 image: strip the length field
    /// and the trailer, patch the version. The payload encoding itself is
    /// identical across versions.
    fn as_v1(v2: &[u8]) -> Vec<u8> {
        let mut v1 = Vec::with_capacity(v2.len() - 12);
        v1.extend_from_slice(&v2[..4]);
        v1.extend_from_slice(&VERSION_UNCHECKED.to_le_bytes());
        v1.extend_from_slice(&v2[V2_HEADER_LEN..v2.len() - V2_TRAILER_LEN]);
        v1
    }

    #[test]
    fn round_trip_preserves_everything_observable() {
        let s = summary();
        let bytes = s.to_bytes();
        let s2 = Summary::from_bytes(&bytes).unwrap();

        assert_eq!(s2.tags.len(), s.tags.len());
        assert_eq!(s2.encoding.len(), s.encoding.len());
        assert_eq!(s2.pids.len(), s.pids.len());
        assert_eq!(s2.config, s.config);
        assert_eq!(s2.sizes().p_histograms, s.sizes().p_histograms);
        assert_eq!(s2.sizes().o_histograms, s.sizes().o_histograms);
        assert_eq!(s2.pid_tree.len(), s.pid_tree.len());

        // Histogram lookups agree for every (tag, pid).
        for (tag, _) in s.tags.iter() {
            let h1 = s.phist.histogram(tag);
            let h2 = s2.phist.histogram(tag);
            for (pid, f1) in h1.entries() {
                assert_eq!(h2.frequency(pid), Some(f1));
            }
        }
        // Pid bit sequences preserved with their handles.
        for (pid, bits) in s.pids.iter() {
            assert_eq!(s2.pids.bits(pid), bits);
        }
    }

    #[test]
    fn save_load_via_buffer() {
        let s = summary();
        let mut buf = Vec::new();
        s.save(&mut buf).unwrap();
        let s2 = Summary::load(&buf[..]).unwrap();
        assert_eq!(s2.pids.len(), s.pids.len());
    }

    #[test]
    fn corrupted_inputs_rejected() {
        let s = summary();
        let bytes = s.to_bytes();
        // Wrong magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            Summary::from_bytes(&bad),
            Err(LoadError::Wire(WireError::BadHeader(_)))
        ));
        // Wrong version.
        let mut bad = bytes.clone();
        bad[4] = 99;
        assert!(matches!(
            Summary::from_bytes(&bad),
            Err(LoadError::Wire(WireError::BadHeader(_)))
        ));
        // Truncation anywhere must not panic.
        for cut in (0..bytes.len()).step_by(7) {
            assert!(Summary::from_bytes(&bytes[..cut]).is_err());
        }
    }

    /// Every single-bit flip in the body of a v2 image is caught by the
    /// CRC before any field is decoded (header flips may be caught even
    /// earlier, as magic/version/length errors — but never accepted).
    #[test]
    fn bit_flips_rejected_by_checksum() {
        let s = summary();
        let bytes = s.to_bytes();
        // Payload flips: always a checksum mismatch, sampled for speed.
        for byte in (V2_HEADER_LEN..bytes.len() - V2_TRAILER_LEN).step_by(11) {
            let mut bad = bytes.clone();
            bad[byte] ^= 0x10;
            assert!(
                matches!(
                    Summary::from_bytes(&bad),
                    Err(LoadError::ChecksumMismatch { .. })
                ),
                "payload flip at byte {byte}"
            );
        }
        // Trailer flips: the stored checksum itself is damaged.
        for byte in bytes.len() - V2_TRAILER_LEN..bytes.len() {
            let mut bad = bytes.clone();
            bad[byte] ^= 0x01;
            assert!(matches!(
                Summary::from_bytes(&bad),
                Err(LoadError::ChecksumMismatch { .. })
            ));
        }
        // Length-field flips: size arithmetic rejects before the CRC runs.
        let mut bad = bytes.clone();
        bad[8] ^= 0x01;
        assert!(Summary::from_bytes(&bad).is_err());
    }

    /// Over-long inputs: a well-formed image followed by anything — a
    /// single zero byte, garbage, or a whole second summary — must be
    /// rejected with the dedicated variant, with the exact leftover count.
    #[test]
    fn trailing_garbage_rejected_with_remaining_count() {
        let s = summary();
        let bytes = s.to_bytes();

        let mut bad = bytes.clone();
        bad.push(0);
        assert!(matches!(
            Summary::from_bytes(&bad),
            Err(LoadError::Wire(WireError::TrailingBytes { remaining: 1 }))
        ));

        let mut bad = bytes.clone();
        bad.extend_from_slice(b"garbage!");
        assert!(matches!(
            Summary::from_bytes(&bad),
            Err(LoadError::Wire(WireError::TrailingBytes { remaining: 8 }))
        ));

        // Two concatenated summaries are not one summary.
        let mut bad = bytes.clone();
        bad.extend_from_slice(&bytes);
        let expect = bytes.len();
        assert!(matches!(
            Summary::from_bytes(&bad),
            Err(LoadError::Wire(WireError::TrailingBytes { remaining })) if remaining == expect
        ));
    }

    /// Version negotiation: a version-1 image (no length framing, no
    /// checksum) still loads, and observably equals its v2 counterpart.
    #[test]
    fn version_1_images_still_load() {
        let s = summary();
        let v2 = s.to_bytes();
        let v1 = as_v1(&v2);
        let loaded = Summary::from_bytes(&v1).unwrap();
        assert_eq!(loaded.pids.len(), s.pids.len());
        assert_eq!(loaded.config, s.config);
        // v1 keeps its historical behavior for over-long input: the
        // trailing-bytes check of the payload decoder.
        let mut long = v1.clone();
        long.push(7);
        assert!(matches!(
            Summary::from_bytes(&long),
            Err(LoadError::Wire(WireError::TrailingBytes { remaining: 1 }))
        ));
    }

    /// An inflated count field behind a recomputed (valid) checksum: the
    /// envelope passes, so the structural decoder must reject the lie
    /// itself — promptly, as `Truncated`, with its speculative
    /// preallocation capped at `wire::cap_alloc` instead of sized by the
    /// hostile count. Every u32 count in the image is swept.
    #[test]
    fn inflated_count_fields_rejected_without_count_sized_alloc() {
        let s = summary();
        let bytes = s.to_bytes();
        // Sweep 4-byte-aligned payload offsets, stamping u32::MAX over
        // each and re-signing the image. Offsets that were not a count
        // may fail any structural way (or, rarely, still decode when the
        // stamp lands in an f64 mantissa) — the property under test is
        // that no stamp panics, hangs, or aborts on allocation.
        for off in (V2_HEADER_LEN..bytes.len() - V2_TRAILER_LEN - 4).step_by(4) {
            let mut bad = bytes.clone();
            bad[off..off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            let body_len = bad.len() - V2_TRAILER_LEN;
            let crc = wire::crc32(&bad[..body_len]);
            bad[body_len..].copy_from_slice(&crc.to_le_bytes());
            let _ = Summary::from_bytes(&bad);
        }
        // And the canonical case — the very first count (tag count) —
        // must be the truncation diagnostic specifically.
        let mut bad = bytes.clone();
        bad[V2_HEADER_LEN..V2_HEADER_LEN + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let body_len = bad.len() - V2_TRAILER_LEN;
        let crc = wire::crc32(&bad[..body_len]);
        bad[body_len..].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            Summary::from_bytes(&bad),
            Err(LoadError::Wire(WireError::Truncated))
        ));
    }

    /// The recorded payload length is authoritative: shrinking the file
    /// below it is `Truncated`, not a checksum error, so the diagnostic
    /// tells the operator what actually happened.
    #[test]
    fn truncation_reports_truncated_not_checksum() {
        let s = summary();
        let bytes = s.to_bytes();
        for cut in [bytes.len() - 1, bytes.len() - 5, V2_HEADER_LEN + 3] {
            assert!(
                matches!(
                    Summary::from_bytes(&bytes[..cut]),
                    Err(LoadError::Wire(WireError::Truncated))
                ),
                "cut at {cut}"
            );
        }
    }
}
