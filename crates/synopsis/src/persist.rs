//! Summary persistence.
//!
//! A summary is built once (over a possibly multi-million-element
//! document) and consulted forever after; [`Summary::to_bytes`] /
//! [`Summary::from_bytes`] let applications ship it without the document.
//! The payload is the versioned little-endian encoding of
//! [`xpe_xml::wire`]. Decode builds only what the file stores: the tag
//! dictionary, the encoding table, the path ids and the histograms.
//! Build timings are not persisted.
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
//! walking attacker-controlled field lengths. Every other version,
//! including the unchecked version 1 that preceded the checksum, is
//! refused as unsupported.

use std::io::{self, Read, Write};
use std::path::Path;

use xpe_pathid::{EncodingTable, PidInterner};
use xpe_xml::wire::{self, Reader, WireError};
use xpe_xml::TagInterner;

use crate::ohistogram::OHistogramSet;
use crate::phistogram::PHistogramSet;
use crate::summary::{BuildTimings, Summary, SummaryConfig};

/// `"XPES"` — the serialized summary magic.
const MAGIC: u32 = 0x5345_5058;
/// Current format version: length-framed payload + CRC-32 trailer.
const VERSION: u32 = 2;
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
/// its payload, borrowed from `bytes` — the envelope check every load
/// route runs before [`Summary::from_bytes`] decodes the payload.
///
/// It checks magic, version, the recorded payload length against the
/// actual byte count (short ⇒ `Truncated`, long ⇒ `TrailingBytes`), and
/// the CRC-32 trailer — all before any structural field is touched.
fn validated_payload(bytes: &[u8]) -> Result<&[u8], LoadError> {
    let mut r = Reader::new(bytes);
    if r.u32()? != MAGIC {
        return Err(WireError::BadHeader("not an xpe summary").into());
    }
    if r.u32()? != VERSION {
        return Err(WireError::BadHeader("unsupported summary version").into());
    }
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
    Ok(&body[V2_HEADER_LEN..])
}

impl Summary {
    /// Serializes the summary payload fields (everything between the
    /// header and the trailer).
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
    fn decode_payload(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let tags = TagInterner::decode(r)?;
        let encoding = EncodingTable::decode(r)?;
        // The pid width is redundant with the encoding table's path
        // count; cross-checking it here blocks a corrupt width from
        // sizing multi-gigabyte bit sequences during decode.
        let pids = PidInterner::decode(r, encoding.len() as u32)?;
        let config = SummaryConfig {
            p_variance: r.f64()?,
            o_variance: r.f64()?,
        };
        let phist = PHistogramSet::decode(r)?;
        let ohist = OHistogramSet::decode(r)?;
        r.expect_exhausted()?;
        // Every handle must land inside the table it indexes before any
        // estimate dereferences it.
        for tag in encoding.iter().flat_map(|(_, path)| path) {
            wire::check_index("encoding-table tag", tag.index(), tags.len())?;
        }
        phist.check_handles(tags.len(), pids.len())?;
        ohist.check_handles(tags.len(), pids.len())?;
        Ok(Summary {
            tags,
            encoding,
            pids,
            phist,
            ohist,
            config,
            timings: BuildTimings::default(),
        })
    }

    /// Deserializes a summary produced by [`to_bytes`](Self::to_bytes).
    ///
    /// Integrity is checked before structure: an image whose CRC-32
    /// trailer disagrees with its bytes is rejected as
    /// [`LoadError::ChecksumMismatch`] without decoding any field, an
    /// image shorter than its recorded length is `Truncated`, and one
    /// longer is `TrailingBytes` with the exact leftover count.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, LoadError> {
        let payload = validated_payload(bytes)?;
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

    /// Reads a summary from `r`. Both load routes — this method and
    /// [`load_from_file`](Self::load_from_file) — funnel through
    /// [`from_bytes`](Self::from_bytes) and its single
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

    #[test]
    fn round_trip_preserves_everything_observable() {
        let s = summary();
        let bytes = s.to_bytes();
        let s2 = Summary::from_bytes(&bytes).unwrap();

        assert_eq!(s2.tags.len(), s.tags.len());
        assert_eq!(s2.encoding.len(), s.encoding.len());
        assert_eq!(s2.pids.len(), s.pids.len());
        assert_eq!(s2.config, s.config);
        assert_eq!(s2.sizes(), s.sizes());

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

    /// Decode keeps the pid table as stored: an image that repeats an id
    /// loads with both handles, encodes back to its own bytes, and its
    /// sizes still count.
    #[test]
    fn repeated_stored_pid_keeps_its_handle() {
        let mut s = summary();
        let first = xpe_pathid::Pid::from_index(0);
        let repeat = s.pids.push(s.pids.bits(first).clone());
        let image = s.to_bytes();
        let loaded = Summary::from_bytes(&image).unwrap();
        assert_eq!(loaded.pids.bits(repeat), s.pids.bits(first));
        assert_eq!(loaded.to_bytes(), image);
        assert_eq!(loaded.sizes(), s.sizes());
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
        // Wrong version, the unchecked version 1 included.
        for version in [1, 99] {
            let mut bad = bytes.clone();
            bad[4] = version;
            assert!(matches!(
                Summary::from_bytes(&bad),
                Err(LoadError::Wire(WireError::BadHeader(
                    "unsupported summary version"
                )))
            ));
        }
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

    /// Payload offsets where three of the payload's parts start.
    struct Starts {
        encoding: usize,
        phist: usize,
        ohist: usize,
    }

    /// Where `s`'s encoding table and histogram sets start in its
    /// payload, from encoding its parts in payload order with their own
    /// `encode` methods.
    fn starts(s: &Summary) -> Starts {
        let mut buf = Vec::new();
        s.tags.encode(&mut buf);
        let encoding = buf.len();
        s.encoding.encode(&mut buf);
        s.pids.encode(&mut buf);
        wire::put_f64(&mut buf, s.config.p_variance);
        wire::put_f64(&mut buf, s.config.o_variance);
        let phist = buf.len();
        s.phist.encode(&mut buf);
        let ohist = buf.len();
        s.ohist.encode(&mut buf);
        let mut payload = Vec::new();
        s.encode_payload(&mut payload);
        assert_eq!(buf, payload, "the parts make up the payload");
        Starts {
            encoding,
            phist,
            ohist,
        }
    }

    /// The `u32` at payload offset `at` of a v2 image.
    fn payload_u32(image: &[u8], at: usize) -> u32 {
        let at = V2_HEADER_LEN + at;
        u32::from_le_bytes(image[at..at + 4].try_into().unwrap())
    }

    /// Overwrites the `u32` at payload offset `at` and re-signs the
    /// image, so only the structural decoder can catch the edit.
    fn patch_u32(image: &mut [u8], at: usize, value: u32) {
        let at = V2_HEADER_LEN + at;
        image[at..at + 4].copy_from_slice(&value.to_le_bytes());
        let body_len = image.len() - V2_TRAILER_LEN;
        let crc = wire::crc32(&image[..body_len]);
        image[body_len..].copy_from_slice(&crc.to_le_bytes());
    }

    fn assert_out_of_range(image: &[u8], handle: &str, value: usize, table: usize) {
        match Summary::from_bytes(image) {
            Err(LoadError::Wire(WireError::OutOfRange { what, index, len })) => {
                assert_eq!((what, index, len), (handle, value, table));
            }
            other => panic!("{handle} {value} was not rejected: {other:?}"),
        }
    }

    /// Handles behind a valid checksum are checked against the tables
    /// they index: a dangling one is a typed error at load time, not a
    /// panic at the first estimate.
    #[test]
    fn dangling_p_histogram_pid_is_rejected() {
        let s = summary();
        let mut bad = s.to_bytes();
        // variance, set length, first histogram's bucket count, its first
        // bucket's average and pid count; then the first pid.
        let first_pid = starts(&s).phist + 28;
        patch_u32(&mut bad, first_pid, 1_000_000);
        assert_out_of_range(&bad, "p-histogram pid", 1_000_000, s.pids.len());
    }

    #[test]
    fn dangling_o_histogram_handles_are_rejected() {
        let s = summary();
        let image = s.to_bytes();
        let ohist = starts(&s).ohist;
        // variance, then the tag count and one row rank per tag.
        let tag_count = payload_u32(&image, ohist + 8) as usize;
        let first_rank = ohist + 12;
        let mut bad = image.clone();
        patch_u32(&mut bad, first_rank, 1_000_000);
        assert_out_of_range(&bad, "o-histogram row rank", 1_000_000, tag_count);

        // The first histogram: its buckets (24 bytes each), its column
        // count, then its first (pid, column) pair.
        let first_hist = first_rank + 4 * tag_count;
        let buckets = payload_u32(&image, first_hist) as usize;
        let columns = first_hist + 4 + 24 * buckets;
        assert!(payload_u32(&image, columns) > 0, "the root has a column");
        let mut bad = image;
        patch_u32(&mut bad, columns + 4, 1_000_000);
        assert_out_of_range(&bad, "o-histogram column pid", 1_000_000, s.pids.len());
    }

    #[test]
    fn dangling_encoding_table_tag_is_rejected() {
        let s = summary();
        let mut bad = s.to_bytes();
        // Path count, first path's length, then its first tag.
        let first_tag = starts(&s).encoding + 8;
        patch_u32(&mut bad, first_tag, 1_000_000);
        assert_out_of_range(&bad, "encoding-table tag", 1_000_000, s.tags.len());
    }

    /// Each histogram set holds one histogram per tag: an image with an
    /// extra tag is refused, p-histograms first.
    #[test]
    fn histogram_sets_must_cover_every_tag() {
        let mut s = summary();
        let tags = s.tags.len();
        s.tags.intern("extra");
        assert!(matches!(
            Summary::from_bytes(&s.to_bytes()),
            Err(LoadError::Wire(WireError::LengthMismatch {
                what: "p-histogram set",
                len,
                expected,
            })) if (len, expected) == (tags, tags + 1)
        ));

        let mut per_tag: Vec<_> = (0..tags)
            .map(|t| s.phist.histogram(xpe_xml::TagId::from_index(t)).clone())
            .collect();
        per_tag.push(crate::PHistogram::from_buckets(Vec::new()));
        s.phist = PHistogramSet::from_parts(per_tag, s.phist.variance());
        assert!(matches!(
            Summary::from_bytes(&s.to_bytes()),
            Err(LoadError::Wire(WireError::LengthMismatch {
                what: "o-histogram set",
                len,
                expected,
            })) if (len, expected) == (tags, tags + 1)
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
