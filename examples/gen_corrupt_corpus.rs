//! Regenerates the checked-in corrupted-summary corpus under
//! `tests/corrupt/`.
//!
//! The corpus pins one concrete corrupted image per integrity-fault class
//! so the CLI integration tests can assert that `xpe estimate` fails with
//! a distinct, typed diagnostic on each — independent of the randomized
//! sweep in `xpe faults`. Re-run after any wire-format change:
//!
//! ```text
//! cargo run --example gen_corrupt_corpus
//! ```
//!
//! The base document is deterministic, so regeneration is reproducible.

use xpe::prelude::*;

fn main() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corrupt");
    std::fs::create_dir_all(dir).expect("create tests/corrupt");

    let doc = parse_document(
        "<library>\
           <book><title/><preface/><chapter/><chapter/><appendix/></book>\
           <book><title/><chapter/><appendix/><chapter/></book>\
           <book><title/><preface/><chapter/></book>\
         </library>",
    )
    .expect("well-formed");
    let summary = Summary::build(&doc, SummaryConfig::default());
    let base = summary.to_bytes();
    assert!(
        base.len() > 32,
        "need header + payload + trailer to corrupt"
    );

    let write = |name: &str, bytes: &[u8]| {
        let path = format!("{dir}/{name}");
        std::fs::write(&path, bytes).expect("write corpus file");
        println!("{path}: {} bytes", bytes.len());
    };

    // Pristine image: the tests load this one first to prove the corpus
    // base is valid, so a failure on a sibling is the corruption talking.
    write("valid.xps", &base);

    // One bit flipped in the payload region (past the 16-byte header) —
    // must surface as a checksum mismatch.
    let mut bitflip = base.clone();
    bitflip[24] ^= 0x10;
    write("bitflip.xps", &bitflip);

    // Strict prefix: the payload length field promises more bytes than
    // the file holds — must surface as a truncation error.
    write("truncated.xps", &base[..base.len() / 2]);

    // Version field (bytes 4..8, little-endian) rewritten to an unknown
    // revision — must surface as an unsupported-version error.
    let mut version = base.clone();
    version[4..8].copy_from_slice(&99u32.to_le_bytes());
    write("version.xps", &version);

    // Valid image with junk appended — must surface as trailing bytes,
    // not be silently ignored.
    let mut trailing = base.clone();
    trailing.extend_from_slice(b"\xDE\xAD\xBE\xEF junk");
    write("trailing.xps", &trailing);

    // Hostile count field with a *valid* checksum: the o-histogram set's
    // tag count rewritten to u32::MAX and the CRC-32 trailer recomputed,
    // so the envelope passes and the structural decoder itself must
    // reject the lie. The decoder's length-capped preallocation
    // (`wire::cap_alloc`) is what keeps this from requesting a
    // multi-gigabyte buffer before the truncation check fires.
    // Payload offsets of the two histogram sets, from the writer itself:
    // the summary's parts encoded in payload order with their own
    // `encode` methods make up the payload byte for byte.
    let mut parts = Vec::new();
    summary.tags.encode(&mut parts);
    summary.encoding.encode(&mut parts);
    summary.pids.encode(&mut parts);
    xpe::xml::wire::put_f64(&mut parts, summary.config.p_variance);
    xpe::xml::wire::put_f64(&mut parts, summary.config.o_variance);
    let phist_start = parts.len();
    summary.phist.encode(&mut parts);
    let ohist_start = parts.len();
    summary.ohist.encode(&mut parts);
    assert_eq!(parts, base[16..base.len() - 4], "parts make up the payload");
    // Rewrites the u32 at a file offset and recomputes the CRC-32 trailer.
    let patch = |image: &mut Vec<u8>, off: usize, value: u32| {
        image[off..off + 4].copy_from_slice(&value.to_le_bytes());
        let body_len = image.len() - 4;
        let crc = xpe::xml::wire::crc32(&image[..body_len]);
        image[body_len..].copy_from_slice(&crc.to_le_bytes());
    };
    let mut inflated = base.clone();
    // File offset: 16-byte v2 header + section offset + 8-byte variance.
    patch(&mut inflated, 16 + ohist_start + 8, u32::MAX);
    write("inflated.xps", &inflated);

    // A dangling handle with a *valid* checksum: the first p-histogram
    // pid rewritten to 1,000,000, far past the image's pid table. The
    // decoder must refuse it at load, before an estimate indexes with it.
    // File offset: header + section offset + variance, set length, the
    // first histogram's bucket count, its first bucket's average and pid
    // count.
    let mut dangling = base;
    patch(&mut dangling, 16 + phist_start + 28, 1_000_000);
    write("dangling.xps", &dangling);
}
