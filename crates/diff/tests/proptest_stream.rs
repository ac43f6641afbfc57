//! Property test: the streaming ingest pipeline persists a **byte-identical**
//! `.xps` to the DOM build over random documents — including recursive
//! documents at and near the parser depth cap and documents with text or
//! whitespace between siblings (where the order tables must still agree).

use proptest::prelude::*;

use xpe_datagen::{random_document, RandomDocConfig};
use xpe_synopsis::{Summary, SummaryConfig};
use xpe_xml::{parse_document, Document, NodeId, MAX_DEPTH};

/// Both pipelines on the same text must persist the same bytes.
fn assert_streams_identical(xml: &str, p_variance: f64, o_variance: f64) {
    let config = SummaryConfig {
        p_variance,
        o_variance,
    };
    let doc = parse_document(xml).expect("generated document must parse");
    let dom = Summary::build(&doc, config).to_bytes();
    let stream = Summary::build_streaming(xml, config)
        .expect("streaming build must accept what the DOM parser accepts")
        .to_bytes();
    assert_eq!(dom, stream, "persisted summaries diverged for {xml:?}");
}

/// Serializes `doc` with a deterministic mix of text runs and whitespace
/// between siblings, so sibling-order statistics are exercised across
/// non-element content.
fn serialize_with_text(doc: &Document) -> String {
    fn walk(doc: &Document, node: NodeId, out: &mut String, counter: &mut u32) {
        let name = doc.tag_name(node);
        out.push('<');
        out.push_str(name);
        out.push('>');
        for &child in doc.children(node) {
            *counter += 1;
            match *counter % 4 {
                0 => out.push_str("text run "),
                1 => out.push_str("\n  \t"),
                2 => out.push_str("&amp;"),
                _ => {}
            }
            walk(doc, child, out, counter);
        }
        out.push_str("</");
        out.push_str(name);
        out.push('>');
    }
    let mut out = String::new();
    let mut counter = 0;
    walk(doc, doc.root(), &mut out, &mut counter);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn streaming_matches_dom_on_random_documents(
        seed in 0u64..1_000_000,
        max_depth in 1usize..6,
        max_children in 1usize..5,
        tag_count in 1usize..4,
        layered in any::<bool>(),
        p_variance in prop_oneof![Just(0.0), Just(1.0), Just(8.0)],
    ) {
        let doc = random_document(&RandomDocConfig {
            seed,
            max_depth,
            max_children,
            tag_count,
            layered,
        });
        // Compact, pretty (whitespace between siblings), and mixed-text
        // serializations must all round-trip identically.
        assert_streams_identical(&xpe_xml::to_string(&doc), p_variance, p_variance);
        assert_streams_identical(&xpe_xml::to_string_pretty(&doc), p_variance, p_variance);
        assert_streams_identical(&serialize_with_text(&doc), p_variance, p_variance);
    }
}

/// A recursive single-tag chain of the given element depth.
fn nested_chain(depth: usize) -> String {
    let mut xml = String::with_capacity(depth * 7 + 16);
    for _ in 0..depth {
        xml.push_str("<a>");
    }
    xml.push_str("<leaf/>");
    for _ in 0..depth {
        xml.push_str("</a>");
    }
    xml
}

#[test]
fn streaming_matches_dom_at_depth_cap() {
    // The <leaf/> sits one level below the chain, so the deepest accepted
    // chain is MAX_DEPTH - 1 elements of <a>.
    for depth in [MAX_DEPTH - 2, MAX_DEPTH - 1] {
        assert_streams_identical(&nested_chain(depth), 0.0, 0.0);
    }
}

#[test]
fn streaming_rejects_past_depth_cap_like_dom() {
    let xml = nested_chain(MAX_DEPTH);
    let dom_err = parse_document(&xml).unwrap_err();
    let stream_err = Summary::build_streaming(&xml, SummaryConfig::default()).unwrap_err();
    assert_eq!(dom_err, stream_err);
}

#[test]
fn streaming_matches_dom_with_text_between_siblings() {
    for xml in [
        "<r>lead<x/>mid<y/>mid<x/>tail</r>",
        "<r>\n  <x/>\n  <y/>\n  <x/>\n</r>",
        "<r><a>t1<b/>t2</a> <a><b/>only</a></r>",
    ] {
        assert_streams_identical(xml, 0.0, 0.0);
        assert_streams_identical(xml, 4.0, 4.0);
    }
}
