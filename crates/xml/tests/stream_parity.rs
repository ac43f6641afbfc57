//! Hostile-input parity: draining [`StreamParser`] directly must accept and
//! reject exactly the same inputs as the DOM-building [`parse`] entry point,
//! with the same typed [`ParseError`] (kind *and* offset). The DOM parser is
//! a driver over the stream parser, so any future divergence means the two
//! pipelines stopped sharing tokenization rules.

use xpe_xml::{
    parse, ParseError, ParseErrorKind, StreamEvent, StreamParser, MAX_DEPTH, MAX_NAME_LEN,
};

/// Drains the stream parser to completion, returning the (open, close, text)
/// event tally or the first error.
fn drain(input: &str) -> Result<(u64, u64, u64), ParseError> {
    let mut parser = StreamParser::new(input);
    let (mut opens, mut closes, mut texts) = (0, 0, 0);
    while let Some(event) = parser.next_event()? {
        match event {
            StreamEvent::Open { .. } => opens += 1,
            StreamEvent::Close => closes += 1,
            StreamEvent::Text(_) => texts += 1,
        }
    }
    Ok((opens, closes, texts))
}

/// Asserts stream and DOM agree on accept/reject, and on the exact error.
fn assert_parity(input: &str) {
    let stream = drain(input);
    let dom = parse(input);
    match (&stream, &dom) {
        (Ok((opens, closes, _)), Ok(doc)) => {
            assert_eq!(opens, closes, "unbalanced events for {input:?}");
            assert_eq!(
                *opens,
                doc.len() as u64,
                "event/node count mismatch for {input:?}"
            );
        }
        (Err(se), Err(de)) => {
            assert_eq!(se, de, "error mismatch for {input:?}");
        }
        _ => panic!(
            "accept/reject divergence for {input:?}: stream={stream:?} dom-ok={}",
            dom.is_ok()
        ),
    }
}

fn nested(depth: usize) -> String {
    let mut xml = String::new();
    for _ in 0..depth {
        xml.push_str("<a>");
    }
    for _ in 0..depth {
        xml.push_str("</a>");
    }
    xml
}

#[test]
fn depth_cap_parity_at_boundary() {
    for depth in [MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1] {
        assert_parity(&nested(depth));
    }
    // The over-cap case must be the typed TooDeep error on both sides.
    let deep = nested(MAX_DEPTH + 1);
    assert!(matches!(
        drain(&deep).unwrap_err().kind,
        ParseErrorKind::TooDeep
    ));
}

#[test]
fn oversized_token_parity_at_boundary() {
    let fit = "n".repeat(MAX_NAME_LEN);
    let over = "n".repeat(MAX_NAME_LEN + 1);
    // Element names, attribute names, and entity names at the cap ±1.
    for xml in [
        format!("<{fit}/>"),
        format!("<{over}/>"),
        format!("<a {fit}=\"v\"/>"),
        format!("<a {over}=\"v\"/>"),
        format!("<a>&{fit};</a>"),
        format!("<a>&{over};</a>"),
    ] {
        assert_parity(&xml);
    }
    let err = drain(&format!("<{over}/>")).unwrap_err();
    assert!(matches!(err.kind, ParseErrorKind::TokenTooLong));
    // The offset points at the start of the offending token.
    assert_eq!(err.offset, 1);
}

#[test]
fn truncated_document_parity() {
    for input in [
        "",
        "<",
        "<a",
        "<a ",
        "<a x",
        "<a x=",
        "<a x=\"v",
        "<a><b>text",
        "<a><!-- comment",
        "<a><![CDATA[data",
        "<a>&am",
        "<a></a",
        "<?xml",
        "<!DOCTYPE a [",
    ] {
        assert_parity(input);
    }
    // Every strict prefix of a well-formed document fails identically.
    let full = r#"<a x="1"><b>hi &amp; <![CDATA[raw]]></b><!-- c --></a>"#;
    assert_parity(full);
    for cut in 1..full.len() {
        assert_parity(&full[..cut]);
    }
}

#[test]
fn malformed_structure_parity() {
    for input in [
        "<a><b></a>",     // mismatched close
        "<a></a><b></b>", // trailing content after root
        "<a></a>junk",    // trailing text
        "<a>&bogus;</a>", // unknown entity
        "<a>&#xZZ;</a>",  // bad numeric entity
        "<1a/>",          // bad leading name byte
        "< a/>",          // space before name
        "text<a/>",       // text before root
        "<a/><a/>",       // two roots
    ] {
        assert_parity(input);
    }
}
