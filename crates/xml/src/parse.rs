//! A small, dependency-free XML parser.
//!
//! Handles the subset of XML that the corpora in the paper (Shakespeare
//! plays, DBLP, XMark) actually use: elements, attributes, character data,
//! the five predefined entities plus numeric character references, CDATA
//! sections, comments, processing instructions and a document type
//! declaration (skipped). Namespaces are treated lexically (prefixes stay
//! part of the tag name), matching how the estimation tables key on raw tag
//! strings.
//!
//! Tokenization lives in [`crate::stream`]: [`parse_document`] is a thin
//! driver that feeds [`StreamParser`](crate::StreamParser) events into a
//! [`TreeBuilder`], so the DOM and streaming ingest paths share one
//! grammar, one set of resource caps and one error surface.

use std::fmt;

use crate::stream::{StreamEvent, StreamParser};
use crate::tree::{Document, TreeBuilder, TreeError};

/// Maximum element nesting depth the parser accepts. Real corpora stay in
/// the tens; the cap bounds the open-element stack a hostile document can
/// force on the tokenizer (and on every streaming consumer whose state is
/// proportional to depth).
pub const MAX_DEPTH: usize = 256;

/// Maximum length, in bytes, of a single tag, attribute or entity name.
/// Real-world names are tens of bytes; the cap bounds the memory a hostile
/// document can force into interner tables and error messages through one
/// token.
pub const MAX_NAME_LEN: usize = 1024;

/// Position-annotated parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input at which the failure was detected.
    pub offset: usize,
    /// What went wrong.
    pub kind: ParseErrorKind,
}

/// The category of a [`ParseError`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// Input ended in the middle of a construct.
    UnexpectedEof,
    /// A literal character other than the one required was found.
    Expected(char),
    /// A tag, attribute or entity name was malformed or missing.
    BadName,
    /// An end tag did not match the open element.
    MismatchedTag {
        /// Tag that was open.
        open: String,
        /// Tag found in the end tag.
        found: String,
    },
    /// `&...;` did not name a supported entity.
    BadEntity(String),
    /// Structural violation (unbalanced, multiple roots, empty document).
    Tree(TreeError),
    /// Element nesting exceeded [`MAX_DEPTH`] (the limit keeps hostile
    /// inputs from growing the open-element stack without bound).
    TooDeep,
    /// A single name token exceeded [`MAX_NAME_LEN`] bytes.
    TokenTooLong,
    /// Content found after the root element closed.
    TrailingContent,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XML parse error at byte {}: ", self.offset)?;
        match &self.kind {
            ParseErrorKind::UnexpectedEof => write!(f, "unexpected end of input"),
            ParseErrorKind::Expected(c) => write!(f, "expected {c:?}"),
            ParseErrorKind::BadName => write!(f, "malformed name"),
            ParseErrorKind::MismatchedTag { open, found } => {
                write!(f, "end tag </{found}> does not match open <{open}>")
            }
            ParseErrorKind::BadEntity(e) => write!(f, "unsupported entity &{e};"),
            ParseErrorKind::Tree(e) => write!(f, "{e}"),
            ParseErrorKind::TooDeep => {
                write!(f, "element nesting exceeds {MAX_DEPTH} levels")
            }
            ParseErrorKind::TokenTooLong => {
                write!(f, "name token exceeds {MAX_NAME_LEN} bytes")
            }
            ParseErrorKind::TrailingContent => write!(f, "content after root element"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Parses an XML document into a [`Document`].
///
/// Convenience alias of [`parse_document`].
pub fn parse(input: &str) -> Result<Document, ParseError> {
    parse_document(input)
}

/// Parses an XML document into a [`Document`].
///
/// # Example
///
/// ```
/// let doc = xpe_xml::parse_document(r#"<?xml version="1.0"?>
///   <PLAY><TITLE>Hamlet</TITLE><ACT/></PLAY>"#).unwrap();
/// assert_eq!(doc.tag_name(doc.root()), "PLAY");
/// ```
pub fn parse_document(input: &str) -> Result<Document, ParseError> {
    let mut parser = StreamParser::new(input);
    let mut builder = TreeBuilder::new();
    while let Some(event) = parser.next_event()? {
        match event {
            StreamEvent::Open { name } => {
                builder.begin_element(&name);
            }
            StreamEvent::Close => builder.end_element().map_err(|e| ParseError {
                offset: parser.pos(),
                kind: ParseErrorKind::Tree(e),
            })?,
            StreamEvent::Text(text) => builder.text(&text),
        }
    }
    builder.finish().map_err(|e| ParseError {
        offset: parser.pos(),
        kind: ParseErrorKind::Tree(e),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal() {
        let doc = parse("<a/>").unwrap();
        assert_eq!(doc.len(), 1);
        assert_eq!(doc.tag_name(doc.root()), "a");
    }

    #[test]
    fn parses_nested_with_text() {
        let doc = parse("<a>hi<b>there</b> again</a>").unwrap();
        assert_eq!(doc.len(), 2);
        assert_eq!(doc.node(doc.root()).text, "hi again");
        let b = doc.children(doc.root())[0];
        assert_eq!(doc.node(b).text, "there");
    }

    #[test]
    fn parses_attributes_without_storing() {
        let doc = parse(r#"<item id="5" cat='a"b'><name x=""/></item>"#).unwrap();
        assert_eq!(doc.len(), 2);
    }

    #[test]
    fn parses_prolog_doctype_comments_pis() {
        let input = r#"<?xml version="1.0" encoding="UTF-8"?>
<!DOCTYPE PLAY [ <!ELEMENT PLAY (ACT*)> ]>
<!-- shakespeare -->
<PLAY><?pi data?><!-- inner --><ACT/></PLAY>
<!-- trailing -->"#;
        let doc = parse(input).unwrap();
        assert_eq!(doc.len(), 2);
    }

    #[test]
    fn entities_and_cdata() {
        let doc = parse("<a>&lt;x&gt; &amp; <![CDATA[<raw> & stuff]]> &#65;&#x42;</a>").unwrap();
        assert_eq!(doc.node(doc.root()).text, "<x> & <raw> & stuff AB");
    }

    #[test]
    fn mismatched_tag_rejected() {
        let e = parse("<a><b></a></b>").unwrap_err();
        assert!(matches!(e.kind, ParseErrorKind::MismatchedTag { .. }));
    }

    #[test]
    fn trailing_content_rejected() {
        let e = parse("<a/><b/>").unwrap_err();
        assert!(matches!(e.kind, ParseErrorKind::TrailingContent));
    }

    #[test]
    fn truncated_rejected() {
        assert!(matches!(
            parse("<a><b>").unwrap_err().kind,
            ParseErrorKind::UnexpectedEof
        ));
        assert!(matches!(
            parse("<a").unwrap_err().kind,
            ParseErrorKind::UnexpectedEof
        ));
        assert!(matches!(
            parse("<a><![CDATA[oops").unwrap_err().kind,
            ParseErrorKind::UnexpectedEof
        ));
    }

    #[test]
    fn bad_entity_rejected() {
        let e = parse("<a>&nope;</a>").unwrap_err();
        assert!(matches!(e.kind, ParseErrorKind::BadEntity(n) if n == "nope"));
    }

    #[test]
    fn bad_name_rejected() {
        assert!(matches!(
            parse("<1a/>").unwrap_err().kind,
            ParseErrorKind::BadName
        ));
    }

    #[test]
    fn empty_input_rejected() {
        assert!(parse("").is_err());
        assert!(parse("   \n  ").is_err());
    }

    #[test]
    fn namespaced_tags_kept_lexically() {
        let doc = parse("<ns:a><ns:b/></ns:a>").unwrap();
        assert_eq!(doc.tag_name(doc.root()), "ns:a");
    }

    #[test]
    fn depth_limit_enforced() {
        // Run with a generous stack: the bounded recursion is fine on the
        // main thread but debug-build frames are fat for test threads.
        std::thread::Builder::new()
            .stack_size(16 * 1024 * 1024)
            .spawn(|| {
                let mut deep = String::new();
                for _ in 0..MAX_DEPTH + 1 {
                    deep.push_str("<a>");
                }
                for _ in 0..MAX_DEPTH + 1 {
                    deep.push_str("</a>");
                }
                assert!(matches!(
                    parse(&deep).unwrap_err().kind,
                    ParseErrorKind::TooDeep
                ));
                // Just inside the limit parses fine.
                let mut ok = String::new();
                for _ in 0..MAX_DEPTH {
                    ok.push_str("<a>");
                }
                for _ in 0..MAX_DEPTH {
                    ok.push_str("</a>");
                }
                assert_eq!(parse(&ok).unwrap().len(), MAX_DEPTH);
            })
            .expect("spawn")
            .join()
            .expect("no panic");
    }

    /// Depth cap boundary, exhaustively: one below the limit and exactly
    /// at the limit parse; one past the limit is the typed `TooDeep`
    /// error. (The ±1 cases pin the off-by-one a refactor of the open
    /// stack would introduce.)
    #[test]
    fn depth_cap_boundary_plus_minus_one() {
        std::thread::Builder::new()
            .stack_size(16 * 1024 * 1024)
            .spawn(|| {
                let nested = |depth: usize| {
                    let mut s = String::with_capacity(depth * 7);
                    for _ in 0..depth {
                        s.push_str("<a>");
                    }
                    for _ in 0..depth {
                        s.push_str("</a>");
                    }
                    s
                };
                assert_eq!(parse(&nested(MAX_DEPTH - 1)).unwrap().len(), MAX_DEPTH - 1);
                assert_eq!(parse(&nested(MAX_DEPTH)).unwrap().len(), MAX_DEPTH);
                assert!(matches!(
                    parse(&nested(MAX_DEPTH + 1)).unwrap_err().kind,
                    ParseErrorKind::TooDeep
                ));
            })
            .expect("spawn")
            .join()
            .expect("no panic");
    }

    /// Name-token cap boundary: names of `MAX_NAME_LEN - 1` and exactly
    /// `MAX_NAME_LEN` bytes parse; one byte more is the typed
    /// `TokenTooLong` error — for tags, attributes, and entity names.
    #[test]
    fn oversized_tokens_rejected_at_boundary() {
        for len in [MAX_NAME_LEN - 1, MAX_NAME_LEN] {
            let tag = "t".repeat(len);
            let doc = parse(&format!("<{tag}></{tag}>")).unwrap();
            assert_eq!(doc.tag_name(doc.root()).len(), len);
        }
        let long = "t".repeat(MAX_NAME_LEN + 1);
        assert!(matches!(
            parse(&format!("<{long}/>")).unwrap_err().kind,
            ParseErrorKind::TokenTooLong
        ));
        // Oversized attribute name.
        let e = parse(&format!("<a {long}=\"v\"/>")).unwrap_err();
        assert!(matches!(e.kind, ParseErrorKind::TokenTooLong));
        // Oversized entity name (never a valid entity, but must fail with
        // a bounded typed error, not an unbounded scan-and-allocate).
        let e = parse(&format!("<a>&{long};</a>")).unwrap_err();
        assert!(matches!(e.kind, ParseErrorKind::TokenTooLong));
    }

    /// Truncated documents of every flavor produce `UnexpectedEof`, never
    /// a panic: cut mid-tag, mid-attribute, mid-text, mid-comment,
    /// mid-CDATA, mid-entity, and every prefix of a well-formed document.
    #[test]
    fn truncated_documents_yield_typed_errors() {
        for input in [
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
            // EOF inside a name surfaces as `BadName` (no name bytes were
            // consumed); everywhere else truncation is `UnexpectedEof`.
            assert!(
                matches!(
                    parse(input).unwrap_err().kind,
                    ParseErrorKind::UnexpectedEof | ParseErrorKind::BadName
                ),
                "{input:?}"
            );
        }
        let full = r#"<a x="1"><b>hi &amp; <![CDATA[raw]]></b><!-- c --></a>"#;
        assert!(parse(full).is_ok());
        for cut in 1..full.len() {
            // Every strict prefix must fail with some typed error.
            assert!(parse(&full[..cut]).is_err(), "prefix of length {cut}");
        }
    }

    #[test]
    fn error_reports_offset() {
        let e = parse("<a>&bad;</a>").unwrap_err();
        assert!(e.offset > 0);
        let msg = e.to_string();
        assert!(msg.contains("byte"));
    }
}
