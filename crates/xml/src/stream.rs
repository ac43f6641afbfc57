//! Pull-based streaming XML tokenizer.
//!
//! [`StreamParser`] yields [`StreamEvent`]s (`Open`/`Close`/`Text`) over a
//! byte slice without building a tree, so downstream consumers can keep
//! memory bounded by document *depth* rather than node count. It accepts
//! exactly the dialect of [`parse_document`](crate::parse_document) — in
//! fact the DOM parser is a thin driver over this tokenizer (it feeds the
//! events into a [`TreeBuilder`](crate::TreeBuilder)), so the entity
//! rules, the [`MAX_DEPTH`] / [`MAX_NAME_LEN`] caps and every
//! [`ParseError`] variant are shared by construction: a document the DOM
//! parser rejects is rejected by the event stream with the same error, and
//! vice versa.
//!
//! # Example
//!
//! ```
//! use xpe_xml::{StreamEvent, StreamParser};
//!
//! let mut p = StreamParser::new("<a>hi<b/></a>");
//! let mut opens = 0;
//! while let Some(ev) = p.next_event().unwrap() {
//!     if matches!(ev, StreamEvent::Open { .. }) {
//!         opens += 1;
//!     }
//! }
//! assert_eq!(opens, 2);
//! ```

use std::borrow::Cow;

use crate::parse::{ParseError, ParseErrorKind, MAX_DEPTH, MAX_NAME_LEN};

/// One tokenizer event.
///
/// Attributes are validated but not reported (the estimation system
/// summarises element structure only), comments/PIs/DOCTYPE are skipped,
/// and entity references are decoded into `Text`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StreamEvent<'a> {
    /// An element opened. Fires for `<a>` and for `<a/>` (the latter is
    /// immediately followed by its `Close`).
    Open {
        /// The tag name, borrowed from the input.
        name: Cow<'a, str>,
    },
    /// The most recently opened element closed.
    Close,
    /// A run of character data (one contiguous text segment, one decoded
    /// entity reference, or one CDATA section). Consecutive `Text` events
    /// belong to the same element and concatenate.
    Text(Cow<'a, str>),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    /// Before the root element: XML declaration, comments, DOCTYPE.
    Prolog,
    /// Inside the root element.
    Content,
    /// After the root element closed: whitespace, comments, PIs only.
    Epilog,
    /// Input exhausted or a previous call returned an error.
    Done,
}

/// Pull parser yielding [`StreamEvent`]s over a complete document held in
/// a string.
///
/// The input is text, so every name and text run between markup bytes is
/// borrowed from it without another UTF-8 check. State is O(depth): a
/// stack of open tag names plus a cursor. Call
/// [`next_event`](Self::next_event) until it returns `Ok(None)`; after an
/// error the parser is poisoned and keeps returning `Ok(None)`.
#[derive(Debug)]
pub struct StreamParser<'a> {
    input: &'a str,
    /// `input` as bytes, which the scans walk.
    bytes: &'a [u8],
    pos: usize,
    /// Byte ranges of the open tag names, innermost last (bounds nesting
    /// at [`MAX_DEPTH`]).
    open: Vec<(usize, usize)>,
    state: State,
    /// A `<a/>` produced its `Open`; its `Close` is owed next.
    pending_close: bool,
    events: u64,
}

impl<'a> StreamParser<'a> {
    /// Creates a tokenizer over a full document.
    pub fn new(input: &'a str) -> Self {
        StreamParser {
            input,
            bytes: input.as_bytes(),
            pos: 0,
            open: Vec::new(),
            state: State::Prolog,
            pending_close: false,
            events: 0,
        }
    }

    /// Current byte offset into the input.
    #[inline]
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Current element nesting depth.
    #[inline]
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Number of events yielded so far.
    #[inline]
    pub fn events(&self) -> u64 {
        self.events
    }

    /// The next event, `Ok(None)` at end of document.
    pub fn next_event(&mut self) -> Result<Option<StreamEvent<'a>>, ParseError> {
        let r = self.step();
        match &r {
            Err(_) => self.state = State::Done,
            Ok(Some(_)) => self.events += 1,
            Ok(None) => {}
        }
        r
    }

    fn step(&mut self) -> Result<Option<StreamEvent<'a>>, ParseError> {
        if self.pending_close {
            self.pending_close = false;
            return Ok(Some(self.emit_close()));
        }
        match self.state {
            State::Done => Ok(None),
            State::Prolog => {
                self.prolog()?;
                self.open_tag().map(Some)
            }
            State::Content => self.content_step(),
            State::Epilog => self.epilog_step(),
        }
    }

    /// Pops the innermost element; leaving the root moves to the epilog.
    fn emit_close(&mut self) -> StreamEvent<'a> {
        self.open.pop();
        if self.open.is_empty() {
            self.state = State::Epilog;
        }
        StreamEvent::Close
    }

    fn err(&self, kind: ParseErrorKind) -> ParseError {
        ParseError {
            offset: self.pos,
            kind,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// The input from the cursor on.
    #[inline]
    fn rest(&self) -> &'a [u8] {
        &self.bytes[self.pos..]
    }

    /// Advances the cursor past the leading bytes of the rest that
    /// satisfy `keep`, up to the end of the input.
    #[inline]
    fn skip_while(&mut self, keep: impl Fn(u8) -> bool) {
        let rest = self.rest();
        self.pos += rest.iter().position(|&c| !keep(c)).unwrap_or(rest.len());
    }

    fn starts_with(&self, s: &str) -> bool {
        self.bytes[self.pos..].starts_with(s.as_bytes())
    }

    fn bump(&mut self, n: usize) {
        self.pos += n;
    }

    fn expect(&mut self, c: u8) -> Result<(), ParseError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else if self.peek().is_none() {
            Err(self.err(ParseErrorKind::UnexpectedEof))
        } else {
            Err(self.err(ParseErrorKind::Expected(c as char)))
        }
    }

    fn skip_ws(&mut self) {
        self.skip_while(|c| matches!(c, b' ' | b'\t' | b'\r' | b'\n'));
    }

    fn skip_until(&mut self, end: &str) -> Result<(), ParseError> {
        match find_sub(&self.bytes[self.pos..], end.as_bytes()) {
            Some(i) => {
                self.pos += i + end.len();
                Ok(())
            }
            None => {
                self.pos = self.bytes.len();
                Err(self.err(ParseErrorKind::UnexpectedEof))
            }
        }
    }

    fn prolog(&mut self) -> Result<(), ParseError> {
        loop {
            self.skip_ws();
            if self.starts_with("<?") {
                self.bump(2);
                self.skip_until("?>")?;
            } else if self.starts_with("<!--") {
                self.bump(4);
                self.skip_until("-->")?;
            } else if self.starts_with("<!DOCTYPE") || self.starts_with("<!doctype") {
                self.doctype()?;
            } else {
                return Ok(());
            }
        }
    }

    /// Skips a DOCTYPE declaration, including a bracketed internal subset.
    fn doctype(&mut self) -> Result<(), ParseError> {
        self.bump("<!DOCTYPE".len());
        let mut depth = 0usize;
        loop {
            match self.peek() {
                None => return Err(self.err(ParseErrorKind::UnexpectedEof)),
                Some(b'[') => {
                    depth += 1;
                    self.pos += 1;
                }
                Some(b']') => {
                    depth = depth.saturating_sub(1);
                    self.pos += 1;
                }
                Some(b'>') if depth == 0 => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(_) => self.pos += 1,
            }
        }
    }

    /// Consumes a name token, returning its byte range in the input.
    fn name_range(&mut self) -> Result<(usize, usize), ParseError> {
        let start = self.pos;
        // Scan one byte past the cap: a name that long is an error.
        let rest = self.rest();
        let window = &rest[..rest.len().min(MAX_NAME_LEN + 1)];
        let len = window
            .iter()
            .position(|&c| !is_name_byte(c))
            .unwrap_or(window.len());
        if len > MAX_NAME_LEN {
            return Err(ParseError {
                offset: start,
                kind: ParseErrorKind::TokenTooLong,
            });
        }
        self.pos += len;
        if len == 0 {
            return Err(self.err(ParseErrorKind::BadName));
        }
        // Names must not start with a digit, '-' or '.'.
        let first = self.bytes[start];
        if first.is_ascii_digit() || first == b'-' || first == b'.' {
            return Err(ParseError {
                offset: start,
                kind: ParseErrorKind::BadName,
            });
        }
        Ok((start, self.pos))
    }

    fn open_tag(&mut self) -> Result<StreamEvent<'a>, ParseError> {
        if self.open.len() >= MAX_DEPTH {
            return Err(self.err(ParseErrorKind::TooDeep));
        }
        self.expect(b'<')?;
        let (start, end) = self.name_range()?;
        // Markup bytes are ASCII, so a name ends on a char boundary.
        let name = &self.input[start..end];
        self.open.push((start, end));
        match self.rest() {
            [b'>', ..] => self.pos += 1,
            [b'/', b'>', ..] => {
                self.pos += 2;
                self.pending_close = true;
            }
            _ => {
                self.attributes()?;
                self.skip_ws();
                if self.starts_with("/>") {
                    self.bump(2);
                    self.pending_close = true;
                } else {
                    self.expect(b'>')?;
                }
            }
        }
        self.state = State::Content;
        Ok(StreamEvent::Open {
            name: Cow::Borrowed(name),
        })
    }

    fn close_tag(&mut self) -> Result<StreamEvent<'a>, ParseError> {
        self.bump(2);
        let (start, end) = self.name_range()?;
        if let [b'>', ..] = self.rest() {
            self.pos += 1;
        } else {
            self.skip_ws();
            self.expect(b'>')?;
        }
        let (open_start, open_end) = self.open.last().copied().unwrap_or_default();
        let (open, found) = (&self.input[open_start..open_end], &self.input[start..end]);
        if open != found {
            return Err(self.err(ParseErrorKind::MismatchedTag {
                open: open.to_owned(),
                found: found.to_owned(),
            }));
        }
        Ok(self.emit_close())
    }

    fn attributes(&mut self) -> Result<(), ParseError> {
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'>') | Some(b'/') | None => return Ok(()),
                _ => {}
            }
            self.name_range()?;
            self.skip_ws();
            self.expect(b'=')?;
            self.skip_ws();
            let quote = match self.peek() {
                Some(q @ (b'"' | b'\'')) => q,
                Some(_) => return Err(self.err(ParseErrorKind::Expected('"'))),
                None => return Err(self.err(ParseErrorKind::UnexpectedEof)),
            };
            self.pos += 1;
            // Attribute values are validated but not reported: the
            // estimation system summarises element structure only.
            self.skip_while(|c| c != quote);
            self.expect(quote)?;
        }
    }

    fn content_step(&mut self) -> Result<Option<StreamEvent<'a>>, ParseError> {
        loop {
            match self.peek() {
                None => return Err(self.err(ParseErrorKind::UnexpectedEof)),
                Some(b'<') => {
                    let next = self.bytes.get(self.pos + 1).copied();
                    if next == Some(b'/') {
                        return self.close_tag().map(Some);
                    } else if next != Some(b'!') && next != Some(b'?') {
                        return self.open_tag().map(Some);
                    } else if self.starts_with("<!--") {
                        self.bump(4);
                        self.skip_until("-->")?;
                    } else if self.starts_with("<![CDATA[") {
                        self.bump(9);
                        let start = self.pos;
                        match find_sub(&self.bytes[self.pos..], b"]]>") {
                            Some(i) => {
                                self.pos = start + i + 3;
                                return Ok(Some(StreamEvent::Text(Cow::Borrowed(
                                    &self.input[start..start + i],
                                ))));
                            }
                            None => {
                                self.pos = self.bytes.len();
                                return Err(self.err(ParseErrorKind::UnexpectedEof));
                            }
                        }
                    } else if self.starts_with("<?") {
                        self.bump(2);
                        self.skip_until("?>")?;
                    } else {
                        return self.open_tag().map(Some);
                    }
                }
                Some(b'&') => {
                    let c = self.entity()?;
                    return Ok(Some(StreamEvent::Text(Cow::Owned(c.to_string()))));
                }
                Some(_) => {
                    let start = self.pos;
                    self.skip_while(|c| c != b'<' && c != b'&');
                    return Ok(Some(StreamEvent::Text(Cow::Borrowed(
                        &self.input[start..self.pos],
                    ))));
                }
            }
        }
    }

    fn epilog_step(&mut self) -> Result<Option<StreamEvent<'a>>, ParseError> {
        loop {
            self.skip_ws();
            if self.pos >= self.bytes.len() {
                self.state = State::Done;
                return Ok(None);
            }
            if self.starts_with("<!--") {
                self.bump(4);
                self.skip_until("-->")?;
            } else if self.starts_with("<?") {
                self.bump(2);
                self.skip_until("?>")?;
            } else {
                return Err(self.err(ParseErrorKind::TrailingContent));
            }
        }
    }

    fn entity(&mut self) -> Result<char, ParseError> {
        debug_assert_eq!(self.peek(), Some(b'&'));
        self.pos += 1;
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c == b';' {
                break;
            }
            if !c.is_ascii_alphanumeric() && c != b'#' && c != b'x' {
                break;
            }
            if self.pos - start >= MAX_NAME_LEN {
                return Err(ParseError {
                    offset: start,
                    kind: ParseErrorKind::TokenTooLong,
                });
            }
            self.pos += 1;
        }
        let name = self.input[start..self.pos].to_owned();
        self.expect(b';')?;
        match name.as_str() {
            "lt" => Ok('<'),
            "gt" => Ok('>'),
            "amp" => Ok('&'),
            "apos" => Ok('\''),
            "quot" => Ok('"'),
            _ if name.starts_with("#x") || name.starts_with("#X") => {
                u32::from_str_radix(&name[2..], 16)
                    .ok()
                    .and_then(char::from_u32)
                    .ok_or_else(|| self.err(ParseErrorKind::BadEntity(name.clone())))
            }
            _ if name.starts_with('#') => name[1..]
                .parse::<u32>()
                .ok()
                .and_then(char::from_u32)
                .ok_or_else(|| self.err(ParseErrorKind::BadEntity(name.clone()))),
            _ => Err(self.err(ParseErrorKind::BadEntity(name))),
        }
    }
}

/// Whether `c` may appear in a name: ASCII alphanumerics, `_-.:` and
/// every byte of a multi-byte UTF-8 sequence.
#[inline]
fn is_name_byte(c: u8) -> bool {
    NAME_BYTES[c as usize]
}

/// [`is_name_byte`] as a table, built at compile time.
const NAME_BYTES: [bool; 256] = {
    let mut table = [false; 256];
    let mut i = 0;
    while i < 256 {
        let c = i as u8;
        table[i] = c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b':') || c >= 0x80;
        i += 1;
    }
    table
};

fn find_sub(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(input: &str) -> Result<Vec<StreamEvent<'_>>, ParseError> {
        let mut p = StreamParser::new(input);
        let mut out = Vec::new();
        while let Some(ev) = p.next_event()? {
            out.push(ev);
        }
        Ok(out)
    }

    fn open(name: &str) -> StreamEvent<'_> {
        StreamEvent::Open {
            name: Cow::Borrowed(name),
        }
    }

    #[test]
    fn yields_open_text_close() {
        let evs = events("<a>hi<b>there</b> again</a>").unwrap();
        assert_eq!(
            evs,
            vec![
                open("a"),
                StreamEvent::Text(Cow::Borrowed("hi")),
                open("b"),
                StreamEvent::Text(Cow::Borrowed("there")),
                StreamEvent::Close,
                StreamEvent::Text(Cow::Borrowed(" again")),
                StreamEvent::Close,
            ]
        );
    }

    #[test]
    fn self_closing_yields_open_then_close() {
        let evs = events("<a><b/></a>").unwrap();
        assert_eq!(
            evs,
            vec![open("a"), open("b"), StreamEvent::Close, StreamEvent::Close]
        );
    }

    #[test]
    fn entities_decode_to_text_segments() {
        let evs = events("<a>&lt;&#65;</a>").unwrap();
        let text: String = evs
            .iter()
            .filter_map(|e| match e {
                StreamEvent::Text(t) => Some(t.as_ref()),
                _ => None,
            })
            .collect();
        assert_eq!(text, "<A");
    }

    #[test]
    fn prolog_and_epilog_produce_no_events() {
        let evs = events("<?xml version=\"1.0\"?><!-- c --><a/><!-- d -->").unwrap();
        assert_eq!(evs, vec![open("a"), StreamEvent::Close]);
    }

    #[test]
    fn poisoned_after_error() {
        let mut p = StreamParser::new("<a><b></a></b>");
        let last = loop {
            match p.next_event() {
                Ok(Some(_)) => continue,
                other => break other,
            }
        };
        assert!(matches!(
            last.unwrap_err().kind,
            ParseErrorKind::MismatchedTag { .. }
        ));
        // After the error the stream stays terminated.
        assert!(matches!(p.next_event(), Ok(None)));
    }

    /// Names and text runs are slices of the `&str` input; multi-byte
    /// characters next to every kind of markup stay whole, and errors
    /// beside them keep their byte offsets.
    #[test]
    fn multi_byte_characters_stay_whole() {
        let evs = events("<é a=\"ü\">x名y<![CDATA[ß]]>&amp;ö<名前/><!--ç--></é>").unwrap();
        let text = |t| StreamEvent::Text(Cow::Borrowed(t));
        assert_eq!(
            evs,
            vec![
                open("é"),
                text("x名y"),
                text("ß"),
                text("&"),
                text("ö"),
                open("名前"),
                StreamEvent::Close,
                StreamEvent::Close,
            ]
        );
        let err = |input, offset, kind| {
            assert_eq!(events(input), Err(ParseError { offset, kind }), "{input}");
        };
        err(
            "<é></e>",
            8,
            ParseErrorKind::MismatchedTag {
                open: "é".into(),
                found: "e".into(),
            },
        );
        err("<名前", 7, ParseErrorKind::UnexpectedEof);
        err("<a>&é;</a>", 4, ParseErrorKind::Expected(';'));
    }

    #[test]
    fn depth_is_bounded_state() {
        let mut p = StreamParser::new("<a><b><c/></b></a>");
        let mut max_depth = 0;
        while let Some(_ev) = p.next_event().unwrap() {
            max_depth = max_depth.max(p.depth());
        }
        assert_eq!(max_depth, 3);
        assert_eq!(p.depth(), 0);
    }
}
