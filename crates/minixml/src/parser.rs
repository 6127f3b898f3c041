//! The tree parser for the XML subset used by SOAP 1.1, WSDL and UPnP
//! device descriptions: elements, attributes, character data, comments,
//! CDATA sections, processing instructions and a DOCTYPE prologue. No
//! DTD expansion, no mixed external entities.
//!
//! [`parse_ref`] is a loop over the pull [`Reader`] with an explicit
//! stack of open elements, so nesting depth costs heap, not call stack.
//! It builds the borrowed tier ([`ElemRef`]) directly — names are
//! slices of the input and text is `Cow` that only allocates when an
//! entity escape fires. The owned [`parse`] is a thin `to_owned()` on
//! top.
//!
//! A tree converts to the owned tier and drops recursively, so both
//! parsers refuse a document nested deeper than 256 elements with
//! [`ErrorKind::TooDeep`] instead of letting hostile input overflow the
//! stack later.

use crate::borrowed::{ElemRef, NodeRef};
use crate::escape::unescape_cow;
use crate::node::Element;
use crate::reader::{Event, Reader};
use std::fmt;

/// What went wrong during a parse. Carried by value — no allocation on
/// the error path, so speculative parses stay free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ErrorKind {
    /// Content after the document's root element.
    TrailingContent,
    /// A `<?...?>` section with no terminator.
    UnterminatedPi,
    /// A `<!--...-->` section with no terminator.
    UnterminatedComment,
    /// A `<!DOCTYPE ...>` declaration with no terminator.
    UnterminatedDoctype,
    /// A `<![CDATA[...]]>` section with no terminator.
    UnterminatedCdata,
    /// A tag or attribute name was expected.
    ExpectedName,
    /// A `<` opening a root element was expected.
    ExpectedElement,
    /// An attribute name was not followed by `=`.
    AttrMissingEq,
    /// An attribute value was not quoted.
    AttrValueUnquoted,
    /// An attribute value's closing quote is missing.
    UnterminatedAttrValue,
    /// A close tag named a different element than the open tag.
    MismatchedCloseTag,
    /// A close tag name was not followed by `>`.
    ExpectedCloseAngle,
    /// The input ended inside an element's content.
    UnexpectedEof,
    /// Elements nested deeper than the parser's cap of 256 levels.
    TooDeep,
}

impl ErrorKind {
    /// A static human-readable description.
    pub fn message(self) -> &'static str {
        match self {
            ErrorKind::TrailingContent => "trailing content after the root element",
            ErrorKind::UnterminatedPi => "unterminated processing instruction",
            ErrorKind::UnterminatedComment => "unterminated comment",
            ErrorKind::UnterminatedDoctype => "unterminated DOCTYPE",
            ErrorKind::UnterminatedCdata => "unterminated CDATA section",
            ErrorKind::ExpectedName => "expected a name",
            ErrorKind::ExpectedElement => "expected '<'",
            ErrorKind::AttrMissingEq => "attribute missing '='",
            ErrorKind::AttrValueUnquoted => "attribute value must be quoted",
            ErrorKind::UnterminatedAttrValue => "unterminated attribute value",
            ErrorKind::MismatchedCloseTag => "mismatched close tag",
            ErrorKind::ExpectedCloseAngle => "expected '>' after close tag name",
            ErrorKind::UnexpectedEof => "unexpected end of input inside an element",
            ErrorKind::TooDeep => "elements nested deeper than 256 levels",
        }
    }
}

/// A parse failure, with the byte offset where it happened.
///
/// `Copy` and allocation-free: callers that probe inputs speculatively
/// (is this XML or a binary frame?) pay nothing for the miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the input.
    pub at: usize,
    /// What went wrong.
    pub kind: ErrorKind,
}

impl ParseError {
    /// A static human-readable description of [`ParseError::kind`].
    pub fn message(&self) -> &'static str {
        self.kind.message()
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XML parse error at byte {}: {}", self.at, self.message())
    }
}

impl std::error::Error for ParseError {}

/// The deepest element nesting [`parse_ref`] accepts, the root counting
/// as level 1. The SOAP values the workspace writes reach 69 levels
/// (65 inside a 4-level envelope).
const MAX_DEPTH: usize = 256;

/// Parses a complete document (prologue + one root element) into the
/// owned tier.
pub fn parse(input: &str) -> Result<Element, ParseError> {
    Ok(parse_ref(input)?.to_owned())
}

/// Parses a complete document into the borrowed tier: names are slices
/// of `input`, text is `Cow` that only owns when an entity fired.
pub fn parse_ref(input: &str) -> Result<ElemRef<'_>, ParseError> {
    let mut reader = Reader::new(input);
    let mut open: Vec<ElemRef<'_>> = Vec::with_capacity(8);
    loop {
        match reader.next()? {
            Event::Start(name) => {
                if open.len() == MAX_DEPTH {
                    return Err(ParseError {
                        at: reader.tag_offset(),
                        kind: ErrorKind::TooDeep,
                    });
                }
                open.push(ElemRef {
                    name,
                    attrs: reader
                        .attrs()
                        .iter()
                        .map(|&(k, v)| (k, unescape_cow(v)))
                        .collect(),
                    children: Vec::new(),
                });
            }
            Event::Text(text) => {
                if let Some(el) = open.last_mut() {
                    el.children.push(NodeRef::Text(text.unescape()));
                }
            }
            Event::End(_) => {
                let Some(mut el) = open.pop() else { continue };
                // Whitespace-only text between child *elements* is
                // insignificant indentation; in a leaf element it is real
                // character data (e.g. a SOAP string value of " ").
                if el.children.iter().any(|c| matches!(c, NodeRef::Element(_))) {
                    el.children.retain(|c| match c {
                        NodeRef::Text(t) => !t.trim().is_empty(),
                        NodeRef::Element(_) => true,
                    });
                }
                match open.last_mut() {
                    Some(parent) => parent.children.push(NodeRef::Element(el)),
                    None => {
                        // The root closed: the reader checks what follows.
                        reader.next()?;
                        return Ok(el);
                    }
                }
            }
            // The reader reports the end only after the root's End,
            // which returned above.
            Event::Eof => unreachable!("Eof before the root element closed"),
        }
    }
}

impl Element {
    /// Parses a document; inverse of [`Element::to_document`].
    pub fn parse(input: &str) -> Result<Element, ParseError> {
        parse(input)
    }
}

impl<'a> ElemRef<'a> {
    /// Parses a document without copying; inverse of
    /// [`Element::to_document`] up to ownership.
    pub fn parse(input: &'a str) -> Result<ElemRef<'a>, ParseError> {
        parse_ref(input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let doc = r#"<?xml version="1.0"?><a k="v"><b>hi</b><c/></a>"#;
        let e = parse(doc).unwrap();
        assert_eq!(e.name, "a");
        assert_eq!(e.get_attr("k"), Some("v"));
        assert_eq!(e.find("b").unwrap().text_content(), "hi");
        assert!(e.find("c").unwrap().is_empty());
    }

    #[test]
    fn round_trips_writer_output() {
        let orig = Element::new("SOAP-ENV:Envelope")
            .attr(
                "xmlns:SOAP-ENV",
                "http://schemas.xmlsoap.org/soap/envelope/",
            )
            .child(
                Element::new("SOAP-ENV:Body").child(
                    Element::new("ns1:record")
                        .attr("xmlns:ns1", "urn:vcr")
                        .child(Element::new("channel").text("42"))
                        .child(Element::new("title").text("News & <Weather>")),
                ),
            );
        let parsed = parse(&orig.to_document()).unwrap();
        assert_eq!(parsed, orig);
    }

    #[test]
    fn entities_in_text_and_attrs() {
        let e = parse(r#"<a t="&lt;x&gt;">&amp;&#65;</a>"#).unwrap();
        assert_eq!(e.get_attr("t"), Some("<x>"));
        assert_eq!(e.text_content(), "&A");
    }

    #[test]
    fn cdata_is_literal() {
        let e = parse("<a><![CDATA[<not & parsed>]]></a>").unwrap();
        assert_eq!(e.text_content(), "<not & parsed>");
    }

    #[test]
    fn comments_and_pis_are_skipped() {
        let e = parse("<!-- pre --><a><!-- in --><b/><?pi data?></a><!-- post -->").unwrap();
        assert_eq!(e.elements().count(), 1);
    }

    #[test]
    fn doctype_is_skipped() {
        let e = parse("<!DOCTYPE html><a/>").unwrap();
        assert_eq!(e.name, "a");
    }

    #[test]
    fn single_quoted_attrs() {
        let e = parse("<a k='v'/>").unwrap();
        assert_eq!(e.get_attr("k"), Some("v"));
    }

    #[test]
    fn insignificant_whitespace_dropped_significant_kept() {
        let e = parse("<a>\n  <b/>\n</a>").unwrap();
        assert_eq!(e.children.len(), 1);
        let e = parse("<a> x <b/></a>").unwrap();
        assert_eq!(e.children.len(), 2);
        // In a *leaf* element, whitespace is character data (a SOAP
        // string value may legitimately be " ").
        let e = parse("<a> </a>").unwrap();
        assert_eq!(e.text_content(), " ");
        let e = parse("<r><a> </a><b/></r>").unwrap();
        assert_eq!(e.find("a").unwrap().text_content(), " ");
    }

    #[test]
    fn error_cases_report_position() {
        for bad in [
            "<a><b></a>",
            "<a",
            "<a k=v/>",
            "<a/><b/>",
            "<a>unclosed",
            "text only",
            r#"<a k="unterminated/>"#,
            "<?xml unterminated",
            "<!-- unterminated",
            "<!DOCTYPE unterminated",
            "<a><!-- unterminated</a>",
        ] {
            let err = parse(bad).unwrap_err();
            assert!(err.at <= bad.len(), "offset in range for {bad:?}");
            assert!(!err.message().is_empty());
            assert!(err.to_string().contains("byte"));
        }
    }

    #[test]
    fn mismatched_close_tag_is_a_typed_error() {
        let err = parse("<outer><inner></wrong></outer>").unwrap_err();
        assert_eq!(err.kind, ErrorKind::MismatchedCloseTag);
        // Position points at the close name so the caller can still
        // recover both tag names from the input if it wants them.
        assert_eq!(err.at, "<outer><inner></".len() + "wrong".len());
    }

    fn nested(depth: usize) -> String {
        format!("{}{}", "<a>".repeat(depth), "</a>".repeat(depth))
    }

    #[test]
    fn nesting_is_capped_with_a_typed_error() {
        for depth in [1, MAX_DEPTH] {
            let doc = nested(depth);
            assert!(parse_ref(&doc).is_ok(), "{depth} levels");
            assert!(parse(&doc).is_ok(), "{depth} levels");
        }
        for depth in [MAX_DEPTH + 1, 100_000] {
            let doc = nested(depth);
            let too_deep = ParseError {
                at: MAX_DEPTH * "<a>".len(),
                kind: ErrorKind::TooDeep,
            };
            assert_eq!(parse_ref(&doc).unwrap_err(), too_deep, "{depth} levels");
            assert_eq!(parse(&doc).unwrap_err(), too_deep, "{depth} levels");
        }
    }

    #[test]
    fn borrowed_and_owned_parses_agree() {
        for doc in [
            r#"<?xml version="1.0"?><a k="v&amp;w"><b>hi &lt;there&gt;</b><c/></a>"#,
            "<a><![CDATA[<raw & bytes>]]>tail</a>",
            "<a>\n  <b/>\n</a>",
            "<a> mixed <b/> text </a>",
        ] {
            let owned = parse(doc).unwrap();
            let borrowed = parse_ref(doc).unwrap();
            assert_eq!(borrowed.to_owned(), owned, "{doc:?}");
        }
    }
}
