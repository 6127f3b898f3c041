//! # minixml — a minimal XML 1.0 subset
//!
//! The in-repo replacement for the XML stack the paper's prototype got
//! from Apache SOAP: enough of XML 1.0 to carry SOAP 1.1 envelopes,
//! WSDL-style service descriptions and UPnP device descriptions —
//! elements, attributes, character data, comments, CDATA, processing
//! instructions, namespace *prefixes* (treated lexically), and the five
//! predefined entities plus numeric character references.
//!
//! ```
//! use minixml::Element;
//!
//! let msg = Element::new("command")
//!     .attr("device", "vcr")
//!     .child(Element::new("action").text("record"));
//! let wire = msg.to_document();
//! let back = Element::parse(&wire).unwrap();
//! assert_eq!(back.find("action").unwrap().text_content(), "record");
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod borrowed;
pub mod escape;
pub mod node;
#[cfg(test)]
mod oracle;
pub mod parser;
pub mod reader;
pub mod writer;

pub use borrowed::{ElemRef, NodeRef};
pub use escape::{
    escape_attr, escape_attr_into, escape_text, escape_text_into, unescape, unescape_cow,
};
pub use node::{Element, XmlNode};
pub use parser::{parse, parse_ref, ErrorKind, ParseError};
pub use reader::{local_name, Event, Reader, Stack, Text};
pub use writer::{Measure, XmlOut};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_name() -> impl Strategy<Value = String> {
        "[a-zA-Z][a-zA-Z0-9_.-]{0,8}"
    }

    fn arb_text() -> impl Strategy<Value = String> {
        // Arbitrary printable text, including XML-special characters,
        // but non-empty after trimming (whitespace-only text is
        // insignificant and dropped by the parser).
        "[ -~]{1,20}".prop_filter("significant", |s| !s.trim().is_empty())
    }

    fn arb_element(depth: u32) -> BoxedStrategy<Element> {
        let leaf = (
            arb_name(),
            prop::collection::vec((arb_name(), arb_text()), 0..3),
        )
            .prop_map(|(name, attrs)| {
                let mut e = Element::new(name);
                // Attribute keys must be unique for round-trip equality.
                let mut seen = std::collections::HashSet::new();
                for (k, v) in attrs {
                    if seen.insert(k.clone()) {
                        e.attrs.push((k, v));
                    }
                }
                e
            });
        if depth == 0 {
            return leaf.boxed();
        }
        (
            leaf,
            prop::collection::vec(
                prop_oneof![
                    arb_element(depth - 1).prop_map(XmlNode::Element),
                    arb_text().prop_map(|t| XmlNode::Text(t.trim().to_owned())),
                ],
                0..4,
            ),
        )
            .prop_map(|(mut e, children)| {
                // Adjacent text nodes merge on parse; keep them separated
                // by elements for structural round-trip equality. Also
                // drop text that trimmed to empty.
                let mut last_was_text = false;
                for c in children {
                    if let XmlNode::Text(t) = &c {
                        if t.is_empty() || last_was_text {
                            continue;
                        }
                        last_was_text = true;
                    } else {
                        last_was_text = false;
                    }
                    e.children.push(c);
                }
                e
            })
            .boxed()
    }

    proptest! {
        #[test]
        fn write_parse_round_trip(e in arb_element(3)) {
            let doc = e.to_document();
            let back = Element::parse(&doc).unwrap();
            prop_assert_eq!(back, e);
        }

        #[test]
        fn escape_unescape_round_trip(s in "[ -~]{0,64}") {
            prop_assert_eq!(unescape(&escape_text(&s)), s.clone());
            prop_assert_eq!(unescape(&escape_attr(&s)), s);
        }

        #[test]
        fn parser_never_panics(s in ".{0,256}") {
            let _ = parse(&s);
        }

        #[test]
        fn borrowed_parse_equals_owned_parse(e in arb_element(3)) {
            let doc = e.to_document();
            let borrowed = parse_ref(&doc).unwrap();
            prop_assert_eq!(borrowed.to_owned(), parse(&doc).unwrap());
        }

        #[test]
        fn borrowed_equals_owned_on_arbitrary_input(s in ".{0,256}") {
            match (parse(&s), parse_ref(&s)) {
                (Ok(o), Ok(b)) => prop_assert_eq!(o, b.to_owned()),
                (Err(e1), Err(e2)) => prop_assert_eq!(e1, e2),
                (o, b) => prop_assert!(false, "tiers disagree: {:?} vs {:?}", o, b.map(|e| e.to_owned())),
            }
        }

        #[test]
        fn borrowed_equals_owned_with_escapes_cdata_comments(
            text in "[ -~]{1,20}",
            cdata in "[ -~]{0,20}",
            comment in "[ a-z]{0,12}",
        ) {
            // Keep the constructs well-formed: CDATA cannot contain its
            // own terminator, comments cannot contain "--".
            let cdata = cdata.replace("]]>", "]]");
            let comment = comment.replace("--", "-");
            let doc = format!(
                "<!-- {comment} --><r a=\"{}\">{}<![CDATA[{cdata}]]><b/></r>",
                escape_attr(&text),
                escape_text(&text),
            );
            let owned = parse(&doc).unwrap();
            let borrowed = parse_ref(&doc).unwrap();
            prop_assert_eq!(borrowed.to_owned(), owned);
        }

        #[test]
        fn pretty_and_compact_parse_identically(e in arb_element(2)) {
            // Pretty-printing only changes insignificant whitespace for
            // element-only trees; restrict to those.
            fn strip_text(e: &mut Element) {
                e.children.retain(|c| matches!(c, XmlNode::Element(_)));
                for c in &mut e.children {
                    if let XmlNode::Element(el) = c { strip_text(el); }
                }
            }
            let mut e = e;
            strip_text(&mut e);
            let compact = Element::parse(&e.to_xml()).unwrap();
            let pretty = Element::parse(&e.to_pretty()).unwrap();
            prop_assert_eq!(compact, pretty);
        }
    }

    /// Fragments that exercise every branch of the tokenizer: tags,
    /// attributes, comments, CDATA, PIs, DOCTYPEs, entities, non-ASCII
    /// names and Unicode whitespace — in any order, so most documents
    /// are broken somewhere.
    const SOUP: &[&str] = &[
        "<a>",
        "</a>",
        "<b k='v'>",
        "</b>",
        "<a/>",
        "<b k=\"&amp;\" j='x'/>",
        "<s:c>",
        "</s:c>",
        "<é>",
        "</é>",
        "<",
        ">",
        "/>",
        "</",
        "<!--",
        "-->",
        "<!-- c -->",
        "<![CDATA[",
        "]]>",
        "<![CDATA[x]]>",
        "<?",
        "?>",
        "<?pi d?>",
        "<!DOCTYPE d>",
        "<!DOCTYPE",
        "<!x>",
        "&amp;",
        "&#65;",
        "&#x3042;",
        "&bogus;",
        "&",
        "=",
        "\"",
        "'",
        "k",
        " ",
        "  ",
        "\n",
        "\t",
        "\r\n",
        "\u{a0}",
        "\u{3000}",
        "\u{85}",
        "text",
        "é",
        ":",
        "_",
        "-",
        ".",
        "<a k=v>",
        "<a k>",
        "<a k='unterminated>",
        "</a >",
        "</b\n>",
        "<a\u{a0}k='v'>",
    ];

    fn soup() -> impl Strategy<Value = String> {
        prop::collection::vec(0..SOUP.len(), 0..40)
            .prop_map(|ix| ix.iter().map(|&i| SOUP[i]).collect())
    }

    /// Token soup wrapped in a root element half the time, so more
    /// cases get past the prologue into content.
    fn rooted_soup() -> impl Strategy<Value = String> {
        (soup(), any::<bool>()).prop_map(|(s, wrap)| if wrap { format!("<r>{s}</r>") } else { s })
    }

    /// The root's text as the reader reads it (then the rest of the
    /// document), against the parsed tree's.
    fn check_text_content(doc: &str) -> Result<(), TestCaseError> {
        let mut r = Reader::new(doc);
        let streamed = r.next().and_then(|_| {
            let text = r.text_content()?;
            r.next()?;
            Ok(text)
        });
        let tree = parse_ref(doc);
        prop_assert_eq!(
            streamed,
            tree.as_ref().map(|e| e.text_content()).map_err(|e| *e)
        );
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn reader_parse_equals_recursive_oracle_on_arbitrary_strings(
            s in "[ -~\t\n\r\u{a0}\u{85}\u{3000}é]{0,200}",
        ) {
            prop_assert_eq!(parse_ref(&s), oracle::parse_ref(&s));
        }

        #[test]
        fn reader_parse_equals_recursive_oracle_on_token_soup(s in rooted_soup()) {
            prop_assert_eq!(parse_ref(&s), oracle::parse_ref(&s));
        }

        #[test]
        fn reader_text_content_equals_the_tree_s_on_token_soup(s in rooted_soup()) {
            check_text_content(&s)?;
        }

        #[test]
        fn reader_text_content_equals_the_tree_s_on_indented_documents(e in arb_element(3)) {
            check_text_content(&e.to_pretty())?;
        }

        #[test]
        fn reader_parse_equals_recursive_oracle_on_documents(e in arb_element(3)) {
            let doc = e.to_document();
            prop_assert_eq!(parse_ref(&doc), oracle::parse_ref(&doc));
            let pretty = e.to_pretty();
            prop_assert_eq!(parse_ref(&pretty), oracle::parse_ref(&pretty));
        }
    }
}
