//! Serialising element trees to XML text, and the sink the streaming
//! writers share.

use crate::escape::{escape_attr_into, escape_text, escape_text_into};
use crate::node::{Element, XmlNode};
use std::fmt;

/// Where a streaming writer puts its text: a `String`, a wire buffer
/// (`Vec<u8>`), or a [`Measure`] that only counts. Writing a message
/// once into a `Measure` and then into its buffer lets the writer
/// reserve that buffer exactly.
pub trait XmlOut {
    /// Appends `s`.
    fn put(&mut self, s: &str);

    /// Appends formatted text (numbers), without an intermediate
    /// `String`.
    fn put_fmt(&mut self, args: fmt::Arguments<'_>) {
        struct Adapter<'o, O: ?Sized>(&'o mut O);
        impl<O: XmlOut + ?Sized> fmt::Write for Adapter<'_, O> {
            fn write_str(&mut self, s: &str) -> fmt::Result {
                self.0.put(s);
                Ok(())
            }
        }
        // Formatting into an infallible sink cannot fail.
        let _ = fmt::write(&mut Adapter(self), args);
    }
}

impl XmlOut for String {
    #[inline]
    fn put(&mut self, s: &str) {
        self.push_str(s);
    }
}

impl XmlOut for Vec<u8> {
    #[inline]
    fn put(&mut self, s: &str) {
        self.extend_from_slice(s.as_bytes());
    }
}

/// An [`XmlOut`] that counts the bytes it is given and keeps none.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Measure(pub usize);

impl XmlOut for Measure {
    #[inline]
    fn put(&mut self, s: &str) {
        self.0 += s.len();
    }
}

impl Element {
    /// Serialises to compact XML (no insignificant whitespace).
    pub fn to_xml(&self) -> String {
        let mut out = String::new();
        write_compact(self, &mut out);
        out
    }

    /// Serialises with an XML declaration prepended, as SOAP messages and
    /// UPnP device descriptions carry on the wire.
    pub fn to_document(&self) -> String {
        let mut out = String::from("<?xml version=\"1.0\" encoding=\"UTF-8\"?>");
        write_compact(self, &mut out);
        out
    }

    /// Serialises with two-space indentation, for human-readable output
    /// (traces, examples, EXPERIMENTS.md snippets).
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        write_pretty(self, 0, &mut out);
        out
    }
}

fn write_open_tag(e: &Element, out: &mut String) {
    out.push('<');
    out.push_str(&e.name);
    for (k, v) in &e.attrs {
        out.push(' ');
        out.push_str(k);
        out.push_str("=\"");
        escape_attr_into(v, out);
        out.push('"');
    }
}

fn write_compact(e: &Element, out: &mut String) {
    write_open_tag(e, out);
    if e.children.is_empty() {
        out.push_str("/>");
        return;
    }
    out.push('>');
    for c in &e.children {
        match c {
            XmlNode::Element(child) => write_compact(child, out),
            XmlNode::Text(t) => escape_text_into(t, out),
        }
    }
    out.push_str("</");
    out.push_str(&e.name);
    out.push('>');
}

fn write_pretty(e: &Element, depth: usize, out: &mut String) {
    let pad = "  ".repeat(depth);
    out.push_str(&pad);
    write_open_tag(e, out);
    if e.children.is_empty() {
        out.push_str("/>\n");
        return;
    }
    // Elements whose only children are text stay on one line.
    let text_only = e.children.iter().all(|c| matches!(c, XmlNode::Text(_)));
    if text_only {
        out.push('>');
        for c in &e.children {
            if let XmlNode::Text(t) = c {
                out.push_str(&escape_text(t));
            }
        }
        out.push_str("</");
        out.push_str(&e.name);
        out.push_str(">\n");
        return;
    }
    out.push_str(">\n");
    for c in &e.children {
        match c {
            XmlNode::Element(child) => write_pretty(child, depth + 1, out),
            XmlNode::Text(t) => {
                let t = t.trim();
                if !t.is_empty() {
                    out.push_str(&"  ".repeat(depth + 1));
                    out.push_str(&escape_text(t));
                    out.push('\n');
                }
            }
        }
    }
    out.push_str(&pad);
    out.push_str("</");
    out.push_str(&e.name);
    out.push_str(">\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_output() {
        let e = Element::new("a")
            .attr("k", "v")
            .child(Element::new("b"))
            .child(Element::new("c").text("x & y"));
        assert_eq!(e.to_xml(), r#"<a k="v"><b/><c>x &amp; y</c></a>"#);
    }

    #[test]
    fn document_has_declaration() {
        let doc = Element::new("r").to_document();
        assert!(doc.starts_with("<?xml version=\"1.0\""));
        assert!(doc.ends_with("<r/>"));
    }

    #[test]
    fn attrs_are_escaped() {
        let e = Element::new("a").attr("q", r#"<"quoted">"#);
        assert_eq!(e.to_xml(), r#"<a q="&lt;&quot;quoted&quot;&gt;"/>"#);
    }

    #[test]
    fn every_sink_sees_the_same_text() {
        fn write(out: &mut impl XmlOut) {
            out.put("<n>");
            out.put_fmt(format_args!("{}", -42));
            escape_text_into("a&b", out);
            out.put("</n>");
        }
        let (mut s, mut v, mut m) = (String::new(), Vec::new(), Measure::default());
        write(&mut s);
        write(&mut v);
        write(&mut m);
        assert_eq!(s, "<n>-42a&amp;b</n>");
        assert_eq!(v, s.as_bytes());
        assert_eq!(m.0, s.len());
    }

    #[test]
    fn pretty_output_indents_nested_elements() {
        let e = Element::new("root")
            .child(Element::new("leaf").text("v"))
            .child(Element::new("empty"));
        let p = e.to_pretty();
        assert_eq!(p, "<root>\n  <leaf>v</leaf>\n  <empty/>\n</root>\n");
    }
}
