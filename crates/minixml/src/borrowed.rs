//! The borrowed (zero-copy) element tier.
//!
//! [`ElemRef`] is the borrowed twin of [`Element`]: tag and attribute
//! names are `&str` slices of the input document, and character data is
//! `Cow<str>` that only owns a buffer when an entity escape actually
//! fired during the parse. A full parse of an escape-free document
//! allocates only the tree's `Vec` spines — no per-name, per-attribute
//! or per-text `String`s. The owned API sits on top as a plain
//! [`ElemRef::to_owned`].

use crate::node::{Element, XmlNode};
use std::borrow::Cow;

/// A child of a borrowed element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeRef<'a> {
    /// A nested element.
    Element(ElemRef<'a>),
    /// Character data (already unescaped; borrowed unless an entity
    /// escape forced a decode).
    Text(Cow<'a, str>),
}

/// An XML element borrowed from the input document.
///
/// Mirrors the query API of [`Element`] (`find`, `find_path`,
/// `get_attr`, `text_content`, …) so unmarshal code can run over either
/// tier; [`crate::parse_ref`] produces it without copying names or
/// clean text out of the document.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ElemRef<'a> {
    /// Tag name (may carry a namespace prefix like `SOAP-ENV:Body`).
    pub name: &'a str,
    /// Attributes in document order.
    pub attrs: Vec<(&'a str, Cow<'a, str>)>,
    /// Child nodes in document order.
    pub children: Vec<NodeRef<'a>>,
}

impl<'a> ElemRef<'a> {
    /// The value of attribute `key`, if present.
    pub fn get_attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_ref())
    }

    /// The element's local name: the part after the namespace prefix.
    pub fn local_name(&self) -> &'a str {
        crate::reader::local_name(self.name)
    }

    /// Child elements, in order.
    pub fn elements(&self) -> impl Iterator<Item = &ElemRef<'a>> {
        self.children.iter().filter_map(|n| match n {
            NodeRef::Element(e) => Some(e),
            NodeRef::Text(_) => None,
        })
    }

    /// The first child element with the given *local* name.
    pub fn find(&self, local: &str) -> Option<&ElemRef<'a>> {
        self.elements().find(|e| e.local_name() == local)
    }

    /// All child elements with the given local name.
    pub fn find_all<'b>(&'b self, local: &'b str) -> impl Iterator<Item = &'b ElemRef<'a>> {
        self.elements().filter(move |e| e.local_name() == local)
    }

    /// Walks a path of local names, returning the first match at each step.
    pub fn find_path(&self, path: &[&str]) -> Option<&ElemRef<'a>> {
        let mut cur = self;
        for p in path {
            cur = cur.find(p)?;
        }
        Some(cur)
    }

    /// The concatenated character data of this element (direct text
    /// children only). Borrows when there is at most one text child —
    /// the overwhelmingly common shape for SOAP leaf values — and only
    /// concatenates into a fresh `String` otherwise.
    pub fn text_content(&self) -> Cow<'_, str> {
        let mut texts = self.children.iter().filter_map(|n| match n {
            NodeRef::Text(t) => Some(t),
            NodeRef::Element(_) => None,
        });
        let Some(first) = texts.next() else {
            return Cow::Borrowed("");
        };
        match texts.next() {
            None => Cow::Borrowed(first.as_ref()),
            Some(second) => {
                let mut s = String::with_capacity(first.len() + second.len());
                s.push_str(first);
                s.push_str(second);
                for t in texts {
                    s.push_str(t);
                }
                Cow::Owned(s)
            }
        }
    }

    /// True if the element has neither attributes nor children.
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty() && self.children.is_empty()
    }

    /// Copies the borrowed tree into an owned [`Element`].
    pub fn to_owned(&self) -> Element {
        Element {
            name: self.name.to_owned(),
            attrs: self
                .attrs
                .iter()
                .map(|(k, v)| ((*k).to_owned(), v.clone().into_owned()))
                .collect(),
            children: self
                .children
                .iter()
                .map(|n| match n {
                    NodeRef::Element(e) => XmlNode::Element(e.to_owned()),
                    NodeRef::Text(t) => XmlNode::Text(t.clone().into_owned()),
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::parse_ref;
    use std::borrow::Cow;

    #[test]
    fn queries_mirror_the_owned_tier() {
        let doc = r#"<s:root xmlns:s="urn:x"><a>one</a><s:b>two</s:b><a>three</a></s:root>"#;
        let e = parse_ref(doc).unwrap();
        assert_eq!(e.local_name(), "root");
        assert_eq!(e.get_attr("xmlns:s"), Some("urn:x"));
        assert_eq!(e.get_attr("missing"), None);
        assert_eq!(e.elements().count(), 3);
        assert_eq!(e.find("b").unwrap().text_content(), "two");
        assert_eq!(e.find_all("a").count(), 2);
        assert_eq!(e.find_path(&["b"]).unwrap().text_content(), "two");
        assert!(!e.is_empty());
    }

    #[test]
    fn clean_text_and_names_are_borrowed() {
        let doc = "<a k=\"v\">plain</a>";
        let e = parse_ref(doc).unwrap();
        assert!(matches!(e.attrs[0].1, Cow::Borrowed(_)));
        assert!(matches!(e.text_content(), Cow::Borrowed(_)));
        // The name slice points into the document itself.
        let name_ptr = e.name.as_ptr() as usize;
        let doc_range = doc.as_ptr() as usize..doc.as_ptr() as usize + doc.len();
        assert!(doc_range.contains(&name_ptr));
    }

    #[test]
    fn escaped_text_is_owned_and_decoded() {
        let e = parse_ref("<a>x &amp; y</a>").unwrap();
        assert_eq!(e.text_content(), "x & y");
        // The decode forced the *node* to own its buffer; text_content
        // still hands out a borrow of that buffer.
        assert!(matches!(
            &e.children[0],
            crate::NodeRef::Text(Cow::Owned(_))
        ));
    }

    #[test]
    fn multiple_text_runs_concatenate() {
        let e = parse_ref("<a>one<b/>two</a>").unwrap();
        assert_eq!(e.text_content(), "onetwo");
    }

    #[test]
    fn to_owned_matches_owned_parse() {
        let doc = r#"<r a="1&amp;2"><x>t</x><![CDATA[<raw>]]></r>"#;
        let borrowed = parse_ref(doc).unwrap().to_owned();
        let owned = crate::parse(doc).unwrap();
        assert_eq!(borrowed, owned);
    }
}
