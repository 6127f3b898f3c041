//! The element tree.

use std::fmt;

/// A child of an element: either a nested element or character data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlNode {
    /// A nested element.
    Element(Element),
    /// Character data (already unescaped).
    Text(String),
}

/// An XML element with attributes and children.
///
/// Construction uses a fluent builder style:
///
/// ```
/// use minixml::Element;
/// let e = Element::new("service")
///     .attr("name", "vcr")
///     .child(Element::new("op").text("record"));
/// assert_eq!(e.to_xml(), r#"<service name="vcr"><op>record</op></service>"#);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Element {
    /// Tag name (may carry a namespace prefix like `SOAP-ENV:Body`).
    pub name: String,
    /// Attributes in document order.
    pub attrs: Vec<(String, String)>,
    /// Child nodes in document order.
    pub children: Vec<XmlNode>,
}

impl Element {
    /// Creates an empty element named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Element {
            name: name.into(),
            attrs: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Adds an attribute (builder style).
    pub fn attr(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.attrs.push((key.into(), value.into()));
        self
    }

    /// Appends a child element (builder style).
    pub fn child(mut self, child: Element) -> Self {
        self.children.push(XmlNode::Element(child));
        self
    }

    /// Appends several child elements (builder style).
    pub fn children(mut self, children: impl IntoIterator<Item = Element>) -> Self {
        self.children
            .extend(children.into_iter().map(XmlNode::Element));
        self
    }

    /// Appends character data (builder style).
    pub fn text(mut self, text: impl Into<String>) -> Self {
        self.children.push(XmlNode::Text(text.into()));
        self
    }

    /// Appends a child in place.
    pub fn push(&mut self, child: Element) {
        self.children.push(XmlNode::Element(child));
    }

    // ---- queries ----------------------------------------------------------

    /// The value of attribute `key`, if present.
    pub fn get_attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The element's local name: the part after the namespace prefix.
    pub fn local_name(&self) -> &str {
        crate::reader::local_name(&self.name)
    }

    /// Child elements, in order.
    pub fn elements(&self) -> impl Iterator<Item = &Element> {
        self.children.iter().filter_map(|n| match n {
            XmlNode::Element(e) => Some(e),
            XmlNode::Text(_) => None,
        })
    }

    /// The first child element with the given *local* name.
    pub fn find(&self, local: &str) -> Option<&Element> {
        self.elements().find(|e| e.local_name() == local)
    }

    /// All child elements with the given local name.
    pub fn find_all<'a>(&'a self, local: &'a str) -> impl Iterator<Item = &'a Element> {
        self.elements().filter(move |e| e.local_name() == local)
    }

    /// Walks a path of local names, returning the first match at each step.
    pub fn find_path(&self, path: &[&str]) -> Option<&Element> {
        let mut cur = self;
        for p in path {
            cur = cur.find(p)?;
        }
        Some(cur)
    }

    /// The concatenated character data of this element (direct text
    /// children only).
    pub fn text_content(&self) -> String {
        let mut s = String::new();
        for n in &self.children {
            if let XmlNode::Text(t) = n {
                s.push_str(t);
            }
        }
        s
    }

    /// True if the element has neither attributes nor children.
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty() && self.children.is_empty()
    }
}

impl fmt::Display for Element {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_xml())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Element {
        Element::new("s:root")
            .attr("xmlns:s", "urn:x")
            .child(Element::new("a").text("one"))
            .child(Element::new("s:b").text("two"))
            .child(Element::new("a").text("three"))
    }

    #[test]
    fn builder_and_queries() {
        let e = sample();
        assert_eq!(e.local_name(), "root");
        assert_eq!(e.get_attr("xmlns:s"), Some("urn:x"));
        assert_eq!(e.get_attr("missing"), None);
        assert_eq!(e.elements().count(), 3);
        assert_eq!(e.find("b").unwrap().text_content(), "two");
        assert_eq!(e.find_all("a").count(), 2);
    }

    #[test]
    fn find_path_walks_nesting() {
        let e =
            Element::new("env").child(Element::new("body").child(Element::new("call").text("x")));
        assert_eq!(e.find_path(&["body", "call"]).unwrap().text_content(), "x");
        assert!(e.find_path(&["body", "nope"]).is_none());
    }

    #[test]
    fn text_content_concatenates_direct_text_only() {
        let e = Element::new("p")
            .text("a")
            .child(Element::new("i").text("HIDDEN"))
            .text("b");
        assert_eq!(e.text_content(), "ab");
    }

    #[test]
    fn local_name_strips_prefix() {
        assert_eq!(Element::new("SOAP-ENV:Body").local_name(), "Body");
        assert_eq!(Element::new("Body").local_name(), "Body");
    }

    #[test]
    fn emptiness() {
        assert!(Element::new("x").is_empty());
        assert!(!Element::new("x").attr("a", "1").is_empty());
        assert!(!Element::new("x").text("t").is_empty());
    }
}
