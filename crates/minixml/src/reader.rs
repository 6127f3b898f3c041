//! The pull tokenizer every parse in this crate runs on.
//!
//! [`Reader`] walks a document left to right and hands out one
//! [`Event`] per call: a start tag, an end tag, or a run of character
//! data. Names and text are slices of the input. A start tag's
//! attributes are recorded while the tag is scanned, and
//! [`Reader::attrs`] hands them out without reading the tag again.
//! Comments, processing instructions, the prologue and the epilogue
//! are consumed silently.
//!
//! The reader never recurses: its open-element stack and its attribute
//! list live inline up to a small depth and width and spill to the heap
//! beyond, so a typical document is tokenized without allocating, and a
//! deeply nested one costs heap rather than call stack.
//!
//! It accepts and rejects exactly the documents [`crate::parse_ref`]
//! does, with the same [`ParseError`] (offset and kind) for every
//! input — `parse_ref` is the tree builder over this reader.
//!
//! ```
//! use minixml::{Event, Reader};
//!
//! let mut r = Reader::new(r#"<a k="v">hi<b/></a>"#);
//! assert_eq!(r.next(), Ok(Event::Start("a")));
//! assert_eq!(r.attr("k").as_deref(), Some("v"));
//! assert!(matches!(r.next(), Ok(Event::Text(t)) if t.unescape() == "hi"));
//! assert_eq!(r.next(), Ok(Event::Start("b")));
//! assert_eq!(r.next(), Ok(Event::End("b")));
//! assert_eq!(r.next(), Ok(Event::End("a")));
//! assert_eq!(r.next(), Ok(Event::Eof));
//! ```

use crate::escape::unescape_cow;
use crate::parser::{ErrorKind, ParseError};
use std::borrow::Cow;

/// One step through a document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event<'a> {
    /// A start tag with this name. Its attributes are
    /// [`Reader::attrs`] until the next call to [`Reader::next`]. A
    /// self-closing tag yields `Start` and then `End`.
    Start(&'a str),
    /// The end of the element with this name.
    End(&'a str),
    /// Character data directly inside the current element: a text run
    /// up to the next markup, or one CDATA section.
    Text(Text<'a>),
    /// The root element has closed and only comments, processing
    /// instructions and whitespace follow it. Repeats on further calls.
    Eof,
}

/// A run of character data as it appears in the document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Text<'a> {
    raw: &'a str,
    cdata: bool,
}

impl<'a> Text<'a> {
    /// The character data the document means: entities decoded
    /// (borrowed unless one fired), a CDATA section verbatim.
    pub fn unescape(self) -> Cow<'a, str> {
        if self.cdata {
            Cow::Borrowed(self.raw)
        } else {
            unescape_cow(self.raw)
        }
    }
}

/// An element name's local part: what follows the first `:`.
pub fn local_name(name: &str) -> &str {
    match name.split_once(':') {
        Some((_, local)) => local,
        None => name,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Before the root element.
    Prologue,
    /// Inside an element.
    Content,
    /// A self-closing tag's `Start` was returned; its `End` is next.
    SelfClosed,
    /// The root element has closed.
    Epilogue,
    /// `Eof` was returned.
    Done,
    /// An error was returned; it repeats.
    Failed(ParseError),
}

/// A pull tokenizer over one document. See the [module docs](self).
#[derive(Debug)]
pub struct Reader<'a> {
    input: &'a str,
    pos: usize,
    state: State,
    /// Where the `<` of the last start tag is.
    tag_at: usize,
    open: Stack<&'a str, 16>,
    attrs: Stack<(&'a str, &'a str), 8>,
}

impl<'a> Reader<'a> {
    /// A reader positioned before `input`'s prologue.
    pub fn new(input: &'a str) -> Reader<'a> {
        Reader {
            input,
            pos: 0,
            state: State::Prologue,
            tag_at: 0,
            open: Stack::new(),
            attrs: Stack::new(),
        }
    }

    /// The next event, or the first error in document order. After an
    /// error every call returns that error again.
    #[allow(clippy::should_implement_trait)] // fallible and fused: not an Iterator
    pub fn next(&mut self) -> Result<Event<'a>, ParseError> {
        let step = match self.state {
            State::Content => self.content(),
            State::SelfClosed => Ok(self.close()),
            State::Prologue => {
                self.skip_misc();
                if self.bytes().get(self.pos) == Some(&b'<') {
                    self.pos += 1;
                    self.start_tag()
                } else {
                    Err(self.err(ErrorKind::ExpectedElement))
                }
            }
            State::Epilogue => {
                self.skip_misc();
                if self.pos < self.input.len() {
                    Err(self.err(ErrorKind::TrailingContent))
                } else {
                    self.state = State::Done;
                    Ok(Event::Eof)
                }
            }
            State::Done => Ok(Event::Eof),
            State::Failed(e) => Err(e),
        };
        if let Err(e) = step {
            self.state = State::Failed(e);
        }
        step
    }

    /// The attributes of the start tag [`Reader::next`] just returned,
    /// in document order, values still escaped.
    pub fn attrs(&self) -> &[(&'a str, &'a str)] {
        self.attrs.as_slice()
    }

    /// The first attribute named `key` of the start tag just returned,
    /// unescaped.
    pub fn attr(&self, key: &str) -> Option<Cow<'a, str>> {
        self.attrs()
            .iter()
            .find(|(k, _)| *k == key)
            .map(|&(_, v)| unescape_cow(v))
    }

    /// The byte offset of the `<` of the start tag [`Reader::next`]
    /// last returned. A reader over the input from there reads that
    /// element as its root, so a caller can note where an element
    /// starts and read it again later.
    pub fn tag_offset(&self) -> usize {
        self.tag_at
    }

    /// Number of elements currently open (the one whose `Start` was
    /// just returned included).
    fn depth(&self) -> usize {
        self.open.len()
    }

    /// Consumes the rest of the innermost open element (typically the
    /// one whose `Start` was just returned) through its `End`, by
    /// counting depth.
    pub fn skip_element(&mut self) -> Result<(), ParseError> {
        let outer = self.depth().saturating_sub(1);
        while self.depth() > outer {
            self.next()?;
        }
        Ok(())
    }

    /// Walks the children of the innermost open element: `child` gets
    /// each child element's name right after its `Start` and reads as
    /// much of it as it wants; whatever it leaves is skipped. Returns
    /// after the parent's `End`. Character data between the children
    /// is ignored.
    pub fn for_each_child(
        &mut self,
        mut child: impl FnMut(&'a str, &mut Self) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        let depth = self.depth();
        loop {
            match self.next()? {
                Event::Start(name) => {
                    child(name, self)?;
                    while self.depth() > depth {
                        self.next()?;
                    }
                }
                Event::Text(_) => {}
                Event::End(_) | Event::Eof => return Ok(()),
            }
        }
    }

    /// Consumes the rest of the innermost open element through its
    /// `End` and returns its direct character data — what
    /// [`crate::ElemRef::text_content`] gives on the parsed tree: text
    /// runs and CDATA concatenated, with whitespace-only runs dropped
    /// when the element also has child elements. Child elements are
    /// skipped by counting depth.
    pub fn text_content(&mut self) -> Result<Cow<'a, str>, ParseError> {
        let mut significant = Cow::Borrowed("");
        // Every run, once a whitespace-only one has been seen; until
        // then it equals `significant`.
        let mut all: Option<Cow<'a, str>> = None;
        let mut has_elements = false;
        loop {
            match self.next()? {
                Event::Text(text) => {
                    let text = text.unescape();
                    let blank = text.trim().is_empty();
                    if blank || all.is_some() {
                        push(all.get_or_insert_with(|| significant.clone()), text.clone());
                    }
                    if !blank {
                        push(&mut significant, text);
                    }
                }
                Event::Start(_) => {
                    has_elements = true;
                    self.skip_element()?;
                }
                Event::End(_) | Event::Eof => break,
            }
        }
        Ok(match all {
            Some(all) if !has_elements => all,
            _ => significant,
        })
    }

    fn bytes(&self) -> &'a [u8] {
        self.input.as_bytes()
    }

    fn err(&self, kind: ErrorKind) -> ParseError {
        ParseError { at: self.pos, kind }
    }

    fn at(&self, s: &[u8]) -> bool {
        self.bytes()[self.pos..].starts_with(s)
    }

    /// Skips whitespace as `str::trim_start` defines it.
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes().get(self.pos) {
            match b {
                b' ' | b'\t'..=b'\r' => self.pos += 1,
                0x80.. => {
                    let rest = self.input[self.pos..].trim_start();
                    self.pos = self.input.len() - rest.len();
                    return;
                }
                _ => return,
            }
        }
    }

    /// Skips past the first `end` at or after the current position.
    fn skip_until(&mut self, end: &str, kind: ErrorKind) -> Result<(), ParseError> {
        match self.input[self.pos..].find(end) {
            Some(i) => {
                self.pos += i + end.len();
                Ok(())
            }
            None => Err(self.err(kind)),
        }
    }

    /// Skips whitespace, declarations, comments, PIs and DOCTYPEs
    /// outside the root element. An unterminated construct consumes
    /// the rest of the input.
    fn skip_misc(&mut self) {
        loop {
            self.skip_ws();
            let end = if self.at(b"<?") {
                "?>"
            } else if self.at(b"<!--") {
                "-->"
            } else if self.at(b"<!DOCTYPE") {
                ">"
            } else {
                return;
            };
            match self.input[self.pos..].find(end) {
                Some(i) => self.pos += i + end.len(),
                None => {
                    self.pos = self.input.len();
                    return;
                }
            }
        }
    }

    /// A tag or attribute name: letters, digits and `:_-.`.
    fn name(&mut self) -> Result<&'a str, ParseError> {
        let bytes = self.bytes();
        let start = self.pos;
        let mut i = start;
        while let Some(&b) = bytes.get(i) {
            if b < 0x80 {
                if !(b.is_ascii_alphanumeric() || matches!(b, b':' | b'_' | b'-' | b'.')) {
                    break;
                }
                i += 1;
            } else {
                match self.input[i..].chars().next() {
                    Some(c) if c.is_alphanumeric() => i += c.len_utf8(),
                    _ => break,
                }
            }
        }
        if i == start {
            return Err(self.err(ErrorKind::ExpectedName));
        }
        self.pos = i;
        Ok(&self.input[start..i])
    }

    /// After `<`: the name and attributes through `>` or `/>`.
    fn start_tag(&mut self) -> Result<Event<'a>, ParseError> {
        self.tag_at = self.pos - 1;
        let name = self.name()?;
        self.attrs.clear();
        loop {
            self.skip_ws();
            if self.at(b"/>") {
                self.pos += 2;
                self.open.push(name);
                self.state = State::SelfClosed;
                return Ok(Event::Start(name));
            }
            if self.at(b">") {
                self.pos += 1;
                self.open.push(name);
                self.state = State::Content;
                return Ok(Event::Start(name));
            }
            let key = self.name()?;
            self.skip_ws();
            if !self.at(b"=") {
                return Err(self.err(ErrorKind::AttrMissingEq));
            }
            self.pos += 1;
            self.skip_ws();
            let quote = match self.bytes().get(self.pos) {
                Some(&q @ (b'"' | b'\'')) => q,
                _ => return Err(self.err(ErrorKind::AttrValueUnquoted)),
            };
            self.pos += 1;
            let len = self.bytes()[self.pos..]
                .iter()
                .position(|&b| b == quote)
                .ok_or_else(|| self.err(ErrorKind::UnterminatedAttrValue))?;
            self.attrs
                .push((key, &self.input[self.pos..self.pos + len]));
            self.pos += len + 1;
        }
    }

    /// Pops the innermost element and returns its `End`.
    fn close(&mut self) -> Event<'a> {
        let name = self.open.pop().unwrap_or_default();
        self.state = if self.open.is_empty() {
            State::Epilogue
        } else {
            State::Content
        };
        Event::End(name)
    }

    /// The next event inside an element.
    fn content(&mut self) -> Result<Event<'a>, ParseError> {
        loop {
            let rest = &self.bytes()[self.pos..];
            match rest {
                [b'<', b'/', ..] => {
                    self.pos += 2;
                    let name = self.name()?;
                    if Some(name) != self.open.last() {
                        return Err(self.err(ErrorKind::MismatchedCloseTag));
                    }
                    self.skip_ws();
                    if !self.at(b">") {
                        return Err(self.err(ErrorKind::ExpectedCloseAngle));
                    }
                    self.pos += 1;
                    return Ok(self.close());
                }
                [b'<', b'!', b'-', b'-', ..] => {
                    self.skip_until("-->", ErrorKind::UnterminatedComment)?;
                }
                [b'<', b'!', b'[', b'C', b'D', b'A', b'T', b'A', b'[', ..] => {
                    self.pos += "<![CDATA[".len();
                    let len = self.input[self.pos..]
                        .find("]]>")
                        .ok_or_else(|| self.err(ErrorKind::UnterminatedCdata))?;
                    let raw = &self.input[self.pos..self.pos + len];
                    self.pos += len + 3;
                    return Ok(Event::Text(Text { raw, cdata: true }));
                }
                [b'<', b'?', ..] => {
                    self.skip_until("?>", ErrorKind::UnterminatedPi)?;
                }
                [b'<', ..] => {
                    self.pos += 1;
                    return self.start_tag();
                }
                [] => return Err(self.err(ErrorKind::UnexpectedEof)),
                _ => {
                    let len = rest.iter().position(|&b| b == b'<').unwrap_or(rest.len());
                    let raw = &self.input[self.pos..self.pos + len];
                    self.pos += len;
                    return Ok(Event::Text(Text { raw, cdata: false }));
                }
            }
        }
    }
}

/// Appends `text`, borrowing it when `acc` is still empty.
fn push<'a>(acc: &mut Cow<'a, str>, text: Cow<'a, str>) {
    if acc.is_empty() {
        *acc = text;
    } else {
        acc.to_mut().push_str(&text);
    }
}

/// A stack kept inline up to `N` entries that spills to the heap
/// beyond; either way its entries are one contiguous slice. The reader
/// keeps its open elements and attributes in two; a caller that notes
/// a handful of positions per document can keep them off the heap the
/// same way.
#[derive(Debug)]
pub struct Stack<T: Copy + Default, const N: usize> {
    inline: [T; N],
    len: usize,
    heap: Vec<T>,
}

impl<T: Copy + Default, const N: usize> Default for Stack<T, N> {
    fn default() -> Self {
        Stack::new()
    }
}

impl<T: Copy + Default, const N: usize> Stack<T, N> {
    /// An empty stack.
    pub fn new() -> Self {
        Stack {
            inline: [T::default(); N],
            len: 0,
            heap: Vec::new(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the stack is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The entries, oldest first.
    pub fn as_slice(&self) -> &[T] {
        if self.heap.is_empty() {
            &self.inline[..self.len]
        } else {
            &self.heap
        }
    }

    /// The newest entry.
    pub fn last(&self) -> Option<T> {
        self.as_slice().last().copied()
    }

    /// Adds an entry, spilling every entry to the heap once `N` are
    /// held.
    pub fn push(&mut self, value: T) {
        if self.heap.is_empty() && self.len < N {
            self.inline[self.len] = value;
        } else {
            if self.heap.is_empty() {
                self.heap.extend_from_slice(&self.inline[..self.len]);
            }
            self.heap.push(value);
        }
        self.len += 1;
    }

    /// Removes the newest entry.
    pub fn pop(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        if self.heap.is_empty() {
            Some(self.inline[self.len])
        } else {
            self.heap.pop()
        }
    }

    /// Removes every entry, keeping a spilled buffer's capacity.
    pub fn clear(&mut self) {
        self.len = 0;
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(doc: &str) -> Result<Vec<Event<'_>>, ParseError> {
        let mut r = Reader::new(doc);
        let mut out = Vec::new();
        loop {
            let e = r.next()?;
            out.push(e);
            if e == Event::Eof {
                return Ok(out);
            }
        }
    }

    #[test]
    fn self_closing_tags_yield_start_then_end() {
        let evs = events("<a><b x='1'/></a>").unwrap();
        assert_eq!(
            evs,
            vec![
                Event::Start("a"),
                Event::Start("b"),
                Event::End("b"),
                Event::End("a"),
                Event::Eof
            ]
        );
    }

    #[test]
    fn attributes_come_from_the_one_scan_of_the_tag() {
        let mut r = Reader::new(r#"<a k="v&amp;w" j='x'><b/></a>"#);
        assert_eq!(r.next(), Ok(Event::Start("a")));
        assert_eq!(r.attrs(), &[("k", "v&amp;w"), ("j", "x")]);
        assert_eq!(r.attr("k").as_deref(), Some("v&w"));
        assert_eq!(r.attr("missing"), None);
        assert_eq!(r.next(), Ok(Event::Start("b")));
        assert!(r.attrs().is_empty(), "each start tag has its own list");
    }

    #[test]
    fn comments_and_pis_emit_nothing() {
        let evs =
            events("<?xml version='1.0'?><!-- c --><a>x<!-- y -->z<?pi?></a><!-- t -->").unwrap();
        let texts: Vec<_> = evs
            .iter()
            .filter_map(|e| match e {
                Event::Text(t) => Some(t.unescape().into_owned()),
                _ => None,
            })
            .collect();
        assert_eq!(texts, vec!["x", "z"]);
    }

    #[test]
    fn errors_are_fused() {
        let mut r = Reader::new("<a></b>");
        assert_eq!(r.next(), Ok(Event::Start("a")));
        let err = r.next().unwrap_err();
        assert_eq!(err.kind, ErrorKind::MismatchedCloseTag);
        assert_eq!(r.next(), Err(err));
    }

    #[test]
    fn skip_and_text_content_count_depth() {
        let mut r = Reader::new("<r><a> one <x><y/>deep</x> two </a><b/></r>");
        assert_eq!(r.next(), Ok(Event::Start("r")));
        assert_eq!(r.next(), Ok(Event::Start("a")));
        // Element children present: whitespace-only runs would drop,
        // these are significant and keep their spaces.
        assert_eq!(r.text_content().unwrap(), " one  two ");
        assert_eq!(r.next(), Ok(Event::Start("b")));
        r.skip_element().unwrap();
        assert_eq!(r.next(), Ok(Event::End("r")));
        assert_eq!(r.next(), Ok(Event::Eof));
    }

    #[test]
    fn deep_nesting_costs_heap_not_stack() {
        let depth = 100_000;
        let doc = format!("{}{}", "<a>".repeat(depth), "</a>".repeat(depth));
        let mut r = Reader::new(&doc);
        assert_eq!(r.next(), Ok(Event::Start("a")));
        r.skip_element().unwrap();
        assert_eq!(r.next(), Ok(Event::Eof));
        let unclosed = "<a>".repeat(depth);
        let err = events(&unclosed).unwrap_err();
        assert_eq!(err.kind, ErrorKind::UnexpectedEof);
        assert_eq!(err.at, unclosed.len());
    }

    #[test]
    fn inline_stacks_spill_and_stay_contiguous() {
        let attrs: String = (0..20).map(|i| format!(" k{i}='{i}'")).collect();
        let doc = format!("<a{attrs}/>");
        let mut r = Reader::new(&doc);
        assert_eq!(r.next(), Ok(Event::Start("a")));
        assert_eq!(r.attrs().len(), 20);
        assert_eq!(r.attrs()[19], ("k19", "19"));
        let mut s: Stack<u32, 2> = Stack::new();
        for i in 0..5 {
            s.push(i);
        }
        assert_eq!(s.as_slice(), &[0, 1, 2, 3, 4]);
        assert_eq!(s.pop(), Some(4));
        assert_eq!(s.last(), Some(3));
        s.clear();
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn local_name_strips_the_first_prefix() {
        assert_eq!(local_name("SOAP-ENV:Body"), "Body");
        assert_eq!(local_name("Body"), "Body");
        assert_eq!(local_name("a:b:c"), "b:c");
    }
}
