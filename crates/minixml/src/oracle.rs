//! The recursive-descent parser `parse_ref` ran on before the pull
//! [`Reader`](crate::Reader), kept verbatim as the test oracle: for
//! every input the tree builder must return the same tree, or the same
//! [`ParseError`], as this one.

use crate::borrowed::{ElemRef, NodeRef};
use crate::escape::unescape_cow;
use crate::parser::{ErrorKind, ParseError};

/// The recursive parse of a complete document.
pub(crate) fn parse_ref(input: &str) -> Result<ElemRef<'_>, ParseError> {
    let mut p = Parser { input, pos: 0 };
    p.skip_prologue();
    let root = p.parse_element()?;
    p.skip_misc();
    if p.pos < p.input.len() {
        return Err(p.err(ErrorKind::TrailingContent));
    }
    Ok(root)
}

struct Parser<'a> {
    input: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, kind: ErrorKind) -> ParseError {
        ParseError { at: self.pos, kind }
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn starts_with(&self, s: &str) -> bool {
        self.rest().starts_with(s)
    }

    fn bump(&mut self, n: usize) {
        self.pos += n;
    }

    fn skip_ws(&mut self) {
        let trimmed = self.rest().trim_start();
        self.pos = self.input.len() - trimmed.len();
    }

    fn skip_until(&mut self, end: &str, what: ErrorKind) -> Result<(), ParseError> {
        match self.rest().find(end) {
            Some(i) => {
                self.bump(i + end.len());
                Ok(())
            }
            None => Err(self.err(what)),
        }
    }

    /// Skips declarations, comments, PIs and DOCTYPE before the root.
    /// An unterminated construct consumes the rest of the input (the
    /// subsequent "expected '<'" error reports the real problem).
    fn skip_prologue(&mut self) {
        loop {
            self.skip_ws();
            let result = if self.starts_with("<?") {
                self.skip_until("?>", ErrorKind::UnterminatedPi)
            } else if self.starts_with("<!--") {
                self.skip_until("-->", ErrorKind::UnterminatedComment)
            } else if self.starts_with("<!DOCTYPE") {
                self.skip_until(">", ErrorKind::UnterminatedDoctype)
            } else {
                return;
            };
            if result.is_err() {
                self.pos = self.input.len();
                return;
            }
        }
    }

    /// Skips comments/PIs/whitespace after the root.
    fn skip_misc(&mut self) {
        self.skip_prologue();
    }

    fn parse_name(&mut self) -> Result<&'a str, ParseError> {
        let rest = self.rest();
        let end = rest
            .char_indices()
            .find(|(_, c)| !is_name_char(*c))
            .map(|(i, _)| i)
            .unwrap_or(rest.len());
        if end == 0 {
            return Err(self.err(ErrorKind::ExpectedName));
        }
        let name = &rest[..end];
        self.bump(end);
        Ok(name)
    }

    fn parse_element(&mut self) -> Result<ElemRef<'a>, ParseError> {
        if !self.starts_with("<") {
            return Err(self.err(ErrorKind::ExpectedElement));
        }
        self.bump(1);
        let name = self.parse_name()?;
        let mut el = ElemRef {
            name,
            attrs: Vec::new(),
            children: Vec::new(),
        };

        // Attributes.
        loop {
            self.skip_ws();
            if self.starts_with("/>") {
                self.bump(2);
                return Ok(el);
            }
            if self.starts_with(">") {
                self.bump(1);
                break;
            }
            let key = self.parse_name()?;
            self.skip_ws();
            if !self.starts_with("=") {
                return Err(self.err(ErrorKind::AttrMissingEq));
            }
            self.bump(1);
            self.skip_ws();
            let quote = match self.rest().chars().next() {
                Some(q @ ('"' | '\'')) => q,
                _ => return Err(self.err(ErrorKind::AttrValueUnquoted)),
            };
            self.bump(1);
            let rest = self.rest();
            let end = rest
                .find(quote)
                .ok_or_else(|| self.err(ErrorKind::UnterminatedAttrValue))?;
            let value = unescape_cow(&rest[..end]);
            self.bump(end + 1);
            el.attrs.push((key, value));
        }

        // Content until the matching close tag.
        loop {
            if self.starts_with("</") {
                self.bump(2);
                let close = self.parse_name()?;
                if close != el.name {
                    return Err(self.err(ErrorKind::MismatchedCloseTag));
                }
                self.skip_ws();
                if !self.starts_with(">") {
                    return Err(self.err(ErrorKind::ExpectedCloseAngle));
                }
                self.bump(1);
                // Whitespace-only text between child *elements* is
                // insignificant indentation; in a leaf element it is real
                // character data (e.g. a SOAP string value of " ").
                if el.children.iter().any(|c| matches!(c, NodeRef::Element(_))) {
                    el.children.retain(|c| match c {
                        NodeRef::Text(t) => !t.trim().is_empty(),
                        NodeRef::Element(_) => true,
                    });
                }
                return Ok(el);
            } else if self.starts_with("<!--") {
                self.skip_until("-->", ErrorKind::UnterminatedComment)?;
            } else if self.starts_with("<![CDATA[") {
                self.bump("<![CDATA[".len());
                let rest = self.rest();
                let end = rest
                    .find("]]>")
                    .ok_or_else(|| self.err(ErrorKind::UnterminatedCdata))?;
                el.children.push(NodeRef::Text(rest[..end].into()));
                self.bump(end + 3);
            } else if self.starts_with("<?") {
                self.skip_until("?>", ErrorKind::UnterminatedPi)?;
            } else if self.starts_with("<") {
                let child = self.parse_element()?;
                el.children.push(NodeRef::Element(child));
            } else if self.pos >= self.input.len() {
                return Err(self.err(ErrorKind::UnexpectedEof));
            } else {
                let rest = self.rest();
                let end = rest.find('<').unwrap_or(rest.len());
                let text = unescape_cow(&rest[..end]);
                // Kept for now; whitespace-only runs are filtered at the
                // close tag if this element turns out to be structural.
                if !text.is_empty() {
                    el.children.push(NodeRef::Text(text));
                }
                self.bump(end);
            }
        }
    }
}

fn is_name_char(c: char) -> bool {
    c.is_alphanumeric() || matches!(c, ':' | '_' | '-' | '.')
}
