//! The SOAP section-5 RPC data model.
//!
//! This is the *lingua franca* of the whole framework: the VSG carries
//! invocations as SOAP-encoded [`Value`]s, and every Protocol Conversion
//! Manager translates its middleware's native representation to and from
//! this model (exactly the role Apache SOAP's type mappings played in the
//! paper's prototype).

use minixml::{escape_text_into, local_name, Element, Event, ParseError, Reader, XmlOut};
use std::borrow::Cow;
use std::fmt;

/// How deep Structs and Arrays may nest (binval's and Jini's bound).
/// A deeper value is a [`ValueError`], so no walk over an arriving
/// value, and no drop of a decoded one, recurses further than this.
pub const MAX_DEPTH: usize = 64;

/// A dynamically typed RPC value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// The absence of a value (`xsi:null`).
    Null,
    /// `xsd:boolean`.
    Bool(bool),
    /// `xsd:int` / `xsd:long`.
    Int(i64),
    /// `xsd:double`.
    Float(f64),
    /// `xsd:string`.
    Str(String),
    /// `SOAP-ENC:base64` binary data.
    Bytes(Vec<u8>),
    /// `SOAP-ENC:Array`.
    List(Vec<Value>),
    /// A compound value with named accessors (a SOAP struct).
    Record(Vec<(String, Value)>),
}

/// The compound kinds of the data model: the elements whose child
/// elements are members (see [`Value::compound`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Compound {
    /// `SOAP-ENC:Struct`: named fields, a [`Value::Record`].
    Struct,
    /// `SOAP-ENC:Array`: items, a [`Value::List`].
    Array,
}

/// What an element's start tag says it holds, read from its `xsi:nil`
/// and `xsi:type` attributes once.
enum Shape<'a> {
    /// `xsi:nil="true"` or `xsi:type="xsi:null"`.
    Nil,
    /// A scalar of this `xsi:type` (`xsd:string` when untyped).
    Scalar(Cow<'a, str>),
    /// A Struct or an Array.
    Compound(Compound),
}

impl<'a> Shape<'a> {
    /// The shape of the element whose `Start` the reader just returned.
    fn of(r: &Reader<'a>) -> Shape<'a> {
        let ty = r.attr("xsi:type");
        if r.attr("xsi:nil").as_deref() == Some("true") || ty.as_deref() == Some("xsi:null") {
            return Shape::Nil;
        }
        match ty.as_deref() {
            Some("SOAP-ENC:Struct") => Shape::Compound(Compound::Struct),
            Some("SOAP-ENC:Array") => Shape::Compound(Compound::Array),
            _ => Shape::Scalar(ty.unwrap_or(Cow::Borrowed("xsd:string"))),
        }
    }
}

impl Value {
    /// The `xsi:type` label used on the wire.
    pub fn type_label(&self) -> &'static str {
        match self {
            Value::Null => "xsi:null",
            Value::Bool(_) => "xsd:boolean",
            Value::Int(_) => "xsd:long",
            Value::Float(_) => "xsd:double",
            Value::Str(_) => "xsd:string",
            Value::Bytes(_) => "SOAP-ENC:base64",
            Value::List(_) => "SOAP-ENC:Array",
            Value::Record(_) => "SOAP-ENC:Struct",
        }
    }

    /// Encodes as an element named `name`.
    pub fn to_element(&self, name: &str) -> Element {
        let e = Element::new(name).attr("xsi:type", self.type_label());
        match self {
            Value::Null => e.attr("xsi:nil", "true"),
            Value::Bool(b) => e.text(if *b { "true" } else { "false" }),
            Value::Int(i) => e.text(i.to_string()),
            Value::Float(f) => e.text(format_f64(*f)),
            Value::Str(s) => e.text(s.clone()),
            Value::Bytes(b) => e.text(base64_encode(b)),
            Value::List(items) => {
                let mut e = e;
                for item in items {
                    e.push(item.to_element("item"));
                }
                e
            }
            Value::Record(fields) => {
                let mut e = e;
                for (k, v) in fields {
                    e.push(v.to_element(k));
                }
                e
            }
        }
    }

    /// Streams the element encoding of `self` into `out`: byte-identical
    /// to serialising [`Value::to_element`] compactly, without building
    /// the intermediate element tree (whose every name, attribute and
    /// text run is an owned `String`). This is the marshal hot path.
    pub fn write_xml<O: XmlOut + ?Sized>(&self, name: &str, out: &mut O) {
        out.put("<");
        out.put(name);
        out.put(" xsi:type=\"");
        out.put(self.type_label());
        out.put("\"");
        let close = |out: &mut O| {
            out.put("</");
            out.put(name);
            out.put(">");
        };
        match self {
            Value::Null => out.put(" xsi:nil=\"true\"/>"),
            Value::Bool(b) => {
                out.put(">");
                out.put(if *b { "true" } else { "false" });
                close(out);
            }
            Value::Int(i) => {
                out.put(">");
                out.put_fmt(format_args!("{i}"));
                close(out);
            }
            Value::Float(f) => {
                out.put(">");
                write_f64(*f, out);
                close(out);
            }
            // Empty strings and byte runs still take the open/close
            // form — the element path stores a (possibly empty) text
            // child, which never serialises self-closing.
            Value::Str(s) => {
                out.put(">");
                escape_text_into(s, out);
                close(out);
            }
            Value::Bytes(b) => {
                out.put(">");
                base64_encode_into(b, out);
                close(out);
            }
            Value::List(items) => members_xml(name, items.len(), out, |out| {
                for item in items {
                    item.write_xml("item", out);
                }
            }),
            Value::Record(fields) => members_xml(name, fields.len(), out, |out| {
                for (k, v) in fields {
                    v.write_xml(k, out);
                }
            }),
        }
    }

    /// Decodes the element whose `Start` the reader just returned —
    /// as produced by [`Value::write_xml`] or a foreign SOAP stack
    /// using the same subset — through its `End`: the reading twin of
    /// `write_xml`. The outer error is the document's and wins over
    /// everything; the inner one is this value's. A scalar reads its
    /// element's text; a Struct's or an Array's child elements decode
    /// in document order, and the first error skips the rest of the
    /// element. Structs and Arrays nested deeper than [`MAX_DEPTH`]
    /// are an error, found where the first too-deep one opens.
    pub fn decode(r: &mut Reader<'_>) -> Result<Result<Value, ValueError>, ParseError> {
        Value::decode_within(r, MAX_DEPTH)
    }

    /// [`Value::decode`] with `depth` more levels of Structs and Arrays
    /// allowed.
    fn decode_within(
        r: &mut Reader<'_>,
        depth: usize,
    ) -> Result<Result<Value, ValueError>, ParseError> {
        let kind = match Shape::of(r) {
            Shape::Nil => {
                r.skip_element()?;
                return Ok(Ok(Value::Null));
            }
            Shape::Scalar(ty) => {
                let text = r.text_content()?;
                return Ok(Scalar::read(&ty, text).map(Scalar::into_value));
            }
            Shape::Compound(kind) => kind,
        };
        let Some(depth) = depth.checked_sub(1) else {
            r.skip_element()?;
            return Ok(Err(ValueError::too_deep()));
        };
        let mut items = Vec::new();
        let mut fields = Vec::new();
        let decoded = Value::decode_members(r, |name, r| {
            Ok(Value::decode_within(r, depth)?.map(|v| match kind {
                Compound::Struct => fields.push((name.to_owned(), v)),
                Compound::Array => items.push(v),
            }))
        })?;
        Ok(decoded.map(|()| match kind {
            Compound::Struct => Value::Record(fields),
            Compound::Array => Value::List(items),
        }))
    }

    /// Reads the element whose `Start` the reader just returned
    /// through its `End` as [`Value::decode`] would, with the same
    /// checks and the same first error, but builds no value: a string
    /// is handed over as its text, borrowed from the document unless an
    /// entity had to be unescaped, and any other value is checked and
    /// read as `None`. `depth` is how many levels of Structs and Arrays
    /// the element may nest: [`MAX_DEPTH`] for a whole reply, one fewer
    /// for each enclosing compound whose members the caller walks.
    pub fn decode_str<'a>(
        r: &mut Reader<'a>,
        depth: usize,
    ) -> Result<Result<Option<Cow<'a, str>>, ValueError>, ParseError> {
        let Shape::Scalar(ty) = Shape::of(r) else {
            return Ok(Value::check_within(r, depth)?.map(|()| None));
        };
        let text = r.text_content()?;
        Ok(Scalar::read(&ty, text).map(|scalar| match scalar {
            Scalar::Str(s) => Some(s),
            _ => None,
        }))
    }

    /// Checks the element whose `Start` the reader just returned
    /// through its `End`, exactly as [`Value::decode`] would (the same
    /// first error, or none), without building the value: a string's
    /// text is not even gathered.
    pub(crate) fn check(r: &mut Reader<'_>) -> Result<Result<(), ValueError>, ParseError> {
        Value::check_within(r, MAX_DEPTH)
    }

    fn check_within(
        r: &mut Reader<'_>,
        depth: usize,
    ) -> Result<Result<(), ValueError>, ParseError> {
        match Shape::of(r) {
            Shape::Scalar(ty) if ty != "xsd:string" => {
                let text = r.text_content()?;
                Ok(Scalar::read(&ty, text).map(drop))
            }
            Shape::Nil | Shape::Scalar(_) => r.skip_element().map(Ok),
            Shape::Compound(_) => match depth.checked_sub(1) {
                Some(depth) => Value::decode_members(r, |_, r| Value::check_within(r, depth)),
                None => {
                    r.skip_element()?;
                    Ok(Err(ValueError::too_deep()))
                }
            },
        }
    }

    /// Whether the element whose `Start` the reader just returned
    /// decodes as a Struct or an Array — the two kinds whose members
    /// [`Value::decode_members`] walks — or `None` for a scalar or a
    /// nil. Reads only the start tag.
    pub fn compound(r: &Reader<'_>) -> Option<Compound> {
        match Shape::of(r) {
            Shape::Compound(kind) => Some(kind),
            Shape::Nil | Shape::Scalar(_) => None,
        }
    }

    /// Walks the members of the compound element whose `Start` the
    /// reader just returned, through its `End`, the way
    /// [`Value::decode`] does: `member` gets each child element's local
    /// name right after its `Start` and decodes as much of it as it
    /// wants. The first member error skips the rest of the element and
    /// is the result. Callers that want a compound's members as
    /// something other than a `Value` (a typed record, say) decode
    /// them here, one at a time, instead of collecting a `Record` or a
    /// `List` first.
    pub fn decode_members<'a>(
        r: &mut Reader<'a>,
        mut member: impl FnMut(&'a str, &mut Reader<'a>) -> Result<Result<(), ValueError>, ParseError>,
    ) -> Result<Result<(), ValueError>, ParseError> {
        let mut failed = None;
        r.for_each_child(|name, r| {
            if failed.is_none() {
                failed = member(local_name(name), r)?.err();
            }
            Ok(())
        })?;
        Ok(failed.map_or(Ok(()), Err))
    }

    // ---- convenience accessors -------------------------------------------

    /// The integer inside, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The string inside, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean inside, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// A named field, if this is a `Record`.
    pub fn field(&self, name: &str) -> Option<&Value> {
        match self {
            Value::Record(fields) => fields.iter().find(|(k, _)| k == name).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// A scalar read from its element's text and checked: what
/// [`Value::decode`] makes of it, short of the copy into a `Value`.
enum Scalar<'t> {
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(Cow<'t, str>),
    /// Checked base64 text; decoded by [`Scalar::into_value`].
    Base64(Cow<'t, str>),
}

impl<'t> Scalar<'t> {
    /// The scalar of `xsi:type` `ty` whose element's text is `text`.
    fn read(ty: &str, text: Cow<'t, str>) -> Result<Scalar<'t>, ValueError> {
        match ty {
            "xsd:boolean" => match text.trim() {
                "true" | "1" => Ok(Scalar::Bool(true)),
                "false" | "0" => Ok(Scalar::Bool(false)),
                other => Err(ValueError::new(format!("bad boolean '{other}'"))),
            },
            "xsd:int" | "xsd:long" | "xsd:short" | "xsd:byte" => text
                .trim()
                .parse::<i64>()
                .map(Scalar::Int)
                .map_err(|_| ValueError::new(format!("bad integer '{text}'"))),
            "xsd:double" | "xsd:float" | "xsd:decimal" => text
                .trim()
                .parse::<f64>()
                .map(Scalar::Float)
                .map_err(|_| ValueError::new(format!("bad double '{text}'"))),
            "xsd:string" => Ok(Scalar::Str(text)),
            "SOAP-ENC:base64" | "xsd:base64Binary" => {
                if base64_walk(text.trim(), |_| {}) {
                    Ok(Scalar::Base64(text))
                } else {
                    Err(ValueError::new("bad base64 payload"))
                }
            }
            other => Err(ValueError::new(format!("unsupported xsi:type '{other}'"))),
        }
    }

    fn into_value(self) -> Value {
        match self {
            Scalar::Bool(b) => Value::Bool(b),
            Scalar::Int(i) => Value::Int(i),
            Scalar::Float(f) => Value::Float(f),
            Scalar::Str(s) => Value::Str(s.into_owned()),
            Scalar::Base64(text) => Value::Bytes(base64_decode(text.trim()).unwrap_or_default()),
        }
    }
}

/// A value element read in place from a document already checked
/// (the arguments of a [`crate::CallRef`], and their members): what
/// [`Value::decode`] would build from it, read a piece at a time. A
/// string is a slice of the document unless an entity had to be
/// unescaped; nothing else is copied until [`ValueRef::to_owned`].
#[derive(Debug, Clone, Copy)]
pub struct ValueRef<'a> {
    /// The document from the element's start tag on.
    xml: &'a str,
}

impl<'a> ValueRef<'a> {
    /// The value element whose start tag is at byte `at` of `doc`.
    pub(crate) fn at(doc: &'a str, at: usize) -> ValueRef<'a> {
        ValueRef { xml: &doc[at..] }
    }

    /// A reader that has just returned the element's `Start`.
    fn reader(&self) -> Reader<'a> {
        let mut r = Reader::new(self.xml);
        let _ = r.next();
        r
    }

    fn scalar(&self) -> Option<Scalar<'a>> {
        let mut r = self.reader();
        let Shape::Scalar(ty) = Shape::of(&r) else {
            return None;
        };
        Scalar::read(&ty, r.text_content().ok()?).ok()
    }

    /// The string, if the value is a `Str` ([`Value::as_str`]).
    pub fn as_str(&self) -> Option<Cow<'a, str>> {
        match self.scalar()? {
            Scalar::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer, if the value is an `Int` ([`Value::as_int`]).
    pub fn as_int(&self) -> Option<i64> {
        match self.scalar()? {
            Scalar::Int(i) => Some(i),
            _ => None,
        }
    }

    /// The boolean, if the value is a `Bool` ([`Value::as_bool`]).
    pub fn as_bool(&self) -> Option<bool> {
        match self.scalar()? {
            Scalar::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// Whether the value is a Struct or an Array ([`Value::compound`]).
    pub fn compound(&self) -> Option<Compound> {
        Value::compound(&self.reader())
    }

    /// A Struct's fields or an Array's items in document order, each
    /// with its element's local name (an Array's are `item`); nothing
    /// for any other value.
    pub fn members(&self) -> Members<'a> {
        let r = self.reader();
        Members {
            xml: self.xml,
            r: Value::compound(&r).map(|_| r),
        }
    }

    /// The owned value: what [`Value::decode`] gives for the element.
    pub fn to_owned(&self) -> Value {
        match Value::decode(&mut self.reader()) {
            Ok(Ok(v)) => v,
            // A view is only made over a checked document.
            _ => Value::Null,
        }
    }
}

/// The members of a Struct or an Array [`ValueRef`], read in place.
#[derive(Debug)]
pub struct Members<'a> {
    xml: &'a str,
    /// Inside the compound element; `None` once it has closed.
    r: Option<Reader<'a>>,
}

impl<'a> Iterator for Members<'a> {
    type Item = (&'a str, ValueRef<'a>);

    fn next(&mut self) -> Option<Self::Item> {
        let r = self.r.as_mut()?;
        loop {
            match r.next() {
                Ok(Event::Start(name)) => {
                    let member = ValueRef::at(self.xml, r.tag_offset());
                    let _ = r.skip_element();
                    return Some((local_name(name), member));
                }
                Ok(Event::Text(_)) => {}
                _ => {
                    self.r = None;
                    return None;
                }
            }
        }
    }
}

/// Writes a Struct (`kind` [`Compound::Struct`]) or an Array element
/// named `name` with `len` members, which `members` writes: the bytes
/// [`Value::write_xml`] gives for a `Record` or a `List` of those
/// members, for a writer that has them as something other than
/// `Value`s.
pub fn write_compound_xml<O: XmlOut + ?Sized>(
    kind: Compound,
    name: &str,
    len: usize,
    out: &mut O,
    members: impl FnOnce(&mut O),
) {
    out.put("<");
    out.put(name);
    out.put(match kind {
        Compound::Struct => " xsi:type=\"SOAP-ENC:Struct\"",
        Compound::Array => " xsi:type=\"SOAP-ENC:Array\"",
    });
    members_xml(name, len, out, members);
}

/// The rest of a compound element after its `xsi:type`: self-closing
/// when it has no members.
fn members_xml<O: XmlOut + ?Sized>(
    name: &str,
    len: usize,
    out: &mut O,
    members: impl FnOnce(&mut O),
) {
    if len == 0 {
        out.put("/>");
        return;
    }
    out.put(">");
    members(out);
    out.put("</");
    out.put(name);
    out.put(">");
}

/// Writes the element `Value::Str(s.to_owned()).write_xml(name, out)`
/// writes, from the borrowed string.
pub fn write_str_xml<O: XmlOut + ?Sized>(name: &str, s: &str, out: &mut O) {
    out.put("<");
    out.put(name);
    out.put(" xsi:type=\"xsd:string\">");
    escape_text_into(s, out);
    out.put("</");
    out.put(name);
    out.put(">");
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Bytes(b) => write!(f, "<{} bytes>", b.len()),
            Value::List(items) => {
                write!(f, "[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Value::Record(fields) => {
                write!(f, "{{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k}: {v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Value {
        Value::Int(i)
    }
}
impl From<i32> for Value {
    fn from(i: i32) -> Value {
        Value::Int(i64::from(i))
    }
}
impl From<f64> for Value {
    fn from(f: f64) -> Value {
        Value::Float(f)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_owned())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}
impl From<Vec<u8>> for Value {
    fn from(b: Vec<u8>) -> Value {
        Value::Bytes(b)
    }
}

fn format_f64(f: f64) -> String {
    let mut out = String::new();
    write_f64(f, &mut out);
    out
}

/// [`format_f64`] written into the caller's sink (no intermediate
/// `String` on the marshal hot path).
fn write_f64<O: XmlOut + ?Sized>(f: f64, out: &mut O) {
    // Keep integral doubles distinguishable from xsd:long on re-parse.
    if f.fract() == 0.0 && f.is_finite() && f.abs() < 1e15 {
        out.put_fmt(format_args!("{f:.1}"));
    } else {
        out.put_fmt(format_args!("{f}"));
    }
}

/// A value encode/decode failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValueError {
    /// What went wrong.
    pub message: String,
}

impl ValueError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        ValueError {
            message: message.into(),
        }
    }

    /// A Struct or Array nested deeper than [`MAX_DEPTH`].
    fn too_deep() -> Self {
        ValueError::new(format!("nesting deeper than {MAX_DEPTH} levels"))
    }
}

impl fmt::Display for ValueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SOAP value error: {}", self.message)
    }
}

impl std::error::Error for ValueError {}

const B64: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Standard base64 (RFC 2045 alphabet, `=` padding).
pub fn base64_encode(data: &[u8]) -> String {
    let mut out = String::with_capacity(data.len().div_ceil(3) * 4);
    base64_encode_into(data, &mut out);
    out
}

/// [`base64_encode`] written into the caller's sink.
fn base64_encode_into<O: XmlOut + ?Sized>(data: &[u8], out: &mut O) {
    for chunk in data.chunks(3) {
        let b = [
            chunk[0],
            chunk.get(1).copied().unwrap_or(0),
            chunk.get(2).copied().unwrap_or(0),
        ];
        let n = (u32::from(b[0]) << 16) | (u32::from(b[1]) << 8) | u32::from(b[2]);
        let quad = [
            B64[(n >> 18) as usize & 63],
            B64[(n >> 12) as usize & 63],
            if chunk.len() > 1 {
                B64[(n >> 6) as usize & 63]
            } else {
                b'='
            },
            if chunk.len() > 2 {
                B64[n as usize & 63]
            } else {
                b'='
            },
        ];
        out.put(std::str::from_utf8(&quad).expect("base64 alphabet is ASCII"));
    }
}

/// Inverse of [`base64_encode`]. Returns `None` on malformed input.
pub fn base64_decode(s: &str) -> Option<Vec<u8>> {
    let digits = s.bytes().filter(|b| !b.is_ascii_whitespace()).count();
    let mut out = Vec::with_capacity(digits / 4 * 3);
    base64_walk(s, |b| out.push(b)).then_some(out)
}

/// Decodes base64 text byte by byte into `emit`, ignoring whitespace;
/// `false` if the text is malformed. Checking a payload this way
/// allocates nothing.
fn base64_walk(s: &str, mut emit: impl FnMut(u8)) -> bool {
    fn val(c: u8) -> Option<u32> {
        match c {
            b'A'..=b'Z' => Some(u32::from(c - b'A')),
            b'a'..=b'z' => Some(u32::from(c - b'a') + 26),
            b'0'..=b'9' => Some(u32::from(c - b'0') + 52),
            b'+' => Some(62),
            b'/' => Some(63),
            _ => None,
        }
    }
    let mut digits = s.bytes().filter(|b| !b.is_ascii_whitespace());
    if !digits.clone().count().is_multiple_of(4) {
        return false;
    }
    let mut chunk = [0u8; 4];
    loop {
        for (i, slot) in chunk.iter_mut().enumerate() {
            match digits.next() {
                Some(c) => *slot = c,
                // The count is a multiple of four: only a whole chunk ends.
                None if i == 0 => return true,
                None => return false,
            }
        }
        let pad = chunk.iter().rev().take_while(|&&c| c == b'=').count();
        if pad > 2 {
            return false;
        }
        let mut n: u32 = 0;
        for (i, &c) in chunk.iter().enumerate() {
            let v = if c == b'=' {
                if i < 4 - pad {
                    return false;
                }
                0
            } else {
                match val(c) {
                    Some(v) => v,
                    None => return false,
                }
            };
            n = (n << 6) | v;
        }
        emit((n >> 16) as u8);
        if pad < 2 {
            emit((n >> 8) as u8);
        }
        if pad < 1 {
            emit(n as u8);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Decodes a document whose root element is one value.
    fn decode(doc: &str) -> Result<Value, ValueError> {
        let mut r = Reader::new(doc);
        r.next().unwrap();
        Value::decode(&mut r).unwrap()
    }

    fn round_trip(v: &Value) -> Value {
        decode(&v.to_element("arg").to_document()).unwrap()
    }

    #[test]
    fn scalars_round_trip() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(-42),
            Value::Int(i64::MAX),
            Value::Float(3.25),
            Value::Float(-0.5),
            Value::Str("hello <world> & friends".into()),
            Value::Str(String::new()),
            Value::Bytes(vec![0, 1, 2, 255, 254]),
            Value::Bytes(Vec::new()),
        ] {
            assert_eq!(round_trip(&v), v, "round-trip of {v}");
        }
    }

    #[test]
    fn integral_float_stays_float() {
        assert_eq!(round_trip(&Value::Float(2.0)), Value::Float(2.0));
    }

    #[test]
    fn compounds_round_trip() {
        let v = Value::Record(vec![
            ("channel".into(), Value::Int(42)),
            ("title".into(), Value::Str("News".into())),
            (
                "tags".into(),
                Value::List(vec![Value::Str("tv".into()), Value::Str("live".into())]),
            ),
            (
                "nested".into(),
                Value::Record(vec![("x".into(), Value::Null)]),
            ),
        ]);
        assert_eq!(round_trip(&v), v);
    }

    #[test]
    fn untyped_elements_decode_as_strings() {
        // Lenient like Apache SOAP: missing xsi:type means string.
        assert_eq!(
            decode("<arg>plain</arg>").unwrap(),
            Value::Str("plain".into())
        );
    }

    #[test]
    fn bad_payloads_are_errors_not_panics() {
        for xml in [
            r#"<a xsi:type="xsd:int">notanumber</a>"#,
            r#"<a xsi:type="xsd:boolean">maybe</a>"#,
            r#"<a xsi:type="xsd:double">NaNish</a>"#,
            r#"<a xsi:type="SOAP-ENC:base64">!!!</a>"#,
            r#"<a xsi:type="vendor:custom">x</a>"#,
        ] {
            assert!(decode(xml).is_err(), "{xml}");
        }
    }

    #[test]
    fn accessors() {
        let v = Value::Record(vec![("n".into(), Value::Int(5))]);
        assert_eq!(v.field("n").and_then(Value::as_int), Some(5));
        assert_eq!(v.field("missing"), None);
        assert_eq!(Value::Str("s".into()).as_str(), Some("s"));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Int(1).as_str(), None);
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from(3i32), Value::Int(3));
        assert_eq!(Value::from("x"), Value::Str("x".into()));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from(vec![1u8]), Value::Bytes(vec![1]));
    }

    #[test]
    fn base64_known_vectors() {
        assert_eq!(base64_encode(b""), "");
        assert_eq!(base64_encode(b"f"), "Zg==");
        assert_eq!(base64_encode(b"fo"), "Zm8=");
        assert_eq!(base64_encode(b"foo"), "Zm9v");
        assert_eq!(base64_encode(b"foobar"), "Zm9vYmFy");
        assert_eq!(base64_decode("Zm9vYmFy").unwrap(), b"foobar");
        assert_eq!(base64_decode("Zg==").unwrap(), b"f");
        assert!(base64_decode("Zg=").is_none());
        assert!(base64_decode("====").is_none());
        assert!(base64_decode("Z*==").is_none());
    }

    fn edge_values() -> Vec<Value> {
        vec![
            Value::Null,
            Value::Str(String::new()),
            Value::Bytes(Vec::new()),
            Value::List(Vec::new()),
            Value::Record(Vec::new()),
            Value::Float(2.0),
            Value::Str("a <b> & \"c\"".into()),
            Value::Record(vec![
                ("l".into(), Value::List(vec![Value::Null, Value::Int(1)])),
                ("b".into(), Value::Bytes(vec![1, 2, 3])),
            ]),
        ]
    }

    #[test]
    fn streamed_marshal_matches_element_path() {
        // The streaming writer must stay byte-identical to serialising
        // the element tree — including the self-closing/open-close
        // distinction for empty values.
        for v in edge_values() {
            let mut streamed = String::new();
            v.write_xml("arg", &mut streamed);
            assert_eq!(streamed, v.to_element("arg").to_xml(), "value {v}");
        }
    }

    #[test]
    fn streamed_decode_matches_tree_oracle() {
        for v in edge_values() {
            let doc = v.to_element("arg").to_document();
            let tree =
                crate::oracle::value_from_element_ref(&minixml::parse_ref(&doc).unwrap()).unwrap();
            assert_eq!(decode(&doc).unwrap(), tree, "value {v}");
            assert_eq!(tree, v, "value {v}");
        }
        // Bad payloads fail identically on both paths, and a scalar's
        // child elements are skipped, not decoded.
        for xml in [
            r#"<a xsi:type="xsd:int">notanumber</a>"#,
            r#"<a xsi:type="vendor:custom">x</a>"#,
            r#"<a xsi:type="xsd:int"> 7 <b xsi:type="bogus"/></a>"#,
            r#"<a xsi:type="SOAP-ENC:Struct"><b xsi:type="xsd:int">x</b><c xsi:type="bogus"/></a>"#,
            r#"<a xsi:type="xsd:string"> <b/> </a>"#,
            r#"<a xsi:type="xsd:&#115;tring" xsi:nil="false">&lt;x&gt;</a>"#,
        ] {
            let tree = crate::oracle::value_from_element_ref(&minixml::parse_ref(xml).unwrap());
            assert_eq!(decode(xml), tree, "{xml}");
        }
    }

    #[test]
    fn borrowed_string_read_agrees_with_decode() {
        let mut docs: Vec<String> = edge_values()
            .iter()
            .chain(&[Value::Str("plain".into()), Value::Int(7)])
            .map(|v| v.to_element("arg").to_document())
            .collect();
        docs.extend(
            [
                "<a>untyped</a>",
                r#"<a xsi:type="xsd:string">a &amp; b</a>"#,
                r#"<a xsi:type="xsd:&#115;tring">&lt;x&gt;</a>"#,
                r#"<a xsi:type="xsd:string"> <b/> </a>"#,
                r#"<a xsi:type="xsd:int">notanumber</a>"#,
                r#"<a xsi:type="vendor:custom">x</a>"#,
                r#"<a xsi:type="SOAP-ENC:Struct"><b xsi:type="xsd:int">x</b></a>"#,
                r#"<a xsi:type="xsd:string" xsi:nil="true">x</a>"#,
            ]
            .map(String::from),
        );
        docs.push(nested(MAX_DEPTH + 1, false));
        for doc in &docs {
            let mut r = Reader::new(doc);
            r.next().unwrap();
            let borrowed = Value::decode_str(&mut r, MAX_DEPTH).unwrap();
            assert_eq!(r.next(), Ok(Event::Eof), "{doc}: read through");
            let want = decode(doc).map(|v| match v {
                Value::Str(s) => Some(s),
                _ => None,
            });
            assert_eq!(borrowed.map(|s| s.map(Cow::into_owned)), want, "{doc}");
        }
        let mut r = Reader::new(r#"<a xsi:type="xsd:string">no escapes</a>"#);
        r.next().unwrap();
        assert!(matches!(
            Value::decode_str(&mut r, MAX_DEPTH),
            Ok(Ok(Some(Cow::Borrowed("no escapes"))))
        ));
    }

    /// `depth` Structs (or Arrays) nested around an int, as text.
    fn nested(depth: usize, array: bool) -> String {
        let (open, close, leaf) = if array {
            ("<item xsi:type=\"SOAP-ENC:Array\">", "</item>", "item")
        } else {
            ("<f xsi:type=\"SOAP-ENC:Struct\">", "</f>", "n")
        };
        format!(
            "{}<{leaf} xsi:type=\"xsd:long\">1</{leaf}>{}",
            open.repeat(depth),
            close.repeat(depth)
        )
    }

    #[test]
    fn nesting_is_bounded() {
        for array in [false, true] {
            let deepest = nested(MAX_DEPTH, array);
            let v = decode(&deepest).expect("MAX_DEPTH levels decode");
            let mut again = String::new();
            v.write_xml(if array { "item" } else { "f" }, &mut again);
            assert_eq!(again, deepest);
            for too_deep in [nested(MAX_DEPTH + 1, array), nested(100_000, array)] {
                let err = decode(&too_deep).unwrap_err();
                assert_eq!(err.message, "nesting deeper than 64 levels");
                let mut r = Reader::new(&too_deep);
                r.next().unwrap();
                assert_eq!(Value::check(&mut r), Ok(Err(err)));
                assert_eq!(r.next(), Ok(Event::Eof), "the rest was read");
            }
        }
        // An earlier error at a shallower level comes first.
        let doc = format!(
            "<r xsi:type=\"SOAP-ENC:Struct\"><b xsi:type=\"xsd:int\">x</b>{}</r>",
            nested(100, false)
        );
        assert_eq!(decode(&doc).unwrap_err().message, "bad integer 'x'");
    }

    #[test]
    fn base64_checks_without_decoding_agree_with_the_decoder() {
        for text in [
            "",
            "Zg==",
            "Zm9v YmFy",
            "Zg=",
            "====",
            "Z*==",
            "Zg==Zg==",
            "Z===",
            "QUJD\nREVG",
        ] {
            assert_eq!(
                base64_walk(text, |_| {}),
                base64_decode(text).is_some(),
                "{text:?}"
            );
        }
    }

    #[test]
    fn display_is_readable() {
        let v = Value::Record(vec![
            ("a".into(), Value::Int(1)),
            ("b".into(), Value::List(vec![Value::Bool(true)])),
        ]);
        assert_eq!(v.to_string(), "{a: 1, b: [true]}");
    }
}
