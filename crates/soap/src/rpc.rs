//! SOAP 1.1 RPC envelopes: calls, responses, and their wire encoding.
//!
//! Envelopes decode in one pass over the pull [`Reader`]. A call is
//! read through [`CallRef`], a view that checks the whole envelope
//! once and records where the method, the namespace, each argument and
//! each header entry are, so a handler reads them in place and copies
//! only what it keeps. A response decoder keeps only the return value
//! or the fault. Everything else — extra Body children, unused header
//! subtrees — is skipped by counting depth, so no element tree is
//! built and nesting costs no call stack. When a document has several
//! problems the first of these wins, as it would on the parsed tree:
//! an XML error anywhere in the document; a root that is not an
//! `Envelope`; no `Body`; an empty `Body`; then the first value error
//! in document order.

use crate::fault::{Fault, FaultParts};
use crate::http::HttpError;
use crate::value::{write_str_xml, Value, ValueError, ValueRef};
use minixml::{
    escape_attr_into, escape_text_into, local_name, unescape_cow, Element, Event, Measure,
    ParseError, Reader, Stack, XmlOut,
};
use std::borrow::Cow;
use std::fmt;

const ENVELOPE_NS: &str = "http://schemas.xmlsoap.org/soap/envelope/";
const ENCODING_NS: &str = "http://schemas.xmlsoap.org/soap/encoding/";
const XSD_NS: &str = "http://www.w3.org/2001/XMLSchema";
const XSI_NS: &str = "http://www.w3.org/2001/XMLSchema-instance";

/// An RPC invocation: `method` on the service identified by `namespace`,
/// with named arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct RpcCall {
    /// Target service namespace, e.g. `urn:vsg:vcr`.
    pub namespace: String,
    /// Operation name.
    pub method: String,
    /// Named arguments, in call order.
    pub args: Vec<(String, Value)>,
    /// Out-of-band `SOAP-ENV:Header` entries as `(local-name, text)`
    /// pairs — metadata (e.g. a trace context) that rides the envelope
    /// without polluting the method arguments.
    pub headers: Vec<(String, String)>,
}

impl RpcCall {
    /// Creates a call with no arguments.
    pub fn new(namespace: impl Into<String>, method: impl Into<String>) -> Self {
        RpcCall {
            namespace: namespace.into(),
            method: method.into(),
            args: Vec::new(),
            headers: Vec::new(),
        }
    }

    /// Adds an argument (builder style).
    pub fn arg(mut self, name: impl Into<String>, value: impl Into<Value>) -> Self {
        self.args.push((name.into(), value.into()));
        self
    }

    /// Adds a header entry (builder style).
    pub fn header(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// Encodes as a complete SOAP envelope document.
    pub fn to_envelope(&self) -> String {
        call_envelope_with_headers(
            &self.namespace,
            &self.method,
            self.arg_refs(),
            &self.headers,
        )
    }

    /// The arguments as borrowed `(name, value)` pairs.
    pub(crate) fn arg_refs(&self) -> impl Iterator<Item = (&str, &Value)> + Clone {
        self.args.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Decodes a call envelope: [`CallRef::to_owned`] over
    /// [`CallRef::parse`], so it accepts exactly what the view does.
    pub fn from_envelope(doc: &str) -> Result<RpcCall, SoapError> {
        CallRef::parse(doc).map(|call| call.to_owned())
    }

    /// Looks up an argument by name.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.args.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// Looks up a header entry by local name.
    pub fn get_header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// How many arguments and header entries a [`CallRef`] notes inline;
/// more spill to the heap.
const INLINE_ARGS: usize = 8;
const INLINE_HEADERS: usize = 2;

/// A call envelope read in place. [`CallRef::parse`] checks the whole
/// document in one pass — XML, envelope structure and every argument's
/// value, with the errors and precedence of the module docs — and
/// notes where the call element's parts are. The method, the namespace
/// and string values are then slices of the document (`Cow` only where
/// an entity had to be unescaped), and any other value is decoded when
/// it is asked for. Parsing allocates nothing for a call of up to
/// eight arguments and two header entries.
#[derive(Debug)]
pub struct CallRef<'a> {
    doc: &'a str,
    /// The call element's first `xmlns…` attribute, still escaped.
    namespace: &'a str,
    method: &'a str,
    /// Each argument's local name and the offset of its start tag.
    args: Stack<(&'a str, usize), INLINE_ARGS>,
    /// Each entry of the first Header: its local name and offset.
    headers: Stack<(&'a str, usize), INLINE_HEADERS>,
}

impl<'a> CallRef<'a> {
    /// Checks a call envelope and returns its view, or the error
    /// [`RpcCall::from_envelope`] reports for it.
    pub fn parse(doc: &'a str) -> Result<CallRef<'a>, SoapError> {
        let mut headers = Stack::new();
        let call = read_envelope(
            doc,
            |r| {
                r.for_each_child(|name, r| {
                    headers.push((local_name(name), r.tag_offset()));
                    Ok(())
                })
            },
            |r| read_body(r, |name, r| read_call(doc, name, r)),
        )?;
        Ok(CallRef { headers, ..call })
    }

    /// The target service namespace.
    pub fn namespace(&self) -> Cow<'a, str> {
        unescape_cow(self.namespace)
    }

    /// The operation name: the call element's local name.
    pub fn method(&self) -> &'a str {
        self.method
    }

    /// The arguments in call order, each with its name.
    pub fn args(&self) -> impl ExactSizeIterator<Item = (&'a str, ValueRef<'a>)> + '_ {
        self.args
            .as_slice()
            .iter()
            .map(|&(name, at)| (name, ValueRef::at(self.doc, at)))
    }

    /// The first argument named `name`, as [`RpcCall::get`] finds it.
    pub fn get(&self, name: &str) -> Option<ValueRef<'a>> {
        self.args().find(|&(k, _)| k == name).map(|(_, v)| v)
    }

    /// The header entries in document order: local name and text.
    pub fn headers(&self) -> impl Iterator<Item = (&'a str, Cow<'a, str>)> + '_ {
        self.headers
            .as_slice()
            .iter()
            .map(|&(name, at)| (name, self.header_text(at)))
    }

    /// The text of the first header entry named `name`, as
    /// [`RpcCall::get_header`] finds it.
    pub fn get_header(&self, name: &str) -> Option<Cow<'a, str>> {
        let &(_, at) = self.headers.as_slice().iter().find(|(k, _)| *k == name)?;
        Some(self.header_text(at))
    }

    /// The owned call, with every argument decoded.
    pub fn to_owned(&self) -> RpcCall {
        RpcCall {
            namespace: self.namespace().into_owned(),
            method: self.method.to_owned(),
            args: self
                .args()
                .map(|(name, v)| (name.to_owned(), v.to_owned()))
                .collect(),
            headers: self
                .headers()
                .map(|(name, text)| (name.to_owned(), text.into_owned()))
                .collect(),
        }
    }

    /// The text of the header entry whose start tag is at `at`.
    fn header_text(&self, at: usize) -> Cow<'a, str> {
        let mut r = Reader::new(&self.doc[at..]);
        let _ = r.next();
        r.text_content().unwrap_or_default()
    }
}

/// One argument a call is written from: a borrowed [`Value`], a
/// borrowed string, written as the `Value::Str` it stands for, so a
/// caller need not copy a name into a `Value` to send it, or a writer
/// of its own element, for a caller that holds the value as something
/// other than a `Value`.
#[derive(Clone, Copy)]
pub enum Arg<'a> {
    /// Any value.
    Value(&'a Value),
    /// A string.
    Str(&'a str),
    /// Writes the argument's element, named as it is given: the bytes
    /// [`Value::write_xml`] gives for the value it stands for. It runs
    /// twice per call, once into a counter and once into the message.
    Write(&'a dyn Fn(&str, &mut dyn XmlOut)),
}

impl Arg<'_> {
    fn write_xml<O: XmlOut>(self, name: &str, out: &mut O) {
        match self {
            Arg::Value(v) => v.write_xml(name, out),
            Arg::Str(s) => write_str_xml(name, s, out),
            Arg::Write(write) => write(name, out),
        }
    }
}

impl fmt::Debug for Arg<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Arg::Value(v) => f.debug_tuple("Value").field(v).finish(),
            Arg::Str(s) => f.debug_tuple("Str").field(s).finish(),
            Arg::Write(_) => f.write_str("Write(..)"),
        }
    }
}

impl<'a> From<&'a Value> for Arg<'a> {
    fn from(v: &'a Value) -> Arg<'a> {
        Arg::Value(v)
    }
}

impl<'a> From<&'a str> for Arg<'a> {
    fn from(s: &'a str) -> Arg<'a> {
        Arg::Str(s)
    }
}

/// The result of an RPC: the return value, tagged with the method name.
#[derive(Debug, Clone, PartialEq)]
pub struct RpcResponse {
    /// The method this responds to.
    pub method: String,
    /// The return value (`Value::Null` for void methods).
    pub value: Value,
}

impl RpcResponse {
    /// Creates a response.
    pub fn new(method: impl Into<String>, value: impl Into<Value>) -> Self {
        RpcResponse {
            method: method.into(),
            value: value.into(),
        }
    }

    /// Encodes as a complete SOAP envelope document, streamed straight
    /// into an exactly sized string (no element tree).
    pub fn to_envelope(&self) -> String {
        let mut len = Measure::default();
        write_response(&mut len, &self.method, |out| {
            self.value.write_xml("return", out)
        });
        let mut out = String::with_capacity(len.0);
        write_response(&mut out, &self.method, |out| {
            self.value.write_xml("return", out)
        });
        out
    }

    /// Decodes a response envelope in one pass, surfacing a carried
    /// fault as `Err(SoapError::Fault)`.
    pub fn from_envelope(doc: &str) -> Result<RpcResponse, SoapError> {
        read_envelope(doc, Reader::skip_element, |r| {
            read_body(r, |name, r| {
                let value = read_return(name, r, Value::decode)?;
                let local = local_name(name);
                let method = local.strip_suffix("Response").unwrap_or(local);
                Ok(value.map(|value| RpcResponse::new(method, value.unwrap_or(Value::Null))))
            })
        })
    }
}

/// Decodes a response envelope in one pass, handing its `return`
/// element to `decode`: what a client keeps of an answer, without the
/// method name and without a `Value` unless `decode` builds one. A
/// carried fault is `Err(SoapError::Fault)`; `Ok(None)` is a response
/// with no `return` element (a `Value` reads that as `Null`).
/// [`Value::decode`] as `decode` gives what
/// [`RpcResponse::from_envelope`] gives, so this is the one walker of
/// every reply, whatever it decodes into.
pub fn decode_response<T>(
    doc: &str,
    mut decode: impl FnMut(&mut Reader<'_>) -> Result<Result<T, ValueError>, ParseError>,
) -> Result<Option<T>, SoapError> {
    read_envelope(doc, Reader::skip_element, |r| {
        read_body(r, |name, r| read_return(name, r, &mut decode))
    })
}

/// Decodes a response envelope in one pass, as [`decode_response`]
/// with [`Value::decode`] does, and hands its `return` element to
/// `read` as a checked in-place view (`None` for a response without
/// one) instead of building the value.
pub(crate) fn read_response<T>(
    doc: &str,
    read: impl FnOnce(Option<ValueRef<'_>>) -> T,
) -> Result<T, SoapError> {
    let at = decode_response(doc, |r| {
        let at = r.tag_offset();
        Ok(Value::check(r)?.map(|()| at))
    })?;
    Ok(read(at.map(|at| ValueRef::at(doc, at))))
}

/// Walks an envelope. `header` consumes the first `Header` element and
/// `body` the first `Body` element, each from just after its `Start`;
/// every other child of the Envelope is skipped. XML errors propagate
/// at once; the SOAP errors wait until the whole document has been
/// read, so an XML error anywhere wins.
pub(crate) fn read_envelope<'a, T>(
    doc: &'a str,
    mut header: impl FnMut(&mut Reader<'a>) -> Result<(), ParseError>,
    mut body: impl FnMut(&mut Reader<'a>) -> Result<Result<T, SoapError>, ParseError>,
) -> Result<T, SoapError> {
    let mut r = Reader::new(doc);
    let Event::Start(root) = r.next()? else {
        unreachable!("a document's first event is its root's start tag")
    };
    if local_name(root) != "Envelope" {
        r.skip_element()?;
        r.next()?;
        return Err(SoapError::malformed(format!(
            "root element is <{root}>, not an Envelope"
        )));
    }
    let mut seen_header = false;
    let mut outcome = None;
    r.for_each_child(|name, r| match local_name(name) {
        "Header" if !seen_header => {
            seen_header = true;
            header(r)
        }
        "Body" if outcome.is_none() => {
            outcome = Some(body(r)?);
            Ok(())
        }
        _ => r.skip_element(),
    })?;
    r.next()?;
    outcome.unwrap_or_else(|| Err(SoapError::malformed("Envelope has no Body")))
}

/// Reads a `Body`: `read` gets its first child element, the rest are
/// skipped. A Body with no child element is an empty SOAP body.
pub(crate) fn read_body<'a, T>(
    r: &mut Reader<'a>,
    mut read: impl FnMut(&'a str, &mut Reader<'a>) -> Result<Result<T, SoapError>, ParseError>,
) -> Result<Result<T, SoapError>, ParseError> {
    let mut outcome = None;
    r.for_each_child(|name, r| {
        if outcome.is_some() {
            return r.skip_element();
        }
        outcome = Some(read(name, r)?);
        Ok(())
    })?;
    Ok(outcome.unwrap_or_else(|| Err(SoapError::malformed("empty SOAP body"))))
}

/// Reads the call element `name` of `doc`: notes its namespace (the
/// first `xmlns…` attribute) and where each argument starts, and
/// checks each argument's value. The first value error skips the rest.
fn read_call<'a>(
    doc: &'a str,
    name: &'a str,
    r: &mut Reader<'a>,
) -> Result<Result<CallRef<'a>, SoapError>, ParseError> {
    let namespace = r
        .attrs()
        .iter()
        .find(|(k, _)| k.starts_with("xmlns"))
        .map_or("", |&(_, v)| v);
    let mut args = Stack::new();
    let mut failed = None;
    r.for_each_child(|arg, r| {
        if failed.is_none() {
            args.push((local_name(arg), r.tag_offset()));
            failed = Value::check(r)?.err();
        }
        Ok(())
    })?;
    Ok(match failed {
        Some(e) => Err(e.into()),
        None => Ok(CallRef {
            doc,
            namespace,
            method: local_name(name),
            args,
            headers: Stack::new(),
        }),
    })
}

/// Reads a response's first Body element `name`: its first `return`
/// child through `decode` (`None` without one), or — when it is a
/// `Fault` with a known code and a `faultstring` — the fault, which
/// wins over a value error. A `Fault` with an unknown code reads as an
/// ordinary response.
fn read_return<'a, T>(
    name: &'a str,
    r: &mut Reader<'a>,
    mut decode: impl FnMut(&mut Reader<'a>) -> Result<Result<T, ValueError>, ParseError>,
) -> Result<Result<Option<T>, SoapError>, ParseError> {
    let mut fault = (local_name(name) == "Fault").then(FaultParts::default);
    let mut value = None;
    r.for_each_child(|child, r| {
        let child = local_name(child);
        if let Some(parts) = &mut fault {
            if parts.take(child, r)? {
                return Ok(());
            }
        }
        if child == "return" && value.is_none() {
            value = Some(decode(r)?);
            return Ok(());
        }
        r.skip_element()
    })?;
    if let Some(fault) = fault.and_then(FaultParts::into_fault) {
        return Ok(Err(SoapError::Fault(fault)));
    }
    Ok(value.transpose().map_err(SoapError::from))
}

/// Encodes a call envelope directly from borrowed parts — bit-identical
/// to building an [`RpcCall`] and calling [`RpcCall::to_envelope`], but
/// without cloning the argument list into an owned value first.
pub fn call_envelope<'a, A: Into<Arg<'a>>>(
    namespace: &str,
    method: &str,
    args: impl IntoIterator<Item = (&'a str, A)>,
) -> String {
    call_envelope_with_headers(namespace, method, args, NO_HEADERS)
}

/// Like [`call_envelope`], with `SOAP-ENV:Header` entries. Headers are
/// emitted as text elements in the `urn:vsg:ext` namespace, before the
/// Body as SOAP 1.1 requires.
fn call_envelope_with_headers<'a, A: Into<Arg<'a>>, K: AsRef<str>, V: AsRef<str>>(
    namespace: &str,
    method: &str,
    args: impl IntoIterator<Item = (&'a str, A)>,
    headers: &[(K, V)],
) -> String {
    let mut out = String::with_capacity(512);
    write_call(&mut out, namespace, method, args, headers);
    out
}

/// Streams a call envelope into `out` — no element tree is built. The
/// output stays byte-identical to serialising the equivalent tree (the
/// equivalence test in this module enforces it).
pub(crate) fn write_call<'a, O, A, K, V>(
    out: &mut O,
    namespace: &str,
    method: &str,
    args: impl IntoIterator<Item = (&'a str, A)>,
    headers: &[(K, V)],
) where
    O: XmlOut,
    A: Into<Arg<'a>>,
    K: AsRef<str>,
    V: AsRef<str>,
{
    write_envelope_open(out, headers);
    out.put("<SOAP-ENV:Body><ns1:");
    out.put(method);
    out.put(" xmlns:ns1=\"");
    escape_attr_into(namespace, out);
    out.put("\"");
    let mut empty = true;
    for (name, value) in args {
        if empty {
            out.put(">");
            empty = false;
        }
        value.into().write_xml(name, out);
    }
    if empty {
        out.put("/>");
    } else {
        out.put("</ns1:");
        out.put(method);
        out.put(">");
    }
    out.put("</SOAP-ENV:Body></SOAP-ENV:Envelope>");
}

/// Streams a response envelope for `method` into `out`, with the
/// `return` element `ret` writes.
pub(crate) fn write_response<O: XmlOut + ?Sized>(
    out: &mut O,
    method: &str,
    ret: impl FnOnce(&mut O),
) {
    write_envelope_open(out, NO_HEADERS);
    out.put("<SOAP-ENV:Body><ns1:");
    out.put(method);
    out.put("Response xmlns:ns1=\"urn:vsg:response\">");
    ret(out);
    out.put("</ns1:");
    out.put(method);
    out.put("Response></SOAP-ENV:Body></SOAP-ENV:Envelope>");
}

/// Type hint for header-less streaming envelopes.
const NO_HEADERS: &[(&str, &str)] = &[];

/// Writes the XML declaration, the envelope open tag with its
/// namespace attributes, and the (optional) `SOAP-ENV:Header` block.
fn write_envelope_open<O: XmlOut + ?Sized, K: AsRef<str>, V: AsRef<str>>(
    out: &mut O,
    headers: &[(K, V)],
) {
    out.put("<?xml version=\"1.0\" encoding=\"UTF-8\"?><SOAP-ENV:Envelope xmlns:SOAP-ENV=\"");
    out.put(ENVELOPE_NS);
    out.put("\" xmlns:xsd=\"");
    out.put(XSD_NS);
    out.put("\" xmlns:xsi=\"");
    out.put(XSI_NS);
    out.put("\" SOAP-ENV:encodingStyle=\"");
    out.put(ENCODING_NS);
    out.put("\">");
    if !headers.is_empty() {
        out.put("<SOAP-ENV:Header>");
        for (name, value) in headers {
            out.put("<vsg:");
            out.put(name.as_ref());
            out.put(" xmlns:vsg=\"urn:vsg:ext\">");
            // Always open/close form: the element path stores a
            // (possibly empty) text child, never self-closing.
            escape_text_into(value.as_ref(), out);
            out.put("</vsg:");
            out.put(name.as_ref());
            out.put(">");
        }
        out.put("</SOAP-ENV:Header>");
    }
}

/// Encodes a fault as a complete SOAP envelope document. Faults are the
/// cold path; they still build the element tree.
pub fn fault_envelope(fault: &Fault) -> String {
    Element::new("SOAP-ENV:Envelope")
        .attr("xmlns:SOAP-ENV", ENVELOPE_NS)
        .attr("xmlns:xsd", XSD_NS)
        .attr("xmlns:xsi", XSI_NS)
        .attr("SOAP-ENV:encodingStyle", ENCODING_NS)
        .child(Element::new("SOAP-ENV:Body").child(fault.to_element()))
        .to_document()
}

/// Errors surfaced by SOAP encoding, decoding and transport.
#[derive(Debug, Clone, PartialEq)]
pub enum SoapError {
    /// The XML itself would not parse.
    Xml(ParseError),
    /// A value failed to decode.
    Value(ValueError),
    /// Structurally valid XML that is not a valid SOAP message.
    Malformed(String),
    /// The peer returned a SOAP fault.
    Fault(Fault),
    /// The HTTP layer failed (connection refused, lost, bad status).
    /// Carries the typed [`HttpError`] so callers can classify the
    /// failure (request never delivered vs. response lost) without
    /// parsing message text.
    Http(HttpError),
}

impl SoapError {
    pub(crate) fn malformed(msg: impl Into<String>) -> SoapError {
        SoapError::Malformed(msg.into())
    }
}

impl fmt::Display for SoapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SoapError::Xml(e) => write!(f, "{e}"),
            SoapError::Value(e) => write!(f, "{e}"),
            SoapError::Malformed(m) => write!(f, "malformed SOAP message: {m}"),
            SoapError::Fault(fault) => write!(f, "SOAP fault: {fault}"),
            SoapError::Http(m) => write!(f, "HTTP error: {m}"),
        }
    }
}

impl std::error::Error for SoapError {}

impl From<ParseError> for SoapError {
    fn from(e: ParseError) -> SoapError {
        SoapError::Xml(e)
    }
}

impl From<ValueError> for SoapError {
    fn from(e: ValueError) -> SoapError {
        SoapError::Value(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_round_trips() {
        let call = RpcCall::new("urn:vsg:vcr", "record")
            .arg("channel", 42)
            .arg("title", "News & Weather")
            .arg("immediate", true);
        let doc = call.to_envelope();
        assert!(doc.contains("SOAP-ENV:Envelope"));
        let back = RpcCall::from_envelope(&doc).unwrap();
        assert_eq!(back, call);
        assert_eq!(back.get("channel").and_then(Value::as_int), Some(42));
        assert_eq!(back.get("missing"), None);
    }

    #[test]
    fn header_entries_round_trip() {
        let call = RpcCall::new("urn:vsg:gateway", "play")
            .arg("chapter", 1)
            .header("TraceContext", "1f-2e");
        let doc = call.to_envelope();
        assert!(doc.contains("SOAP-ENV:Header"), "{doc}");
        // SOAP 1.1: the Header element precedes the Body.
        assert!(
            doc.find("SOAP-ENV:Header").unwrap() < doc.find("SOAP-ENV:Body").unwrap(),
            "{doc}"
        );
        let back = RpcCall::from_envelope(&doc).unwrap();
        assert_eq!(back, call);
        assert_eq!(back.get_header("TraceContext"), Some("1f-2e"));
        assert_eq!(back.get_header("absent"), None);
        // Headers never leak into the argument list.
        assert_eq!(back.args.len(), 1);
    }

    #[test]
    fn headerless_envelopes_have_no_header_element() {
        let doc = RpcCall::new("urn:x", "ping").to_envelope();
        assert!(!doc.contains("SOAP-ENV:Header"), "{doc}");
    }

    #[test]
    fn response_round_trips() {
        let resp = RpcResponse::new(
            "record",
            Value::Record(vec![
                ("ok".into(), Value::Bool(true)),
                ("tape_pos".into(), Value::Int(1234)),
            ]),
        );
        let back = RpcResponse::from_envelope(&resp.to_envelope()).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn void_response() {
        let resp = RpcResponse::new("stop", Value::Null);
        let back = RpcResponse::from_envelope(&resp.to_envelope()).unwrap();
        assert_eq!(back.value, Value::Null);
    }

    #[test]
    fn fault_envelope_decodes_as_fault_error() {
        let doc = fault_envelope(&Fault::server("VCR is on fire"));
        match RpcResponse::from_envelope(&doc) {
            Err(SoapError::Fault(f)) => assert_eq!(f.string, "VCR is on fire"),
            other => panic!("expected fault, got {other:?}"),
        }
    }

    #[test]
    fn malformed_envelopes_rejected() {
        assert!(matches!(
            RpcCall::from_envelope("<NotAnEnvelope/>"),
            Err(SoapError::Malformed(_))
        ));
        assert!(matches!(
            RpcCall::from_envelope("not xml at all"),
            Err(SoapError::Xml(_))
        ));
        let no_body = Element::new("SOAP-ENV:Envelope").to_document();
        assert!(matches!(
            RpcCall::from_envelope(&no_body),
            Err(SoapError::Malformed(_))
        ));
        let empty_body = Element::new("SOAP-ENV:Envelope")
            .child(Element::new("SOAP-ENV:Body"))
            .to_document();
        assert!(matches!(
            RpcCall::from_envelope(&empty_body),
            Err(SoapError::Malformed(_))
        ));
    }

    /// The element-tree encoder the streaming writer replaced,
    /// reconstructed here as the reference for byte-identity.
    fn tree_envelope(headers: &[(String, String)], body_child: Element) -> String {
        let mut env = Element::new("SOAP-ENV:Envelope")
            .attr("xmlns:SOAP-ENV", ENVELOPE_NS)
            .attr("xmlns:xsd", XSD_NS)
            .attr("xmlns:xsi", XSI_NS)
            .attr("SOAP-ENV:encodingStyle", ENCODING_NS);
        if !headers.is_empty() {
            let mut header = Element::new("SOAP-ENV:Header");
            for (name, value) in headers {
                header.push(
                    Element::new(format!("vsg:{name}"))
                        .attr("xmlns:vsg", "urn:vsg:ext")
                        .text(value),
                );
            }
            env = env.child(header);
        }
        env.child(Element::new("SOAP-ENV:Body").child(body_child))
            .to_document()
    }

    #[test]
    fn streamed_call_envelope_matches_element_path() {
        let call = RpcCall::new("urn:vsg:vcr", "record")
            .arg("channel", 42)
            .arg("title", "News & <Weather>")
            .arg("empty", "")
            .header("TraceContext", "1f-2e")
            .header("Empty", "");
        let mut body =
            Element::new(format!("ns1:{}", call.method)).attr("xmlns:ns1", call.namespace.clone());
        for (k, v) in &call.args {
            body.push(v.to_element(k));
        }
        assert_eq!(call.to_envelope(), tree_envelope(&call.headers, body));
        // No arguments → the method element self-closes, on both paths.
        let bare = RpcCall::new("urn:x", "ping");
        assert_eq!(
            bare.to_envelope(),
            tree_envelope(&[], Element::new("ns1:ping").attr("xmlns:ns1", "urn:x"))
        );
    }

    #[test]
    fn streamed_response_envelope_matches_element_path() {
        let resp = RpcResponse::new(
            "record",
            Value::Record(vec![("ok".into(), Value::Bool(true))]),
        );
        let body = Element::new("ns1:recordResponse")
            .attr("xmlns:ns1", "urn:vsg:response")
            .child(resp.value.to_element("return"));
        assert_eq!(resp.to_envelope(), tree_envelope(&[], body));
    }

    #[test]
    fn call_namespace_is_preserved() {
        let call = RpcCall::new("urn:vsg:laserdisc", "play");
        let back = RpcCall::from_envelope(&call.to_envelope()).unwrap();
        assert_eq!(back.namespace, "urn:vsg:laserdisc");
    }

    #[test]
    fn envelope_overhead_is_realistic() {
        // The E4 experiment reports SOAP overhead; sanity-check the
        // envelope costs hundreds of bytes even for a trivial call.
        let doc = RpcCall::new("urn:x", "ping").to_envelope();
        assert!(doc.len() > 250, "envelope is {} bytes", doc.len());
    }
}
