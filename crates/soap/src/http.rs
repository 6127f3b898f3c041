//! Simulated HTTP/1.1 over [`simnet`].
//!
//! The paper's prototype carries every VSG interaction over HTTP, and two
//! of its findings hinge on HTTP's behaviour: it is client/server only
//! (no asynchronous notification, §4.2) and it rides a TCP stack that is
//! heavy for small appliances. The simulation therefore models the
//! request/response pattern, per-connection handshake cost, and real
//! header bytes on the wire. A frame carries exactly one HTTP message:
//! the server answers a frame holding anything past its one request's
//! body with a 400 and runs no route.

use minixml::{Measure, XmlOut};
use parking_lot::Mutex;
use simnet::{Frame, Network, NodeId, Protocol, Sim, SimDuration, SimError};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

/// An HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Method, e.g. `POST`.
    pub method: String,
    /// Request path, e.g. `/soap/rpcrouter`.
    pub path: String,
    /// Headers in order.
    pub headers: Vec<(String, String)>,
    /// Entity body.
    pub body: Vec<u8>,
}

/// An HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// Status code, e.g. `200`.
    pub status: u16,
    /// Reason phrase, e.g. `OK`.
    pub reason: String,
    /// Headers in order.
    pub headers: Vec<(String, String)>,
    /// Entity body.
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// Creates a POST with a body (the SOAP workhorse).
    pub fn post(path: impl Into<String>, content_type: &str, body: impl Into<Vec<u8>>) -> Self {
        let body = body.into();
        HttpRequest {
            method: "POST".into(),
            path: path.into(),
            headers: vec![
                ("Content-Type".into(), content_type.into()),
                ("Content-Length".into(), body.len().to_string()),
                ("User-Agent".into(), "metaware/0.1".into()),
                ("Connection".into(), "close".into()),
            ],
            body,
        }
    }

    /// Creates a body-less GET.
    pub fn get(path: impl Into<String>) -> Self {
        HttpRequest {
            method: "GET".into(),
            path: path.into(),
            headers: vec![
                ("User-Agent".into(), "metaware/0.1".into()),
                ("Connection".into(), "close".into()),
            ],
            body: Vec::new(),
        }
    }

    /// Adds a header (builder style).
    pub fn header(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.headers.push((key.into(), value.into()));
        self
    }

    /// The first header with the given (case-insensitive) name.
    pub fn get_header(&self, key: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(key))
            .map(|(_, v)| v.as_str())
    }

    /// Serialises to wire bytes in one allocation, reserved to the
    /// exact size of head plus body.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut head_len = self.method.len() + 1 + self.path.len() + " HTTP/1.1\r\n".len();
        for (k, v) in &self.headers {
            head_len += k.len() + 2 + v.len() + 2;
        }
        let mut out = Vec::with_capacity(head_len + 2 + self.body.len());
        out.extend_from_slice(self.method.as_bytes());
        out.push(b' ');
        out.extend_from_slice(self.path.as_bytes());
        out.extend_from_slice(b" HTTP/1.1\r\n");
        for (k, v) in &self.headers {
            out.extend_from_slice(k.as_bytes());
            out.extend_from_slice(b": ");
            out.extend_from_slice(v.as_bytes());
            out.extend_from_slice(b"\r\n");
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
        out
    }

    /// Parses wire bytes.
    pub fn from_bytes(data: &[u8]) -> Result<HttpRequest, HttpError> {
        HttpRequestRef::parse(data).map(|r| r.to_owned())
    }
}

/// A request parsed in place: every field borrows the wire buffer, so
/// the server's hot path allocates nothing to look at a message. The
/// owned [`HttpRequest`] tier is [`HttpRequestRef::to_owned`].
#[derive(Debug, Clone, Copy)]
pub struct HttpRequestRef<'a> {
    /// Method, e.g. `POST`.
    pub method: &'a str,
    /// Request path.
    pub path: &'a str,
    /// The raw header block (validated lines, without the request line).
    header_lines: &'a str,
    /// Entity body.
    pub body: &'a [u8],
}

impl<'a> HttpRequestRef<'a> {
    /// Parses wire bytes without copying. Accepts and rejects exactly
    /// what [`HttpRequest::from_bytes`] does.
    pub fn parse(data: &'a [u8]) -> Result<HttpRequestRef<'a>, HttpError> {
        let head = Head::scan(data)?;
        head.request(&data[head.body_start..])
    }

    /// The first header with the given (case-insensitive) name.
    pub fn get_header(&self, key: &str) -> Option<&'a str> {
        find_header(self.header_lines, key)
    }

    /// Materialises the owned tier.
    pub fn to_owned(&self) -> HttpRequest {
        HttpRequest {
            method: self.method.to_owned(),
            path: self.path.to_owned(),
            headers: own_headers(self.header_lines),
            body: self.body.to_vec(),
        }
    }
}

/// A response parsed in place — the client-side twin of
/// [`HttpRequestRef`].
#[derive(Debug, Clone, Copy)]
pub struct HttpResponseRef<'a> {
    /// Status code.
    pub status: u16,
    /// Reason phrase.
    pub reason: &'a str,
    /// The raw header block (validated lines, without the status line).
    header_lines: &'a str,
    /// Entity body.
    pub body: &'a [u8],
}

impl<'a> HttpResponseRef<'a> {
    /// Parses wire bytes without copying. Accepts and rejects exactly
    /// what [`HttpResponse::from_bytes`] does.
    pub fn parse(data: &'a [u8]) -> Result<HttpResponseRef<'a>, HttpError> {
        let head = Head::scan(data)?;
        head.response(&data[head.body_start..])
    }

    /// True for 2xx statuses.
    pub fn is_success(&self) -> bool {
        (200..300).contains(&self.status)
    }

    /// The first header with the given (case-insensitive) name.
    pub fn get_header(&self, key: &str) -> Option<&'a str> {
        find_header(self.header_lines, key)
    }

    /// Materialises the owned tier.
    pub fn to_owned(&self) -> HttpResponse {
        HttpResponse {
            status: self.status,
            reason: self.reason.to_owned(),
            headers: own_headers(self.header_lines),
            body: self.body.to_vec(),
        }
    }
}

/// One pass over a message head. It finds the `\r\n\r\n` terminator,
/// the last `Content-Length` (every line after the start line counts)
/// and whether each header line before the first empty one has a
/// colon. The start line is checked only when the message is read as a
/// request or a response; only the server's [`read_request`] uses the
/// length.
#[derive(Debug, Clone, Copy)]
struct Head<'a> {
    /// The first line, or `None` for an empty head.
    start_line: Option<&'a str>,
    /// Everything after the start line and its line break.
    header_lines: &'a str,
    /// Offset of the body: just past the terminator.
    body_start: usize,
    content_length: Option<usize>,
    colon_ok: bool,
}

impl<'a> Head<'a> {
    /// Fails only when there is no terminator or the head is not UTF-8.
    fn scan(data: &'a [u8]) -> Result<Head<'a>, HttpError> {
        let sep = find_terminator(data).ok_or(HttpError::Malformed("missing header terminator"))?;
        let head = std::str::from_utf8(&data[..sep])
            .map_err(|_| HttpError::Malformed("non-UTF8 header block"))?;
        let mut lines = head.lines();
        let start_line = lines.next();
        let rest = &head[start_line.map_or(0, str::len)..];
        let header_lines = rest
            .strip_prefix("\r\n")
            .or_else(|| rest.strip_prefix('\n'))
            .unwrap_or(rest);
        let mut scan = Head {
            start_line,
            header_lines,
            body_start: sep + 4,
            content_length: None,
            colon_ok: true,
        };
        let mut in_block = true;
        for line in lines {
            match line.split_once(':') {
                Some((k, v)) => {
                    if is_key(k, "content-length") {
                        scan.content_length = v.trim().parse().ok();
                    }
                }
                None if line.is_empty() => in_block = false,
                None => scan.colon_ok &= !in_block,
            }
        }
        Ok(scan)
    }

    /// The length of the message that starts `data` (of `data_len`
    /// bytes): head, terminator, then `Content-Length` body bytes. A
    /// message without `Content-Length` runs to the end of the buffer
    /// (the `Connection: close` convention).
    fn message_len(&self, data_len: usize) -> Result<usize, HttpError> {
        match self.content_length {
            Some(n) => self
                .body_start
                .checked_add(n)
                .filter(|&end| end <= data_len)
                .ok_or(HttpError::Malformed("truncated body")),
            None => Ok(data_len),
        }
    }

    fn request(&self, body: &'a [u8]) -> Result<HttpRequestRef<'a>, HttpError> {
        let line = self
            .start_line
            .ok_or(HttpError::Malformed("empty request"))?;
        let mut parts = line.split_whitespace();
        let method = parts.next().ok_or(HttpError::Malformed("no method"))?;
        let path = parts.next().ok_or(HttpError::Malformed("no path"))?;
        let version = parts.next().ok_or(HttpError::Malformed("no version"))?;
        if !version.starts_with("HTTP/1.") {
            return Err(HttpError::Malformed("unsupported HTTP version"));
        }
        self.check_colons()?;
        Ok(HttpRequestRef {
            method,
            path,
            header_lines: self.header_lines,
            body,
        })
    }

    fn response(&self, body: &'a [u8]) -> Result<HttpResponseRef<'a>, HttpError> {
        let line = self
            .start_line
            .ok_or(HttpError::Malformed("empty response"))?;
        let mut parts = line.splitn(3, ' ');
        let version = parts.next().ok_or(HttpError::Malformed("no version"))?;
        if !version.starts_with("HTTP/1.") {
            return Err(HttpError::Malformed("unsupported HTTP version"));
        }
        let status = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or(HttpError::Malformed("bad status code"))?;
        let reason = parts.next().unwrap_or("");
        self.check_colons()?;
        Ok(HttpResponseRef {
            status,
            reason,
            header_lines: self.header_lines,
            body,
        })
    }

    fn check_colons(&self) -> Result<(), HttpError> {
        if self.colon_ok {
            Ok(())
        } else {
            Err(HttpError::Malformed("header without colon"))
        }
    }
}

/// Reads a frame that must hold exactly one request, as the server
/// does: the head is scanned once, the declared body must end exactly
/// where the frame does, and then the request line and the header block
/// are checked. A short body is a "truncated body" error and anything
/// after the body, a second request included, is a "bytes past
/// Content-Length" error. A request without `Content-Length` takes the
/// rest of the frame as its body.
fn read_request(data: &[u8]) -> Result<HttpRequestRef<'_>, HttpError> {
    let head = Head::scan(data)?;
    if head.message_len(data.len())? < data.len() {
        return Err(HttpError::Malformed("bytes past Content-Length"));
    }
    head.request(&data[head.body_start..])
}

/// Whether header name `k`, trimmed, is `key` up to ASCII case. Most
/// names are shorter than the key and fail before the trim.
fn is_key(k: &str, key: &str) -> bool {
    k.len() >= key.len() && k.trim().eq_ignore_ascii_case(key)
}

/// Offset of the first `\r\n\r\n`.
fn find_terminator(data: &[u8]) -> Option<usize> {
    data.windows(4).position(|w| w == b"\r\n\r\n")
}

fn find_header<'a>(header_lines: &'a str, key: &str) -> Option<&'a str> {
    for line in header_lines.lines() {
        if line.is_empty() {
            break;
        }
        if let Some((k, v)) = line.split_once(':') {
            if k.trim().eq_ignore_ascii_case(key) {
                return Some(v.trim());
            }
        }
    }
    None
}

fn own_headers(header_lines: &str) -> Vec<(String, String)> {
    let mut headers = Vec::new();
    for line in header_lines.lines() {
        if line.is_empty() {
            break;
        }
        if let Some((k, v)) = line.split_once(':') {
            headers.push((k.trim().to_owned(), v.trim().to_owned()));
        }
    }
    headers
}

impl HttpResponse {
    /// A 200 OK with a body.
    pub fn ok(content_type: &str, body: impl Into<Vec<u8>>) -> Self {
        let body = body.into();
        HttpResponse {
            status: 200,
            reason: "OK".into(),
            headers: vec![
                ("Content-Type".into(), content_type.into()),
                ("Content-Length".into(), body.len().to_string()),
                ("Server".into(), "metaware/0.1".into()),
            ],
            body,
        }
    }

    /// An error status with a plain-text body.
    pub fn error(status: u16, reason: &str, body: impl Into<Vec<u8>>) -> Self {
        let body = body.into();
        HttpResponse {
            status,
            reason: reason.into(),
            headers: vec![
                ("Content-Type".into(), "text/plain".into()),
                ("Content-Length".into(), body.len().to_string()),
            ],
            body,
        }
    }

    /// A 404.
    #[cfg(test)]
    fn not_found(path: &str) -> Self {
        HttpResponse::error(404, "Not Found", format!("no handler for {path}"))
    }

    /// True for 2xx statuses.
    pub fn is_success(&self) -> bool {
        (200..300).contains(&self.status)
    }

    /// The first header with the given (case-insensitive) name.
    pub fn get_header(&self, key: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(key))
            .map(|(_, v)| v.as_str())
    }

    /// Serialises to wire bytes in one allocation, reserved to the
    /// exact size of head plus body.
    pub fn to_bytes(&self) -> Vec<u8> {
        use std::io::Write as _;
        let mut head_len = "HTTP/1.1 nnn ".len() + self.reason.len() + 2;
        for (k, v) in &self.headers {
            head_len += k.len() + 2 + v.len() + 2;
        }
        let mut out = Vec::with_capacity(head_len + 2 + self.body.len());
        out.extend_from_slice(b"HTTP/1.1 ");
        write!(out, "{}", self.status).expect("vec write");
        out.push(b' ');
        out.extend_from_slice(self.reason.as_bytes());
        out.extend_from_slice(b"\r\n");
        for (k, v) in &self.headers {
            out.extend_from_slice(k.as_bytes());
            out.extend_from_slice(b": ");
            out.extend_from_slice(v.as_bytes());
            out.extend_from_slice(b"\r\n");
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
        out
    }

    /// Parses wire bytes.
    pub fn from_bytes(data: &[u8]) -> Result<HttpResponse, HttpError> {
        HttpResponseRef::parse(data).map(|r| r.to_owned())
    }
}

/// The head of a POST, written in place: byte-identical to
/// [`HttpRequest::post`] plus one [`HttpRequest::header`], serialised.
/// The extra header's value is given as pieces written back to back,
/// so a value assembled from parts (a `SOAPAction` of namespace and
/// method) needs no `String`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PostHead<'a> {
    pub(crate) path: &'a str,
    pub(crate) content_type: &'a str,
    pub(crate) body_len: usize,
    pub(crate) header: (&'a str, &'a [&'a str]),
}

impl PostHead<'_> {
    pub(crate) fn write<O: XmlOut + ?Sized>(&self, out: &mut O) {
        out.put("POST ");
        out.put(self.path);
        out.put(" HTTP/1.1\r\nContent-Type: ");
        out.put(self.content_type);
        out.put("\r\nContent-Length: ");
        out.put_fmt(format_args!("{}", self.body_len));
        out.put("\r\nUser-Agent: metaware/0.1\r\nConnection: close\r\n");
        out.put(self.header.0);
        out.put(": ");
        for piece in self.header.1 {
            out.put(piece);
        }
        out.put("\r\n\r\n");
    }

    pub(crate) fn len(&self) -> usize {
        let mut m = Measure::default();
        self.write(&mut m);
        m.0
    }
}

/// HTTP transport failures.
///
/// Network failures stay typed — they carry the underlying
/// [`SimError`], split by whether the request provably never reached
/// the server — so retry classification upstream never depends on
/// message text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// The bytes did not parse as HTTP.
    Malformed(&'static str),
    /// The network failed before the request reached the server: the
    /// exchange is guaranteed not to have executed.
    Unreachable(SimError),
    /// The network failed after the request was delivered (the
    /// response was lost in transit): the server may well have
    /// processed the request.
    ResponseLost(SimError),
    /// Non-success status from the server.
    Status(u16, String),
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Malformed(m) => write!(f, "malformed HTTP message: {m}"),
            HttpError::Unreachable(e) => write!(f, "network error before delivery: {e}"),
            HttpError::ResponseLost(e) => write!(f, "network error, response lost: {e}"),
            HttpError::Status(code, body) => write!(f, "HTTP {code}: {body}"),
        }
    }
}

impl std::error::Error for HttpError {}

/// The per-request TCP cost model.
///
/// 2002-era HTTP clients open a fresh connection per request
/// (`Connection: close`), paying the three-way handshake plus slow-start;
/// we charge two link round-trips before the request proper.
#[derive(Debug, Clone, Copy, Default)]
pub struct TcpModel {
    /// When `true`, the client keeps one connection per peer alive
    /// (HTTP/1.1 keep-alive): only the first exchange to a peer pays
    /// the handshake, and a transport fault tears the connection down
    /// so the next exchange pays it again.
    pub persistent: bool,
}

/// Round trips charged for connection establishment + teardown
/// (SYN/SYN-ACK/ACK + FIN exchange, amortised).
const HANDSHAKE_RTTS: u64 = 2;

/// Fixed per-request processing charged on the server (accept, parse
/// headers, dispatch).
const SERVER_OVERHEAD: SimDuration = SimDuration::from_micros(300);

impl TcpModel {
    /// The default cost model with persistent per-peer connections —
    /// the multiplexed wire path's transport, as opposed to 2002's
    /// connect-per-call.
    pub fn persistent() -> Self {
        TcpModel { persistent: true }
    }
}

/// A route handler: consumes a request, produces a response, and may
/// charge CPU time on the `Sim` clock.
type RouteHandler = Box<dyn FnMut(&Sim, &HttpRequest) -> HttpResponse + Send>;

/// A zero-copy route handler: reads the request in place (borrowed
/// tier) and writes its response through the [`Responder`], straight
/// into the server's response buffer.
pub type ZeroRouteHandler =
    Box<dyn for<'a, 't> FnMut(&Sim, &HttpRequestRef<'a>, Responder<'t>) -> Sent + Send>;

enum Route {
    Owned(RouteHandler),
    Zero(ZeroRouteHandler),
}

/// The status line and standard headers of a zero-copy response,
/// wire-identical to the owned [`HttpResponse::ok`] /
/// [`HttpResponse::error`] constructors without their header
/// `String`s.
#[derive(Debug, Clone, Copy)]
pub struct ResponseHead {
    /// Status code.
    pub status: u16,
    /// Reason phrase.
    pub reason: &'static str,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Whether to stamp the `Server:` header ([`HttpResponse::ok`]
    /// does, [`HttpResponse::error`] does not).
    server_header: bool,
}

impl ResponseHead {
    /// A 200 OK (wire-identical to [`HttpResponse::ok`]).
    pub fn ok(content_type: &'static str) -> ResponseHead {
        ResponseHead {
            status: 200,
            reason: "OK",
            content_type,
            server_header: true,
        }
    }

    /// An error status (wire-identical to [`HttpResponse::error`] with
    /// the given content type).
    pub fn error(status: u16, reason: &'static str, content_type: &'static str) -> ResponseHead {
        ResponseHead {
            status,
            reason,
            content_type,
            server_header: false,
        }
    }

    /// Writes the head of a response with `body_len` body bytes.
    fn write<O: XmlOut + ?Sized>(&self, out: &mut O, body_len: usize) {
        out.put("HTTP/1.1 ");
        out.put_fmt(format_args!("{}", self.status));
        out.put(" ");
        out.put(self.reason);
        out.put("\r\nContent-Type: ");
        out.put(self.content_type);
        out.put("\r\nContent-Length: ");
        out.put_fmt(format_args!("{body_len}"));
        out.put("\r\n");
        if self.server_header {
            out.put("Server: metaware/0.1\r\n");
        }
        out.put("\r\n");
    }
}

/// Where a zero-copy route writes its response: the server's response
/// buffer, head and body reserved to their exact size.
#[derive(Debug)]
pub struct Responder<'t> {
    buf: &'t mut Vec<u8>,
}

/// Proof that a zero-copy route answered; only [`Responder`] makes one.
#[derive(Debug)]
pub struct Sent(());

impl<'t> Responder<'t> {
    /// Answers with a body of exactly `body_len` bytes, which
    /// `write_body` appends to the buffer it is handed.
    pub fn send(
        self,
        head: ResponseHead,
        body_len: usize,
        write_body: impl FnOnce(&mut Vec<u8>),
    ) -> Sent {
        let mut head_len = Measure::default();
        head.write(&mut head_len, body_len);
        self.buf.reserve(head_len.0 + body_len);
        head.write(self.buf, body_len);
        write_body(self.buf);
        debug_assert_eq!(
            self.buf.len(),
            head_len.0 + body_len,
            "the body is as long as its Content-Length"
        );
        Sent(())
    }

    /// Answers with a body already in hand.
    pub fn send_bytes(self, head: ResponseHead, body: &[u8]) -> Sent {
        self.send(head, body.len(), |out| out.extend_from_slice(body))
    }
}

/// A simulated HTTP server bound to one network node.
#[derive(Clone)]
pub struct HttpServer {
    node: NodeId,
    routes: Arc<Mutex<HashMap<String, Route>>>,
}

impl HttpServer {
    /// Binds a server on `net`, attaching a new node with `label`.
    pub fn bind(net: &Network, label: &str) -> HttpServer {
        let node = net.attach(label);
        let routes: Arc<Mutex<HashMap<String, Route>>> = Arc::new(Mutex::new(HashMap::new()));
        let routes2 = routes.clone();
        net.set_request_handler(node, move |sim, frame: &mut Frame| {
            // One frame, one request, one response, one per-request
            // server overhead. Owned-route handlers get a materialised
            // request; zero-copy routes read it in place and write
            // their response straight into the one response buffer.
            sim.advance(SERVER_OVERHEAD);
            let mut buf = Vec::new();
            let reply = Responder { buf: &mut buf };
            match read_request(&frame.payload) {
                Ok(req) => {
                    let mut routes = routes2.lock();
                    match routes.get_mut(req.path) {
                        Some(Route::Zero(h)) => {
                            h(sim, &req, reply);
                        }
                        Some(Route::Owned(h)) => {
                            return Ok(h(sim, &req.to_owned()).to_bytes());
                        }
                        None => {
                            let head = ResponseHead::error(404, "Not Found", "text/plain");
                            reply.send(head, 15 + req.path.len(), |out| {
                                out.extend_from_slice(b"no handler for ");
                                out.extend_from_slice(req.path.as_bytes());
                            });
                        }
                    }
                }
                Err(e) => {
                    let head = ResponseHead::error(400, "Bad Request", "text/plain");
                    reply.send_bytes(head, e.to_string().as_bytes());
                }
            }
            Ok(buf)
        })
        .expect("node attached above");
        HttpServer { node, routes }
    }

    /// The node this server listens on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Registers (or replaces) the handler for `path`.
    pub fn route(
        &self,
        path: impl Into<String>,
        handler: impl FnMut(&Sim, &HttpRequest) -> HttpResponse + Send + 'static,
    ) {
        self.routes
            .lock()
            .insert(path.into(), Route::Owned(Box::new(handler)));
    }

    /// Registers (or replaces) a zero-copy handler for `path`: it reads
    /// the request through [`HttpRequestRef`] (no per-request
    /// materialisation) and writes its response through the
    /// [`Responder`] into the response buffer.
    pub fn route_zero(
        &self,
        path: impl Into<String>,
        handler: impl for<'a, 't> FnMut(&Sim, &HttpRequestRef<'a>, Responder<'t>) -> Sent
            + Send
            + 'static,
    ) {
        self.routes
            .lock()
            .insert(path.into(), Route::Zero(Box::new(handler)));
    }
}

impl fmt::Debug for HttpServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HttpServer")
            .field("node", &self.node)
            .field("routes", &self.routes.lock().len())
            .finish()
    }
}

/// A simulated HTTP client bound to one network node.
#[derive(Debug, Clone)]
pub struct HttpClient {
    net: Network,
    node: NodeId,
    tcp: TcpModel,
    /// Peers with an established connection (persistent mode only).
    /// Shared across clones so every handle to the same node reuses
    /// the same connections.
    conns: Arc<Mutex<HashSet<NodeId>>>,
}

impl HttpClient {
    /// Creates a client that sends from `node` on `net`.
    pub fn new(net: &Network, node: NodeId, tcp: TcpModel) -> HttpClient {
        HttpClient {
            net: net.clone(),
            node,
            tcp,
            conns: Arc::new(Mutex::new(HashSet::new())),
        }
    }

    /// Attaches a fresh node and wraps it in a client.
    pub fn attach(net: &Network, label: &str, tcp: TcpModel) -> HttpClient {
        let node = net.attach(label);
        HttpClient::new(net, node, tcp)
    }

    /// The node this client sends from.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Charges connection establishment unless a persistent connection
    /// to `server` is already up. Every handshake is counted in the
    /// network's [`simnet::NetStats`] so benches can report connection
    /// churn.
    fn connect(&self, sim: &Sim, server: NodeId) {
        if self.tcp.persistent && self.conns.lock().contains(&server) {
            return;
        }
        // Per-request TCP connection (Connection: close, as in 2002) —
        // or the first exchange on a persistent connection.
        let rtt = self.net.link().latency * 2;
        sim.advance(rtt * HANDSHAKE_RTTS);
        self.net.with_stats(|s| s.record_conn_open());
        if self.tcp.persistent {
            self.conns.lock().insert(server);
        }
    }

    /// One raw exchange: connect (if needed), send `payload`, return
    /// the raw response bytes. A transport fault tears a persistent
    /// connection down, so the next exchange pays a fresh handshake.
    fn exchange(&self, server: NodeId, payload: Vec<u8>) -> Result<Vec<u8>, HttpError> {
        let sim = self.net.sim().clone();
        self.connect(&sim, server);
        self.net
            .request(self.node, server, Protocol::Http, payload)
            .map_err(|e| {
                if self.tcp.persistent {
                    self.conns.lock().remove(&server);
                }
                // The client knows its own node, so it can tell a
                // request-leg failure (server never saw the request)
                // from a lost response (it may have executed).
                if e.before_delivery(self.node) {
                    HttpError::Unreachable(e)
                } else {
                    HttpError::ResponseLost(e)
                }
            })
    }

    /// Executes one HTTP exchange, charging connection setup plus both
    /// transfer legs to the virtual clock.
    pub fn send(&self, server: NodeId, req: &HttpRequest) -> Result<HttpResponse, HttpError> {
        let raw = self.exchange(server, req.to_bytes())?;
        HttpResponse::from_bytes(&raw)
    }

    /// One exchange over pre-assembled wire bytes, returning the raw
    /// response for the caller to parse on the borrowed tier — the
    /// zero-copy twin of [`HttpClient::send`].
    pub(crate) fn send_raw(&self, server: NodeId, payload: Vec<u8>) -> Result<Vec<u8>, HttpError> {
        self.exchange(server, payload)
    }

    /// `send` + non-2xx as error.
    pub fn send_expect_ok(
        &self,
        server: NodeId,
        req: &HttpRequest,
    ) -> Result<HttpResponse, HttpError> {
        let resp = self.send(server, req)?;
        if resp.is_success() {
            Ok(resp)
        } else {
            Err(HttpError::Status(
                resp.status,
                String::from_utf8_lossy(&resp.body).into_owned(),
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_wire_round_trip() {
        let req = HttpRequest::post("/soap", "text/xml", "<x/>").header("SOAPAction", "\"\"");
        let back = HttpRequest::from_bytes(&req.to_bytes()).unwrap();
        assert_eq!(back, req);
        assert_eq!(back.get_header("soapaction"), Some("\"\""));
        assert_eq!(back.get_header("content-length"), Some("4"));
    }

    #[test]
    fn response_wire_round_trip() {
        let resp = HttpResponse::ok("text/xml", "<ok/>");
        let back = HttpResponse::from_bytes(&resp.to_bytes()).unwrap();
        assert_eq!(back, resp);
        assert!(back.is_success());
        assert!(!HttpResponse::not_found("/x").is_success());
    }

    #[test]
    fn malformed_wire_data_rejected() {
        assert!(HttpRequest::from_bytes(b"garbage").is_err());
        assert!(HttpRequest::from_bytes(b"GET\r\n\r\n").is_err());
        assert!(HttpResponse::from_bytes(b"HTTP/1.1 abc OK\r\n\r\n").is_err());
        assert!(HttpRequest::from_bytes(b"GET / SPDY/9\r\n\r\n").is_err());
        assert!(HttpRequest::from_bytes(b"GET / HTTP/1.1\r\nbroken header\r\n\r\n").is_err());
    }

    #[test]
    fn server_routes_and_404s() {
        let sim = Sim::new(1);
        let net = Network::ethernet(&sim);
        let server = HttpServer::bind(&net, "web");
        server.route("/hello", |_, req| {
            HttpResponse::ok("text/plain", format!("hi via {}", req.method))
        });
        let client = HttpClient::attach(&net, "pc", TcpModel::default());
        let resp = client
            .send(server.node(), &HttpRequest::get("/hello"))
            .unwrap();
        assert_eq!(resp.body, b"hi via GET");
        let resp = client
            .send(server.node(), &HttpRequest::get("/nope"))
            .unwrap();
        assert_eq!(resp.status, 404);
        assert!(client
            .send_expect_ok(server.node(), &HttpRequest::get("/nope"))
            .is_err());
    }

    #[test]
    fn exchange_charges_handshake_and_transfer() {
        let sim = Sim::new(1);
        let net = Network::ethernet(&sim);
        let server = HttpServer::bind(&net, "web");
        server.route("/", |_, _| HttpResponse::ok("text/plain", "x"));
        let client = HttpClient::attach(&net, "pc", TcpModel::default());
        let before = sim.now();
        client.send(server.node(), &HttpRequest::get("/")).unwrap();
        let elapsed = sim.now() - before;
        // 2 handshake RTTs (800us) + 2 transfer legs (>=400us) + server
        // overhead (300us) on 100Mb Ethernet with 200us latency.
        assert!(elapsed.as_micros() >= 1_500, "elapsed {elapsed}");
        assert!(elapsed.as_millis() < 10, "elapsed {elapsed}");
    }

    #[test]
    fn persistent_connection_pays_one_handshake() {
        let sim = Sim::new(1);
        let net = Network::ethernet(&sim);
        let server = HttpServer::bind(&net, "web");
        server.route("/", |_, _| HttpResponse::ok("text/plain", "x"));
        let client = HttpClient::attach(&net, "pc", TcpModel::persistent());
        let before = sim.now();
        client.send(server.node(), &HttpRequest::get("/")).unwrap();
        let first = sim.now() - before;
        let before = sim.now();
        client.send(server.node(), &HttpRequest::get("/")).unwrap();
        let second = sim.now() - before;
        // Second exchange skips the 2-RTT handshake (800us here).
        assert!(
            second.as_micros() + 800 <= first.as_micros(),
            "first {first}, second {second}"
        );
        assert_eq!(net.with_stats(|s| s.conns_opened()), 1);
    }

    #[test]
    fn connect_per_call_opens_a_connection_every_time() {
        let sim = Sim::new(1);
        let net = Network::ethernet(&sim);
        let server = HttpServer::bind(&net, "web");
        server.route("/", |_, _| HttpResponse::ok("text/plain", "x"));
        let client = HttpClient::attach(&net, "pc", TcpModel::default());
        for _ in 0..3 {
            client.send(server.node(), &HttpRequest::get("/")).unwrap();
        }
        assert_eq!(net.with_stats(|s| s.conns_opened()), 3);
    }

    #[test]
    fn post_head_matches_the_owned_request() {
        let body = b"<x/>";
        let owned = HttpRequest::post("/soap", "text/xml", &body[..])
            .header("SOAPAction", "\"urn:a#m\"")
            .to_bytes();
        let head = PostHead {
            path: "/soap",
            content_type: "text/xml",
            body_len: body.len(),
            header: ("SOAPAction", &["\"", "urn:a", "#", "m", "\""]),
        };
        let mut wire = Vec::with_capacity(head.len() + body.len());
        head.write(&mut wire);
        wire.extend_from_slice(body);
        assert_eq!(wire, owned);
        assert_eq!(wire.capacity(), wire.len(), "reserved exactly");
    }

    #[test]
    fn zero_copy_heads_match_the_owned_responses() {
        let mut buf = Vec::new();
        Responder { buf: &mut buf }.send_bytes(ResponseHead::ok("text/xml"), b"<ok/>");
        assert_eq!(buf, HttpResponse::ok("text/xml", "<ok/>").to_bytes());
        let mut buf = Vec::new();
        Responder { buf: &mut buf }
            .send_bytes(ResponseHead::error(404, "Not Found", "text/plain"), b"gone");
        assert_eq!(
            buf,
            HttpResponse::error(404, "Not Found", "gone").to_bytes()
        );
    }

    #[test]
    fn last_content_length_wins_and_blank_lines_end_the_header_block() {
        let msg = b"POST / HTTP/1.1\r\nContent-Length: 9\r\nHost: a\n\nno colon\r\nContent-Length: 2\r\n\r\nabXY";
        let head = Head::scan(msg).unwrap();
        assert_eq!(head.content_length, Some(2));
        assert!(
            head.colon_ok,
            "the colon-less line is past the header block"
        );
        assert_eq!(head.message_len(msg.len()), Ok(msg.len() - 2));
        assert_eq!(
            read_request(msg).map(|r| r.body),
            Err(HttpError::Malformed("bytes past Content-Length"))
        );
        assert_eq!(read_request(&msg[..msg.len() - 2]).unwrap().body, b"ab");
        let huge = b"POST / HTTP/1.1\r\nContent-Length: 18446744073709551615\r\n\r\n";
        let head = Head::scan(huge).unwrap();
        assert_eq!(
            head.message_len(huge.len()),
            Err(HttpError::Malformed("truncated body"))
        );
    }

    use proptest::prelude::*;

    /// What the server makes of a frame by the oracle's three scans
    /// under the one-message rule: the first message's framing error or
    /// parse, or, when that message ends short of the frame, the 400 for
    /// bytes past `Content-Length`.
    fn oracle_read(data: &[u8]) -> Result<(&str, &str, &[u8]), HttpError> {
        let (len, parsed) = crate::oracle::frame_request(data)?;
        if len < data.len() {
            return Err(HttpError::Malformed("bytes past Content-Length"));
        }
        parsed
    }

    /// The server's one-frame read against the oracle.
    fn check_frame(data: &[u8]) -> Result<(), TestCaseError> {
        prop_assert_eq!(
            read_request(data).map(|r| (r.method, r.path, r.body)),
            oracle_read(data),
            "frame {:?}",
            data
        );
        Ok(())
    }

    /// Both borrowed parses against the oracle, header lookups and
    /// owned headers included.
    fn check_parses(data: &[u8]) -> Result<(), TestCaseError> {
        use crate::oracle::{find_header, parse_request, parse_response};
        let keys = ["content-length", "content-type", "host", ""];
        let req = HttpRequestRef::parse(data);
        let old = parse_request(data);
        prop_assert_eq!(
            req.as_ref()
                .map(|r| (r.method, r.path, r.body, r.to_owned().headers)),
            old.as_ref()
                .map(|&(m, p, lines, b)| (m, p, b, own_headers(lines)))
        );
        if let (Ok(r), Ok((_, _, lines, _))) = (req, old) {
            for key in keys {
                prop_assert_eq!(r.get_header(key), find_header(lines, key));
            }
        }
        let resp = HttpResponseRef::parse(data);
        let old = parse_response(data);
        prop_assert_eq!(
            resp.as_ref()
                .map(|r| (r.status, r.reason, r.body, r.to_owned().headers)),
            old.as_ref()
                .map(|&(s, reason, lines, b)| (s, reason, b, own_headers(lines)))
        );
        if let (Ok(r), Ok((_, _, lines, _))) = (resp, old) {
            for key in keys {
                prop_assert_eq!(r.get_header(key), find_header(lines, key));
            }
        }
        Ok(())
    }

    /// Byte fragments of HTTP heads: start lines, header names in both
    /// cases, separators, line breaks (bare and CRLF), lengths that
    /// fit, lie or overflow, and bytes that are not UTF-8.
    const HTTP_SOUP: &[&[u8]] = &[
        b"POST",
        b"GET",
        b"HTTP/1.1 200 OK",
        b" ",
        b"/",
        b"/soap",
        b"HTTP/1.1",
        b"HTTP/2",
        b"\r\n",
        b"\n",
        b"\r",
        b":",
        b": ",
        b"Content-Length",
        b"content-length",
        b"0",
        b"3",
        b"12",
        b"-1",
        b" 4 ",
        b"18446744073709551615",
        b"99999999999999999999999",
        b"abc",
        b"\r\n\r\n",
        b"\xff",
        b"\xc3\xa9",
        b"\t",
        b"\xc2\xa0",
        b"Host",
    ];

    fn http_soup() -> impl Strategy<Value = Vec<u8>> {
        prop::collection::vec(0..HTTP_SOUP.len(), 0..40).prop_map(|ix| {
            ix.iter()
                .flat_map(|&i| HTTP_SOUP[i].iter().copied())
                .collect()
        })
    }

    /// A valid request to a path matching `path`, or one broken in a
    /// way the framing and the parse must agree about; concatenated,
    /// these make frames that hold more than one message.
    fn train_message(path: &'static str) -> impl Strategy<Value = Vec<u8>> {
        (
            path,
            prop::collection::vec(any::<u8>(), 0..24),
            0..10u8,
            any::<usize>(),
        )
            .prop_map(|(path, body, breakage, at)| {
                let mut wire = HttpRequest::post(path, "text/xml", body).to_bytes();
                let head_end = wire.windows(4).position(|w| w == b"\r\n\r\n").unwrap();
                let at = at % (head_end + 1);
                match breakage {
                    // Truncated anywhere.
                    0 => wire.truncate(at % (wire.len() + 1)),
                    // A header line loses its colon.
                    1 => {
                        if let Some(c) = wire[..head_end].iter().rposition(|&b| b == b':') {
                            wire.remove(c);
                        }
                    }
                    // A second Content-Length that lies, last.
                    2 => {
                        let extra = format!("\r\nContent-Length: {}", at % 40);
                        wire.splice(head_end..head_end, extra.bytes());
                    }
                    // A byte that is not UTF-8 inside the head.
                    3 => wire.insert(at, 0xff),
                    // A blank line (bare LF) in the middle of the head.
                    4 => {
                        if let Some(lf) = wire[..head_end].iter().position(|&b| b == b'\n') {
                            wire.insert(lf, b'\n');
                        }
                    }
                    // No terminator at all.
                    5 => wire.truncate(head_end),
                    _ => {}
                }
                wire
            })
    }

    /// Paths for requests, two of which [`serve_frame`] routes.
    const PATHS: &str = "/(zero|owned|none)";

    /// Sends `frame` as one request to a fresh server with a counting
    /// zero-copy route at `/zero` and a counting owned route at
    /// `/owned`, both echoing the body; returns the raw reply and how
    /// often each route ran.
    fn serve_frame(frame: Vec<u8>) -> (Vec<u8>, u32, u32) {
        let sim = Sim::new(1);
        let net = Network::ethernet(&sim);
        let server = HttpServer::bind(&net, "web");
        let runs = Arc::new(Mutex::new((0u32, 0u32)));
        let zero = runs.clone();
        server.route_zero("/zero", move |_, req, reply| {
            zero.lock().0 += 1;
            reply.send_bytes(ResponseHead::ok("text/plain"), req.body)
        });
        let owned = runs.clone();
        server.route("/owned", move |_, req| {
            owned.lock().1 += 1;
            HttpResponse::ok("text/plain", req.body.clone())
        });
        let client = net.attach("pc");
        let reply = net
            .request(client, server.node(), Protocol::Http, frame)
            .expect("the exchange completes");
        let (zero, owned) = *runs.lock();
        (reply, zero, owned)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn one_frame_read_equals_three_scans_on_arbitrary_bytes(
            data in prop::collection::vec(any::<u8>(), 0..200),
        ) {
            check_frame(&data)?;
            check_parses(&data)?;
        }

        #[test]
        fn one_frame_read_equals_three_scans_on_http_soup(data in http_soup()) {
            check_frame(&data)?;
            check_parses(&data)?;
        }

        #[test]
        fn one_frame_read_equals_three_scans_on_single_requests(
            msg in train_message("/[a-z]{0,6}"),
        ) {
            check_frame(&msg)?;
            check_parses(&msg)?;
        }

        #[test]
        fn one_frame_read_equals_three_scans_on_concatenated_requests(
            msgs in prop::collection::vec(train_message("/[a-z]{0,6}"), 2..6),
        ) {
            let frame = msgs.concat();
            check_frame(&frame)?;
            check_parses(&frame)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1000))]

        /// The server never panics and answers every frame with exactly
        /// one response. A route runs at most once, and exactly when the
        /// oracle frames the whole payload as one valid request to its
        /// path; a valid request to any other path is a 404, anything
        /// else a 400.
        #[test]
        fn every_frame_gets_one_response_and_runs_at_most_one_route(
            frame in prop_oneof![
                prop::collection::vec(any::<u8>(), 0..200),
                http_soup(),
                prop::collection::vec(train_message(PATHS), 1..4).prop_map(|m| m.concat()),
            ],
        ) {
            let routed = oracle_read(&frame).map(|(_, path, _)| path.to_owned());
            let (reply, zero, owned) = serve_frame(frame);
            let resp = HttpResponseRef::parse(&reply);
            prop_assert!(resp.is_ok(), "reply {:?}", reply);
            let resp = resp.unwrap();
            let declared = resp.get_header("content-length").and_then(|n| n.parse().ok());
            prop_assert_eq!(declared, Some(resp.body.len()), "one response in {:?}", reply);
            let path = routed.as_deref();
            prop_assert_eq!(zero, u32::from(path == Ok("/zero")));
            prop_assert_eq!(owned, u32::from(path == Ok("/owned")));
            let status = match path {
                Ok("/zero" | "/owned") => 200,
                Ok(_) => 404,
                Err(_) => 400,
            };
            prop_assert_eq!(resp.status, status);
        }
    }
}
