//! SOAP endpoints: an RPC router (the Apache-SOAP `rpcrouter` analogue)
//! and a client, with a CPU cost model for XML processing.

use crate::fault::Fault;
use crate::http::{
    HttpClient, HttpRequestRef, HttpResponseRef, HttpServer, PostHead, Responder, ResponseHead,
    Sent, TcpModel,
};
use crate::rpc::{
    decode_response, fault_envelope, read_response, write_call, write_response, Arg, CallRef,
    RpcCall, SoapError,
};
use crate::value::{Value, ValueError, ValueRef};
use minixml::{Measure, ParseError, Reader, XmlOut};
use parking_lot::Mutex;
use simnet::{Network, NodeId, Sim, SimDuration};
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// The conventional router path, as in Apache SOAP 2.x.
pub const RPC_ROUTER_PATH: &str = "/soap/servlet/rpcrouter";

/// The `Content-Type` of every envelope, request or response.
const XML_CONTENT_TYPE: &str = "text/xml; charset=utf-8";

/// A message body as text: borrowed when it is valid UTF-8 (the one
/// check is far cheaper than a lossy conversion), lossily converted
/// otherwise — the same text either way.
fn body_text(body: &[u8]) -> Cow<'_, str> {
    match std::str::from_utf8(body) {
        Ok(text) => Cow::Borrowed(text),
        Err(_) => String::from_utf8_lossy(body),
    }
}

/// CPU costs of XML processing, modelling the 2002-era Java stack the
/// prototype ran on ("Java's low performance", §2.1).
#[derive(Debug, Clone, Copy)]
pub struct CpuModel {
    /// Cost to parse one byte of XML.
    pub parse_ns_per_byte: u64,
    /// Cost to emit one byte of XML.
    pub emit_ns_per_byte: u64,
    /// Fixed dispatch overhead per call (reflection, type mapping).
    pub dispatch: SimDuration,
}

impl Default for CpuModel {
    fn default() -> Self {
        CpuModel {
            parse_ns_per_byte: 400,
            emit_ns_per_byte: 150,
            dispatch: SimDuration::from_micros(250),
        }
    }
}

impl CpuModel {
    /// A zero-cost model, for isolating wire costs in experiments.
    pub fn free() -> Self {
        CpuModel {
            parse_ns_per_byte: 0,
            emit_ns_per_byte: 0,
            dispatch: SimDuration::ZERO,
        }
    }

    /// The time to parse `bytes` of XML.
    fn parse_cost(&self, bytes: usize) -> SimDuration {
        SimDuration::from_micros(bytes as u64 * self.parse_ns_per_byte / 1_000)
    }

    /// The time to emit `bytes` of XML.
    fn emit_cost(&self, bytes: usize) -> SimDuration {
        SimDuration::from_micros(bytes as u64 * self.emit_ns_per_byte / 1_000)
    }
}

/// A service handler mounted on a [`SoapServer`]. It reads the call
/// in place through the [`CallRef`] and answers through the [`Reply`],
/// which writes straight into the router's response buffer.
pub type ServiceHandler =
    Box<dyn for<'c, 'r> FnMut(&Sim, &CallRef<'c>, Reply<'r>) -> Answered + Send>;

/// How a mounted service answers one call: with a value, with a
/// closure that writes the `return` element, or with a fault. Either
/// way the envelope goes straight into the router's response buffer.
#[derive(Debug)]
pub struct Reply<'r> {
    responder: Responder<'r>,
    method: &'r str,
}

/// Proof that a service answered, with the length of the envelope it
/// wrote: the router charges its emit cost once the handler is done.
#[derive(Debug)]
pub struct Answered {
    sent: Sent,
    body_len: usize,
}

impl Reply<'_> {
    /// Answers with `value` as the `return` element.
    pub fn value(self, value: &Value) -> Answered {
        self.write(|out| value.write_xml("return", out))
    }

    /// Answers with the `return` element `ret` writes, typically from
    /// data the handler only borrows. `ret` runs twice: once into a
    /// counter, so the buffer is reserved exactly, and once into it.
    pub fn write(self, ret: impl Fn(&mut dyn XmlOut)) -> Answered {
        let method = self.method;
        let mut len = Measure::default();
        write_response(&mut len, method, |out| ret(out));
        let sent = self
            .responder
            .send(ResponseHead::ok(XML_CONTENT_TYPE), len.0, |out| {
                write_response(out, method, |out| ret(out))
            });
        Answered {
            sent,
            body_len: len.0,
        }
    }

    /// Answers with a fault envelope, on a 500 as SOAP 1.1 over HTTP
    /// has it.
    pub fn fault(self, fault: &Fault) -> Answered {
        let body = fault_envelope(fault);
        let head = ResponseHead::error(500, "Internal Server Error", XML_CONTENT_TYPE);
        Answered {
            sent: self.responder.send_bytes(head, body.as_bytes()),
            body_len: body.len(),
        }
    }
}

/// A SOAP RPC server: one HTTP endpoint dispatching by target namespace,
/// mirroring Apache SOAP's rpcrouter servlet.
#[derive(Clone)]
pub struct SoapServer {
    http: HttpServer,
    services: Arc<Mutex<HashMap<String, ServiceHandler>>>,
    cpu: CpuModel,
}

impl SoapServer {
    /// Binds a router on a fresh node of `net`.
    pub fn bind(net: &Network, label: &str) -> SoapServer {
        SoapServer::bind_with(net, label, CpuModel::default())
    }

    /// Binds with explicit cost models.
    pub fn bind_with(net: &Network, label: &str, cpu: CpuModel) -> SoapServer {
        let http = HttpServer::bind(net, label);
        let services: Arc<Mutex<HashMap<String, ServiceHandler>>> =
            Arc::new(Mutex::new(HashMap::new()));
        let services2 = services.clone();
        // Zero-copy route: the request is read in place through a
        // checked view, and the handler writes its answer straight
        // into the server's one response buffer.
        http.route_zero(
            RPC_ROUTER_PATH,
            move |sim, req: &HttpRequestRef<'_>, responder: Responder<'_>| {
                sim.advance(cpu.parse_cost(req.body.len()));
                let body = body_text(req.body);
                let answered = match CallRef::parse(&body) {
                    Ok(call) => {
                        sim.advance(cpu.dispatch);
                        let reply = Reply {
                            responder,
                            method: call.method(),
                        };
                        let mut services = services2.lock();
                        match services.get_mut(&*call.namespace()) {
                            Some(h) => h(sim, &call, reply),
                            None => reply.fault(&Fault::client(format!(
                                "no service registered for namespace '{}'",
                                call.namespace()
                            ))),
                        }
                    }
                    Err(e) => Reply {
                        responder,
                        method: "",
                    }
                    .fault(&Fault::client(e.to_string())),
                };
                sim.advance(cpu.emit_cost(answered.body_len));
                answered.sent
            },
        );
        SoapServer {
            http,
            services,
            cpu,
        }
    }

    /// The node the router listens on.
    pub fn node(&self) -> NodeId {
        self.http.node()
    }

    /// Mounts a service under `namespace` (e.g. `urn:vsg:vcr`).
    pub fn mount(
        &self,
        namespace: impl Into<String>,
        handler: impl for<'c, 'r> FnMut(&Sim, &CallRef<'c>, Reply<'r>) -> Answered + Send + 'static,
    ) {
        self.services
            .lock()
            .insert(namespace.into(), Box::new(handler));
    }

    /// This server's CPU model.
    pub fn cpu(&self) -> CpuModel {
        self.cpu
    }
}

impl fmt::Debug for SoapServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SoapServer")
            .field("node", &self.node())
            .field("services", &self.services.lock().len())
            .finish()
    }
}

/// A SOAP RPC client.
#[derive(Debug, Clone)]
pub struct SoapClient {
    http: HttpClient,
    cpu: CpuModel,
    sim: Sim,
}

impl SoapClient {
    /// Attaches a fresh node on `net` as a SOAP client.
    pub fn attach(net: &Network, label: &str) -> SoapClient {
        SoapClient::attach_with(net, label, CpuModel::default(), TcpModel::default())
    }

    /// Attaches with explicit cost models.
    fn attach_with(net: &Network, label: &str, cpu: CpuModel, tcp: TcpModel) -> SoapClient {
        SoapClient {
            http: HttpClient::attach(net, label, tcp),
            cpu,
            sim: net.sim().clone(),
        }
    }

    /// Wraps an existing node as a SOAP client.
    pub fn on_node(net: &Network, node: NodeId, cpu: CpuModel, tcp: TcpModel) -> SoapClient {
        SoapClient {
            http: HttpClient::new(net, node, tcp),
            cpu,
            sim: net.sim().clone(),
        }
    }

    /// The node this client calls from.
    pub fn node(&self) -> NodeId {
        self.http.node()
    }

    /// Invokes `call` on the router at `server`, returning the result
    /// value or the fault/transport error.
    pub fn call(&self, server: NodeId, call: &RpcCall) -> Result<Value, SoapError> {
        self.dispatch(
            server,
            &call.namespace,
            &call.method,
            call.arg_refs().map(|(k, v)| (k, Arg::Value(v))),
            &call.headers,
            |doc| decode_response(doc, Value::decode),
        )
        .map(value_or_null)
    }

    /// Invokes `method` under `namespace` with borrowed arguments —
    /// the hot-path variant that skips assembling an owned [`RpcCall`]
    /// (and thus cloning every argument) just to encode an envelope.
    /// An argument is a `&Value` or a `&str` (see [`Arg`]).
    pub fn call_parts<'a, I, A>(
        &self,
        server: NodeId,
        namespace: &str,
        method: &str,
        args: I,
    ) -> Result<Value, SoapError>
    where
        I: IntoIterator<Item = (&'a str, A)>,
        I::IntoIter: Clone,
        A: Into<Arg<'a>>,
    {
        self.call_parts_with_headers(server, namespace, method, args, NO_HEADERS)
    }

    /// [`SoapClient::call_parts`] with `SOAP-ENV:Header` entries
    /// (out-of-band metadata such as a trace context).
    pub fn call_parts_with_headers<'a, I, A, K: AsRef<str>, V: AsRef<str>>(
        &self,
        server: NodeId,
        namespace: &str,
        method: &str,
        args: I,
        headers: &[(K, V)],
    ) -> Result<Value, SoapError>
    where
        I: IntoIterator<Item = (&'a str, A)>,
        I::IntoIter: Clone,
        A: Into<Arg<'a>>,
    {
        self.dispatch(
            server,
            namespace,
            method,
            args.into_iter().map(|(k, a)| (k, a.into())),
            headers,
            |doc| decode_response(doc, Value::decode),
        )
        .map(value_or_null)
    }

    /// [`SoapClient::call_parts`] that hands the reply's `return`
    /// element to `decode` instead of building a [`Value`]: the entry
    /// point for callers that read a reply straight into their own
    /// types. `Ok(None)` is a reply with no `return` element; a fault
    /// and a transport failure are errors exactly as for `call_parts`,
    /// and so is the first error `decode` reports.
    pub fn call_parts_decode<'a, I, A, T>(
        &self,
        server: NodeId,
        namespace: &str,
        method: &str,
        args: I,
        decode: impl FnMut(&mut Reader<'_>) -> Result<Result<T, ValueError>, ParseError>,
    ) -> Result<Option<T>, SoapError>
    where
        I: IntoIterator<Item = (&'a str, A)>,
        I::IntoIter: Clone,
        A: Into<Arg<'a>>,
    {
        self.call_parts_decode_with_headers(server, namespace, method, args, NO_HEADERS, decode)
    }

    /// [`SoapClient::call_parts_decode`] with `SOAP-ENV:Header`
    /// entries.
    pub fn call_parts_decode_with_headers<'a, I, A, K: AsRef<str>, V: AsRef<str>, T>(
        &self,
        server: NodeId,
        namespace: &str,
        method: &str,
        args: I,
        headers: &[(K, V)],
        decode: impl FnMut(&mut Reader<'_>) -> Result<Result<T, ValueError>, ParseError>,
    ) -> Result<Option<T>, SoapError>
    where
        I: IntoIterator<Item = (&'a str, A)>,
        I::IntoIter: Clone,
        A: Into<Arg<'a>>,
    {
        self.dispatch(
            server,
            namespace,
            method,
            args.into_iter().map(|(k, a)| (k, a.into())),
            headers,
            |doc| decode_response(doc, decode),
        )
    }

    /// [`SoapClient::call_parts`] that hands the reply's `return`
    /// element to `read` as a checked in-place view (`None` for a reply
    /// without one) instead of building a [`Value`]: strings stay
    /// slices of the reply, and a compound is walked member by member.
    /// The reply is checked as `call_parts` checks it, so `read` runs
    /// only on a reply `call_parts` would have decoded.
    pub fn call_parts_ref<'a, I, A, T>(
        &self,
        server: NodeId,
        namespace: &str,
        method: &str,
        args: I,
        read: impl FnOnce(Option<ValueRef<'_>>) -> T,
    ) -> Result<T, SoapError>
    where
        I: IntoIterator<Item = (&'a str, A)>,
        I::IntoIter: Clone,
        A: Into<Arg<'a>>,
    {
        self.dispatch(
            server,
            namespace,
            method,
            args.into_iter().map(|(k, a)| (k, a.into())),
            NO_HEADERS,
            |doc| read_response(doc, read),
        )
    }

    /// Writes the POST — head, `SOAPAction` in place, then the envelope
    /// — into one buffer reserved to its exact size (the envelope is
    /// measured first), sends it, and hands the answer's envelope to
    /// `finish`, which reads only its return element or its fault.
    fn dispatch<'a, K: AsRef<str>, V: AsRef<str>, T>(
        &self,
        server: NodeId,
        namespace: &str,
        method: &str,
        args: impl Iterator<Item = (&'a str, Arg<'a>)> + Clone,
        headers: &[(K, V)],
        finish: impl FnOnce(&str) -> Result<T, SoapError>,
    ) -> Result<T, SoapError> {
        let mut body_len = Measure::default();
        write_call(&mut body_len, namespace, method, args.clone(), headers);
        let body_len = body_len.0;
        self.sim.advance(self.cpu.emit_cost(body_len));
        let head = PostHead {
            path: RPC_ROUTER_PATH,
            content_type: XML_CONTENT_TYPE,
            body_len,
            header: ("SOAPAction", &["\"", namespace, "#", method, "\""]),
        };
        let mut payload = Vec::with_capacity(head.len() + body_len);
        head.write(&mut payload);
        write_call(&mut payload, namespace, method, args, headers);
        let raw = self
            .http
            .send_raw(server, payload)
            .map_err(SoapError::Http)?;
        let resp = HttpResponseRef::parse(&raw).map_err(SoapError::Http)?;
        self.sim.advance(self.cpu.parse_cost(resp.body.len()));
        // Both 200s and 500-carried faults parse as envelopes.
        finish(&body_text(resp.body))
    }
}

/// Type hint for header-less calls.
const NO_HEADERS: &[(&str, &str)] = &[];

/// A `Value` reply: a response without a `return` element is `Null`.
fn value_or_null(v: Option<Value>) -> Value {
    v.unwrap_or(Value::Null)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Sim, SoapServer, SoapClient) {
        let sim = Sim::new(1);
        let net = Network::ethernet(&sim);
        let server = SoapServer::bind(&net, "router");
        let client = SoapClient::attach(&net, "pc");
        (sim, server, client)
    }

    #[test]
    fn end_to_end_rpc() {
        let (_sim, server, client) = setup();
        server.mount("urn:calc", |_, call, reply| {
            let a = call.get("a").and_then(|v| v.as_int()).unwrap_or(0);
            let b = call.get("b").and_then(|v| v.as_int()).unwrap_or(0);
            match call.method() {
                "add" => reply.value(&Value::Int(a + b)),
                other => reply.fault(&Fault::client(format!("no method {other}"))),
            }
        });
        let result = client
            .call(
                server.node(),
                &RpcCall::new("urn:calc", "add").arg("a", 2).arg("b", 40),
            )
            .unwrap();
        assert_eq!(result, Value::Int(42));
    }

    #[test]
    fn fault_propagates_to_caller() {
        let (_sim, server, client) = setup();
        server.mount("urn:calc", |_, _, reply| {
            reply.fault(&Fault::server("overheated"))
        });
        let err = client
            .call(server.node(), &RpcCall::new("urn:calc", "add"))
            .unwrap_err();
        match err {
            SoapError::Fault(f) => assert_eq!(f.string, "overheated"),
            other => panic!("expected fault, got {other:?}"),
        }
    }

    #[test]
    fn unknown_namespace_is_client_fault() {
        let (_sim, _server, client) = setup();
        let err = client
            .call(_server_node(&_server), &RpcCall::new("urn:ghost", "boo"))
            .unwrap_err();
        match err {
            SoapError::Fault(f) => {
                assert_eq!(f.code, crate::fault::FaultCode::Client);
                assert!(f.string.contains("urn:ghost"));
            }
            other => panic!("expected fault, got {other:?}"),
        }
    }

    fn _server_node(s: &SoapServer) -> NodeId {
        s.node()
    }

    #[test]
    fn rpc_costs_dominated_by_envelope_overhead() {
        // A trivial call still moves >600 wire bytes and burns visible
        // virtual time — the "SOAP is light but not free" observation
        // that E4 quantifies.
        let (sim, server, client) = setup();
        server.mount("urn:x", |_, _, reply| reply.value(&Value::Int(1)));
        let before = sim.now();
        client
            .call(server.node(), &RpcCall::new("urn:x", "ping"))
            .unwrap();
        let elapsed = sim.now() - before;
        assert!(elapsed.as_micros() > 1_000, "elapsed {elapsed}");
    }

    #[test]
    fn client_against_plain_http_server_fails_cleanly() {
        // A SOAP client pointed at a web server with no rpcrouter gets a
        // clean error, not a panic or a bogus value.
        let sim = Sim::new(1);
        let net = Network::ethernet(&sim);
        let web = crate::http::HttpServer::bind(&net, "plain-web");
        web.route("/index.html", |_, _| {
            crate::http::HttpResponse::ok("text/html", "<html/>")
        });
        let client = SoapClient::attach(&net, "pc");
        let err = client
            .call(web.node(), &RpcCall::new("urn:x", "m"))
            .unwrap_err();
        // The 404 body is not a SOAP envelope.
        assert!(
            matches!(
                err,
                crate::rpc::SoapError::Xml(_) | crate::rpc::SoapError::Malformed(_)
            ),
            "{err:?}"
        );
    }

    #[test]
    fn client_against_dead_node_reports_http_error() {
        let sim = Sim::new(1);
        let net = Network::ethernet(&sim);
        let client = SoapClient::attach(&net, "pc");
        let err = client
            .call(simnet::NodeId(999), &RpcCall::new("urn:x", "m"))
            .unwrap_err();
        assert!(matches!(err, crate::rpc::SoapError::Http(_)), "{err:?}");
    }

    #[test]
    fn free_cpu_model_is_cheaper() {
        let sim = Sim::new(1);
        let net = Network::ethernet(&sim);
        let server = SoapServer::bind_with(&net, "r", CpuModel::free());
        server.mount("urn:x", |_, _, reply| reply.value(&Value::Null));
        let free_client = SoapClient::attach_with(&net, "c", CpuModel::free(), TcpModel::default());
        let t0 = sim.now();
        free_client
            .call(server.node(), &RpcCall::new("urn:x", "m"))
            .unwrap();
        let free_cost = sim.now() - t0;

        let sim2 = Sim::new(1);
        let net2 = Network::ethernet(&sim2);
        let server2 = SoapServer::bind(&net2, "r");
        server2.mount("urn:x", |_, _, reply| reply.value(&Value::Null));
        let client2 = SoapClient::attach(&net2, "c");
        let t0 = sim2.now();
        client2
            .call(server2.node(), &RpcCall::new("urn:x", "m"))
            .unwrap();
        let java_cost = sim2.now() - t0;
        assert!(java_cost > free_cost, "{java_cost} vs {free_cost}");
    }
}
