//! SOAP endpoints: an RPC router (the Apache-SOAP `rpcrouter` analogue)
//! and a client, with a CPU cost model for XML processing.

use crate::fault::Fault;
use crate::http::{
    HttpClient, HttpRequestRef, HttpResponseRef, HttpServer, PostHead, Responder, ResponseHead,
    TcpModel,
};
use crate::rpc::{decode_response, fault_envelope, write_call, write_response, RpcCall, SoapError};
use crate::value::{Value, ValueError};
use minixml::{Measure, ParseError, Reader};
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
    pub fn parse_cost(&self, bytes: usize) -> SimDuration {
        SimDuration::from_micros(bytes as u64 * self.parse_ns_per_byte / 1_000)
    }

    /// The time to emit `bytes` of XML.
    pub fn emit_cost(&self, bytes: usize) -> SimDuration {
        SimDuration::from_micros(bytes as u64 * self.emit_ns_per_byte / 1_000)
    }
}

/// A service handler mounted on a [`SoapServer`]. It gets the decoded
/// call by `&mut`, so it can move the arguments out instead of cloning
/// them; the router answers for the call's `method`.
pub type ServiceHandler = Box<dyn FnMut(&Sim, &mut RpcCall) -> Result<Value, Fault> + Send>;

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
        SoapServer::bind_with(net, label, CpuModel::default(), TcpModel::default())
    }

    /// Binds with explicit cost models.
    pub fn bind_with(net: &Network, label: &str, cpu: CpuModel, tcp: TcpModel) -> SoapServer {
        let http = HttpServer::bind(net, label, tcp);
        let services: Arc<Mutex<HashMap<String, ServiceHandler>>> =
            Arc::new(Mutex::new(HashMap::new()));
        let services2 = services.clone();
        // Zero-copy route: the request is read in place and decoded in
        // one pass, and the response is written straight into the
        // server's one response buffer.
        http.route_zero(
            RPC_ROUTER_PATH,
            move |sim, req: &HttpRequestRef<'_>, reply: Responder<'_>| {
                sim.advance(cpu.parse_cost(req.body.len()));
                let outcome = match RpcCall::from_envelope(&body_text(req.body)) {
                    Ok(mut call) => {
                        sim.advance(cpu.dispatch);
                        let mut services = services2.lock();
                        match services.get_mut(&call.namespace) {
                            Some(h) => h(sim, &mut call).map(|v| (call.method, v)),
                            None => Err(Fault::client(format!(
                                "no service registered for namespace '{}'",
                                call.namespace
                            ))),
                        }
                    }
                    Err(e) => Err(Fault::client(e.to_string())),
                };
                // SOAP 1.1 over HTTP: faults ride a 500, successes a 200.
                match outcome {
                    Ok((method, value)) => {
                        let mut len = Measure::default();
                        write_response(&mut len, &method, &value);
                        sim.advance(cpu.emit_cost(len.0));
                        reply.send(ResponseHead::ok(XML_CONTENT_TYPE), len.0, |out| {
                            write_response(out, &method, &value)
                        })
                    }
                    Err(fault) => {
                        let body = fault_envelope(&fault);
                        sim.advance(cpu.emit_cost(body.len()));
                        let head =
                            ResponseHead::error(500, "Internal Server Error", XML_CONTENT_TYPE);
                        reply.send_bytes(head, body.as_bytes())
                    }
                }
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
        handler: impl FnMut(&Sim, &mut RpcCall) -> Result<Value, Fault> + Send + 'static,
    ) {
        self.services
            .lock()
            .insert(namespace.into(), Box::new(handler));
    }

    /// Unmounts a service.
    pub fn unmount(&self, namespace: &str) {
        self.services.lock().remove(namespace);
    }

    /// Namespaces currently mounted.
    pub fn namespaces(&self) -> Vec<String> {
        let mut v: Vec<String> = self.services.lock().keys().cloned().collect();
        v.sort();
        v
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
    pub fn attach_with(net: &Network, label: &str, cpu: CpuModel, tcp: TcpModel) -> SoapClient {
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
            call.arg_refs(),
            &call.headers,
            Value::decode,
        )
        .map(value_or_null)
    }

    /// Invokes `method` under `namespace` with borrowed arguments —
    /// the hot-path variant that skips assembling an owned [`RpcCall`]
    /// (and thus cloning every argument) just to encode an envelope.
    pub fn call_parts<'a, I>(
        &self,
        server: NodeId,
        namespace: &str,
        method: &str,
        args: I,
    ) -> Result<Value, SoapError>
    where
        I: IntoIterator<Item = (&'a str, &'a Value)>,
        I::IntoIter: Clone,
    {
        self.call_parts_with_headers(server, namespace, method, args, NO_HEADERS)
    }

    /// [`SoapClient::call_parts`] with `SOAP-ENV:Header` entries
    /// (out-of-band metadata such as a trace context).
    pub fn call_parts_with_headers<'a, I, K: AsRef<str>, V: AsRef<str>>(
        &self,
        server: NodeId,
        namespace: &str,
        method: &str,
        args: I,
        headers: &[(K, V)],
    ) -> Result<Value, SoapError>
    where
        I: IntoIterator<Item = (&'a str, &'a Value)>,
        I::IntoIter: Clone,
    {
        self.dispatch(
            server,
            namespace,
            method,
            args.into_iter(),
            headers,
            Value::decode,
        )
        .map(value_or_null)
    }

    /// [`SoapClient::call_parts`] that hands the reply's `return`
    /// element to `decode` instead of building a [`Value`]: the entry
    /// point for callers that read a reply straight into their own
    /// types. `Ok(None)` is a reply with no `return` element; a fault
    /// and a transport failure are errors exactly as for `call_parts`,
    /// and so is the first error `decode` reports.
    pub fn call_parts_decode<'a, I, T>(
        &self,
        server: NodeId,
        namespace: &str,
        method: &str,
        args: I,
        decode: impl FnMut(&mut Reader<'_>) -> Result<Result<T, ValueError>, ParseError>,
    ) -> Result<Option<T>, SoapError>
    where
        I: IntoIterator<Item = (&'a str, &'a Value)>,
        I::IntoIter: Clone,
    {
        self.dispatch(
            server,
            namespace,
            method,
            args.into_iter(),
            NO_HEADERS,
            decode,
        )
    }

    /// Writes the POST — head, `SOAPAction` in place, then the envelope
    /// — into one buffer reserved to its exact size (the envelope is
    /// measured first), sends it, and decodes only the return element,
    /// through `decode`, or the fault of the answer.
    fn dispatch<'a, K: AsRef<str>, V: AsRef<str>, T>(
        &self,
        server: NodeId,
        namespace: &str,
        method: &str,
        args: impl Iterator<Item = (&'a str, &'a Value)> + Clone,
        headers: &[(K, V)],
        decode: impl FnMut(&mut Reader<'_>) -> Result<Result<T, ValueError>, ParseError>,
    ) -> Result<Option<T>, SoapError> {
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
        decode_response(&body_text(resp.body), decode)
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
        server.mount("urn:calc", |_, call| {
            let a = call.get("a").and_then(Value::as_int).unwrap_or(0);
            let b = call.get("b").and_then(Value::as_int).unwrap_or(0);
            match call.method.as_str() {
                "add" => Ok(Value::Int(a + b)),
                other => Err(Fault::client(format!("no method {other}"))),
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
        server.mount("urn:calc", |_, _| Err(Fault::server("overheated")));
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
    fn mount_unmount_cycle() {
        let (_sim, server, client) = setup();
        server.mount("urn:a", |_, _| Ok(Value::Null));
        assert_eq!(server.namespaces(), vec!["urn:a".to_owned()]);
        assert!(client
            .call(server.node(), &RpcCall::new("urn:a", "m"))
            .is_ok());
        server.unmount("urn:a");
        assert!(server.namespaces().is_empty());
        assert!(client
            .call(server.node(), &RpcCall::new("urn:a", "m"))
            .is_err());
    }

    #[test]
    fn rpc_costs_dominated_by_envelope_overhead() {
        // A trivial call still moves >600 wire bytes and burns visible
        // virtual time — the "SOAP is light but not free" observation
        // that E4 quantifies.
        let (sim, server, client) = setup();
        server.mount("urn:x", |_, _| Ok(Value::Int(1)));
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
        let web =
            crate::http::HttpServer::bind(&net, "plain-web", crate::http::TcpModel::default());
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
        let server = SoapServer::bind_with(&net, "r", CpuModel::free(), TcpModel::default());
        server.mount("urn:x", |_, _| Ok(Value::Null));
        let free_client = SoapClient::attach_with(&net, "c", CpuModel::free(), TcpModel::default());
        let t0 = sim.now();
        free_client
            .call(server.node(), &RpcCall::new("urn:x", "m"))
            .unwrap();
        let free_cost = sim.now() - t0;

        let sim2 = Sim::new(1);
        let net2 = Network::ethernet(&sim2);
        let server2 = SoapServer::bind(&net2, "r");
        server2.mount("urn:x", |_, _| Ok(Value::Null));
        let client2 = SoapClient::attach(&net2, "c");
        let t0 = sim2.now();
        client2
            .call(server2.node(), &RpcCall::new("urn:x", "m"))
            .unwrap();
        let java_cost = sim2.now() - t0;
        assert!(java_cost > free_cost, "{java_cost} vs {free_cost}");
    }
}
