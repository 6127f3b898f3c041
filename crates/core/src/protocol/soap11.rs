//! The prototype's VSG protocol: SOAP 1.1 over HTTP.
//!
//! "We implement the prototype of our framework with SOAP, a simple
//! protocol" (§3.1); §4.1 lists its advantages (simplicity, HTTP
//! scalability, vendor-neutral XML) — and §4.2 its costs (client/server
//! only, heavy TCP).

use super::{
    member_from_value, member_to_value, result_from_value, result_to_value, GatewayHandler,
    VsgProtocol, VsgRequest,
};
use crate::error::MetaError;
use crate::intern::Name;
use parking_lot::Mutex;
use simnet::{Network, NodeId};
use soap::{CpuModel, Fault, RpcCall, SoapClient, SoapError, SoapServer, TcpModel, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// The namespace every gateway mounts.
pub const GATEWAY_NS: &str = "urn:vsg:gateway";
const SERVICE_ARG: &str = "__service";
/// The `SOAP-ENV:Header` entry carrying the caller's trace context.
const TRACE_HEADER: &str = "TraceContext";
/// The method name of a batch envelope. Its `SOAP-ENV:Header` carries a
/// [`BATCH_HEADER`] entry (the moral equivalent of a `mustUnderstand`
/// extension: an endpoint that doesn't implement batching rejects the
/// unknown method rather than half-executing it), and its arguments
/// `m0…mN` are the member records.
const BATCH_METHOD: &str = "__batch__";
/// The header entry declaring the member count of a batch envelope.
const BATCH_HEADER: &str = "Batch";

/// SOAP 1.1 over simulated HTTP.
///
/// Holds one [`SoapClient`] per calling node rather than constructing a
/// fresh one inside every `call` — the client is just a handle, but
/// handle churn on the invocation hot path is pure waste. Node ids are
/// network-local, so cached clients are validated against the network
/// they were created on.
#[derive(Debug, Clone)]
pub struct Soap11 {
    cpu: CpuModel,
    tcp: TcpModel,
    clients: Arc<Mutex<HashMap<NodeId, (Network, SoapClient)>>>,
}

impl Soap11 {
    /// The prototype's configuration (2002 Java XML stack, per-request
    /// TCP connections).
    pub fn new() -> Soap11 {
        Soap11::with_models(CpuModel::default(), TcpModel::default())
    }

    /// The multiplexed-wire configuration: same CPU model, but
    /// persistent per-peer TCP connections instead of the prototype's
    /// connect-per-call (only the first exchange to each gateway pays
    /// the handshake).
    pub fn multiplexed() -> Soap11 {
        Soap11::with_models(CpuModel::default(), TcpModel::persistent())
    }

    /// A configuration with custom cost models (for ablations).
    pub fn with_models(cpu: CpuModel, tcp: TcpModel) -> Soap11 {
        Soap11 {
            cpu,
            tcp,
            clients: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    fn client(&self, net: &Network, from: NodeId) -> SoapClient {
        let mut clients = self.clients.lock();
        match clients.get(&from) {
            Some((cached_net, client)) if cached_net.same_as(net) => client.clone(),
            _ => {
                let client = SoapClient::on_node(net, from, self.cpu, self.tcp);
                clients.insert(from, (net.clone(), client.clone()));
                client
            }
        }
    }
}

impl Default for Soap11 {
    fn default() -> Self {
        Soap11::new()
    }
}

impl VsgProtocol for Soap11 {
    fn name(&self) -> &'static str {
        "soap"
    }

    fn bind(&self, net: &Network, label: &str, handler: GatewayHandler) -> NodeId {
        let server = SoapServer::bind_with(net, label, self.cpu, self.tcp);
        server.mount(GATEWAY_NS, move |sim, call: &mut RpcCall| {
            // A batch envelope: every `mN` argument is a member record;
            // the reply is the list of per-member results (application
            // faults stay per member, so the envelope itself is a 200).
            if call.method == BATCH_METHOD && call.get_header(BATCH_HEADER).is_some() {
                let results = call
                    .args
                    .drain(..)
                    .map(|(_, member)| {
                        let result = match member_from_value(member) {
                            Some(req) => handler(sim, &req),
                            None => Err(MetaError::Protocol("malformed batch member".into())),
                        };
                        result_to_value(&result)
                    })
                    .collect();
                return Ok(Value::List(results));
            }
            // The arguments move into the request; the last `__service`
            // names the target, and a non-string one names none.
            let mut service = None;
            call.args.retain(|(k, v)| {
                if k != SERVICE_ARG {
                    return true;
                }
                service = v.as_str().map(Name::new);
                false
            });
            let Some(service) = service else {
                return Err(Fault::client("missing __service argument"));
            };
            let req = VsgRequest {
                service,
                operation: Name::new(&call.method),
                args: std::mem::take(&mut call.args),
                trace: call
                    .get_header(TRACE_HEADER)
                    .and_then(crate::trace::TraceContext::from_wire),
            };
            handler(sim, &req).map_err(|e| Fault::server(e.to_string()))
        });
        server.node()
    }

    fn call(
        &self,
        net: &Network,
        from: NodeId,
        to: NodeId,
        req: &VsgRequest,
    ) -> Result<Value, MetaError> {
        let client = self.client(net, from);
        // Marshal from borrows: the only owned datum is the service
        // name riding along as the routing argument.
        let service = Value::Str(req.service.as_str().to_owned());
        let args = std::iter::once((SERVICE_ARG, &service))
            .chain(req.args.iter().map(|(k, v)| (k.as_str(), v)));
        let result = match &req.trace {
            // A trace context rides as a SOAP header element, never as
            // a call argument.
            Some(ctx) => {
                let headers = [(TRACE_HEADER, ctx.to_wire())];
                client.call_parts_with_headers(to, GATEWAY_NS, &req.operation, args, &headers)
            }
            None => client.call_parts(to, GATEWAY_NS, &req.operation, args),
        };
        result.map_err(|e| match e {
            // Fault strings carry a Display-formatted MetaError from
            // the serving gateway; recover the typed error so stale
            // routes (UnknownService) stay distinguishable from
            // application faults.
            SoapError::Fault(f) => MetaError::from_fault_string(&f.string),
            // HTTP-layer failures arrive pre-classified by delivery
            // leg, so the resilience layer knows whether the remote
            // gateway may have executed the operation.
            SoapError::Http(h) => MetaError::from_http_error(&h),
            other => MetaError::Protocol(other.to_string()),
        })
    }

    fn call_batch(
        &self,
        net: &Network,
        from: NodeId,
        to: NodeId,
        reqs: &[VsgRequest],
    ) -> Result<Vec<Result<Value, MetaError>>, MetaError> {
        if reqs.is_empty() {
            return Ok(Vec::new());
        }
        let client = self.client(net, from);
        // All member keys ("m0".."mN") share one backing buffer — one
        // allocation for the lot instead of a `format!` String each.
        use std::fmt::Write as _;
        let mut keybuf = String::with_capacity(reqs.len() * 4);
        let mut spans = Vec::with_capacity(reqs.len());
        for i in 0..reqs.len() {
            let start = keybuf.len();
            write!(keybuf, "m{i}").expect("string write");
            spans.push(start..keybuf.len());
        }
        let members: Vec<Value> = reqs.iter().map(member_to_value).collect();
        let args = spans
            .iter()
            .zip(&members)
            .map(|(span, v)| (&keybuf[span.clone()], v));
        let headers = [(BATCH_HEADER, reqs.len().to_string())];
        let reply = client
            .call_parts_with_headers(to, GATEWAY_NS, BATCH_METHOD, args, &headers)
            .map_err(|e| match e {
                SoapError::Fault(f) => MetaError::from_fault_string(&f.string),
                SoapError::Http(h) => MetaError::from_http_error(&h),
                other => MetaError::Protocol(other.to_string()),
            })?;
        let Value::List(items) = reply else {
            return Err(MetaError::Protocol("bad batch reply body".into()));
        };
        if items.len() != reqs.len() {
            return Err(MetaError::Protocol("batch reply arity mismatch".into()));
        }
        Ok(items.into_iter().map(result_from_value).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::conformance;

    #[test]
    fn soap11_conformance() {
        conformance::run(&Soap11::new());
    }

    #[test]
    fn soap_has_no_push() {
        assert!(!Soap11::new().supports_push());
        assert_eq!(Soap11::new().name(), "soap");
    }

    #[test]
    fn soap_call_moves_hundreds_of_wire_bytes() {
        use simnet::{Network, Protocol, Sim};
        use std::sync::Arc;
        let sim = Sim::new(1);
        let net = Network::ethernet(&sim);
        let p = Soap11::new();
        let server = p.bind(&net, "gw", Arc::new(|_, _| Ok(Value::Null)));
        let client = net.attach("c");
        p.call(&net, client, server, &VsgRequest::new("svc", "ping"))
            .unwrap();
        let http = net.with_stats(|s| s.protocol(Protocol::Http));
        assert!(
            http.bytes > 600,
            "SOAP ping moved only {} bytes",
            http.bytes
        );
    }
}
