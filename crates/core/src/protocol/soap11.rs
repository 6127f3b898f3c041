//! The prototype's VSG protocol: SOAP 1.1 over HTTP.
//!
//! "We implement the prototype of our framework with SOAP, a simple
//! protocol" (§3.1); §4.1 lists its advantages (simplicity, HTTP
//! scalability, vendor-neutral XML) — and §4.2 its costs (client/server
//! only, heavy TCP).

use super::{GatewayHandler, VsgProtocol, VsgRequest};
use crate::error::MetaError;
use crate::intern::Name;
use minixml::{ParseError, Reader, XmlOut};
use parking_lot::Mutex;
use simnet::{Network, NodeId};
use soap::{
    write_compound_xml, write_str_xml, Arg, Compound, CpuModel, Fault, SoapClient, SoapError,
    SoapServer, TcpModel, Value, ValueError, ValueRef,
};
use std::collections::HashMap;
use std::sync::Arc;

/// The namespace every gateway mounts.
const GATEWAY_NS: &str = "urn:vsg:gateway";
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
/// network-local and every home of a fleet shares one protocol, so the
/// clients are keyed by network and node: keyed by node alone, homes
/// whose gateways sit on the same node id would replace each other's
/// client (and its persistent connections) whenever their calls
/// alternate, which on the parallel scheduler depends on thread timing.
#[derive(Debug, Clone)]
pub struct Soap11 {
    cpu: CpuModel,
    tcp: TcpModel,
    /// Each client holds its network, which keeps the network's
    /// identity in the key from being reused.
    clients: Arc<Mutex<HashMap<(usize, NodeId), SoapClient>>>,
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
        let key = (net.identity(), from);
        let mut clients = self.clients.lock();
        if let Some(client) = clients.get(&key) {
            return client.clone();
        }
        let client = SoapClient::on_node(net, from, self.cpu, self.tcp);
        clients.insert(key, client.clone());
        client
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
        let server = SoapServer::bind_with(net, label, self.cpu);
        server.mount(GATEWAY_NS, move |sim, call, reply| {
            // A batch envelope: every `mN` argument is a member record;
            // the reply is the list of per-member results (application
            // faults stay per member, so the envelope itself is a 200),
            // written straight from the results.
            if call.method() == BATCH_METHOD && call.get_header(BATCH_HEADER).is_some() {
                let results: Vec<Result<Value, MetaError>> = call
                    .args()
                    .map(|(_, member)| match member_from_ref(&member) {
                        Some(req) => handler(sim, &req),
                        None => Err(MetaError::Protocol("malformed batch member".into())),
                    })
                    .collect();
                return reply.write(|out| {
                    write_compound_xml(Compound::Array, "return", results.len(), out, |out| {
                        for result in &results {
                            write_result(result, out);
                        }
                    });
                });
            }
            // The last `__service` names the target, and a non-string
            // one names none; it is interned straight from the view, and
            // only the real arguments are copied into the request.
            let mut service = None;
            let mut args = Vec::with_capacity(call.args().len().saturating_sub(1));
            for (name, value) in call.args() {
                if name == SERVICE_ARG {
                    service = value.as_str().map(|s| Name::new(&s));
                } else {
                    args.push((name.to_owned(), value.to_owned()));
                }
            }
            let Some(service) = service else {
                return reply.fault(&Fault::client("missing __service argument"));
            };
            let req = VsgRequest {
                service,
                operation: Name::new(call.method()),
                args,
                trace: call
                    .get_header(TRACE_HEADER)
                    .and_then(|t| crate::trace::TraceContext::from_wire(&t)),
            };
            match handler(sim, &req) {
                Ok(v) => reply.value(&v),
                Err(e) => reply.fault(&Fault::server(e.to_string())),
            }
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
        // Marshal from borrows: the service name rides along as the
        // routing argument, written straight from the interned name.
        let args = std::iter::once((SERVICE_ARG, Arg::Str(&req.service)))
            .chain(req.args.iter().map(|(k, v)| (k.as_str(), Arg::Value(v))));
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
        // allocation for the lot instead of a `format!` String each —
        // and each member is written straight from its request.
        use std::fmt::Write as _;
        let mut keybuf = String::with_capacity(reqs.len() * 4);
        let members: Vec<_> = reqs
            .iter()
            .enumerate()
            .map(|(i, req)| {
                let start = keybuf.len();
                write!(keybuf, "m{i}").expect("string write");
                let write = move |name: &str, out: &mut dyn XmlOut| write_member(req, name, out);
                (start..keybuf.len(), write)
            })
            .collect();
        let args = members
            .iter()
            .map(|(span, write)| (&keybuf[span.clone()], Arg::Write(write)));
        let headers = [(BATCH_HEADER, reqs.len().to_string())];
        let results = client
            .call_parts_decode_with_headers(to, GATEWAY_NS, BATCH_METHOD, args, &headers, |r| {
                read_results(r, reqs.len())
            })
            .map_err(|e| match e {
                SoapError::Fault(f) => MetaError::from_fault_string(&f.string),
                SoapError::Http(h) => MetaError::from_http_error(&h),
                other => MetaError::Protocol(other.to_string()),
            })?;
        let Some(Some(results)) = results else {
            return Err(MetaError::Protocol("bad batch reply body".into()));
        };
        if results.len() != reqs.len() {
            return Err(MetaError::Protocol("batch reply arity mismatch".into()));
        }
        Ok(results)
    }
}

/// What a reply reader gives: the document's error, the value's, or
/// what it read.
type Read<T> = Result<Result<T, ValueError>, ParseError>;

/// Reads a batch reply's `return` element in one pass: each member's
/// result, of which only the `ok` value or the fault text is kept, into
/// room for the `expected` results. `None` when it is no Array; an
/// element that would not decode is the reply's error, as it is for a
/// `Value`.
fn read_results(
    r: &mut Reader<'_>,
    expected: usize,
) -> Read<Option<Vec<Result<Value, MetaError>>>> {
    if Value::compound(r) != Some(Compound::Array) {
        return Ok(Value::decode(r)?.map(|_| None));
    }
    let mut results = Vec::with_capacity(expected);
    let read = Value::decode_members(r, |_, r| {
        Ok(read_result(r)?.map(|result| results.push(result)))
    })?;
    Ok(read.map(|()| Some(results)))
}

/// Reads one member's result as `result_from_value` reads it from the
/// decoded `Value`: the first `ok` field is the value; without one, the
/// first `err` field must be the fault text.
fn read_result(r: &mut Reader<'_>) -> Read<Result<Value, MetaError>> {
    let malformed = || MetaError::Protocol("malformed batch member result".into());
    if Value::compound(r) != Some(Compound::Struct) {
        return Ok(Value::decode(r)?.map(|_| Err(malformed())));
    }
    let (mut ok, mut err) = (None, None);
    let read = Value::decode_members(r, |name, r| {
        Ok(Value::decode(r)?.map(|v| match name {
            "ok" => drop(ok.get_or_insert(v)),
            "err" => drop(err.get_or_insert(v)),
            _ => {}
        }))
    })?;
    Ok(read.map(|()| match (ok, err) {
        (Some(ok), _) => Ok(ok),
        (None, Some(Value::Str(fault))) => Err(MetaError::from_fault_string(&fault)),
        _ => Err(malformed()),
    }))
}

/// Writes `req` as the batch member element `name`: the bytes of
/// `member_to_value(req).write_xml(name, ..)`, from the borrowed
/// request.
fn write_member(req: &VsgRequest, name: &str, out: &mut dyn XmlOut) {
    let fields = if req.trace.is_some() { 4 } else { 3 };
    write_compound_xml(Compound::Struct, name, fields, out, |out| {
        write_str_xml("s", &req.service, out);
        write_str_xml("o", &req.operation, out);
        write_compound_xml(Compound::Struct, "a", req.args.len(), out, |out| {
            for (k, v) in &req.args {
                v.write_xml(k, out);
            }
        });
        if let Some(ctx) = &req.trace {
            write_str_xml("t", &ctx.to_wire(), out);
        }
    });
}

/// Writes a member's result as a batch reply `item`: the bytes of
/// `result_to_value(result).write_xml("item", ..)`.
fn write_result(result: &Result<Value, MetaError>, out: &mut dyn XmlOut) {
    write_compound_xml(Compound::Struct, "item", 1, out, |out| match result {
        Ok(v) => v.write_xml("ok", out),
        Err(e) => write_str_xml("err", &e.to_string(), out),
    });
}

/// Reads a batch member record straight from the view (the first field
/// of each name counts, as `Value::field` reads them): the names are
/// interned, and only the arguments are copied out.
fn member_from_ref(member: &ValueRef<'_>) -> Option<VsgRequest> {
    if member.compound() != Some(Compound::Struct) {
        return None;
    }
    let (mut service, mut operation, mut args, mut trace) = (None, None, None, None);
    for (k, v) in member.members() {
        let slot = match k {
            "s" => &mut service,
            "o" => &mut operation,
            "a" => &mut args,
            "t" => &mut trace,
            _ => continue,
        };
        slot.get_or_insert(v);
    }
    let service = service?.as_str()?;
    let operation = operation?.as_str()?;
    let Value::Record(args) = args?.to_owned() else {
        return None;
    };
    let trace = trace
        .and_then(|t| t.as_str())
        .and_then(|t| crate::trace::TraceContext::from_wire(&t));
    Some(VsgRequest {
        service: Name::new(&service),
        operation: Name::new(&operation),
        args,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::conformance;

    #[test]
    fn soap11_conformance() {
        conformance::run(&Soap11::new());
    }

    mod members {
        use super::super::{member_from_ref, read_results, write_member, write_result};
        use crate::error::MetaError;
        use crate::protocol::{
            member_from_value, member_to_value, result_from_value, result_to_value, VsgRequest,
        };
        use crate::trace::{SpanId, TraceContext, TraceId};
        use proptest::prelude::*;
        use soap::{decode_response, CallRef, RpcCall, RpcResponse, Value};

        fn arb_field_value() -> impl Strategy<Value = Value> {
            prop_oneof![
                "[a-z-]{0,8}".prop_map(Value::Str),
                Just(Value::Str("0000000000000abc-0000000000000def".into())),
                any::<i64>().prop_map(Value::Int),
                Just(Value::Null),
                prop::collection::vec(("[a-z]{1,4}", any::<i64>().prop_map(Value::Int)), 0..3)
                    .prop_map(|fields| Value::Record(fields.into_iter().collect())),
                prop::collection::vec(any::<bool>().prop_map(Value::Bool), 0..3)
                    .prop_map(Value::List),
            ]
        }

        /// Batch members of every shape: records with the member fields
        /// in any order, repeated, missing or mistyped, and lists.
        fn arb_member() -> impl Strategy<Value = Value> {
            let key = prop_oneof![Just("s"), Just("o"), Just("a"), Just("t"), Just("x")];
            (
                prop::collection::vec((key, arb_field_value()), 0..7),
                0..5u8,
            )
                .prop_map(|(fields, shape)| {
                    let fields = fields.into_iter().map(|(k, v)| (k.to_owned(), v));
                    // A well-formed member, with the drawn fields after it.
                    let valid = [
                        ("s".to_owned(), Value::Str("hall-lamp".into())),
                        ("o".to_owned(), Value::Str("switch".into())),
                        (
                            "a".to_owned(),
                            Value::Record(vec![("on".into(), Value::Bool(true))]),
                        ),
                    ];
                    match shape {
                        0 => Value::List(fields.map(|(_, v)| v).collect()),
                        1 | 2 => Value::Record(valid.into_iter().chain(fields).collect()),
                        _ => Value::Record(fields.collect()),
                    }
                })
        }

        fn arb_request() -> impl Strategy<Value = VsgRequest> {
            (
                "[ -~<>&]{0,10}",
                "[a-z<>&]{0,8}",
                prop::collection::vec(("[a-z]{1,4}", arb_field_value()), 0..4),
                prop::option::of((any::<u64>(), any::<u64>())),
            )
                .prop_map(|(service, operation, args, trace)| VsgRequest {
                    service: service.as_str().into(),
                    operation: operation.as_str().into(),
                    args,
                    trace: trace.map(|(t, p)| TraceContext {
                        trace: TraceId(t),
                        parent: SpanId(p),
                    }),
                })
        }

        fn arb_result() -> impl Strategy<Value = Result<Value, MetaError>> {
            prop_oneof![
                arb_field_value().prop_map(Ok),
                "[ -~<>&]{0,12}".prop_map(|m| Err(MetaError::Protocol(m))),
                "[a-z-]{0,8}".prop_map(|s| Err(MetaError::UnknownService(s))),
            ]
        }

        fn xml(write: impl FnOnce(&mut String)) -> String {
            let mut out = String::new();
            write(&mut out);
            out
        }

        proptest! {
            /// A batch member and a member's result are written with the
            /// bytes of the `Value`s they were built as before.
            #[test]
            fn batch_elements_are_the_value_bytes(req in arb_request(), result in arb_result()) {
                prop_assert_eq!(
                    xml(|out| write_member(&req, "m7", out)),
                    xml(|out| member_to_value(&req).write_xml("m7", out))
                );
                prop_assert_eq!(
                    xml(|out| write_result(&result, out)),
                    xml(|out| result_to_value(&result).write_xml("item", out))
                );
            }

            /// A batch reply read in one pass is the reply decoded to a
            /// `Value` and converted: results with `ok` and `err` fields
            /// in any order, repeated or mistyped, results that are no
            /// records, and replies that are no list.
            #[test]
            fn streamed_results_are_the_value_results(
                results in prop::collection::vec(
                    (
                        prop::collection::vec(
                            (prop_oneof![Just("ok"), Just("err"), Just("x")], arb_field_value()),
                            0..4,
                        ),
                        any::<bool>(),
                    ),
                    0..4,
                ),
                listed in any::<bool>(),
            ) {
                let results: Vec<Value> = results
                    .into_iter()
                    .map(|(fields, list)| if list {
                        Value::List(fields.into_iter().map(|(_, v)| v).collect())
                    } else {
                        Value::Record(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
                    })
                    .collect();
                let reply = if listed { Value::List(results.clone()) } else { Value::Record(vec![]) };
                let doc = RpcResponse::new("__batch__", reply.clone()).to_envelope();
                let expected = match reply {
                    Value::List(items) => Some(items.into_iter().map(result_from_value).collect::<Vec<_>>()),
                    _ => None,
                };
                prop_assert_eq!(
                    decode_response(&doc, |r| read_results(r, 2)).unwrap(),
                    Some(expected)
                );
            }

            /// A member read from the view is the member decoded to a
            /// `Value` and converted.
            #[test]
            fn view_members_are_the_value_members(
                members in prop::collection::vec(arb_member(), 1..4),
            ) {
                let mut call = RpcCall::new("urn:vsg:gateway", "__batch__");
                for (i, m) in members.iter().enumerate() {
                    call = call.arg(format!("m{i}"), m.clone());
                }
                let doc = call.to_envelope();
                let view = CallRef::parse(&doc).unwrap();
                for ((_, member), value) in view.args().zip(&members) {
                    prop_assert_eq!(member_from_ref(&member), member_from_value(value.clone()));
                }
            }
        }
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
