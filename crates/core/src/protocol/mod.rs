//! Pluggable VSG protocols.
//!
//! §3.1: "The Virtual Service Gateway is a gateway which connects
//! middleware to another middleware using certain protocol … How the
//! protocol should we chose depends on the purpose of service
//! integration." The prototype chose SOAP; §5 discusses SIP as an
//! alternative. This module makes the choice a trait:
//!
//! * [`Soap11`] — the prototype's protocol: XML envelopes over HTTP over
//!   per-request TCP connections. Simple, interoperable, heavy, and
//!   strictly client/server (no push).
//! * [`CompactBinary`] — a strawman binary RPC, quantifying what the XML
//!   and HTTP layers cost (experiment E4).
//! * [`SipLike`] — a SIP-flavoured protocol (§5): text headers, binary
//!   body, no per-request connection, and **asynchronous NOTIFY push**,
//!   which fixes the event-delivery problem of §4.2 (experiment E6).

mod binary;
pub mod binval;
#[cfg(test)]
mod oracle;
mod siplike;
mod soap11;

pub use binary::CompactBinary;
pub use siplike::{PushHandler, SipLike};
pub use soap11::Soap11;

use crate::error::MetaError;
use crate::intern::Name;
use crate::trace::TraceContext;
use simnet::{Network, NodeId, Sim};
use soap::Value;
use std::sync::Arc;

/// One invocation travelling between gateways.
#[derive(Debug, Clone, PartialEq)]
pub struct VsgRequest {
    /// Target service name (interned — clones are refcount bumps).
    pub service: Name,
    /// Operation name, interned like the service name.
    pub operation: Name,
    /// Canonical arguments.
    pub args: Vec<(String, Value)>,
    /// The caller's trace context, when tracing is enabled — carried
    /// by every wire protocol (SOAP header element, SIP-style header
    /// line, tagged binary field) so the serving gateway's spans join
    /// the caller's trace.
    pub trace: Option<TraceContext>,
}

impl VsgRequest {
    /// Creates a request.
    pub fn new(service: impl Into<Name>, operation: impl Into<Name>) -> VsgRequest {
        VsgRequest {
            service: service.into(),
            operation: operation.into(),
            args: Vec::new(),
            trace: None,
        }
    }

    /// Adds an argument (builder style).
    pub fn arg(mut self, name: impl Into<String>, value: impl Into<Value>) -> VsgRequest {
        self.args.push((name.into(), value.into()));
        self
    }
}

/// What a gateway does with an arriving request.
pub type GatewayHandler = Arc<dyn Fn(&Sim, &VsgRequest) -> Result<Value, MetaError> + Send + Sync>;

// ---- batch member / result codecs --------------------------------------
//
// Every wire protocol's batch frame carries the same canonical member
// and per-member-result shapes, expressed as `Value`s so each codec can
// reuse its existing value encoding. A member is `{s, o, a[, t]}`; a
// result is `{ok: value}` or `{err: "<Display-formatted MetaError>"}` —
// the error text round-trips back to a typed error through
// `MetaError::from_fault_string`, exactly like single-call faults.

pub(crate) fn member_to_value(req: &VsgRequest) -> Value {
    let mut fields = vec![
        ("s".to_owned(), Value::Str(req.service.as_str().to_owned())),
        ("o".to_owned(), Value::Str(req.operation.as_str().into())),
        ("a".to_owned(), Value::Record(req.args.clone())),
    ];
    if let Some(ctx) = &req.trace {
        fields.push(("t".to_owned(), Value::Str(ctx.to_wire())));
    }
    Value::Record(fields)
}

/// Moves a member record's fields into a request (the first field of
/// each name counts, as [`Value::field`] reads them). The oracle of the
/// view readers that replaced it.
#[cfg(test)]
pub(crate) fn member_from_value(v: Value) -> Option<VsgRequest> {
    let Value::Record(fields) = v else {
        return None;
    };
    let (mut service, mut operation, mut args, mut trace) = (None, None, None, None);
    for (k, v) in fields {
        let slot = match k.as_str() {
            "s" => &mut service,
            "o" => &mut operation,
            "a" => &mut args,
            "t" => &mut trace,
            _ => continue,
        };
        slot.get_or_insert(v);
    }
    let (Some(Value::Str(service)), Some(Value::Str(operation)), Some(Value::Record(args))) =
        (service, operation, args)
    else {
        return None;
    };
    let trace = trace
        .as_ref()
        .and_then(Value::as_str)
        .and_then(TraceContext::from_wire);
    Some(VsgRequest {
        service: service.into(),
        operation: operation.into(),
        args,
        trace,
    })
}

/// View twin of `member_from_value`: builds the owned request straight
/// from the validated frame, so only the arguments allocate — the names
/// are interned, and no intermediate owned `Value` tree is built.
pub(crate) fn member_from_ref(v: &binval::ValueRef<'_>) -> Option<VsgRequest> {
    let service = v.field("s")?.as_str()?;
    let operation = v.field("o")?.as_str()?;
    let binval::ValueRef::Record(args) = v.field("a")? else {
        return None;
    };
    let trace = v
        .field("t")
        .and_then(|t| t.as_str())
        .and_then(TraceContext::from_wire);
    Some(VsgRequest {
        service: service.into(),
        operation: operation.into(),
        args: args.to_owned_fields(),
        trace,
    })
}

pub(crate) fn result_to_value(result: &Result<Value, MetaError>) -> Value {
    match result {
        Ok(v) => Value::Record(vec![("ok".to_owned(), v.clone())]),
        Err(e) => Value::Record(vec![("err".to_owned(), Value::Str(e.to_string()))]),
    }
}

/// Moves the `ok` payload out of a member result (or reads its error).
/// The oracle of the one-pass readers that replaced it.
#[cfg(test)]
pub(crate) fn result_from_value(v: Value) -> Result<Value, MetaError> {
    let fault = match v {
        Value::Record(mut fields) => match fields.iter().position(|(k, _)| k == "ok") {
            Some(i) => return Ok(fields.swap_remove(i).1),
            None => fields
                .into_iter()
                .find(|(k, _)| k == "err")
                .and_then(|(_, v)| match v {
                    Value::Str(fault) => Some(fault),
                    _ => None,
                }),
        },
        _ => None,
    };
    match fault {
        Some(fault) => Err(MetaError::from_fault_string(&fault)),
        None => Err(MetaError::Protocol("malformed batch member result".into())),
    }
}

/// View twin of `result_from_value`: only the `ok` payload (or the
/// typed error) is copied out of the frame.
fn result_from_ref(v: &binval::ValueRef<'_>) -> Result<Value, MetaError> {
    if let Some(ok) = v.field("ok") {
        return Ok(ok.to_owned());
    }
    match v.field("err").and_then(|e| e.as_str()) {
        Some(fault) => Err(MetaError::from_fault_string(fault)),
        None => Err(MetaError::Protocol("malformed batch member result".into())),
    }
}

/// Decodes a batch frame's member list, shared by the binary and SIP
/// batch requests: `None` unless `body` is a valid list whose every item
/// is a member record. Each member is read from the validated frame and
/// converted before the next is touched.
pub(crate) fn members_from_bytes(body: &[u8]) -> Option<Vec<VsgRequest>> {
    let binval::ValueRef::List(items) = binval::from_bytes_ref(body)? else {
        return None;
    };
    let mut reqs = Vec::with_capacity(items.len());
    for item in items.iter() {
        reqs.push(member_from_ref(&item)?);
    }
    Some(reqs)
}

/// Decodes a batch reply's result list: `None` unless `body` is a valid
/// list. A decodable member of the wrong shape stays a per-member error.
pub(crate) fn results_from_bytes(body: &[u8]) -> Option<Vec<Result<Value, MetaError>>> {
    let binval::ValueRef::List(items) = binval::from_bytes_ref(body)? else {
        return None;
    };
    let mut results = Vec::with_capacity(items.len());
    for item in items.iter() {
        results.push(result_from_ref(&item));
    }
    Some(results)
}

/// A wire protocol connecting Virtual Service Gateways.
pub trait VsgProtocol: Send + Sync {
    /// The protocol's display name (`"soap"`, `"binary"`, `"sip"`).
    fn name(&self) -> &'static str;

    /// Binds a gateway endpoint on `net`, returning its node.
    fn bind(&self, net: &Network, label: &str, handler: GatewayHandler) -> NodeId;

    /// Carries `req` from `from` to the gateway endpoint at `to`.
    fn call(
        &self,
        net: &Network,
        from: NodeId,
        to: NodeId,
        req: &VsgRequest,
    ) -> Result<Value, MetaError>;

    /// Carries several requests bound for the same gateway endpoint.
    ///
    /// An outer `Err` means the *frame* failed in transport — none of
    /// the members got an answer, and the error's retry classification
    /// applies to all of them at once. `Ok` carries one result per
    /// member, in member order: application faults are demultiplexed
    /// per member instead of failing the batch.
    ///
    /// The default implementation loops [`VsgProtocol::call`], one wire
    /// exchange per member (so each member has its own transport fate);
    /// protocols override it with a native batch frame that shares one
    /// exchange.
    fn call_batch(
        &self,
        net: &Network,
        from: NodeId,
        to: NodeId,
        reqs: &[VsgRequest],
    ) -> Result<Vec<Result<Value, MetaError>>, MetaError> {
        Ok(reqs.iter().map(|r| self.call(net, from, to, r)).collect())
    }

    /// Whether the protocol can push unsolicited server→client messages
    /// (SIP can; HTTP cannot — the §4.2 limitation).
    fn supports_push(&self) -> bool {
        false
    }
}

#[cfg(test)]
pub(crate) mod conformance {
    //! A conformance harness run against every protocol implementation.

    use super::*;

    pub fn run(protocol: &dyn VsgProtocol) {
        let sim = Sim::new(1);
        let net = Network::ethernet(&sim);
        let server = protocol.bind(
            &net,
            "gw-a",
            Arc::new(|_, req: &VsgRequest| match req.operation.as_str() {
                "echo" => Ok(Value::Record(req.args.clone())),
                "fail" => Err(MetaError::UnknownService(req.service.to_string())),
                op => Err(MetaError::UnknownOperation {
                    service: req.service.to_string(),
                    operation: op.to_owned(),
                }),
            }),
        );
        let client = net.attach("gw-b");

        // Round trip with args of several types.
        let req = VsgRequest::new("lamp", "echo")
            .arg("on", true)
            .arg("level", 7)
            .arg("name", "hall");
        let before = sim.now();
        let got = protocol.call(&net, client, server, &req).unwrap();
        assert!(sim.now() > before, "{} advances time", protocol.name());
        assert_eq!(got.field("on"), Some(&Value::Bool(true)));
        assert_eq!(got.field("level"), Some(&Value::Int(7)));
        assert_eq!(got.field("name"), Some(&Value::Str("hall".into())));

        // A stale route (the callee no longer knows the service) must
        // arrive *typed* — the caller's retry logic depends on telling
        // it apart from application faults.
        let err = protocol
            .call(&net, client, server, &VsgRequest::new("ghost", "fail"))
            .unwrap_err();
        assert_eq!(
            err,
            MetaError::UnknownService("ghost".into()),
            "{}: stale-route error must decode typed",
            protocol.name()
        );
        assert!(err.is_retry_safe());

        // Application faults arrive typed too, and are NOT retry-safe:
        // the remote side processed the call.
        let err = protocol
            .call(&net, client, server, &VsgRequest::new("lamp", "explode"))
            .unwrap_err();
        assert_eq!(
            err,
            MetaError::UnknownOperation {
                service: "lamp".into(),
                operation: "explode".into()
            },
            "{}: application fault must decode typed",
            protocol.name()
        );
        assert!(!err.is_retry_safe());

        // A trace context must survive the wire intact, and an absent
        // one must stay absent — distributed tracing depends on every
        // protocol round-tripping the caller's identity.
        let seen = Arc::new(parking_lot::Mutex::new(None));
        let seen2 = seen.clone();
        let traced_gw = protocol.bind(
            &net,
            "gw-traced",
            Arc::new(move |_, req: &VsgRequest| {
                *seen2.lock() = req.trace;
                Ok(Value::Null)
            }),
        );
        let ctx = TraceContext {
            trace: crate::trace::TraceId(0xabc),
            parent: crate::trace::SpanId(0x17),
        };
        let mut req = VsgRequest::new("lamp", "echo");
        req.trace = Some(ctx);
        protocol.call(&net, client, traced_gw, &req).unwrap();
        assert_eq!(
            *seen.lock(),
            Some(ctx),
            "{}: trace context lost on the wire",
            protocol.name()
        );
        protocol
            .call(&net, client, traced_gw, &VsgRequest::new("lamp", "echo"))
            .unwrap();
        assert_eq!(
            *seen.lock(),
            None,
            "{}: phantom trace context appeared",
            protocol.name()
        );

        // Batch: several members share one carrier, but answers and
        // application faults stay per-member, in member order.
        let batch = [
            VsgRequest::new("lamp", "echo").arg("level", 3),
            VsgRequest::new("lamp", "explode"),
            VsgRequest::new("ghost", "fail"),
            VsgRequest::new("lamp", "echo").arg("name", "den"),
        ];
        let results = protocol.call_batch(&net, client, server, &batch).unwrap();
        assert_eq!(
            results.len(),
            4,
            "{}: one result per member",
            protocol.name()
        );
        assert_eq!(
            results[0].as_ref().unwrap().field("level"),
            Some(&Value::Int(3))
        );
        assert_eq!(
            results[1],
            Err(MetaError::UnknownOperation {
                service: "lamp".into(),
                operation: "explode".into()
            }),
            "{}: batched application fault must decode typed",
            protocol.name()
        );
        assert_eq!(
            results[2],
            Err(MetaError::UnknownService("ghost".into())),
            "{}: batched stale route must decode typed",
            protocol.name()
        );
        assert_eq!(
            results[3].as_ref().unwrap().field("name"),
            Some(&Value::Str("den".into()))
        );

        // An empty batch is a no-op, not a wire exchange.
        assert_eq!(
            protocol.call_batch(&net, client, server, &[]).unwrap(),
            Vec::new()
        );
    }
}
