//! A compact binary VSG protocol — the E4 ablation baseline.
//!
//! Everything SOAP does (request/response RPC between gateways) with
//! none of its weight: varint-framed binary values in a single exchange,
//! no HTTP, no per-request connection. It exists to quantify the cost of
//! the prototype's "simple protocol" choice.

use super::{
    binval, member_from_ref, member_to_value, members_from_bytes, result_to_value,
    results_from_bytes, GatewayHandler, VsgProtocol, VsgRequest,
};
use crate::error::MetaError;
use simnet::{Network, NodeId, Protocol, SimDuration};
use soap::Value;

const MAGIC: &[u8; 4] = b"VSGB";

/// The binary protocol.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompactBinary;

impl CompactBinary {
    /// Creates the protocol.
    pub fn new() -> CompactBinary {
        CompactBinary
    }
}

pub(super) fn encode_request(req: &VsgRequest) -> Vec<u8> {
    // Wire form of Record{s, o, a[, t]}, marshalled from borrows — no
    // clone of the service name, operation, or argument list — into one
    // buffer measured first. The "t" field carries the caller's trace
    // context and is simply absent when tracing is off, so the untraced
    // wire form is unchanged.
    let trace = req.trace.as_ref().map(|ctx| ctx.to_wire());
    let fields = if trace.is_some() { 4 } else { 3 };
    let len = MAGIC.len()
        + binval::head_len(fields)
        + binval::str_field_len("s", &req.service)
        + binval::str_field_len("o", &req.operation)
        + binval::key_len("a")
        + binval::record_fields_len(&req.args)
        + trace.as_ref().map_or(0, |t| binval::str_field_len("t", t));
    let mut out = Vec::with_capacity(len);
    out.extend_from_slice(MAGIC);
    binval::begin_record(fields, &mut out);
    binval::encode_str_field("s", &req.service, &mut out);
    binval::encode_str_field("o", &req.operation, &mut out);
    binval::encode_field_key("a", &mut out);
    binval::encode_record_fields(&req.args, &mut out);
    if let Some(t) = &trace {
        binval::encode_str_field("t", t, &mut out);
    }
    out
}

pub(super) fn decode_request(data: &[u8]) -> Option<VsgRequest> {
    // The request body has exactly the batch-member shape {s, o, a[, t]};
    // `member_from_ref` reads it from the validated frame, so only the
    // request's own fields allocate.
    member_from_ref(&binval::from_bytes_ref(data.strip_prefix(MAGIC)?)?)
}

// Reply tags. Tag 2 is distinct from the generic fault so a stale
// route (the serving gateway no longer knows the service) survives the
// wire as a typed, retry-safe error even without fault-string parsing.
const TAG_FAULT: u8 = 0;
const TAG_OK: u8 = 1;
const TAG_UNKNOWN_SERVICE: u8 = 2;
// A batch reply: a list of per-member result records.
const TAG_BATCH: u8 = 3;

// A batch request is MAGIC + Record{"B": List[member records]} — the
// "B" key cannot collide with a single request, which always carries
// "s"/"o"/"a" fields.
pub(super) fn encode_batch_request(reqs: &[VsgRequest]) -> Vec<u8> {
    let mut out = MAGIC.to_vec();
    binval::begin_record(1, &mut out);
    binval::encode_field_key("B", &mut out);
    binval::begin_list(reqs.len(), &mut out);
    for req in reqs {
        binval::encode(&member_to_value(req), &mut out);
    }
    out
}

pub(super) fn decode_batch_request(data: &[u8]) -> Option<Vec<VsgRequest>> {
    // The batch head is fixed: Record{1 field} with key "B" — match its
    // four wire bytes directly, then read the member list.
    members_from_bytes(data.strip_prefix(MAGIC)?.strip_prefix(&[7u8, 1, 1, b'B'])?)
}

pub(super) fn encode_batch_reply(results: &[Result<Value, MetaError>]) -> Vec<u8> {
    let mut out = vec![TAG_BATCH];
    binval::begin_list(results.len(), &mut out);
    for r in results {
        binval::encode(&result_to_value(r), &mut out);
    }
    out
}

pub(super) fn decode_batch_reply(data: &[u8]) -> Result<Vec<Result<Value, MetaError>>, MetaError> {
    match data.split_first() {
        Some((&TAG_BATCH, rest)) => results_from_bytes(rest)
            .ok_or_else(|| MetaError::Protocol("bad batch reply body".into())),
        // The server answered in single-reply form (e.g. it rejected
        // the frame as malformed): surface that as the whole-batch
        // error.
        _ => Err(decode_reply(data)
            .err()
            .unwrap_or_else(|| MetaError::Protocol("single reply to a batch request".into()))),
    }
}

/// A reply tag and its body, in one buffer of exactly their size.
pub(super) fn encode_reply(result: &Result<Value, MetaError>) -> Vec<u8> {
    match result {
        Ok(v) => {
            let mut out = Vec::with_capacity(1 + binval::encoded_len(v));
            out.push(TAG_OK);
            binval::encode(v, &mut out);
            out
        }
        Err(MetaError::UnknownService(name)) => tagged_str(TAG_UNKNOWN_SERVICE, name),
        Err(e) => tagged_str(TAG_FAULT, &e.to_string()),
    }
}

fn tagged_str(tag: u8, s: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + binval::str_len(s));
    out.push(tag);
    binval::encode_str(s, &mut out);
    out
}

pub(super) fn decode_reply(data: &[u8]) -> Result<Value, MetaError> {
    let payload_str = |rest: &[u8], fallback: &str| {
        binval::from_bytes_ref(rest)
            .and_then(|v| v.as_str().map(str::to_owned))
            .unwrap_or_else(|| fallback.to_owned())
    };
    match data.split_first() {
        Some((&TAG_OK, rest)) => {
            binval::from_bytes(rest).ok_or_else(|| MetaError::Protocol("bad reply body".into()))
        }
        Some((&TAG_UNKNOWN_SERVICE, rest)) => {
            Err(MetaError::UnknownService(payload_str(rest, "?")))
        }
        Some((&TAG_FAULT, rest)) => Err(MetaError::from_fault_string(&payload_str(
            rest,
            "unknown remote error",
        ))),
        _ => Err(MetaError::Protocol("empty reply".into())),
    }
}

impl VsgProtocol for CompactBinary {
    fn name(&self) -> &'static str {
        "binary"
    }

    fn bind(&self, net: &Network, label: &str, handler: GatewayHandler) -> NodeId {
        let node = net.attach(label);
        net.set_request_handler(node, move |sim, frame| {
            sim.advance(SimDuration::from_micros(20)); // cheap dispatch
            if let Some(reqs) = decode_batch_request(&frame.payload) {
                let results: Vec<_> = reqs.iter().map(|req| handler(sim, req)).collect();
                return Ok(encode_batch_reply(&results));
            }
            let result = match decode_request(&frame.payload) {
                Some(req) => handler(sim, &req),
                None => Err(MetaError::Protocol("malformed binary request".into())),
            };
            Ok(encode_reply(&result))
        })
        .expect("node attached");
        node
    }

    fn call(
        &self,
        net: &Network,
        from: NodeId,
        to: NodeId,
        req: &VsgRequest,
    ) -> Result<Value, MetaError> {
        let reply = net
            .request(from, to, Protocol::Raw, encode_request(req))
            .map_err(|e| MetaError::from_wire_error(&e, from))?;
        decode_reply(&reply)
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
        let reply = net
            .request(from, to, Protocol::Raw, encode_batch_request(reqs))
            .map_err(|e| MetaError::from_wire_error(&e, from))?;
        let results = decode_batch_reply(&reply)?;
        if results.len() != reqs.len() {
            return Err(MetaError::Protocol("batch reply arity mismatch".into()));
        }
        Ok(results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::conformance;

    #[test]
    fn binary_conformance() {
        conformance::run(&CompactBinary::new());
    }

    #[test]
    fn request_codec_round_trip() {
        let req = VsgRequest::new("vcr", "record")
            .arg("channel", 42)
            .arg("title", "News");
        assert_eq!(decode_request(&encode_request(&req)), Some(req));
        assert_eq!(decode_request(b"nope"), None);
    }

    #[test]
    fn trace_context_rides_a_tagged_field() {
        use crate::trace::{SpanId, TraceContext, TraceId};
        let untraced = VsgRequest::new("vcr", "record").arg("channel", 42);
        let mut traced = untraced.clone();
        traced.trace = Some(TraceContext {
            trace: TraceId(7),
            parent: SpanId(9),
        });
        let plain = encode_request(&untraced);
        let tagged = encode_request(&traced);
        // Tracing off leaves the wire form byte-identical to before the
        // field existed; on, it costs only the one extra field.
        assert!(tagged.len() > plain.len());
        assert_eq!(decode_request(&plain), Some(untraced));
        assert_eq!(decode_request(&tagged), Some(traced));
    }

    #[test]
    fn binary_is_an_order_of_magnitude_lighter_than_soap() {
        use crate::protocol::Soap11;
        use simnet::{Network, Protocol, Sim};
        use std::sync::Arc;

        let measure = |p: &dyn VsgProtocol, proto: Protocol| {
            let sim = Sim::new(1);
            let net = Network::ethernet(&sim);
            let server = p.bind(&net, "gw", Arc::new(|_, _| Ok(Value::Null)));
            let client = net.attach("c");
            let req = VsgRequest::new("vcr", "record").arg("channel", 42);
            p.call(&net, client, server, &req).unwrap();
            (
                net.with_stats(|s| s.protocol(proto).bytes),
                sim.now().as_micros(),
            )
        };
        let (soap_bytes, soap_us) = measure(&Soap11::new(), Protocol::Http);
        let (bin_bytes, bin_us) = measure(&CompactBinary::new(), Protocol::Raw);
        assert!(
            bin_bytes * 10 < soap_bytes,
            "binary {bin_bytes}B vs soap {soap_bytes}B"
        );
        assert!(bin_us < soap_us, "binary {bin_us}us vs soap {soap_us}us");
    }
}
