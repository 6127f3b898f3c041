//! A SIP-flavoured VSG protocol.
//!
//! §5: "SIP allows abstract naming, provides end-to-end security, and
//! can carry a flexible payload … SIP supports asynchronous calls and
//! call forwarding which is not supported by HTTP. We think that is also
//! effective choice to use SIP with some modification to connect various
//! appliances." This implementation keeps the properties the paper cares
//! about: text request lines with a compact body, no per-request TCP
//! connection, and — crucially — an unsolicited **NOTIFY** push path
//! that the HTTP-based prototype lacks (§4.2).

use super::{
    binval, member_to_value, members_from_bytes, result_to_value, results_from_bytes,
    GatewayHandler, VsgProtocol, VsgRequest,
};
use crate::error::MetaError;
use crate::intern::Name;
use parking_lot::Mutex;
use simnet::{Frame, Network, NodeId, Protocol, Sim, SimDuration};
use soap::Value;
use std::sync::Arc;

/// Receives pushed events: `(service, event-payload)`.
pub type PushHandler = Box<dyn FnMut(&Sim, &str, &Value) + Send>;

/// The head of a coalesced NOTIFY frame.
const NOTIFY_BATCH_HEAD: &[u8] = b"NOTIFY vsg:* VSG-SIP/1.0\r\n\r\n";

/// The runs of consecutive same-service members a coalesced NOTIFY
/// frames as one `{s, l}` group each.
fn notify_runs<'m, 'a>(
    members: &'m [(&'a str, &'a [u8])],
) -> impl Iterator<Item = &'m [(&'a str, &'a [u8])]> {
    members.chunk_by(|a, b| a.0 == b.0)
}

/// The SIP-like protocol.
#[derive(Debug, Clone, Copy, Default)]
pub struct SipLike;

impl SipLike {
    /// Creates the protocol.
    pub fn new() -> SipLike {
        SipLike
    }

    /// Sends an unsolicited NOTIFY (one-way, fire-and-forget) carrying an
    /// event for `service` to the gateway at `to`.
    ///
    /// Returns `false` if the frame was lost (the sender cannot know in
    /// real SIP-over-UDP either; this is for statistics).
    pub fn notify(
        &self,
        net: &Network,
        from: NodeId,
        to: NodeId,
        service: &str,
        event: &Value,
    ) -> bool {
        let mut payload = Vec::with_capacity(32 + service.len());
        payload.extend_from_slice(b"NOTIFY vsg:");
        payload.extend_from_slice(service.as_bytes());
        payload.extend_from_slice(b" VSG-SIP/1.0\r\n\r\n");
        binval::encode(event, &mut payload);
        net.send(Frame::new(from, to, Protocol::Sip, payload))
            .is_ok()
    }

    /// Sends one NOTIFY frame carrying several `(service, payload)`
    /// members, each payload already marshalled by
    /// [`SipLike::encode_event_payload`]. Members are framed as runs —
    /// consecutive same-service members share one `Record{s, l}` group
    /// — so a burst from one sensor pays for its service name once, not
    /// per member, while delivery order is preserved exactly.
    ///
    /// Returns `false` if the frame was lost — the whole batch shares
    /// one transport fate.
    pub fn notify_batch(
        &self,
        net: &Network,
        from: NodeId,
        to: NodeId,
        members: &[(&str, &[u8])],
    ) -> bool {
        let mut payload = NOTIFY_BATCH_HEAD.to_vec();
        binval::begin_list(notify_runs(members).count(), &mut payload);
        for run in notify_runs(members) {
            binval::begin_record(2, &mut payload);
            binval::encode_str_field("s", run[0].0, &mut payload);
            binval::encode_field_key("l", &mut payload);
            binval::begin_list(run.len(), &mut payload);
            for (_, blob) in run {
                payload.extend_from_slice(blob);
            }
        }
        net.send(Frame::new(from, to, Protocol::Sip, payload))
            .is_ok()
    }

    /// The size of the frame [`SipLike::notify_batch`] sends for
    /// `members`, computed without encoding it.
    pub(crate) fn notify_batch_len(members: &[(&str, &[u8])]) -> usize {
        // What each binval call of `notify_batch` writes: a list or
        // record header is a tag and a count, a key its length and its
        // bytes, and a string a tag and a key's worth.
        let header = |n: usize| 1 + binval::len_size(n);
        let key = |k: &str| binval::len_size(k.len()) + k.len();
        let groups: usize = notify_runs(members)
            .map(|run| {
                let blobs: usize = run.iter().map(|(_, blob)| blob.len()).sum();
                header(2) + key("s") + 1 + key(run[0].0) + key("l") + header(run.len()) + blobs
            })
            .sum();
        NOTIFY_BATCH_HEAD.len() + header(notify_runs(members).count()) + groups
    }

    /// Marshals one event payload to the wire bytes
    /// [`SipLike::notify_batch`] splices into its run groups.
    pub fn encode_event_payload(event: &Value) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        binval::encode(event, &mut out);
        out
    }

    /// Installs the push receiver on a bound gateway node. NOTIFYs
    /// arriving at `node` are decoded and handed to `handler`.
    pub fn install_push_handler(
        &self,
        net: &Network,
        node: NodeId,
        handler: impl FnMut(&Sim, &str, &Value) + Send + 'static,
    ) {
        let handler = Arc::new(Mutex::new(Box::new(handler) as PushHandler));
        net.set_frame_handler(node, move |sim, frame| {
            let mut h = handler.lock();
            read_notify(&frame.payload, |service, event| h(sim, service, event));
        })
        .expect("push node exists");
    }
}

/// Hands each event a NOTIFY frame carries to `deliver`, in order. A
/// frame that is not a NOTIFY, or whose body fails validation, delivers
/// nothing.
pub(super) fn read_notify(payload: &[u8], mut deliver: impl FnMut(&str, &Value)) {
    let Some((head, body)) = split_head(payload) else {
        return;
    };
    let Some(service) = head
        .strip_prefix("NOTIFY vsg:")
        .and_then(|r| r.split_whitespace().next())
    else {
        return;
    };
    let Some(body) = binval::from_bytes_ref(body) else {
        return;
    };
    if service != "*" {
        deliver(service, &body.to_owned());
        return;
    }
    // `vsg:*` marks a coalesced frame: a list of `{s, l}` run groups,
    // each a service name and its consecutive events, delivered one by
    // one in enqueue order. Groups of another shape are skipped.
    let binval::ValueRef::List(groups) = body else {
        return;
    };
    for group in groups.iter() {
        let (Some(svc), Some(binval::ValueRef::List(events))) =
            (group.field("s").and_then(|s| s.as_str()), group.field("l"))
        else {
            continue;
        };
        for event in events.iter() {
            deliver(svc, &event.to_owned());
        }
    }
}

fn split_head(payload: &[u8]) -> Option<(&str, &[u8])> {
    let sep = payload.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&payload[..sep]).ok()?;
    // Head is first line only (no extra headers in the simulation).
    let first_line = head.lines().next()?;
    Some((first_line, &payload[sep + 4..]))
}

/// The SIP-style header line carrying the caller's trace context.
const TRACE_HEADER: &str = "Trace-Context: ";

pub(super) fn encode_invite(req: &VsgRequest) -> Vec<u8> {
    // Head written straight into the output bytes — the old `format!`
    // built (and immediately threw away) an intermediate `String` on
    // every call.
    let mut out = Vec::with_capacity(48 + req.service.len() + req.operation.len());
    out.extend_from_slice(b"INVITE vsg:");
    out.extend_from_slice(req.service.as_bytes());
    out.extend_from_slice(b" VSG-SIP/1.0\r\nOperation: ");
    out.extend_from_slice(req.operation.as_bytes());
    out.extend_from_slice(b"\r\n");
    if let Some(ctx) = &req.trace {
        out.extend_from_slice(TRACE_HEADER.as_bytes());
        out.extend_from_slice(ctx.to_wire().as_bytes());
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"\r\n");
    // Body marshalled from borrowed args — no clone into an owned record.
    binval::encode_record_fields(&req.args, &mut out);
    out
}

pub(super) fn decode_invite(payload: &[u8]) -> Option<VsgRequest> {
    let sep = payload.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&payload[..sep]).ok()?;
    let mut lines = head.lines();
    let service = Name::new(
        lines
            .next()?
            .strip_prefix("INVITE vsg:")?
            .split_whitespace()
            .next()?,
    );
    // Remaining header lines in any order; unknown ones are tolerated
    // (real SIP parsers skip headers they don't understand).
    let mut operation = None;
    let mut trace = None;
    for line in lines {
        if let Some(op) = line.strip_prefix("Operation: ") {
            operation = Some(Name::new(op));
        } else if let Some(ctx) = line.strip_prefix(TRACE_HEADER) {
            trace = crate::trace::TraceContext::from_wire(ctx);
        }
    }
    let binval::ValueRef::Record(args) = binval::from_bytes_ref(&payload[sep + 4..])? else {
        return None;
    };
    Some(VsgRequest {
        service,
        operation: operation?,
        args: args.to_owned_fields(),
        trace,
    })
}

// A batch rides a `BATCH vsg:- VSG-SIP/1.0` request line with a
// `Members:` count header and a binval list of member records as the
// body; the response is a 200 whose body is the list of per-member
// result records.
pub(super) fn encode_batch(reqs: &[VsgRequest]) -> Vec<u8> {
    use std::io::Write as _;
    let mut out = Vec::with_capacity(48);
    out.extend_from_slice(b"BATCH vsg:- VSG-SIP/1.0\r\nMembers: ");
    write!(out, "{}", reqs.len()).expect("vec write");
    out.extend_from_slice(b"\r\n\r\n");
    binval::begin_list(reqs.len(), &mut out);
    for req in reqs {
        binval::encode(&member_to_value(req), &mut out);
    }
    out
}

pub(super) fn decode_batch(payload: &[u8]) -> Option<Vec<VsgRequest>> {
    let sep = payload.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&payload[..sep]).ok()?;
    head.lines().next()?.strip_prefix("BATCH vsg:")?;
    members_from_bytes(&payload[sep + 4..])
}

pub(super) fn encode_batch_response(results: &[Result<Value, MetaError>]) -> Vec<u8> {
    let mut out = b"VSG-SIP/1.0 200 OK\r\n\r\n".to_vec();
    binval::begin_list(results.len(), &mut out);
    for r in results {
        binval::encode(&result_to_value(r), &mut out);
    }
    out
}

pub(super) fn decode_batch_response(
    payload: &[u8],
) -> Result<Vec<Result<Value, MetaError>>, MetaError> {
    let (head, body) =
        split_head(payload).ok_or_else(|| MetaError::Protocol("malformed SIP response".into()))?;
    if head.strip_prefix("VSG-SIP/1.0 200").is_some() {
        results_from_bytes(body).ok_or_else(|| MetaError::Protocol("bad SIP batch body".into()))
    } else {
        // Non-200 means the frame itself was rejected; decode it the
        // single-response way and apply the error to the whole batch.
        Err(decode_response(payload)
            .err()
            .unwrap_or_else(|| MetaError::Protocol("unexpected SIP batch status".into())))
    }
}

pub(super) fn encode_response(result: &Result<Value, MetaError>) -> Vec<u8> {
    match result {
        Ok(v) => {
            let mut out = b"VSG-SIP/1.0 200 OK\r\n\r\n".to_vec();
            binval::encode(v, &mut out);
            out
        }
        // 404 marks a stale route — the callee no longer serves this
        // name — so the caller can re-resolve and retry safely.
        Err(MetaError::UnknownService(name)) => {
            format!("VSG-SIP/1.0 404 {name}\r\n\r\n").into_bytes()
        }
        Err(e) => format!("VSG-SIP/1.0 500 {e}\r\n\r\n").into_bytes(),
    }
}

pub(super) fn decode_response(payload: &[u8]) -> Result<Value, MetaError> {
    let (head, body) =
        split_head(payload).ok_or_else(|| MetaError::Protocol("malformed SIP response".into()))?;
    if let Some(rest) = head.strip_prefix("VSG-SIP/1.0 200") {
        let _ = rest;
        binval::from_bytes(body).ok_or_else(|| MetaError::Protocol("bad SIP body".into()))
    } else if let Some(name) = head.strip_prefix("VSG-SIP/1.0 404 ") {
        Err(MetaError::UnknownService(name.to_owned()))
    } else if let Some(msg) = head.strip_prefix("VSG-SIP/1.0 500 ") {
        Err(MetaError::from_fault_string(msg))
    } else {
        Err(MetaError::Protocol(format!(
            "unexpected SIP status: {head}"
        )))
    }
}

impl VsgProtocol for SipLike {
    fn name(&self) -> &'static str {
        "sip"
    }

    fn bind(&self, net: &Network, label: &str, handler: GatewayHandler) -> NodeId {
        let node = net.attach(label);
        net.set_request_handler(node, move |sim, frame| {
            sim.advance(SimDuration::from_micros(60)); // header parse
            if let Some(reqs) = decode_batch(&frame.payload) {
                let results: Vec<_> = reqs.iter().map(|req| handler(sim, req)).collect();
                return Ok(encode_batch_response(&results));
            }
            let result = match decode_invite(&frame.payload) {
                Some(req) => handler(sim, &req),
                None => Err(MetaError::Protocol("malformed INVITE".into())),
            };
            Ok(encode_response(&result))
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
            .request(from, to, Protocol::Sip, encode_invite(req))
            .map_err(|e| MetaError::from_wire_error(&e, from))?;
        decode_response(&reply)
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
            .request(from, to, Protocol::Sip, encode_batch(reqs))
            .map_err(|e| MetaError::from_wire_error(&e, from))?;
        let results = decode_batch_response(&reply)?;
        if results.len() != reqs.len() {
            return Err(MetaError::Protocol("batch reply arity mismatch".into()));
        }
        Ok(results)
    }

    fn supports_push(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::conformance;
    use simnet::Sim;

    #[test]
    fn sip_conformance() {
        conformance::run(&SipLike::new());
    }

    #[test]
    fn invite_codec_round_trip() {
        let req = VsgRequest::new("camera", "record").arg("channel", 3);
        assert_eq!(decode_invite(&encode_invite(&req)), Some(req));
        assert_eq!(decode_invite(b"garbage"), None);
    }

    #[test]
    fn invite_carries_trace_context_as_header_line() {
        use crate::trace::{SpanId, TraceContext, TraceId};
        let mut req = VsgRequest::new("camera", "record").arg("channel", 3);
        req.trace = Some(TraceContext {
            trace: TraceId(0xfeed),
            parent: SpanId(0xbee),
        });
        let wire = encode_invite(&req);
        let head = String::from_utf8_lossy(&wire);
        assert!(head.contains("Trace-Context: "), "{head}");
        assert_eq!(decode_invite(&wire), Some(req));
        // A mangled header is dropped, never fatal.
        let mangled =
            String::from_utf8_lossy(&wire).replace("Trace-Context: ", "Trace-Context: zz");
        let decoded = decode_invite(mangled.as_bytes()).unwrap();
        assert_eq!(decoded.trace, None);
    }

    #[test]
    fn push_notify_delivers_immediately() {
        let sim = Sim::new(1);
        let net = simnet::Network::ethernet(&sim);
        let p = SipLike::new();
        let gw = p.bind(&net, "gw-sink", Arc::new(|_, _| Ok(Value::Null)));
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = seen.clone();
        p.install_push_handler(&net, gw, move |_, service, event| {
            seen2.lock().push((service.to_owned(), event.clone()));
        });

        let source = net.attach("gw-source");
        let before = sim.now();
        assert!(p.notify(&net, source, gw, "motion-1", &Value::Bool(true)));
        let latency = sim.now() - before;
        assert_eq!(seen.lock().len(), 1);
        assert_eq!(seen.lock()[0], ("motion-1".to_owned(), Value::Bool(true)));
        // One UDP-ish frame on the LAN: well under a millisecond.
        assert!(latency.as_micros() < 1_000, "push took {latency}");
    }

    #[test]
    fn push_ignores_garbage_frames() {
        let sim = Sim::new(1);
        let net = simnet::Network::ethernet(&sim);
        let p = SipLike::new();
        let gw = p.bind(&net, "gw", Arc::new(|_, _| Ok(Value::Null)));
        let count = Arc::new(Mutex::new(0u32));
        let count2 = count.clone();
        p.install_push_handler(&net, gw, move |_, _, _| *count2.lock() += 1);
        let src = net.attach("src");
        net.send(Frame::new(src, gw, Protocol::Sip, &b"not sip at all"[..]))
            .unwrap();
        net.send(Frame::new(
            src,
            gw,
            Protocol::Sip,
            &b"NOTIFY vsg:x VSG-SIP/1.0\r\n\r\n\xFF\xFF"[..],
        ))
        .unwrap();
        assert_eq!(*count.lock(), 0);
    }

    #[test]
    fn push_drops_a_coalesced_frame_that_fails_validation() {
        let sim = Sim::new(1);
        let net = simnet::Network::ethernet(&sim);
        let p = SipLike::new();
        let gw = p.bind(&net, "gw", Arc::new(|_, _| Ok(Value::Null)));
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = seen.clone();
        p.install_push_handler(&net, gw, move |_, service, event| {
            seen2.lock().push((service.to_owned(), event.clone()));
        });
        let src = net.attach("src");
        let e1 = SipLike::encode_event_payload(&Value::Int(1));
        let e2 = SipLike::encode_event_payload(&Value::Int(2));
        assert!(p.notify_batch(&net, src, gw, &[("door", &e1), ("cam", &e2)]));
        assert_eq!(seen.lock().len(), 2, "a valid frame delivers every run");

        let mut frame = b"NOTIFY vsg:* VSG-SIP/1.0\r\n\r\n".to_vec();
        binval::begin_list(2, &mut frame);
        binval::begin_record(2, &mut frame);
        binval::encode_str_field("s", "door", &mut frame);
        binval::encode_field_key("l", &mut frame);
        binval::begin_list(1, &mut frame);
        frame.extend_from_slice(&e1);
        let valid_group = frame.len();
        // The second group is cut short: the whole frame is dropped,
        // the valid first group with it.
        frame.extend_from_slice(&[7, 2, 1, b's', 4]);
        net.send(Frame::new(src, gw, Protocol::Sip, frame.clone()))
            .unwrap();
        // So is a frame with bytes after its last group.
        frame.truncate(valid_group);
        frame[29] = 1; // the list now announces one group
        frame.push(0);
        net.send(Frame::new(src, gw, Protocol::Sip, frame)).unwrap();
        let seen = seen.lock();
        assert_eq!(seen.len(), 2, "{seen:?}");
    }

    #[test]
    fn notify_batch_len_is_the_frame_size() {
        let sim = Sim::new(1);
        let net = simnet::Network::new(&sim, "lan", simnet::LinkModel::ideal());
        let (src, inbox) = (net.attach("src"), net.attach("inbox"));
        let small = SipLike::encode_event_payload(&Value::Int(1));
        let big = SipLike::encode_event_payload(&Value::Str("x".repeat(300)));
        let long_name = "n".repeat(200);
        let alternating: Vec<(&str, &[u8])> = (0..300)
            .map(|i| (if i % 2 == 0 { "a" } else { "b" }, small.as_slice()))
            .collect();
        let cases: Vec<Vec<(&str, &[u8])>> = vec![
            vec![("door", &small)],
            vec![("door", &small), ("door", &big), ("cam", &small)],
            vec![(long_name.as_str(), &big)],
            vec![("cam", small.as_slice()); 200],
            alternating,
        ];
        for members in &cases {
            assert!(SipLike::new().notify_batch(&net, src, inbox, members));
            let frame = net.recv(inbox).unwrap();
            assert_eq!(SipLike::notify_batch_len(members), frame.len());
        }
    }

    #[test]
    fn sip_supports_push_soap_does_not() {
        assert!(SipLike::new().supports_push());
    }

    #[test]
    fn sip_calls_are_lighter_than_soap() {
        use crate::protocol::Soap11;
        use simnet::{Network, Protocol as P};
        let measure = |p: &dyn VsgProtocol, proto: P| {
            let sim = Sim::new(1);
            let net = Network::ethernet(&sim);
            let server = p.bind(&net, "gw", Arc::new(|_, _| Ok(Value::Null)));
            let client = net.attach("c");
            p.call(&net, client, server, &VsgRequest::new("svc", "op"))
                .unwrap();
            net.with_stats(|s| s.protocol(proto).bytes)
        };
        let sip = measure(&SipLike::new(), P::Sip);
        let soap = measure(&Soap11::new(), P::Http);
        assert!(sip * 3 < soap, "sip {sip}B vs soap {soap}B");
    }
}
