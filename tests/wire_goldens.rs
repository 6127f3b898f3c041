//! Pre-refactor golden wire bytes for all three VSG codecs.
//!
//! Captured from the codec stack as it stood before the zero-copy
//! rework (interned names, streaming writers, borrowed decode). Every
//! byte a gateway puts on the wire — SOAP HTTP POSTs, SIP-like INVITE /
//! BATCH / NOTIFY frames, and compact-binary request frames — must stay
//! bit-identical across that refactor: these tests re-drive the public
//! protocol API through a frame tap and compare against the frozen hex.
//!
//! The SOAP goldens also drive the gateway's HTTP edge, which reads a
//! frame as exactly one request: what is past the declared body, a
//! second request included, gets one 400 and runs nothing.

use metaware::protocol::{binval, CompactBinary, SipLike, Soap11, VsgProtocol, VsgRequest};
use metaware::trace::{SpanId, TraceContext, TraceId};
use metaware::MetaError;
use parking_lot::Mutex;
use proptest::prelude::*;
use simnet::net::Network;
use simnet::sim::Sim;
use simnet::Protocol;
use soap::{
    FaultCode, HttpRequest, HttpResponse, HttpResponseRef, RpcResponse, SoapError, Value,
    RPC_ROUTER_PATH,
};
use std::sync::Arc;

fn requests() -> Vec<VsgRequest> {
    let mut traced = VsgRequest::new("living-room-vcr", "record")
        .arg("channel", 42)
        .arg("title", "News & <Weather>")
        .arg("immediate", true)
        .arg("gain", 1.5)
        .arg("tape", Value::Bytes(vec![0, 1, 254, 255]))
        .arg(
            "tags",
            Value::List(vec![Value::Str("tv".into()), Value::Null]),
        )
        .arg("nested", Value::Record(vec![("x".into(), Value::Int(-7))]));
    traced.trace = Some(TraceContext {
        trace: TraceId(0xabcdef),
        parent: SpanId(0x1234),
    });
    vec![
        VsgRequest::new("hall-lamp", "status"),
        VsgRequest::new("hall-lamp", "switch").arg("on", true),
        traced,
    ]
}

fn hex(b: &[u8]) -> String {
    use std::fmt::Write;
    b.iter().fold(String::new(), |mut s, x| {
        let _ = write!(s, "{x:02x}");
        s
    })
}

/// Drives three single calls plus one batch through `p` toward a tap
/// node that records raw request payloads, and returns the payload hex.
fn capture(p: &dyn VsgProtocol) -> Vec<String> {
    let sim = Sim::new(1);
    let net = Network::ethernet(&sim);
    let seen: Arc<Mutex<Vec<Vec<u8>>>> = Arc::new(Mutex::new(Vec::new()));
    let seen2 = seen.clone();
    let tap = net.attach("tap");
    net.set_request_handler(tap, move |_sim, frame| {
        seen2.lock().push(frame.payload.to_vec());
        Ok(frame.payload.clone())
    })
    .unwrap();
    let client = net.attach("c");
    let rs = requests();
    for r in &rs {
        let _ = p.call(&net, client, tap, r);
    }
    let _ = p.call_batch(&net, client, tap, &rs);
    let out = seen.lock().iter().map(|p| hex(p)).collect();
    out
}

#[test]
fn soap_wire_bytes_match_pre_refactor_goldens() {
    let got = capture(&Soap11::new());
    assert_eq!(got, vec![G_SOAP_0, G_SOAP_1, G_SOAP_2, G_SOAP_3]);
}

#[test]
fn sip_wire_bytes_match_pre_refactor_goldens() {
    let got = capture(&SipLike::new());
    assert_eq!(got, vec![G_SIP_0, G_SIP_1, G_SIP_2, G_SIP_3]);
}

#[test]
fn binary_wire_bytes_match_pre_refactor_goldens() {
    let got = capture(&CompactBinary::new());
    assert_eq!(got, vec![G_BINARY_0, G_BINARY_1, G_BINARY_2, G_BINARY_3]);
}

#[test]
fn sip_notify_bytes_match_pre_refactor_goldens() {
    let sim = Sim::new(1);
    let net = Network::ethernet(&sim);
    let seen: Arc<Mutex<Vec<Vec<u8>>>> = Arc::new(Mutex::new(Vec::new()));
    let seen2 = seen.clone();
    let tap = net.attach("tap");
    net.set_frame_handler(tap, move |_sim, frame| {
        seen2.lock().push(frame.payload.to_vec());
    })
    .unwrap();
    let src = net.attach("src");
    let p = SipLike::new();
    p.notify(&net, src, tap, "motion-1", &Value::Bool(true));
    let e1 = SipLike::encode_event_payload(&Value::Int(1));
    let e2 = SipLike::encode_event_payload(&Value::Str("s2".into()));
    let e3 = SipLike::encode_event_payload(&Value::Int(3));
    p.notify_batch(
        &net,
        src,
        tap,
        &[
            ("door", e1.as_slice()),
            ("door", e2.as_slice()),
            ("cam", e3.as_slice()),
        ],
    );
    let got: Vec<String> = seen.lock().iter().map(|p| hex(p)).collect();
    assert_eq!(got, vec![G_NOTIFY_0, G_NOTIFY_1]);
}

/// Posts `envelope` as-is to a `Soap11` gateway (null handler) and
/// decodes what comes back.
fn post_to_soap_gateway(envelope: &str) -> Result<Value, SoapError> {
    let sim = Sim::new(1);
    let net = Network::ethernet(&sim);
    let gw = Soap11::new().bind(&net, "gw", Arc::new(|_, _| Ok(Value::Null)));
    let client = net.attach("c");
    let wire = HttpRequest::post(RPC_ROUTER_PATH, "text/xml; charset=utf-8", envelope)
        .header("SOAPAction", "\"urn:vsg:gateway#ping\"")
        .to_bytes();
    let raw = net.request(client, gw, Protocol::Http, wire).unwrap();
    let resp = HttpResponse::from_bytes(&raw).unwrap();
    assert_eq!(resp.status, 500, "a fault rides a 500");
    RpcResponse::from_envelope(std::str::from_utf8(&resp.body).unwrap()).map(|r| r.value)
}

const ENVELOPE_OPEN: &str = concat!(
    "<?xml version=\"1.0\" encoding=\"UTF-8\"?>",
    "<SOAP-ENV:Envelope xmlns:SOAP-ENV=\"http://schemas.xmlsoap.org/soap/envelope/\">"
);
const DEPTH_BOMB: usize = 100_000;

#[test]
fn soap_gateway_faults_a_100k_deep_header_entry() {
    let envelope = format!(
        "{ENVELOPE_OPEN}<SOAP-ENV:Header><vsg:Deep xmlns:vsg=\"urn:vsg:ext\">{}{}</vsg:Deep>\
         </SOAP-ENV:Header><SOAP-ENV:Body><ns1:ping xmlns:ns1=\"urn:vsg:gateway\"/>\
         </SOAP-ENV:Body></SOAP-ENV:Envelope>",
        "<d>".repeat(DEPTH_BOMB),
        "</d>".repeat(DEPTH_BOMB),
    );
    // The header entry is skipped by counting depth; the call itself
    // names no service.
    match post_to_soap_gateway(&envelope) {
        Err(SoapError::Fault(f)) => {
            assert_eq!(f.code, FaultCode::Client);
            assert_eq!(f.string, "missing __service argument");
        }
        other => panic!("expected a typed fault, got {other:?}"),
    }
}

#[test]
fn soap_gateway_faults_100k_unclosed_tags() {
    let envelope = format!(
        "{ENVELOPE_OPEN}<SOAP-ENV:Body><ns1:ping xmlns:ns1=\"urn:vsg:gateway\">{}",
        "<a>".repeat(DEPTH_BOMB),
    );
    match post_to_soap_gateway(&envelope) {
        Err(SoapError::Fault(f)) => {
            assert_eq!(f.code, FaultCode::Client);
            assert_eq!(
                f.string,
                format!(
                    "XML parse error at byte {}: unexpected end of input inside an element",
                    envelope.len()
                )
            );
        }
        other => panic!("expected a typed fault, got {other:?}"),
    }
}

/// A `DEPTH_BOMB`-deep chain of Structs around an int, written as text
/// (the recursive writer would overflow the stack as well).
fn struct_depth_bomb(name: &str) -> String {
    let open = "<f xsi:type=\"SOAP-ENC:Struct\">";
    format!(
        "<{name} xsi:type=\"SOAP-ENC:Struct\">{}<n xsi:type=\"xsd:int\">1</n>{}</{name}>",
        open.repeat(DEPTH_BOMB - 1),
        "</f>".repeat(DEPTH_BOMB - 1),
    )
}

#[test]
fn soap_gateway_faults_a_100k_deep_argument_and_keeps_serving() {
    let sim = Sim::new(1);
    let net = Network::ethernet(&sim);
    let soap = Soap11::new();
    let gw = soap.bind(&net, "gw", Arc::new(|_, _| Ok(Value::Int(7))));
    let client = net.attach("c");
    let envelope = format!(
        "{ENVELOPE_OPEN}<SOAP-ENV:Body><ns1:ping xmlns:ns1=\"urn:vsg:gateway\">\
         <__service xsi:type=\"xsd:string\">hall-lamp</__service>{}</ns1:ping>\
         </SOAP-ENV:Body></SOAP-ENV:Envelope>",
        struct_depth_bomb("deep"),
    );
    let wire = HttpRequest::post(RPC_ROUTER_PATH, "text/xml; charset=utf-8", envelope)
        .header("SOAPAction", "\"urn:vsg:gateway#ping\"")
        .to_bytes();
    let raw = net.request(client, gw, Protocol::Http, wire).unwrap();
    let resp = HttpResponse::from_bytes(&raw).unwrap();
    assert_eq!(resp.status, 500, "a fault rides a 500");
    match RpcResponse::from_envelope(std::str::from_utf8(&resp.body).unwrap()) {
        Err(SoapError::Fault(f)) => {
            assert_eq!(f.code, FaultCode::Client);
            assert_eq!(f.string, "SOAP value error: nesting deeper than 64 levels");
        }
        other => panic!("expected a typed fault, got {other:?}"),
    }
    let ok = soap.call(&net, client, gw, &VsgRequest::new("hall-lamp", "ping"));
    assert_eq!(ok.unwrap(), Value::Int(7), "the gateway still serves");
}

#[test]
fn soap_client_gets_a_typed_error_for_a_100k_deep_reply() {
    let sim = Sim::new(1);
    let net = Network::ethernet(&sim);
    let server = net.attach("deep-server");
    let body = format!(
        "{ENVELOPE_OPEN}<SOAP-ENV:Body><ns1:pingResponse xmlns:ns1=\"urn:vsg:response\">{}\
         </ns1:pingResponse></SOAP-ENV:Body></SOAP-ENV:Envelope>",
        struct_depth_bomb("return"),
    );
    let reply = HttpResponse::ok("text/xml; charset=utf-8", body).to_bytes();
    net.set_request_handler(server, move |_, _| Ok(reply.clone()))
        .unwrap();
    let client = soap::SoapClient::attach(&net, "c");
    let err = client
        .call(server, &soap::RpcCall::new("urn:vsg:gateway", "ping"))
        .unwrap_err();
    match err {
        SoapError::Value(e) => assert_eq!(e.message, "nesting deeper than 64 levels"),
        other => panic!("expected a typed value error, got {other:?}"),
    }
}

/// A binval body of `DEPTH_BOMB` nested one-item lists around a null,
/// two bytes a level.
fn binval_depth_bomb() -> Vec<u8> {
    let mut body = [6u8, 1].repeat(DEPTH_BOMB);
    body.push(0);
    body
}

/// Sends `frame` as-is to a gateway speaking `p`, whose handler must
/// never run, and returns the raw reply.
fn request_to_gateway(p: &dyn VsgProtocol, proto: Protocol, frame: Vec<u8>) -> Vec<u8> {
    let sim = Sim::new(1);
    let net = Network::ethernet(&sim);
    let gw = p.bind(
        &net,
        "gw",
        Arc::new(|_, req: &VsgRequest| panic!("handler reached with {req:?}")),
    );
    let client = net.attach("c");
    net.request(client, gw, proto, frame).unwrap().to_vec()
}

#[test]
fn binary_gateway_rejects_a_100k_deep_body() {
    let frame = [b"VSGB".as_slice(), &binval_depth_bomb()].concat();
    let reply = request_to_gateway(&CompactBinary::new(), Protocol::Raw, frame);
    // A fault reply: tag 0, then the error text as a binval string.
    assert_eq!(reply[0], 0);
    let Some(Value::Str(fault)) = binval::from_bytes(&reply[1..]) else {
        panic!("fault text expected, got {reply:02x?}");
    };
    assert_eq!(
        MetaError::from_fault_string(&fault),
        MetaError::Protocol("malformed binary request".into())
    );
}

#[test]
fn sip_gateway_rejects_a_100k_deep_invite() {
    let frame = [
        b"INVITE vsg:hall-lamp VSG-SIP/1.0\r\nOperation: status\r\n\r\n".as_slice(),
        &binval_depth_bomb(),
    ]
    .concat();
    let reply = request_to_gateway(&SipLike::new(), Protocol::Sip, frame);
    assert_eq!(
        String::from_utf8_lossy(&reply),
        "VSG-SIP/1.0 500 VSG protocol error: malformed INVITE\r\n\r\n"
    );
}

#[test]
fn sip_push_drops_a_100k_deep_notify() {
    let sim = Sim::new(1);
    // A one-way frame must fit the link's MTU; this one has none.
    let net = Network::new(&sim, "lan", simnet::LinkModel::ideal());
    let p = SipLike::new();
    let gw = p.bind(&net, "gw", Arc::new(|_, _| Ok(Value::Null)));
    let calls = Arc::new(Mutex::new(0u32));
    let calls2 = calls.clone();
    p.install_push_handler(&net, gw, move |_, _, _| *calls2.lock() += 1);
    let src = net.attach("src");
    let frame = [
        b"NOTIFY vsg:motion-1 VSG-SIP/1.0\r\n\r\n".as_slice(),
        &binval_depth_bomb(),
    ]
    .concat();
    net.send(simnet::Frame::new(src, gw, Protocol::Sip, frame))
        .unwrap();
    assert_eq!(*calls.lock(), 0);
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

const SOAP_GOLDENS: [&str; 4] = [G_SOAP_0, G_SOAP_1, G_SOAP_2, G_SOAP_3];

/// The exact reply of the SOAP gateway's HTTP edge to a frame it cannot
/// read as one request.
fn bad_request(reason: &str) -> String {
    let body = format!("malformed HTTP message: {reason}");
    format!(
        "HTTP/1.1 400 Bad Request\r\nContent-Type: text/plain\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

/// Sends `frame` as-is to a SOAP gateway whose handler answers every
/// call with null, and returns the raw reply and the operations the
/// handler ran, in order.
fn serve_soap_frame(frame: Vec<u8>) -> (Vec<u8>, Vec<String>) {
    let sim = Sim::new(1);
    let net = Network::ethernet(&sim);
    let ran = Arc::new(Mutex::new(Vec::new()));
    let ran2 = ran.clone();
    let gw = Soap11::new().bind(
        &net,
        "gw",
        Arc::new(move |_, req: &VsgRequest| {
            ran2.lock().push(req.operation.to_string());
            Ok(Value::Null)
        }),
    );
    let client = net.attach("c");
    let reply = net.request(client, gw, Protocol::Http, frame).unwrap();
    let ran = ran.lock().clone();
    (reply.to_vec(), ran)
}

/// Offsets in a golden request: just past its request line, and the
/// start of its `\r\n\r\n` head terminator.
fn head_offsets(golden: &[u8]) -> (usize, usize) {
    let line_end = golden.windows(2).position(|w| w == b"\r\n").unwrap() + 2;
    let head_end = golden.windows(4).position(|w| w == b"\r\n\r\n").unwrap();
    (line_end, head_end)
}

#[test]
fn soap_gateway_answers_a_two_request_frame_with_one_400() {
    // Two golden gateway calls back to back in one frame, each naming
    // its `__service`: the edge turns the frame away whole, and neither
    // call reaches the handler.
    let frame = [unhex(G_SOAP_0), unhex(G_SOAP_1)].concat();
    let reply = request_to_gateway(&Soap11::new(), Protocol::Http, frame);
    assert_eq!(
        String::from_utf8_lossy(&reply),
        bad_request("bytes past Content-Length")
    );
}

#[test]
fn soap_gateway_answers_trailing_bytes_with_one_400() {
    // A stray line break after the declared body is not a second
    // message to skip or to run: the whole frame is refused.
    let frame = [unhex(G_SOAP_1), b"\r\n".to_vec()].concat();
    let reply = request_to_gateway(&Soap11::new(), Protocol::Http, frame);
    assert_eq!(
        String::from_utf8_lossy(&reply),
        bad_request("bytes past Content-Length")
    );
}

#[test]
fn soap_gateway_answers_a_short_body_with_one_400() {
    let mut frame = unhex(G_SOAP_2);
    frame.pop();
    let reply = request_to_gateway(&Soap11::new(), Protocol::Http, frame);
    assert_eq!(
        String::from_utf8_lossy(&reply),
        bad_request("truncated body")
    );
}

#[test]
fn soap_gateway_frames_by_the_last_content_length() {
    let golden = unhex(G_SOAP_0);
    let (line_end, head_end) = head_offsets(&golden);
    // A lying length before the true one is overridden by it.
    let early = [
        &golden[..line_end],
        b"Content-Length: 3\r\n",
        &golden[line_end..],
    ]
    .concat();
    let (reply, ran) = serve_soap_frame(early);
    assert_eq!(ran, ["status"]);
    assert_eq!(HttpResponseRef::parse(&reply).unwrap().status, 200);
    // A lying length after it wins: its body ends short of the frame.
    let late = [
        &golden[..head_end],
        b"\r\nContent-Length: 3",
        &golden[head_end..],
    ]
    .concat();
    let (reply, ran) = serve_soap_frame(late);
    assert!(ran.is_empty(), "ran {ran:?}");
    assert_eq!(
        String::from_utf8_lossy(&reply),
        bad_request("bytes past Content-Length")
    );
}

#[test]
fn soap_gateway_reads_a_request_without_content_length_to_the_end_of_the_frame() {
    let golden = String::from_utf8(unhex(G_SOAP_1)).unwrap();
    let frame = golden.replacen("Content-Length: 476\r\n", "", 1);
    assert_ne!(frame, golden);
    let (reply, ran) = serve_soap_frame(frame.into_bytes());
    assert_eq!(ran, ["switch"]);
    assert_eq!(HttpResponseRef::parse(&reply).unwrap().status, 200);
}

#[test]
fn soap_gateway_answers_a_correlation_id_like_any_other_header() {
    // `X-Corr-Id` means nothing to the edge: the reply neither echoes
    // it nor differs from the reply to the same call without it.
    let golden = unhex(G_SOAP_0);
    let (line_end, _) = head_offsets(&golden);
    let tagged = [
        &golden[..line_end],
        b"X-Corr-Id: 7\r\n",
        &golden[line_end..],
    ]
    .concat();
    let (plain, _) = serve_soap_frame(golden);
    let (reply, ran) = serve_soap_frame(tagged);
    assert_eq!(ran, ["status"]);
    assert_eq!(
        String::from_utf8_lossy(&reply),
        String::from_utf8_lossy(&plain)
    );
    let resp = HttpResponseRef::parse(&reply).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.get_header("x-corr-id"), None);
}

#[test]
fn soap_gateway_runs_every_member_of_a_batch_envelope() {
    // The batch envelope is the one frame that carries several calls:
    // one HTTP message, every member run in order, one response.
    let (reply, ran) = serve_soap_frame(unhex(G_SOAP_3));
    assert_eq!(ran, ["status", "switch", "record"]);
    let resp = HttpResponseRef::parse(&reply).unwrap();
    assert_eq!(resp.status, 200);
    let declared: usize = resp.get_header("content-length").unwrap().parse().unwrap();
    assert_eq!(declared, resp.body.len(), "one response in {reply:?}");
    let results = RpcResponse::from_envelope(std::str::from_utf8(resp.body).unwrap())
        .unwrap()
        .value;
    assert!(
        matches!(&results, Value::List(members) if members.len() == 3),
        "{results:?}"
    );
}

/// A golden request cut short, with one byte replaced, or with one byte
/// inserted, at an arbitrary offset.
fn mangled_golden() -> impl Strategy<Value = Vec<u8>> {
    (0..4usize, any::<usize>(), any::<u8>(), 0..3u8).prop_map(|(i, at, byte, how)| {
        let mut frame = unhex(SOAP_GOLDENS[i]);
        let at = at % frame.len();
        match how {
            0 => frame.truncate(at),
            1 => frame[at] = byte,
            _ => frame.insert(at, byte),
        }
        frame
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    /// Two to five golden requests back to back, or one followed by
    /// stray bytes, get the one 400 and run no call: the handler of
    /// `request_to_gateway` panics if reached.
    #[test]
    fn soap_gateway_answers_every_multi_message_frame_with_one_400(
        frame in prop_oneof![
            prop::collection::vec(0..4usize, 2..6).prop_map(|ix| {
                ix.iter().flat_map(|&i| unhex(SOAP_GOLDENS[i])).collect::<Vec<u8>>()
            }),
            (0..4usize, prop::collection::vec(any::<u8>(), 1..64))
                .prop_map(|(i, tail)| [unhex(SOAP_GOLDENS[i]), tail].concat()),
        ],
    ) {
        let reply = request_to_gateway(&Soap11::new(), Protocol::Http, frame);
        prop_assert_eq!(
            String::from_utf8_lossy(&reply),
            bad_request("bytes past Content-Length")
        );
    }

    /// The gateway never panics and answers every frame with exactly
    /// one HTTP response whose `Content-Length` is its body's length;
    /// a frame refused with a 4xx runs no call.
    #[test]
    fn soap_gateway_answers_every_frame_with_exactly_one_response(
        frame in prop_oneof![
            mangled_golden(),
            prop::collection::vec(any::<u8>(), 0..200),
            prop::collection::vec(mangled_golden(), 2..4).prop_map(|m| m.concat()),
        ],
    ) {
        let (reply, ran) = serve_soap_frame(frame);
        let resp = HttpResponseRef::parse(&reply);
        prop_assert!(resp.is_ok(), "reply {:?}", reply);
        let resp = resp.unwrap();
        let declared = resp.get_header("content-length").and_then(|n| n.parse().ok());
        prop_assert_eq!(declared, Some(resp.body.len()), "one response in {:?}", reply);
        if (400..500).contains(&resp.status) {
            prop_assert!(ran.is_empty(), "{} ran {:?}", resp.status, ran);
        }
    }
}

const G_SOAP_0: &str = concat!(
    "504f5354202f736f61702f736572766c65742f727063726f7574657220485454502f312e",
    "310d0a436f6e74656e742d547970653a20746578742f786d6c3b20636861727365743d75",
    "74662d380d0a436f6e74656e742d4c656e6774683a203434300d0a557365722d4167656e",
    "743a206d657461776172652f302e310d0a436f6e6e656374696f6e3a20636c6f73650d0a",
    "534f4150416374696f6e3a202275726e3a7673673a676174657761792373746174757322",
    "0d0a0d0a3c3f786d6c2076657273696f6e3d22312e302220656e636f64696e673d225554",
    "462d38223f3e3c534f41502d454e563a456e76656c6f706520786d6c6e733a534f41502d",
    "454e563d22687474703a2f2f736368656d61732e786d6c736f61702e6f72672f736f6170",
    "2f656e76656c6f70652f2220786d6c6e733a7873643d22687474703a2f2f7777772e7733",
    "2e6f72672f323030312f584d4c536368656d612220786d6c6e733a7873693d2268747470",
    "3a2f2f7777772e77332e6f72672f323030312f584d4c536368656d612d696e7374616e63",
    "652220534f41502d454e563a656e636f64696e675374796c653d22687474703a2f2f7363",
    "68656d61732e786d6c736f61702e6f72672f736f61702f656e636f64696e672f223e3c53",
    "4f41502d454e563a426f64793e3c6e73313a73746174757320786d6c6e733a6e73313d22",
    "75726e3a7673673a67617465776179223e3c5f5f73657276696365207873693a74797065",
    "3d227873643a737472696e67223e68616c6c2d6c616d703c2f5f5f736572766963653e3c",
    "2f6e73313a7374617475733e3c2f534f41502d454e563a426f64793e3c2f534f41502d45",
    "4e563a456e76656c6f70653e",
);
const G_SOAP_1: &str = concat!(
    "504f5354202f736f61702f736572766c65742f727063726f7574657220485454502f312e",
    "310d0a436f6e74656e742d547970653a20746578742f786d6c3b20636861727365743d75",
    "74662d380d0a436f6e74656e742d4c656e6774683a203437360d0a557365722d4167656e",
    "743a206d657461776172652f302e310d0a436f6e6e656374696f6e3a20636c6f73650d0a",
    "534f4150416374696f6e3a202275726e3a7673673a676174657761792373776974636822",
    "0d0a0d0a3c3f786d6c2076657273696f6e3d22312e302220656e636f64696e673d225554",
    "462d38223f3e3c534f41502d454e563a456e76656c6f706520786d6c6e733a534f41502d",
    "454e563d22687474703a2f2f736368656d61732e786d6c736f61702e6f72672f736f6170",
    "2f656e76656c6f70652f2220786d6c6e733a7873643d22687474703a2f2f7777772e7733",
    "2e6f72672f323030312f584d4c536368656d612220786d6c6e733a7873693d2268747470",
    "3a2f2f7777772e77332e6f72672f323030312f584d4c536368656d612d696e7374616e63",
    "652220534f41502d454e563a656e636f64696e675374796c653d22687474703a2f2f7363",
    "68656d61732e786d6c736f61702e6f72672f736f61702f656e636f64696e672f223e3c53",
    "4f41502d454e563a426f64793e3c6e73313a73776974636820786d6c6e733a6e73313d22",
    "75726e3a7673673a67617465776179223e3c5f5f73657276696365207873693a74797065",
    "3d227873643a737472696e67223e68616c6c2d6c616d703c2f5f5f736572766963653e3c",
    "6f6e207873693a747970653d227873643a626f6f6c65616e223e747275653c2f6f6e3e3c",
    "2f6e73313a7377697463683e3c2f534f41502d454e563a426f64793e3c2f534f41502d45",
    "4e563a456e76656c6f70653e",
);
const G_SOAP_2: &str = concat!(
    "504f5354202f736f61702f736572766c65742f727063726f7574657220485454502f312e",
    "310d0a436f6e74656e742d547970653a20746578742f786d6c3b20636861727365743d75",
    "74662d380d0a436f6e74656e742d4c656e6774683a20313030360d0a557365722d416765",
    "6e743a206d657461776172652f302e310d0a436f6e6e656374696f6e3a20636c6f73650d",
    "0a534f4150416374696f6e3a202275726e3a7673673a67617465776179237265636f7264",
    "220d0a0d0a3c3f786d6c2076657273696f6e3d22312e302220656e636f64696e673d2255",
    "54462d38223f3e3c534f41502d454e563a456e76656c6f706520786d6c6e733a534f4150",
    "2d454e563d22687474703a2f2f736368656d61732e786d6c736f61702e6f72672f736f61",
    "702f656e76656c6f70652f2220786d6c6e733a7873643d22687474703a2f2f7777772e77",
    "332e6f72672f323030312f584d4c536368656d612220786d6c6e733a7873693d22687474",
    "703a2f2f7777772e77332e6f72672f323030312f584d4c536368656d612d696e7374616e",
    "63652220534f41502d454e563a656e636f64696e675374796c653d22687474703a2f2f73",
    "6368656d61732e786d6c736f61702e6f72672f736f61702f656e636f64696e672f223e3c",
    "534f41502d454e563a4865616465723e3c7673673a5472616365436f6e7465787420786d",
    "6c6e733a7673673d2275726e3a7673673a657874223e3030303030303030303061626364",
    "65662d303030303030303030303030313233343c2f7673673a5472616365436f6e746578",
    "743e3c2f534f41502d454e563a4865616465723e3c534f41502d454e563a426f64793e3c",
    "6e73313a7265636f726420786d6c6e733a6e73313d2275726e3a7673673a676174657761",
    "79223e3c5f5f73657276696365207873693a747970653d227873643a737472696e67223e",
    "6c6976696e672d726f6f6d2d7663723c2f5f5f736572766963653e3c6368616e6e656c20",
    "7873693a747970653d227873643a6c6f6e67223e34323c2f6368616e6e656c3e3c746974",
    "6c65207873693a747970653d227873643a737472696e67223e4e6577732026616d703b20",
    "266c743b576561746865722667743b3c2f7469746c653e3c696d6d656469617465207873",
    "693a747970653d227873643a626f6f6c65616e223e747275653c2f696d6d656469617465",
    "3e3c6761696e207873693a747970653d227873643a646f75626c65223e312e353c2f6761",
    "696e3e3c74617065207873693a747970653d22534f41502d454e433a626173653634223e",
    "4141482b2f773d3d3c2f746170653e3c74616773207873693a747970653d22534f41502d",
    "454e433a4172726179223e3c6974656d207873693a747970653d227873643a737472696e",
    "67223e74763c2f6974656d3e3c6974656d207873693a747970653d227873693a6e756c6c",
    "22207873693a6e696c3d2274727565222f3e3c2f746167733e3c6e657374656420787369",
    "3a747970653d22534f41502d454e433a537472756374223e3c78207873693a747970653d",
    "227873643a6c6f6e67223e2d373c2f783e3c2f6e65737465643e3c2f6e73313a7265636f",
    "72643e3c2f534f41502d454e563a426f64793e3c2f534f41502d454e563a456e76656c6f",
    "70653e",
);
const G_SOAP_3: &str = concat!(
    "504f5354202f736f61702f736572766c65742f727063726f7574657220485454502f312e",
    "310d0a436f6e74656e742d547970653a20746578742f786d6c3b20636861727365743d75",
    "74662d380d0a436f6e74656e742d4c656e6774683a20313433360d0a557365722d416765",
    "6e743a206d657461776172652f302e310d0a436f6e6e656374696f6e3a20636c6f73650d",
    "0a534f4150416374696f6e3a202275726e3a7673673a67617465776179235f5f62617463",
    "685f5f220d0a0d0a3c3f786d6c2076657273696f6e3d22312e302220656e636f64696e67",
    "3d225554462d38223f3e3c534f41502d454e563a456e76656c6f706520786d6c6e733a53",
    "4f41502d454e563d22687474703a2f2f736368656d61732e786d6c736f61702e6f72672f",
    "736f61702f656e76656c6f70652f2220786d6c6e733a7873643d22687474703a2f2f7777",
    "772e77332e6f72672f323030312f584d4c536368656d612220786d6c6e733a7873693d22",
    "687474703a2f2f7777772e77332e6f72672f323030312f584d4c536368656d612d696e73",
    "74616e63652220534f41502d454e563a656e636f64696e675374796c653d22687474703a",
    "2f2f736368656d61732e786d6c736f61702e6f72672f736f61702f656e636f64696e672f",
    "223e3c534f41502d454e563a4865616465723e3c7673673a426174636820786d6c6e733a",
    "7673673d2275726e3a7673673a657874223e333c2f7673673a42617463683e3c2f534f41",
    "502d454e563a4865616465723e3c534f41502d454e563a426f64793e3c6e73313a5f5f62",
    "617463685f5f20786d6c6e733a6e73313d2275726e3a7673673a67617465776179223e3c",
    "6d30207873693a747970653d22534f41502d454e433a537472756374223e3c7320787369",
    "3a747970653d227873643a737472696e67223e68616c6c2d6c616d703c2f733e3c6f2078",
    "73693a747970653d227873643a737472696e67223e7374617475733c2f6f3e3c61207873",
    "693a747970653d22534f41502d454e433a537472756374222f3e3c2f6d303e3c6d312078",
    "73693a747970653d22534f41502d454e433a537472756374223e3c73207873693a747970",
    "653d227873643a737472696e67223e68616c6c2d6c616d703c2f733e3c6f207873693a74",
    "7970653d227873643a737472696e67223e7377697463683c2f6f3e3c61207873693a7479",
    "70653d22534f41502d454e433a537472756374223e3c6f6e207873693a747970653d2278",
    "73643a626f6f6c65616e223e747275653c2f6f6e3e3c2f613e3c2f6d313e3c6d32207873",
    "693a747970653d22534f41502d454e433a537472756374223e3c73207873693a74797065",
    "3d227873643a737472696e67223e6c6976696e672d726f6f6d2d7663723c2f733e3c6f20",
    "7873693a747970653d227873643a737472696e67223e7265636f72643c2f6f3e3c612078",
    "73693a747970653d22534f41502d454e433a537472756374223e3c6368616e6e656c2078",
    "73693a747970653d227873643a6c6f6e67223e34323c2f6368616e6e656c3e3c7469746c",
    "65207873693a747970653d227873643a737472696e67223e4e6577732026616d703b2026",
    "6c743b576561746865722667743b3c2f7469746c653e3c696d6d65646961746520787369",
    "3a747970653d227873643a626f6f6c65616e223e747275653c2f696d6d6564696174653e",
    "3c6761696e207873693a747970653d227873643a646f75626c65223e312e353c2f676169",
    "6e3e3c74617065207873693a747970653d22534f41502d454e433a626173653634223e41",
    "41482b2f773d3d3c2f746170653e3c74616773207873693a747970653d22534f41502d45",
    "4e433a4172726179223e3c6974656d207873693a747970653d227873643a737472696e67",
    "223e74763c2f6974656d3e3c6974656d207873693a747970653d227873693a6e756c6c22",
    "207873693a6e696c3d2274727565222f3e3c2f746167733e3c6e6573746564207873693a",
    "747970653d22534f41502d454e433a537472756374223e3c78207873693a747970653d22",
    "7873643a6c6f6e67223e2d373c2f783e3c2f6e65737465643e3c2f613e3c74207873693a",
    "747970653d227873643a737472696e67223e303030303030303030306162636465662d30",
    "3030303030303030303030313233343c2f743e3c2f6d323e3c2f6e73313a5f5f62617463",
    "685f5f3e3c2f534f41502d454e563a426f64793e3c2f534f41502d454e563a456e76656c",
    "6f70653e",
);
const G_SIP_0: &str = concat!(
    "494e56495445207673673a68616c6c2d6c616d70205653472d5349502f312e300d0a4f70",
    "65726174696f6e3a207374617475730d0a0d0a0700",
);
const G_SIP_1: &str = concat!(
    "494e56495445207673673a68616c6c2d6c616d70205653472d5349502f312e300d0a4f70",
    "65726174696f6e3a207377697463680d0a0d0a0701026f6e0101",
);
const G_SIP_2: &str = concat!(
    "494e56495445207673673a6c6976696e672d726f6f6d2d766372205653472d5349502f31",
    "2e300d0a4f7065726174696f6e3a207265636f72640d0a54726163652d436f6e74657874",
    "3a20303030303030303030306162636465662d303030303030303030303030313233340d",
    "0a0d0a0707076368616e6e656c022a00000000000000057469746c6504104e6577732026",
    "203c576561746865723e09696d6d6564696174650101046761696e03000000000000f83f",
    "047461706505040001feff047461677306020402747600066e65737465640701017802f9",
    "ffffffffffffff",
);
const G_SIP_3: &str = concat!(
    "4241544348207673673a2d205653472d5349502f312e300d0a4d656d626572733a20330d",
    "0a0d0a060307030173040968616c6c2d6c616d70016f0406737461747573016107000703",
    "0173040968616c6c2d6c616d70016f040673776974636801610701026f6e010107040173",
    "040f6c6976696e672d726f6f6d2d766372016f04067265636f726401610707076368616e",
    "6e656c022a00000000000000057469746c6504104e6577732026203c576561746865723e",
    "09696d6d6564696174650101046761696e03000000000000f83f047461706505040001fe",
    "ff047461677306020402747600066e65737465640701017802f9ffffffffffffff017404",
    "21303030303030303030306162636465662d30303030303030303030303031323334",
);
const G_BINARY_0: &str = "5653474207030173040968616c6c2d6c616d70016f040673746174757301610700";
const G_BINARY_1: &str = concat!(
    "5653474207030173040968616c6c2d6c616d70016f040673776974636801610701026f6e",
    "0101",
);
const G_BINARY_2: &str = concat!(
    "5653474207040173040f6c6976696e672d726f6f6d2d766372016f04067265636f726401",
    "610707076368616e6e656c022a00000000000000057469746c6504104e6577732026203c",
    "576561746865723e09696d6d6564696174650101046761696e03000000000000f83f0474",
    "61706505040001feff047461677306020402747600066e65737465640701017802f9ffff",
    "ffffffffff01740421303030303030303030306162636465662d30303030303030303030",
    "303031323334",
);
const G_BINARY_3: &str = concat!(
    "5653474207010142060307030173040968616c6c2d6c616d70016f040673746174757301",
    "61070007030173040968616c6c2d6c616d70016f040673776974636801610701026f6e01",
    "0107040173040f6c6976696e672d726f6f6d2d766372016f04067265636f726401610707",
    "076368616e6e656c022a00000000000000057469746c6504104e6577732026203c576561",
    "746865723e09696d6d6564696174650101046761696e03000000000000f83f0474617065",
    "05040001feff047461677306020402747600066e65737465640701017802f9ffffffffff",
    "ffff01740421303030303030303030306162636465662d30303030303030303030303031",
    "323334",
);
const G_NOTIFY_0: &str = concat!(
    "4e4f54494659207673673a6d6f74696f6e2d31205653472d5349502f312e300d0a0d0a01",
    "01",
);
const G_NOTIFY_1: &str = concat!(
    "4e4f54494659207673673a2a205653472d5349502f312e300d0a0d0a0602070201730404",
    "646f6f72016c06020201000000000000000402733207020173040363616d016c06010203",
    "00000000000000",
);
