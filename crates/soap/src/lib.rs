//! # soap — SOAP 1.1 over simulated HTTP
//!
//! The Virtual Service Gateway protocol of the paper's prototype
//! ("we implement the prototype of our framework with SOAP, a simple
//! protocol", §3.1), reimplemented over [`simnet`]:
//!
//! * [`Value`] — the SOAP section-5 RPC data model, the framework's
//!   lingua franca.
//! * [`RpcCall`] / [`RpcResponse`] / [`Fault`] — envelope encoding, and
//!   [`CallRef`], the checked in-place view a server reads a call
//!   through.
//! * [`HttpRequest`] / [`HttpResponse`] / [`HttpServer`] / [`HttpClient`]
//!   — simulated HTTP/1.1 with per-connection TCP costs.
//! * [`SoapServer`] / [`SoapClient`] — the rpcrouter endpoint, with a
//!   [`CpuModel`] for the XML-processing costs of the 2002 Java stack.
//!
//! ```
//! use simnet::{Sim, Network};
//! use soap::{SoapServer, SoapClient, RpcCall, Value, Fault};
//!
//! let sim = Sim::new(7);
//! let net = Network::ethernet(&sim);
//! let server = SoapServer::bind(&net, "router");
//! // The handler reads the call in place and writes its answer
//! // straight into the response.
//! server.mount("urn:vcr", |_, call, reply| match call.method() {
//!     "record" => match call.get("channel") {
//!         Some(channel) => reply.value(&channel.to_owned()),
//!         None => reply.value(&Value::Null),
//!     },
//!     m => reply.fault(&Fault::client(format!("no method {m}"))),
//! });
//! let client = SoapClient::attach(&net, "pc");
//! let call = RpcCall::new("urn:vcr", "record").arg("channel", 42);
//! let ok = client.call(server.node(), &call).unwrap();
//! assert_eq!(ok, Value::Int(42));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod endpoint;
pub mod fault;
pub mod http;
#[cfg(test)]
mod oracle;
pub mod rpc;
pub mod value;

pub use endpoint::{
    Answered, CpuModel, Reply, ServiceHandler, SoapClient, SoapServer, RPC_ROUTER_PATH,
};
pub use fault::{Fault, FaultCode};
pub use http::{
    HttpClient, HttpError, HttpRequest, HttpRequestRef, HttpResponse, HttpResponseRef, HttpServer,
    Responder, ResponseHead, Sent, TcpModel, ZeroRouteHandler,
};
pub use rpc::{
    call_envelope, decode_response, fault_envelope, Arg, CallRef, RpcCall, RpcResponse, SoapError,
};
pub use value::{
    base64_decode, base64_encode, write_compound_xml, write_str_xml, Compound, Members, Value,
    ValueError, ValueRef, MAX_DEPTH,
};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_value(depth: u32) -> BoxedStrategy<Value> {
        let leaf = prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            any::<i64>().prop_map(Value::Int),
            // Finite, round-trippable doubles.
            (-1.0e12f64..1.0e12).prop_map(Value::Float),
            "[ -~]{0,24}".prop_map(Value::Str),
            prop::collection::vec(any::<u8>(), 0..32).prop_map(Value::Bytes),
        ];
        if depth == 0 {
            return leaf.boxed();
        }
        prop_oneof![
            4 => leaf,
            1 => prop::collection::vec(arb_value(depth - 1), 0..4).prop_map(Value::List),
            1 => prop::collection::vec(("[a-z][a-z0-9]{0,6}", arb_value(depth - 1)), 0..4)
                .prop_map(Value::Record),
        ]
        .boxed()
    }

    proptest! {
        #[test]
        fn value_envelope_round_trip(v in arb_value(2)) {
            let resp = RpcResponse::new("m", v.clone());
            let back = RpcResponse::from_envelope(&resp.to_envelope()).unwrap();
            prop_assert_eq!(back.value, v);
        }

        #[test]
        fn call_envelope_round_trip(
            method in "[a-zA-Z][a-zA-Z0-9]{0,12}",
            args in prop::collection::vec(("[a-z][a-z0-9]{0,8}", arb_value(1)), 0..5),
        ) {
            let mut call = RpcCall::new("urn:vsg:prop", method);
            for (k, v) in args {
                call = call.arg(k, v);
            }
            let back = RpcCall::from_envelope(&call.to_envelope()).unwrap();
            prop_assert_eq!(back, call);
        }

        #[test]
        fn base64_round_trip(data in prop::collection::vec(any::<u8>(), 0..256)) {
            let enc = base64_encode(&data);
            prop_assert_eq!(base64_decode(&enc).unwrap(), data);
        }

        #[test]
        fn http_request_round_trip(
            path in "/[a-z0-9/]{0,24}",
            body in prop::collection::vec(any::<u8>(), 0..128),
        ) {
            let req = HttpRequest::post(path, "application/octet-stream", body);
            let back = HttpRequest::from_bytes(&req.to_bytes()).unwrap();
            prop_assert_eq!(back, req);
        }

        /// Arbitrary text, and calls and replies whose one value nests
        /// past the depth bound, decode to a value or an error, and a
        /// router answers each as a request body.
        #[test]
        fn envelope_decoder_never_panics(s in hostile_envelope()) {
            let _ = RpcCall::from_envelope(&s);
            let _ = RpcResponse::from_envelope(&s);
            let _ = decode_response(&s, Value::decode);
            let (net, server, client) = router();
            let wire = HttpRequest::post(RPC_ROUTER_PATH, "text/xml; charset=utf-8", s).to_bytes();
            let raw = net
                .request(client, server.node(), simnet::Protocol::Http, wire)
                .expect("the router answers");
            let status = HttpResponseRef::parse(&raw).expect("an HTTP response").status;
            prop_assert!(status == 200 || status == 500, "status {status}");
        }
    }

    /// A router with one service, which echoes its first argument, and
    /// a client node.
    fn router() -> (simnet::Network, SoapServer, simnet::NodeId) {
        let net = simnet::Network::ethernet(&simnet::Sim::new(1));
        let server = SoapServer::bind(&net, "router");
        server.mount("urn:x", |_, call, reply| match call.args().next() {
            Some((_, v)) => reply.value(&v.to_owned()),
            None => reply.value(&Value::Null),
        });
        let client = net.attach("pc");
        (net, server, client)
    }

    /// An envelope whose one value nests `depth` Structs (or Arrays)
    /// deep around an int: a call to `urn:x` or a reply, closed or cut
    /// off inside the innermost level. Written as text, since the
    /// recursive writer would overflow the stack too.
    pub(crate) fn deep_envelope(depth: usize, array: bool, reply: bool, closed: bool) -> String {
        let (open, close) = if array {
            ("<item xsi:type=\"SOAP-ENC:Array\">", "</item>")
        } else {
            ("<f xsi:type=\"SOAP-ENC:Struct\">", "</f>")
        };
        let (head, tail) = if reply {
            (
                "<ns1:mResponse xmlns:ns1=\"urn:vsg:response\"><return",
                "</return></ns1:mResponse>",
            )
        } else {
            ("<ns1:m xmlns:ns1=\"urn:x\"><arg", "</arg></ns1:m>")
        };
        let kind = if array { "Array" } else { "Struct" };
        let mut doc = format!(
            "<?xml version=\"1.0\"?><SOAP-ENV:Envelope xmlns:SOAP-ENV=\"urn:env\"><SOAP-ENV:Body>{head} xsi:type=\"SOAP-ENC:{kind}\">"
        );
        doc.reserve(depth * (open.len() + close.len()) + 128);
        for _ in 1..depth {
            doc.push_str(open);
        }
        doc.push_str("<n xsi:type=\"xsd:int\">1</n>");
        if closed {
            for _ in 1..depth {
                doc.push_str(close);
            }
            doc.push_str(tail);
            doc.push_str("</SOAP-ENV:Body></SOAP-ENV:Envelope>");
        }
        doc
    }

    /// Arbitrary text, and envelopes nested just past the depth bound
    /// and 100 000 levels deep.
    fn hostile_envelope() -> BoxedStrategy<String> {
        prop_oneof![
            4 => ".{0,300}",
            1 => (
                prop_oneof![Just(MAX_DEPTH + 1), Just(100_000usize)],
                any::<bool>(),
                any::<bool>(),
                any::<bool>(),
            )
                .prop_map(|(depth, array, reply, closed)| deep_envelope(depth, array, reply, closed)),
        ]
        .boxed()
    }

    /// The three decodes of `doc`, on the one-pass path and on the
    /// tree oracle, rendered with `Debug` so a `NaN` double compares
    /// equal to itself.
    fn decodes(doc: &str) -> [(String, String); 3] {
        let call = format!("{:?}", RpcCall::from_envelope(doc));
        let resp = format!("{:?}", RpcResponse::from_envelope(doc));
        let value = format!(
            "{:?}",
            decode_response(doc, Value::decode).map(|v| v.unwrap_or(Value::Null))
        );
        let tree_call = format!("{:?}", oracle::call_from_envelope(doc));
        let tree_resp = oracle::response_from_envelope(doc);
        let tree_value = format!("{:?}", tree_resp.clone().map(|r| r.value));
        [
            (call, tree_call),
            (resp, format!("{tree_resp:?}")),
            (value, tree_value),
        ]
    }

    fn check_decodes(doc: &str) -> Result<(), TestCaseError> {
        for (streamed, tree) in decodes(doc) {
            prop_assert_eq!(streamed, tree, "document {:?}", doc);
        }
        check_call(doc)
    }

    /// The view gives what the owned one-pass decode it replaced gives
    /// (the same call or the same error), and its lookups read what
    /// the owned call's do.
    fn check_call(doc: &str) -> Result<(), TestCaseError> {
        let view = CallRef::parse(doc);
        let oracle = oracle::call_from_envelope_one_pass(doc);
        prop_assert_eq!(
            format!("{:?}", view.as_ref().map(CallRef::to_owned)),
            format!("{oracle:?}"),
            "document {:?}",
            doc
        );
        let (Ok(view), Ok(call)) = (view, oracle) else {
            return Ok(());
        };
        prop_assert_eq!(view.namespace(), call.namespace.as_str());
        prop_assert_eq!(view.method(), call.method.as_str());
        prop_assert_eq!(view.args().len(), call.args.len());
        for (name, _) in call
            .args
            .iter()
            .map(|(k, v)| (k.as_str(), v))
            .chain([("absent", &Value::Null)])
        {
            let (got, want) = (view.get(name), call.get(name));
            prop_assert_eq!(
                format!("{:?}", got.map(|v| v.to_owned())),
                format!("{want:?}")
            );
            let (Some(got), Some(want)) = (got, want) else {
                continue;
            };
            let text = got.as_str();
            prop_assert_eq!(text.as_deref(), want.as_str());
            prop_assert_eq!(got.as_int(), want.as_int());
            prop_assert_eq!(got.as_bool(), want.as_bool());
            // An Array's items are whatever their elements are named.
            let array = matches!(want, Value::List(_));
            let members: Vec<String> = got
                .members()
                .map(|(k, v)| format!("{}={:?}", if array { "" } else { k }, v.to_owned()))
                .collect();
            let expected: Vec<String> = match want {
                Value::Record(fields) => fields.iter().map(|(k, v)| format!("{k}={v:?}")).collect(),
                Value::List(items) => items.iter().map(|v| format!("={v:?}")).collect(),
                _ => Vec::new(),
            };
            prop_assert_eq!(members, expected);
        }
        for (name, text) in &call.headers {
            let got = view.get_header(name);
            prop_assert_eq!(got.as_deref(), call.get_header(name));
            prop_assert!(view.headers().any(|(k, t)| k == name && t == text.as_str()));
        }
        prop_assert_eq!(view.get_header("absent"), None);
        Ok(())
    }

    /// Pieces an envelope can be built from: values, typed and broken
    /// scalars, compounds with a bad member, nil markers, escapes,
    /// CDATA, comments and whitespace.
    const PIECES: &[&str] = &[
        r#"<a xsi:type="xsd:int">12</a>"#,
        r#"<a xsi:type="xsd:int"> zz </a>"#,
        r#"<b xsi:type="xsd:boolean">maybe</b>"#,
        r#"<c xsi:type="xsd:double">1e3</c>"#,
        r#"<d xsi:type="SOAP-ENC:base64">!!</d>"#,
        r#"<e xsi:type="vendor:odd">x</e>"#,
        r#"<f xsi:nil="true"><g xsi:type="bogus"/></f>"#,
        r#"<h xsi:type="SOAP-ENC:Struct"><i xsi:type="xsd:int">1</i><j xsi:type="xsd:long">q</j></h>"#,
        r#"<k xsi:type="SOAP-ENC:Array"><item xsi:type="xsd:string"> </item><item/></k>"#,
        r#"<l xsi:type="xsd:&#115;tring">&lt;&amp;&gt;</l>"#,
        r#"<m xsi:type="xsd:string"> <n/> <![CDATA[ x ]]></m>"#,
        r#"<return xsi:type="xsd:int">7</return>"#,
        r#"<return xsi:type="xsd:int">seven</return>"#,
        "<faultcode>SOAP-ENV:Server</faultcode>",
        "<faultcode>Client</faultcode><faultstring>bad &amp; worse</faultstring>",
        "<faultcode>Nonsense</faultcode>",
        "<faultstring>boom</faultstring>",
        "<faultstring/>",
        "<detail>why <x/></detail>",
        "<!-- note -->",
        " ",
        "\n  ",
        "text",
        "<![CDATA[]]>",
    ];

    fn pieces(max: usize) -> impl Strategy<Value = String> {
        prop::collection::vec(0..PIECES.len(), 0..max)
            .prop_map(|ix| ix.iter().map(|&i| PIECES[i]).collect())
    }

    /// An element named from `names`, wrapping `inner`.
    fn element(
        names: &'static [&'static str],
        inner: impl Strategy<Value = String>,
    ) -> impl Strategy<Value = String> {
        (0..names.len(), inner).prop_map(move |(i, inner)| {
            let name = names[i];
            format!("<{name} xmlns:ns1=\"urn:x\">{inner}</{name}>")
        })
    }

    /// Envelopes of every shape the decoders distinguish: Header and
    /// Body in either order or missing or repeated, empty Bodies,
    /// extra Body children, Faults with known and unknown codes, and
    /// roots that are not Envelopes.
    fn arb_envelope() -> impl Strategy<Value = String> {
        const ROOTS: &[&str] = &["SOAP-ENV:Envelope", "Envelope", "s:Envelope", "Envelop"];
        const SECTIONS: &[&str] = &[
            "SOAP-ENV:Header",
            "SOAP-ENV:Body",
            "SOAP-ENV:Body",
            "Body",
            "Header",
            "x",
        ];
        const FIRSTS: &[&str] = &[
            "ns1:set",
            "ns1:getResponse",
            "SOAP-ENV:Fault",
            "SOAP-ENV:Fault",
            "Fault",
            "e",
        ];
        let body_child = element(FIRSTS, pieces(5));
        let section = (
            element(
                SECTIONS,
                prop::collection::vec(body_child, 0..3).prop_map(|c| c.concat()),
            ),
            pieces(2),
        )
            .prop_map(|(section, junk)| format!("{section}{junk}"));
        (
            0..ROOTS.len(),
            prop::collection::vec(section, 0..4),
            any::<bool>(),
        )
            .prop_map(|(root, sections, decl)| {
                let root = ROOTS[root];
                let decl = if decl { "<?xml version=\"1.0\"?>" } else { "" };
                format!("{decl}<{root}>{}</{root}>", sections.concat())
            })
    }

    /// Well-formed call, response and fault envelopes as the encoders
    /// write them.
    fn arb_wire_envelope() -> impl Strategy<Value = String> {
        prop_oneof![
            (
                "[a-z]{1,8}",
                prop::collection::vec(("[a-z][a-z0-9]{0,6}", arb_value(2)), 0..4),
                prop::collection::vec(("[A-Z][a-z]{0,6}", "[ -~]{0,12}"), 0..3),
            )
                .prop_map(|(method, args, headers)| {
                    let mut call = RpcCall::new("urn:vsg:prop", method);
                    call.args = args;
                    call.headers = headers;
                    call.to_envelope()
                }),
            ("[a-z]{1,8}", arb_value(2)).prop_map(|(m, v)| RpcResponse::new(m, v).to_envelope()),
            ("[ -~]{0,16}", any::<bool>()).prop_map(|(msg, detail)| {
                let f = Fault::server(msg);
                fault_envelope(&if detail { f.with_detail("d") } else { f })
            }),
        ]
    }

    /// Tokens spliced into well-formed envelopes.
    const INSERTS: &[&str] = &[
        "<",
        ">",
        "/>",
        "</a>",
        "<a>",
        "<Body>",
        "</Body>",
        "<SOAP-ENV:Header>",
        "<Header/>",
        "<x/>",
        "<return>9</return>",
        "<Fault>",
        "<!--",
        "-->",
        "<![CDATA[",
        "]]>",
        "&amp;",
        "&",
        "\"",
        "'",
        " xsi:type=\"xsd:int\"",
        " xsi:nil=\"true\"",
        "=",
        " ",
        "\u{a0}",
        "é",
        "<?pi?>",
        "<!DOCTYPE x>",
    ];

    /// A well-formed envelope with a few tokens spliced in at random
    /// character boundaries.
    fn arb_spliced_envelope() -> impl Strategy<Value = String> {
        (
            arb_wire_envelope(),
            prop::collection::vec((0..10_000usize, 0..INSERTS.len()), 1..4),
        )
            .prop_map(|(doc, inserts)| {
                let mut doc = doc;
                for (at, token) in inserts {
                    let mut at = at % (doc.len() + 1);
                    while !doc.is_char_boundary(at) {
                        at -= 1;
                    }
                    doc.insert_str(at, INSERTS[token]);
                }
                doc
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn one_pass_decode_equals_tree_oracle_on_arbitrary_strings(
            s in "[ -~\t\n\u{a0}é]{0,300}",
        ) {
            check_decodes(&s)?;
        }

        #[test]
        fn one_pass_decode_equals_tree_oracle_on_generated_envelopes(doc in arb_envelope()) {
            check_decodes(&doc)?;
        }

        #[test]
        fn one_pass_decode_equals_tree_oracle_on_spliced_envelopes(doc in arb_spliced_envelope()) {
            check_decodes(&doc)?;
        }

        #[test]
        fn one_pass_decode_equals_tree_oracle_on_wire_envelopes(doc in arb_wire_envelope()) {
            check_decodes(&doc)?;
        }
    }

    /// A gateway-shaped call: header entries, a repeated `__service`,
    /// strings that need escaping and nested Structs.
    fn arb_gateway_call() -> impl Strategy<Value = String> {
        (
            "[a-z]{1,8}",
            prop::collection::vec("[ -~]{0,12}", 1..3),
            prop::collection::vec(("[a-z][a-z0-9]{0,6}", arb_value(3)), 0..3),
            prop::collection::vec(("[A-Z][a-z]{0,6}", "[ -~]{0,12}"), 0..3),
        )
            .prop_map(|(method, services, args, headers)| {
                let mut call = RpcCall::new("urn:vsg:gateway", method);
                for (i, service) in services.into_iter().enumerate() {
                    call = call.arg("__service", service);
                    if let Some((k, v)) = args.get(i) {
                        call = call.arg(k.as_str(), v.clone());
                    }
                }
                for (k, v) in args.into_iter().skip(2) {
                    call = call.arg(k, v);
                }
                call.headers = headers;
                call.arg(
                    "nested",
                    Value::Record(vec![(
                        "inner".into(),
                        Value::Record(vec![("s".into(), Value::Str("<&>".into()))]),
                    )]),
                )
                .to_envelope()
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// On every truncation and every single-byte edit of a valid
        /// call envelope the view agrees with the oracles.
        #[test]
        fn view_agrees_on_every_cut_and_byte_edit(doc in arb_gateway_call(), mask in 1u8..=255) {
            let bytes = doc.as_bytes();
            for cut in 0..=bytes.len() {
                check_call(&String::from_utf8_lossy(&bytes[..cut]))?;
            }
            let mut edited = bytes.to_vec();
            for at in 0..bytes.len() {
                edited[at] ^= mask;
                check_decodes(&String::from_utf8_lossy(&edited))?;
                edited[at] ^= mask;
            }
        }
    }
}
