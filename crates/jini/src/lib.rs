//! # jini — a Jini middleware simulation
//!
//! The Ethernet-dwelling middleware of the paper's prototype (§2.1):
//! "Jini enables various computer devices … to be cooperated. Jini calls
//! the cooperation *federation*." This crate reproduces the four Jini
//! mechanisms the Protocol Conversion Manager interacts with:
//!
//! * **multicast discovery** ([`discover`]) of lookup services,
//! * the **lookup service** ([`LookupService`]) holding [`ServiceItem`]s,
//! * **leases** ([`Lease`]) with renewal and expiry,
//! * **mobile proxies** over **RMI** ([`ProxyStub`], [`RemoteProxy`],
//!   [`RmiExporter`]) with a Java-serialization-like codec ([`JValue`],
//!   read in place through [`JRef`]).
//!
//! ```
//! use simnet::{Sim, Network, SimDuration};
//! use jini::{LookupService, RegistrarClient, RmiExporter, ServiceItem,
//!            ServiceTemplate, Entry, JValue, RemoteProxy, discover};
//!
//! let sim = Sim::new(7);
//! let eth = Network::ethernet(&sim);
//! let reggie = LookupService::start(&eth, "reggie", &["public"], SimDuration::from_secs(5));
//!
//! // A device exports its proxy and joins the federation.
//! let exporter = RmiExporter::attach(&eth, "laserdisc");
//! let stub = exporter.export("LaserdiscPlayer", |_, method, _| {
//!     Ok(JValue::Str(format!("did {method}")))
//! });
//! let item = ServiceItem::new(stub, vec!["LaserdiscPlayer".into()],
//!                             vec![Entry::name("laserdisc")]);
//! let pc = eth.attach("pc");
//! let registrars = discover(&eth, pc, "public");
//! let client = RegistrarClient::new(&eth, pc, registrars[0]);
//! client.register(&item, SimDuration::from_secs(30)).unwrap();
//!
//! // A client federates: lookup, download proxy, invoke.
//! let found = client.lookup_one(&ServiceTemplate::by_interface("LaserdiscPlayer")).unwrap();
//! let proxy = RemoteProxy::new(&eth, pc, found.proxy);
//! assert_eq!(proxy.invoke("play", &[]).unwrap(), JValue::Str("did play".into()));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod discovery;
pub mod entry;
pub mod id;
pub mod join;
pub mod jvalue;
pub mod lease;
pub mod lookup;
#[cfg(test)]
mod oracle;
pub mod rmi;

pub use discovery::{discover, DISCOVERY_REQ_PREFIX, DISCOVERY_RESP_PREFIX};
pub use entry::{Entry, ServiceTemplate};
pub use id::ServiceId;
pub use join::{JoinManager, JoinStats};
pub use jvalue::{JList, JObject, JRef, JValue, MarshalError, MAX_DEPTH};
pub use lease::{Lease, LeaseError, LeaseId, LeasePolicy, LeaseTable};
pub use lookup::{LookupService, RegistrarClient, ServiceItem, ServiceRegistration};
pub use rmi::{JiniError, ProxyStub, RemoteProxy, RmiExporter};

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::jvalue::{
        write_list_head, write_object_head, write_stream, write_utf, STREAM_MAGIC,
    };
    use crate::rmi::{read_call, read_result, write_call, write_result};
    use proptest::prelude::*;
    use simnet::{Network, NodeId, Protocol, Sim, SimDuration};

    fn call_frame(object_id: u64, method: &str, args: &[JValue]) -> Vec<u8> {
        let mut out = Vec::new();
        write_call(object_id, method, args, &mut out).unwrap();
        out
    }

    fn result_frame(result: Result<&JValue, &str>) -> Vec<u8> {
        let mut out = Vec::new();
        write_result(result, &mut out).unwrap();
        out
    }

    fn arb_jvalue(depth: u32) -> BoxedStrategy<JValue> {
        let leaf = prop_oneof![
            Just(JValue::Null),
            any::<bool>().prop_map(JValue::Bool),
            any::<i64>().prop_map(JValue::Int),
            (-1.0e12f64..1.0e12).prop_map(JValue::Double),
            "[ -~]{0,24}".prop_map(JValue::Str),
            prop::collection::vec(any::<u8>(), 0..48).prop_map(JValue::Bytes),
        ];
        if depth == 0 {
            return leaf.boxed();
        }
        prop_oneof![
            4 => leaf,
            1 => prop::collection::vec(arb_jvalue(depth - 1), 0..4).prop_map(JValue::List),
            1 => ("[A-Za-z][A-Za-z0-9.]{0,16}",
                  prop::collection::vec(("[a-z][a-zA-Z0-9]{0,8}", arb_jvalue(depth - 1)), 0..4))
                .prop_map(|(class, fields)| JValue::object(class, fields)),
        ]
        .boxed()
    }

    /// A stream nesting `depth` levels far past [`MAX_DEPTH`]: one-item
    /// lists around a null, or a chain of objects each holding the next
    /// in its one field. A reader that recurses once per level overflows
    /// its stack on these.
    fn depth_bomb(objects: bool, depth: usize) -> Vec<u8> {
        let mut level = Vec::new();
        write_stream(&mut level, |out| {
            if objects {
                write_object_head(out, "o", 1);
                write_utf(out, "f");
            } else {
                write_list_head(out, 1);
            }
        })
        .unwrap();
        let level = &level[STREAM_MAGIC.len()..];
        [STREAM_MAGIC.as_slice(), &level.repeat(depth), &[0x70]].concat()
    }

    /// Arbitrary bytes, or one of the depth bombs.
    fn hostile_stream() -> BoxedStrategy<Vec<u8>> {
        prop_oneof![
            prop::collection::vec(any::<u8>(), 0..200),
            Just(depth_bomb(false, 20_000)),
            Just(depth_bomb(false, 100_000)),
            Just(depth_bomb(true, 100_000)),
        ]
        .boxed()
    }

    /// A Jini island: a registrar, an exporter of one object, a client.
    fn island() -> (Network, LookupService, RmiExporter, NodeId) {
        let net = Network::ethernet(&Sim::new(1));
        let reggie = LookupService::start(&net, "reggie", &["public"], SimDuration::from_secs(5));
        let exporter = RmiExporter::attach(&net, "svc");
        exporter.export("X", |_, _, _| Ok(JValue::Null));
        let client = net.attach("pc");
        (net, reggie, exporter, client)
    }

    /// The view-based readers give what the tree readers give: the same
    /// value or the same error. Compared as text, since a byte edit can
    /// make a `Double` NaN.
    fn agree(bytes: &[u8]) -> Result<(), TestCaseError> {
        let text = |v: &dyn std::fmt::Debug| format!("{v:?}");
        prop_assert_eq!(
            text(&JValue::unmarshal(bytes)),
            text(&oracle::unmarshal(bytes)),
            "unmarshal of {bytes:?}"
        );
        prop_assert_eq!(
            text(&read_call(bytes).map(|(id, method, args)| (id, method.to_owned(), args))),
            text(&oracle::decode_call(bytes)),
            "call read from {bytes:?}"
        );
        prop_assert_eq!(
            text(&read_result(bytes)),
            text(&oracle::decode_result(bytes)),
            "result read from {bytes:?}"
        );
        Ok(())
    }

    proptest! {
        #[test]
        fn marshal_round_trip(v in arb_jvalue(3)) {
            let bytes = v.marshal().unwrap();
            prop_assert_eq!(JValue::unmarshal(&bytes).unwrap(), v);
        }

        /// No stream crashes a reader, and an exporter and a registrar
        /// answer every one with an error reply: arbitrary bytes, and
        /// lists or objects nested far past [`MAX_DEPTH`].
        #[test]
        fn unmarshal_never_panics(data in hostile_stream()) {
            let _ = JValue::unmarshal(&data);
            let (net, reggie, exporter, client) = island();
            let reply = net
                .request(client, exporter.node(), Protocol::Jini, data.clone())
                .expect("the exporter answers");
            let answer = read_result(&reply);
            prop_assert!(
                matches!(answer, Err(JiniError::Remote(_))),
                "exporter answered {answer:?}"
            );
            let reply = net
                .request(client, reggie.node(), Protocol::Jini, data)
                .expect("the registrar answers");
            let answer = JValue::unmarshal(&reply).expect("a well-formed reply");
            prop_assert!(
                matches!(&answer, JValue::Object { class, .. } if class == "ReggieError"),
                "registrar answered {answer:?}"
            );
        }

        #[test]
        fn truncated_streams_always_error(v in arb_jvalue(2)) {
            let bytes = v.marshal().unwrap();
            if bytes.len() > 5 {
                // Any strict prefix must fail, never mis-decode.
                let cut = bytes.len() - 1;
                prop_assert!(JValue::unmarshal(&bytes[..cut]).is_err());
            }
        }

        /// The RMI frames written from borrows, and `marshal`, are the
        /// bytes the tree-built codec gives.
        #[test]
        fn frames_are_the_tree_built_bytes(
            object_id in any::<u64>(),
            method in "[a-zA-Z_][a-zA-Z0-9_]{0,15}",
            args in prop::collection::vec(arb_jvalue(3), 0..4),
            value in arb_jvalue(3),
            error in "[ -~]{0,40}",
        ) {
            for (frame, tree) in [
                (call_frame(object_id, &method, &args), oracle::call_tree(object_id, &method, &args)),
                (result_frame(Ok(&value)), oracle::ok_tree(value.clone())),
                (result_frame(Err(&error)), oracle::err_tree(&error)),
                (value.marshal().unwrap(), oracle::marshal(&value)),
            ] {
                prop_assert_eq!(&frame, &tree);
            }
        }

        /// On arbitrary bytes, and on every truncation and every
        /// single-byte edit of valid call and reply frames, the readers
        /// agree with the tree readers.
        #[test]
        fn readers_agree_with_the_tree_readers(
            (object_id, method, args) in (
                any::<u64>(),
                "[a-zA-Z_]{0,8}",
                prop::collection::vec(arb_jvalue(2), 0..3),
            ),
            value in arb_jvalue(2),
            error in "[ -~]{0,16}",
            noise in prop::collection::vec(any::<u8>(), 0..200),
            mask in 1u8..=255,
        ) {
            agree(&noise)?;
            agree(&[STREAM_MAGIC.as_slice(), &noise].concat())?;
            for frame in [
                call_frame(object_id, &method, &args),
                result_frame(Ok(&value)),
                result_frame(Err(&error)),
            ] {
                for cut in 0..=frame.len() {
                    agree(&frame[..cut])?;
                }
                let mut edited = frame.clone();
                for at in 0..frame.len() {
                    edited[at] ^= mask;
                    agree(&edited)?;
                    edited[at] ^= mask;
                }
            }
        }

        #[test]
        fn entry_matching_is_reflexive(
            class in "[A-Za-z.]{1,16}",
            fields in prop::collection::btree_map("[a-z]{1,6}", "[a-z0-9 ]{0,8}", 0..4),
        ) {
            let mut e = Entry::new(class);
            for (k, v) in fields {
                e = e.field(k, v);
            }
            prop_assert!(e.matches(&e));
            // Class-only template always matches.
            let class_only = Entry::new(e.class.clone());
            prop_assert!(e.matches(&class_only));
        }
    }
}
