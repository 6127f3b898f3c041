//! The VSG protocol is a pluggable design decision (§3.1): the entire
//! home must behave identically over SOAP, compact binary, and the
//! SIP-like protocol — differing only in cost.

use metaware::{
    BatchCall, BatchItem, BatchPolicy, CompactBinary, Middleware, SipLike, SmartHome, Soap11,
    VsgProtocol,
};
use simnet::Protocol;
use soap::Value;
use std::sync::Arc;

fn protocols() -> Vec<(&'static str, Arc<dyn VsgProtocol>)> {
    vec![
        ("soap", Arc::new(Soap11::new())),
        ("binary", Arc::new(CompactBinary::new())),
        ("sip", Arc::new(SipLike::new())),
    ]
}

#[test]
fn the_home_works_over_every_protocol() {
    for (name, protocol) in protocols() {
        let home = SmartHome::builder().protocol(protocol).build().unwrap();
        home.invoke_from(
            Middleware::Jini,
            "hall-lamp",
            "switch",
            &[("on".into(), Value::Bool(true))],
        )
        .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(home.x10.as_ref().unwrap().hall_lamp.is_on(), "{name}");

        let t = home
            .invoke_from(Middleware::X10, "fridge", "temperature", &[])
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(t, Value::Float(4.0), "{name}");
    }
}

#[test]
fn soap_is_heaviest_on_the_backbone() {
    // Same logical work, three protocols: byte ordering must hold.
    let mut bytes = Vec::new();
    for (name, protocol) in protocols() {
        let home = SmartHome::builder().protocol(protocol).build().unwrap();
        // Warm the route cache: the first call's VSR resolution rides
        // SOAP for every protocol and must not pollute the comparison.
        home.invoke_from(Middleware::Jini, "hall-lamp", "status", &[])
            .unwrap();
        let before = home.backbone.with_stats(|s| s.total().bytes);
        home.invoke_from(Middleware::Jini, "hall-lamp", "status", &[])
            .unwrap();
        let after = home.backbone.with_stats(|s| s.total().bytes);
        bytes.push((name, after - before));
    }
    let soap = bytes.iter().find(|(n, _)| *n == "soap").unwrap().1;
    let binary = bytes.iter().find(|(n, _)| *n == "binary").unwrap().1;
    let sip = bytes.iter().find(|(n, _)| *n == "sip").unwrap().1;
    assert!(binary < sip, "binary {binary} < sip {sip}");
    assert!(sip < soap, "sip {sip} < soap {soap}");
    assert!(
        soap > binary * 5,
        "soap {soap} should dwarf binary {binary}"
    );
}

#[test]
fn soap_is_slowest_end_to_end() {
    let mut lat = Vec::new();
    for (name, protocol) in protocols() {
        let home = SmartHome::builder().protocol(protocol).build().unwrap();
        let t0 = home.sim.now();
        home.invoke_from(Middleware::Havi, "fridge", "temperature", &[])
            .unwrap();
        lat.push((name, (home.sim.now() - t0).as_micros()));
    }
    let soap = lat.iter().find(|(n, _)| *n == "soap").unwrap().1;
    let binary = lat.iter().find(|(n, _)| *n == "binary").unwrap().1;
    assert!(soap > binary, "soap {soap}us > binary {binary}us");
}

#[test]
fn protocol_traffic_rides_its_own_class() {
    // SOAP traffic is HTTP frames; SIP traffic is SIP frames. The
    // statistics must attribute them correctly (benches depend on this).
    let home = SmartHome::builder()
        .protocol(Arc::new(Soap11::new()))
        .build()
        .unwrap();
    home.invoke_from(Middleware::Jini, "hall-lamp", "status", &[])
        .unwrap();
    assert!(
        home.backbone
            .with_stats(|s| s.protocol(Protocol::Http).frames)
            > 0
    );
    assert_eq!(
        home.backbone
            .with_stats(|s| s.protocol(Protocol::Sip).frames),
        0
    );

    let home = SmartHome::builder()
        .protocol(Arc::new(SipLike::new()))
        .build()
        .unwrap();
    home.invoke_from(Middleware::Jini, "hall-lamp", "status", &[])
        .unwrap();
    assert!(
        home.backbone
            .with_stats(|s| s.protocol(Protocol::Sip).frames)
            > 0
    );
}

#[test]
fn only_sip_supports_push() {
    assert!(!Soap11::new().supports_push());
    assert!(!CompactBinary::new().supports_push());
    assert!(SipLike::new().supports_push());
}

/// Backbone HTTP frames and TCP connections opened by `calls` warm
/// Jini-to-X10 calls in a home speaking `protocol`.
fn soap_traffic(protocol: Soap11, calls: u64) -> (u64, u64) {
    let home = SmartHome::builder()
        .protocol(Arc::new(protocol))
        .build()
        .unwrap();
    // The first call resolves the route and opens the connection.
    home.invoke_from(Middleware::Jini, "hall-lamp", "status", &[])
        .unwrap();
    let count = || {
        home.backbone
            .with_stats(|s| (s.protocol(Protocol::Http).frames, s.conns_opened()))
    };
    let (frames, conns) = count();
    for _ in 0..calls {
        home.invoke_from(Middleware::Jini, "hall-lamp", "status", &[])
            .unwrap();
    }
    let (frames_after, conns_after) = count();
    (frames_after - frames, conns_after - conns)
}

#[test]
fn every_soap_call_is_one_http_exchange() {
    // One request frame and one response frame per call, whether the
    // gateways connect per call or keep a connection per peer.
    assert_eq!(soap_traffic(Soap11::new(), 5).0, 10);
    assert_eq!(soap_traffic(Soap11::multiplexed(), 5).0, 10);
}

#[test]
fn multiplexed_soap_keeps_one_connection_per_peer() {
    // The prototype's SOAP wire pays a handshake on every call; the
    // multiplexed one reuses the connection its first call opened.
    assert_eq!(soap_traffic(Soap11::new(), 5).1, 5);
    assert_eq!(soap_traffic(Soap11::multiplexed(), 5).1, 0);
}

#[test]
fn homes_sharing_a_soap_protocol_keep_their_own_connections() {
    // Two homes built alike put their gateways on the same node ids of
    // two backbones; alternating calls must not trade the protocol's
    // per-node clients, and with them the open connections, between
    // the homes.
    let protocol = Arc::new(Soap11::multiplexed());
    let homes: Vec<SmartHome> = (0..2)
        .map(|_| {
            SmartHome::builder()
                .protocol(protocol.clone())
                .build()
                .unwrap()
        })
        .collect();
    let call = |home: &SmartHome| {
        home.invoke_from(Middleware::Jini, "hall-lamp", "status", &[])
            .unwrap();
    };
    let conns = || -> Vec<u64> {
        homes
            .iter()
            .map(|h| h.backbone.with_stats(|s| s.conns_opened()))
            .collect()
    };
    homes.iter().for_each(call);
    let warm = conns();
    for _ in 0..3 {
        homes.iter().for_each(call);
    }
    assert_eq!(conns(), warm);
}

#[test]
fn a_soap_batch_of_calls_is_one_http_exchange() {
    // A batch envelope is the one HTTP message that carries several
    // calls: six calls to the X10 gateway ride one request frame and
    // one response frame, where the unbatched wire needs six exchanges.
    let items: Vec<BatchItem> = ["hall-lamp", "desk-lamp"]
        .iter()
        .flat_map(|lamp| {
            [
                BatchCall::new(*lamp, "switch").arg("on", true),
                BatchCall::new(*lamp, "status"),
                BatchCall::new(*lamp, "switch").arg("on", false),
            ]
        })
        .map(BatchItem::Call)
        .collect();
    let frames_for = |policy: BatchPolicy| {
        let home = SmartHome::builder()
            .protocol(Arc::new(Soap11::new()))
            .batching(policy)
            .build()
            .unwrap();
        let caller = home.gateway(Middleware::Jini).unwrap();
        // Resolve both routes first.
        for lamp in ["hall-lamp", "desk-lamp"] {
            caller.invoke(&home.sim, lamp, "status", &[]).unwrap();
        }
        let before = home
            .backbone
            .with_stats(|s| s.protocol(Protocol::Http).frames);
        let results = caller.invoke_batch(&home.sim, &items);
        assert!(results.iter().all(Result::is_ok), "{results:?}");
        assert!(!home.x10.as_ref().unwrap().hall_lamp.is_on());
        home.backbone
            .with_stats(|s| s.protocol(Protocol::Http).frames)
            - before
    };
    assert_eq!(frames_for(BatchPolicy::default()), 2);
    assert_eq!(frames_for(BatchPolicy::disabled()), 12);
}
