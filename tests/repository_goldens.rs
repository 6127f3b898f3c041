//! Golden wire bytes of the repository plane.
//!
//! One scripted session of a [`VsrClient`] against a one-replica
//! [`Vsr`] covers every client-plane operation. A tap in front of the
//! replica records each HTTP request payload the client sends and each
//! reply payload the replica answers with, and the session must
//! reproduce `tests/goldens/repository_wire.hex` byte for byte. The
//! file was captured before the repository client and the replicas
//! stopped building intermediate `RpcCall`s, `Value` trees and WSDL
//! element trees; a change that moves one byte fails here.
//!
//! The replica runs on a network of its own. On the client's network
//! the tap is attached first, so it gets the replica's node id: the
//! shard map the replica hands out then routes every call through the
//! tap, which forwards it and records the reply.

use metaware::{catalog, Middleware, VirtualService, Vsr, VsrClient};
use parking_lot::Mutex;
use simnet::{Network, NodeId, Protocol, Sim};
use std::sync::Arc;

const GOLDENS: &str = include_str!("goldens/repository_wire.hex");

fn hex(b: &[u8]) -> String {
    use std::fmt::Write;
    b.iter().fold(String::new(), |mut s, x| {
        let _ = write!(s, "{x:02x}");
        s
    })
}

/// Runs the scripted session and returns one line per payload:
/// `> <hex>` for a request the client sent, `< <hex>` for the reply.
fn session() -> Vec<String> {
    let sim = Sim::new(1);
    let replica_net = Network::ethernet(&sim);
    let vsr = Vsr::start(&replica_net);
    let forwarder = replica_net.attach("forwarder");

    let client_net = Network::ethernet(&sim);
    let tap = client_net.attach("tap");
    assert_eq!(tap, vsr.node(), "the tap must stand in for the replica");
    let seen: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let log = seen.clone();
    let replica = vsr.node();
    client_net
        .set_request_handler(tap, move |_sim, frame, reply| {
            log.lock().push(format!("> {}", hex(&frame.payload)));
            let answer = replica_net
                .request(forwarder, replica, Protocol::Http, frame.payload.clone())
                .map_err(|e| e.to_string())?;
            log.lock().push(format!("< {}", hex(&answer)));
            reply.extend_from_slice(&answer);
            Ok(())
        })
        .unwrap();

    let node = client_net.attach("pcm");
    let client = VsrClient::new(&client_net, node, tap);
    client.register_gateway("x10-gw", NodeId(7)).unwrap();
    let lamp = VirtualService::new("hall-lamp", catalog::lamp(), Middleware::X10, "x10-gw")
        .context("room", "hall")
        .context("floor", "1 & <ground>");
    client.publish(&lamp).unwrap();
    client
        .publish(&VirtualService::new(
            "den-vcr",
            catalog::vcr(),
            Middleware::Havi,
            "havi-gw",
        ))
        .unwrap();
    let rec = client.resolve("hall-lamp").unwrap();
    assert_eq!(rec.gateway, "x10-gw");
    assert!(client.resolve("ghost").is_err());
    assert_eq!(client.gateway_node("x10-gw").unwrap(), NodeId(7));
    assert_eq!(client.find("%", None).unwrap().len(), 2);
    assert_eq!(client.find("%", Some(Middleware::Havi)).unwrap().len(), 1);
    assert_eq!(
        client
            .find_by_context("%", &[("room", "hall")])
            .unwrap()
            .len(),
        1
    );
    assert!(client.renew("hall-lamp").unwrap());
    assert_eq!(client.count().unwrap(), 2);
    assert!(client.unpublish("hall-lamp").unwrap());
    assert!(!client.unpublish("hall-lamp").unwrap());
    let lines = seen.lock().clone();
    lines
}

#[test]
fn repository_wire_bytes_match_goldens() {
    let got = session();
    let want: Vec<&str> = GOLDENS.lines().filter(|l| !l.is_empty()).collect();
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g, w, "payload {i} differs from the golden");
    }
    assert_eq!(got.len(), want.len(), "payload count");
}
