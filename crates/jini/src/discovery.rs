//! Multicast discovery.
//!
//! The Jini discovery protocol lets a joining device find lookup services
//! for its groups without configuration: it multicasts a request and
//! collects unicast responses from matching registrars.

use simnet::{Addr, Frame, Network, NodeId, Protocol};

/// Wire prefix of a multicast discovery request (followed by the UTF-8
/// group name).
pub const DISCOVERY_REQ_PREFIX: &[u8] = b"JINI-DISCO-REQ:";

/// Wire prefix of a unicast discovery response (followed by the
/// registrar's node id, big-endian u32).
pub const DISCOVERY_RESP_PREFIX: &[u8] = b"JINI-DISCO-RESP:";

/// Multicasts a discovery request for `group` from `node` and returns the
/// nodes of every registrar that answered.
///
/// Responses arrive in the requester's inbox (synchronously, in the
/// simulation); the caller must not have a frame handler installed on
/// `node` while discovering.
pub fn discover(net: &Network, node: NodeId, group: &str) -> Vec<NodeId> {
    let mut payload = net.buffer();
    payload.extend_from_slice(DISCOVERY_REQ_PREFIX);
    payload.extend_from_slice(group.as_bytes());
    // Broadcast; losses are possible on lossy media, in which case the
    // caller simply discovers nothing and retries later (as real Jini
    // clients re-announce for 90 seconds).
    let _ = net.send(Frame::new(node, Addr::Broadcast, Protocol::Jini, payload));

    let mut found = Vec::new();
    while let Some(frame) = net.recv(node) {
        if let Some(rest) = frame.payload.strip_prefix(DISCOVERY_RESP_PREFIX) {
            if rest.len() == 4 {
                let id = u32::from_be_bytes(rest.try_into().expect("length checked"));
                found.push(NodeId(id));
            }
        }
    }
    found.sort();
    found.dedup();
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lookup::LookupService;
    use simnet::{Sim, SimDuration};

    #[test]
    fn discovers_matching_registrars_only() {
        let sim = Sim::new(1);
        let net = Network::ethernet(&sim);
        let pub1 = LookupService::start(&net, "reggie1", &["public"], SimDuration::from_secs(5));
        let pub2 = LookupService::start(
            &net,
            "reggie2",
            &["public", "av"],
            SimDuration::from_secs(5),
        );
        let _private =
            LookupService::start(&net, "reggie3", &["private"], SimDuration::from_secs(5));

        let pc = net.attach("pc");
        let found = discover(&net, pc, "public");
        assert_eq!(found, vec![pub1.node(), pub2.node()]);

        let av = discover(&net, pc, "av");
        assert_eq!(av, vec![pub2.node()]);

        let none = discover(&net, pc, "nonexistent");
        assert!(none.is_empty());
    }

    #[test]
    fn discovery_advances_time() {
        let sim = Sim::new(1);
        let net = Network::ethernet(&sim);
        let _reggie = LookupService::start(&net, "reggie", &["public"], SimDuration::from_secs(5));
        let pc = net.attach("pc");
        let before = sim.now();
        discover(&net, pc, "public");
        assert!(sim.now() > before);
    }

    #[test]
    fn discovery_on_a_down_network_finds_nothing() {
        let sim = Sim::new(1);
        let net = Network::ethernet(&sim);
        let _reggie = LookupService::start(&net, "reggie", &["public"], SimDuration::from_secs(5));
        let pc = net.attach("pc");
        net.set_down(true);
        assert!(discover(&net, pc, "public").is_empty());
        net.set_down(false);
        assert_eq!(discover(&net, pc, "public").len(), 1);
    }

    #[test]
    fn foreign_inbox_frames_are_ignored() {
        let sim = Sim::new(1);
        let net = Network::ethernet(&sim);
        let pc = net.attach("pc");
        let other = net.attach("other");
        net.send(Frame::new(other, pc, Protocol::Raw, &b"noise"[..]))
            .unwrap();
        let found = discover(&net, pc, "public");
        assert!(found.is_empty());
    }
}
