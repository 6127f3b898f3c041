//! SSDP: Simple Service Discovery Protocol.
//!
//! HTTP-syntax messages over UDP multicast: control points `M-SEARCH`
//! for a target, devices answer with the `LOCATION` of their
//! description document.

use simnet::{Addr, Frame, Network, NodeId, Protocol};
use std::io::Write as _;

/// The match-anything search target.
pub const SSDP_ALL: &str = "ssdp:all";

/// A discovered device: where its description lives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SsdpHit {
    /// The device's HTTP node.
    pub node: NodeId,
    /// Path of the description document.
    pub location: String,
    /// The search target it matched.
    pub st: String,
    /// The device's unique name.
    pub usn: String,
}

fn msearch_payload(st: &str, out: &mut Vec<u8>) {
    write!(
        out,
        "M-SEARCH * HTTP/1.1\r\nHOST: 239.255.255.250:1900\r\nMAN: \"ssdp:discover\"\r\nST: {st}\r\nMX: 3\r\n\r\n"
    )
    .expect("vec write");
}

fn response_payload(node: NodeId, location: &str, st: &str, usn: &str, out: &mut Vec<u8>) {
    write!(
        out,
        "HTTP/1.1 200 OK\r\nLOCATION: http://node-{}{}\r\nST: {}\r\nUSN: {}\r\nEXT:\r\n\r\n",
        node.0, location, st, usn
    )
    .expect("vec write");
}

fn header_value<'a>(text: &'a str, name: &str) -> Option<&'a str> {
    text.lines().find_map(|l| {
        let (k, v) = l.split_once(':')?;
        k.trim().eq_ignore_ascii_case(name).then(|| v.trim())
    })
}

/// Installs the SSDP responder side on a device's node: answers
/// `M-SEARCH` broadcasts whose target matches `device_type`, one of
/// `service_types`, the device's `usn`, or `ssdp:all`.
pub fn install_responder(
    net: &Network,
    node: NodeId,
    location: &str,
    device_type: &str,
    service_types: Vec<String>,
    usn: &str,
) {
    let net2 = net.clone();
    let location = location.to_owned();
    let device_type = device_type.to_owned();
    let usn = usn.to_owned();
    net.set_frame_handler(node, move |_sim, frame| {
        let text = String::from_utf8_lossy(&frame.payload);
        if !text.starts_with("M-SEARCH") {
            return;
        }
        let Some(st) = header_value(&text, "ST") else {
            return;
        };
        let matches = st == SSDP_ALL
            || st == device_type
            || st == usn
            || service_types.iter().any(|s| s == st);
        if matches {
            let mut payload = net2.buffer();
            response_payload(node, &location, st, &usn, &mut payload);
            let _ = net2.send(Frame::new(node, frame.src, Protocol::Upnp, payload));
        }
    })
    .expect("responder node exists");
}

/// Multicasts an `M-SEARCH` for `st` from `node` and collects responses.
pub fn search(net: &Network, node: NodeId, st: &str) -> Vec<SsdpHit> {
    let mut payload = net.buffer();
    msearch_payload(st, &mut payload);
    let _ = net.send(Frame::new(node, Addr::Broadcast, Protocol::Upnp, payload));
    let mut hits = Vec::new();
    while let Some(frame) = net.recv(node) {
        let text = String::from_utf8_lossy(&frame.payload);
        if !text.starts_with("HTTP/1.1 200") {
            continue;
        }
        let (Some(loc), Some(st), Some(usn)) = (
            header_value(&text, "LOCATION"),
            header_value(&text, "ST"),
            header_value(&text, "USN"),
        ) else {
            continue;
        };
        // LOCATION is http://node-<id><path>.
        let Some(rest) = loc.strip_prefix("http://node-") else {
            continue;
        };
        let Some(slash) = rest.find('/') else {
            continue;
        };
        let Ok(id) = rest[..slash].parse::<u32>() else {
            continue;
        };
        hits.push(SsdpHit {
            node: NodeId(id),
            location: rest[slash..].to_owned(),
            st: st.to_owned(),
            usn: usn.to_owned(),
        });
    }
    hits.sort_by_key(|h| h.node);
    hits
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::Sim;

    fn world() -> (Sim, Network) {
        let sim = Sim::new(1);
        (sim.clone(), Network::ethernet(&sim))
    }

    fn install_light(net: &Network, name: &str) -> NodeId {
        let node = net.attach(name);
        install_responder(
            net,
            node,
            "/desc.xml",
            "urn:schemas-upnp-org:device:BinaryLight:1",
            vec!["urn:schemas-upnp-org:service:SwitchPower:1".into()],
            &format!("uuid:{name}"),
        );
        node
    }

    #[test]
    fn search_by_device_type() {
        let (_sim, net) = world();
        let light1 = install_light(&net, "light1");
        let light2 = install_light(&net, "light2");
        let cp = net.attach("control-point");
        let hits = search(&net, cp, "urn:schemas-upnp-org:device:BinaryLight:1");
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].node, light1);
        assert_eq!(hits[1].node, light2);
        assert_eq!(hits[0].location, "/desc.xml");
    }

    #[test]
    fn search_by_service_and_all_and_usn() {
        let (_sim, net) = world();
        install_light(&net, "light1");
        let cp = net.attach("cp");
        assert_eq!(
            search(&net, cp, "urn:schemas-upnp-org:service:SwitchPower:1").len(),
            1
        );
        assert_eq!(search(&net, cp, SSDP_ALL).len(), 1);
        assert_eq!(search(&net, cp, "uuid:light1").len(), 1);
        assert!(search(&net, cp, "urn:other:device").is_empty());
    }

    #[test]
    fn non_matching_devices_stay_silent() {
        let (_sim, net) = world();
        install_light(&net, "light1");
        let cp = net.attach("cp");
        let hits = search(&net, cp, "urn:schemas-upnp-org:device:MediaRenderer:1");
        assert!(hits.is_empty());
    }

    #[test]
    fn garbage_broadcasts_are_ignored() {
        let (_sim, net) = world();
        let light = install_light(&net, "light1");
        let cp = net.attach("cp");
        net.send(Frame::new(
            cp,
            Addr::Broadcast,
            Protocol::Upnp,
            &b"NOTIFY * HTTP/1.1\r\n\r\n"[..],
        ))
        .unwrap();
        // The light did not respond to a non-M-SEARCH.
        assert!(net.recv(cp).is_none());
        let _ = light;
    }
}
