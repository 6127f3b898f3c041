//! Frames: the unit of transfer on every simulated network.

use crate::node::{Addr, NodeId};
use std::fmt;

/// Tags the protocol family a frame belongs to, so that traces and
/// per-protocol statistics can distinguish traffic classes sharing a
/// physical network (e.g. HTTP and Jini discovery on the same Ethernet).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// Raw application bytes with no declared protocol.
    Raw,
    /// Simulated HTTP/1.1 (used by SOAP and UPnP control).
    Http,
    /// Jini discovery/lookup/RMI traffic.
    Jini,
    /// HAVi messaging over IEEE1394 asynchronous transactions.
    Havi,
    /// IEEE1394 isochronous stream packets.
    Isochronous,
    /// X10 powerline signalling.
    X10,
    /// SMTP-like mail submission.
    Mail,
    /// UPnP SSDP/GENA traffic.
    Upnp,
    /// SIP-like VSG signalling.
    Sip,
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Protocol::Raw => "raw",
            Protocol::Http => "http",
            Protocol::Jini => "jini",
            Protocol::Havi => "havi",
            Protocol::Isochronous => "iso",
            Protocol::X10 => "x10",
            Protocol::Mail => "mail",
            Protocol::Upnp => "upnp",
            Protocol::Sip => "sip",
        };
        f.write_str(s)
    }
}

/// A frame in flight on a simulated network.
#[derive(Debug, Clone)]
pub struct Frame {
    /// The sending node.
    pub src: NodeId,
    /// The destination (unicast or broadcast).
    pub dst: Addr,
    /// Protocol family, for tracing and statistics.
    pub protocol: Protocol,
    /// Application payload. A frame owns its bytes: the buffer the
    /// sender filled is the one the receiver reads, and cloning a
    /// frame copies them. A sender takes the buffer from
    /// [`Network::buffer`](crate::Network::buffer), and the network
    /// takes it back once the frame has been read.
    pub payload: Vec<u8>,
}

impl Frame {
    /// Creates a frame.
    pub fn new(
        src: NodeId,
        dst: impl Into<Addr>,
        protocol: Protocol,
        payload: impl Into<Vec<u8>>,
    ) -> Self {
        Frame {
            src,
            dst: dst.into(),
            protocol,
            payload: payload.into(),
        }
    }

    /// The unicast destination, or `None` for broadcast frames.
    pub fn dst_node(&self) -> Option<NodeId> {
        match self.dst {
            Addr::Unicast(n) => Some(n),
            Addr::Broadcast => None,
        }
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.payload.len()
    }

    /// True if the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }
}

impl fmt::Display for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{} {}->{} {}B]",
            self.protocol,
            self.src,
            self.dst,
            self.payload.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_construction_and_accessors() {
        let f = Frame::new(NodeId(1), NodeId(2), Protocol::Http, &b"GET /"[..]);
        assert_eq!(f.len(), 5);
        assert!(!f.is_empty());
        assert_eq!(f.dst, Addr::Unicast(NodeId(2)));
    }

    #[test]
    fn broadcast_frame() {
        let f = Frame::new(NodeId(1), Addr::Broadcast, Protocol::X10, Vec::new());
        assert!(f.is_empty());
        assert_eq!(f.to_string(), "[x10 node#1->broadcast 0B]");
    }

    #[test]
    fn protocol_labels_are_stable() {
        // Trace files and bench CSVs key on these labels.
        assert_eq!(Protocol::Isochronous.to_string(), "iso");
        assert_eq!(Protocol::Jini.to_string(), "jini");
        assert_eq!(Protocol::Sip.to_string(), "sip");
    }
}
