//! The HAVi Messaging System.
//!
//! Every HAVi node runs a messaging system that assigns SEIDs to its
//! software elements and carries request/response messages between SEIDs
//! over IEEE1394 asynchronous transactions.

use crate::hvalue::{check_params, decode_params, write_params, CodecError, HValue};
use crate::seid::{HaviStatus, Seid};
use parking_lot::Mutex;
use simnet::{Network, NodeId, Protocol, Sim, SimDuration};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A HAVi operation code: API class + operation within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpCode {
    /// API class (e.g. VCR FCM = `0x0103`).
    pub api: u16,
    /// Operation within the class.
    pub oper: u16,
}

impl OpCode {
    /// Creates an opcode.
    pub const fn new(api: u16, oper: u16) -> OpCode {
        OpCode { api, oper }
    }
}

impl fmt::Display for OpCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04x}:{:04x}", self.api, self.oper)
    }
}

/// A message addressed from one software element to another.
#[derive(Debug, Clone, PartialEq)]
pub struct HaviMessage {
    /// Sender.
    pub src: Seid,
    /// Receiver.
    pub dst: Seid,
    /// Operation.
    pub opcode: OpCode,
    /// Parameters.
    pub params: Vec<HValue>,
}

/// A message's fixed head: source node and handle, destination handle,
/// opcode.
const HEAD_LEN: usize = 16;

impl HaviMessage {
    /// Appends the head and the parameter list to `out`, or refuses a
    /// list that does not fit its wire form before writing a byte.
    fn encode(&self, out: &mut Vec<u8>) -> Result<(), CodecError> {
        check_params(&self.params)?;
        out.extend_from_slice(&self.src.node.0.to_be_bytes());
        out.extend_from_slice(&self.src.handle.to_be_bytes());
        out.extend_from_slice(&self.dst.handle.to_be_bytes());
        out.extend_from_slice(&self.opcode.api.to_be_bytes());
        out.extend_from_slice(&self.opcode.oper.to_be_bytes());
        write_params(&self.params, out);
        Ok(())
    }

    fn decode(dst_node: NodeId, data: &[u8]) -> Result<HaviMessage, CodecError> {
        if data.len() < HEAD_LEN {
            return Err(CodecError::Truncated);
        }
        let src_node = u32::from_be_bytes(data[0..4].try_into().unwrap());
        let src_handle = u32::from_be_bytes(data[4..8].try_into().unwrap());
        let dst_handle = u32::from_be_bytes(data[8..12].try_into().unwrap());
        let api = u16::from_be_bytes(data[12..14].try_into().unwrap());
        let oper = u16::from_be_bytes(data[14..16].try_into().unwrap());
        let params = decode_params(&data[HEAD_LEN..])?;
        Ok(HaviMessage {
            src: Seid::new(NodeId(src_node), src_handle),
            dst: Seid::new(dst_node, dst_handle),
            opcode: OpCode::new(api, oper),
            params,
        })
    }
}

/// A software element's message handler: returns a status and reply
/// parameters.
pub type ElementHandler = Box<dyn FnMut(&Sim, &HaviMessage) -> (HaviStatus, Vec<HValue>) + Send>;

/// Errors surfaced by the HAVi layer.
#[derive(Debug, Clone, PartialEq)]
pub enum HaviError {
    /// The 1394 bus failed.
    Network(String),
    /// A message or reply failed to decode.
    Codec(CodecError),
    /// The peer returned a non-success status.
    Status(HaviStatus),
}

impl fmt::Display for HaviError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HaviError::Network(m) => write!(f, "havi bus error: {m}"),
            HaviError::Codec(e) => write!(f, "havi codec error: {e}"),
            HaviError::Status(s) => write!(f, "havi status {s}"),
        }
    }
}

impl std::error::Error for HaviError {}

impl From<CodecError> for HaviError {
    fn from(e: CodecError) -> HaviError {
        HaviError::Codec(e)
    }
}

type SharedHandler = Arc<Mutex<ElementHandler>>;

/// One node's messaging system.
#[derive(Clone)]
pub struct MessagingSystem {
    net: Network,
    node: NodeId,
    elements: Arc<Mutex<HashMap<u32, SharedHandler>>>,
    next_handle: Arc<Mutex<u32>>,
}

fn dispatch(
    elements: &Mutex<HashMap<u32, SharedHandler>>,
    sim: &Sim,
    msg: &HaviMessage,
) -> (HaviStatus, Vec<HValue>) {
    // Clone the handler Arc and release the map lock before calling, so a
    // handler may itself send messages (even to other elements on this
    // same node) without deadlocking.
    let handler = elements.lock().get(&msg.dst.handle).cloned();
    match handler {
        Some(h) => (h.lock())(sim, msg),
        None => (HaviStatus::EUnknownSeid, vec![]),
    }
}

impl MessagingSystem {
    /// Attaches a fresh 1394 node and starts its messaging system.
    pub fn attach(net: &Network, label: &str) -> MessagingSystem {
        let node = net.attach(label);
        MessagingSystem::on_node(net, node)
    }

    /// Starts a messaging system on an existing node (installs the node's
    /// request handler).
    pub fn on_node(net: &Network, node: NodeId) -> MessagingSystem {
        let elements: Arc<Mutex<HashMap<u32, SharedHandler>>> =
            Arc::new(Mutex::new(HashMap::new()));
        let elements2 = elements.clone();
        net.set_request_handler(node, move |sim, frame, reply| {
            sim.advance(SimDuration::from_micros(30)); // embedded CPU dispatch
            match HaviMessage::decode(node, &frame.payload) {
                Ok(msg) => {
                    let (status, params) = dispatch(&elements2, sim, &msg);
                    encode_reply(status, &params, reply);
                }
                Err(_) => encode_reply(HaviStatus::EParameter, &[], reply),
            }
            Ok(())
        })
        .expect("node attached");
        MessagingSystem {
            net: net.clone(),
            node,
            elements,
            next_handle: Arc::new(Mutex::new(0)),
        }
    }

    /// The 1394 node this system runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Registers a software element, returning its SEID.
    pub fn register_element(
        &self,
        handler: impl FnMut(&Sim, &HaviMessage) -> (HaviStatus, Vec<HValue>) + Send + 'static,
    ) -> Seid {
        let mut next = self.next_handle.lock();
        *next += 1;
        let handle = *next;
        self.elements
            .lock()
            .insert(handle, Arc::new(Mutex::new(Box::new(handler))));
        Seid::new(self.node, handle)
    }

    /// Removes a software element.
    pub fn unregister_element(&self, seid: Seid) -> bool {
        seid.node == self.node && self.elements.lock().remove(&seid.handle).is_some()
    }

    /// Number of registered elements on this node.
    fn element_count(&self) -> usize {
        self.elements.lock().len()
    }

    /// Sends a request from local element `src_handle` to `dst` and waits
    /// for the reply.
    pub fn send(
        &self,
        src_handle: u32,
        dst: Seid,
        opcode: OpCode,
        params: Vec<HValue>,
    ) -> Result<(HaviStatus, Vec<HValue>), HaviError> {
        let msg = HaviMessage {
            src: Seid::new(self.node, src_handle),
            dst,
            opcode,
            params,
        };
        if dst.node == self.node {
            // Local messages never touch the 1394 bus (HAVi messaging
            // short-circuits intra-node delivery).
            let sim = self.net.sim().clone();
            sim.advance(SimDuration::from_micros(10));
            return Ok(dispatch(&self.elements, &sim, &msg));
        }
        let mut wire = self.net.buffer();
        msg.encode(&mut wire)?;
        let reply = self
            .net
            .request(self.node, dst.node, Protocol::Havi, wire)
            .map_err(|e| HaviError::Network(e.to_string()))?;
        decode_reply(&reply)
    }

    /// Like [`MessagingSystem::send`], but non-success statuses become
    /// errors.
    pub fn send_ok(
        &self,
        src_handle: u32,
        dst: Seid,
        opcode: OpCode,
        params: Vec<HValue>,
    ) -> Result<Vec<HValue>, HaviError> {
        let (status, params) = self.send(src_handle, dst, opcode, params)?;
        if status.is_ok() {
            Ok(params)
        } else {
            Err(HaviError::Status(status))
        }
    }
}

impl fmt::Debug for MessagingSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MessagingSystem")
            .field("node", &self.node)
            .field("elements", &self.element_count())
            .finish()
    }
}

/// Appends the status byte and the parameter list to `out`. Reply
/// parameters that do not fit their wire form are refused: the reply
/// is `EResource`, with none.
fn encode_reply(status: HaviStatus, params: &[HValue], out: &mut Vec<u8>) {
    if check_params(params).is_err() {
        return encode_reply(HaviStatus::EResource, &[], out);
    }
    out.push(status.code());
    write_params(params, out);
}

fn decode_reply(data: &[u8]) -> Result<(HaviStatus, Vec<HValue>), HaviError> {
    let status = HaviStatus::from_code(*data.first().ok_or(CodecError::Truncated)?);
    let params = decode_params(&data[1..])?;
    Ok((status, params))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bus() -> (Sim, Network) {
        let sim = Sim::new(1);
        let net = Network::ieee1394(&sim);
        (sim, net)
    }

    #[test]
    fn element_to_element_messaging() {
        let (_sim, net) = bus();
        let vcr_node = MessagingSystem::attach(&net, "vcr");
        let vcr_seid = vcr_node.register_element(|_, msg| {
            if msg.opcode == OpCode::new(0x0103, 1) {
                (HaviStatus::Success, vec![HValue::Str("recording".into())])
            } else {
                (HaviStatus::EUnsupported, vec![])
            }
        });

        let controller = MessagingSystem::attach(&net, "tv");
        let ctl_seid = controller.register_element(|_, _| (HaviStatus::Success, vec![]));

        let (status, params) = controller
            .send(
                ctl_seid.handle,
                vcr_seid,
                OpCode::new(0x0103, 1),
                vec![HValue::U16(42)],
            )
            .unwrap();
        assert!(status.is_ok());
        assert_eq!(params[0].as_str(), Some("recording"));

        let (status, _) = controller
            .send(ctl_seid.handle, vcr_seid, OpCode::new(0x0103, 99), vec![])
            .unwrap();
        assert_eq!(status, HaviStatus::EUnsupported);
    }

    #[test]
    fn parameters_too_long_for_the_wire_are_refused_on_both_legs() {
        let (_sim, net) = bus();
        let a = MessagingSystem::attach(&net, "a");
        let b = MessagingSystem::attach(&net, "b");
        let src = a.register_element(|_, _| (HaviStatus::Success, vec![]));
        let echo = b.register_element(|_, msg| (HaviStatus::Success, msg.params.clone()));
        let op = OpCode::new(1, 1);
        let frames = || net.with_stats(|s| s.protocol(Protocol::Havi).frames);
        let before = frames();
        assert_eq!(
            a.send(src.handle, echo, op, vec![HValue::Str("x".repeat(70_000))]),
            Err(HaviError::Codec(CodecError::TooLong(70_000)))
        );
        assert_eq!(frames(), before, "nothing was sent");
        // A reply that would not fit is refused by the responder.
        let big =
            b.register_element(|_, _| (HaviStatus::Success, vec![HValue::Bytes(vec![0; 70_000])]));
        assert_eq!(
            a.send(src.handle, big, op, vec![]),
            Ok((HaviStatus::EResource, vec![]))
        );
    }

    #[test]
    fn unknown_seid_and_send_ok() {
        let (_sim, net) = bus();
        let a = MessagingSystem::attach(&net, "a");
        let b = MessagingSystem::attach(&net, "b");
        let src = a.register_element(|_, _| (HaviStatus::Success, vec![]));
        let bogus = Seid::new(b.node(), 777);
        let (status, _) = a
            .send(src.handle, bogus, OpCode::new(1, 1), vec![])
            .unwrap();
        assert_eq!(status, HaviStatus::EUnknownSeid);
        assert_eq!(
            a.send_ok(src.handle, bogus, OpCode::new(1, 1), vec![]),
            Err(HaviError::Status(HaviStatus::EUnknownSeid))
        );
    }

    #[test]
    fn unregister_element() {
        let (_sim, net) = bus();
        let node = MessagingSystem::attach(&net, "x");
        let seid = node.register_element(|_, _| (HaviStatus::Success, vec![]));
        assert_eq!(node.element_count(), 1);
        assert!(node.unregister_element(seid));
        assert!(!node.unregister_element(seid));
        assert_eq!(node.element_count(), 0);
    }

    #[test]
    fn message_wire_round_trip() {
        let msg = HaviMessage {
            src: Seid::new(NodeId(3), 7),
            dst: Seid::new(NodeId(9), 2),
            opcode: OpCode::new(0x0103, 5),
            params: vec![HValue::U32(1), HValue::Str("t".into())],
        };
        let mut enc = Vec::new();
        msg.encode(&mut enc).unwrap();
        let back = HaviMessage::decode(NodeId(9), &enc).unwrap();
        assert_eq!(back, msg);
        assert!(HaviMessage::decode(NodeId(9), &enc[..10]).is_err());
    }

    #[test]
    fn messaging_is_fast_on_1394() {
        // A HAVi message round trip should be far under a millisecond —
        // the "1394 is built for AV" property E1 relies on.
        let (sim, net) = bus();
        let a = MessagingSystem::attach(&net, "a");
        let b = MessagingSystem::attach(&net, "b");
        let target = b.register_element(|_, _| (HaviStatus::Success, vec![]));
        let src = a.register_element(|_, _| (HaviStatus::Success, vec![]));
        let before = sim.now();
        a.send(src.handle, target, OpCode::new(1, 1), vec![])
            .unwrap();
        let elapsed = sim.now() - before;
        assert!(elapsed.as_micros() < 1_000, "took {elapsed}");
    }

    #[test]
    fn bus_down_surfaces_as_network_error() {
        let (_sim, net) = bus();
        let a = MessagingSystem::attach(&net, "a");
        let b = MessagingSystem::attach(&net, "b");
        let target = b.register_element(|_, _| (HaviStatus::Success, vec![]));
        let src = a.register_element(|_, _| (HaviStatus::Success, vec![]));
        net.set_down(true);
        assert!(matches!(
            a.send(src.handle, target, OpCode::new(1, 1), vec![]),
            Err(HaviError::Network(_))
        ));
    }
}
