//! Simulated networks.
//!
//! A [`Network`] is one shared medium (an Ethernet segment, an IEEE1394
//! bus, the house powerline, a serial cable) with a [`LinkModel`] cost
//! model and a set of attached nodes. It supports one-way frames
//! (datagrams, broadcasts) and synchronous request/response exchanges —
//! the two interaction patterns every home middleware in the paper uses.

use crate::chaos::FaultPlan;
use crate::error::{SimError, SimResult};
use crate::frame::{Frame, Protocol};
use crate::link::LinkModel;
use crate::node::{Addr, NodeId};
use crate::sim::Sim;
use crate::stats::NetStats;
use crate::time::SimDuration;
use parking_lot::Mutex;
use std::collections::{BTreeMap, VecDeque};
use std::ops::Bound;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Handles one-way frames delivered to a node.
type FrameHandler = Box<dyn FnMut(&Sim, &Frame) + Send>;

/// Handles request/response exchanges addressed to a node.
///
/// The handler reads the request frame in place; the buffer it returns
/// is the one the caller of [`Network::request`] gets back. The frame
/// is the handler's to change: it may take `frame.payload` and write
/// its answer into that buffer. Returning `Err` surfaces to the caller
/// as [`SimError::Refused`].
type RequestHandler = Box<dyn FnMut(&Sim, &mut Frame) -> Result<Vec<u8>, String> + Send>;

struct NodePort {
    label: String,
    frame_handler: Option<Arc<Mutex<FrameHandler>>>,
    request_handler: Option<Arc<Mutex<RequestHandler>>>,
    inbox: Arc<Mutex<VecDeque<Frame>>>,
}

/// A node a frame is delivered to: its port's handler and inbox,
/// cloned out so the node table is unlocked while they are used.
struct Receiver {
    id: NodeId,
    handler: Option<Arc<Mutex<FrameHandler>>>,
    inbox: Arc<Mutex<VecDeque<Frame>>>,
}

impl Receiver {
    fn of(id: NodeId, port: &NodePort) -> Receiver {
        Receiver {
            id,
            handler: port.frame_handler.clone(),
            inbox: port.inbox.clone(),
        }
    }

    /// The lowest-numbered node from `from` up to `last` that a
    /// broadcast `frame` reaches.
    fn first_in(
        nodes: &BTreeMap<NodeId, NodePort>,
        frame: &Frame,
        from: Bound<NodeId>,
        last: NodeId,
    ) -> Option<Receiver> {
        nodes
            .range((from, Bound::Included(last)))
            .find(|(id, _)| frame.dst.matches(**id, frame.src))
            .map(|(id, port)| Receiver::of(*id, port))
    }
}

struct NetInner {
    name: String,
    sim: Sim,
    link: LinkModel,
    /// Ordered by id, so a broadcast reaches its receivers in ascending
    /// order without sorting them.
    nodes: Mutex<BTreeMap<NodeId, NodePort>>,
    next_node: Mutex<u32>,
    stats: Mutex<NetStats>,
    down: AtomicBool,
    chaos: Mutex<Option<FaultPlan>>,
}

/// The chaos effects in force at one instant, captured under one lock
/// acquisition so transfer code never holds the plan lock while the
/// clock advances.
struct ChaosGate {
    extra_latency: SimDuration,
    extra_loss: f64,
    duplicate: f64,
    reorder: SimDuration,
}

impl ChaosGate {
    const CLEAR: ChaosGate = ChaosGate {
        extra_latency: SimDuration::ZERO,
        extra_loss: 0.0,
        duplicate: 0.0,
        reorder: SimDuration::ZERO,
    };
}

/// A cheaply clonable handle to one simulated network.
#[derive(Clone)]
pub struct Network {
    inner: Arc<NetInner>,
}

impl Network {
    /// Creates a network on `sim` with the given technology model.
    pub fn new(sim: &Sim, name: impl Into<String>, link: LinkModel) -> Self {
        Network {
            inner: Arc::new(NetInner {
                name: name.into(),
                sim: sim.clone(),
                link,
                nodes: Mutex::new(BTreeMap::new()),
                next_node: Mutex::new(0),
                stats: Mutex::new(NetStats::new()),
                down: AtomicBool::new(false),
                chaos: Mutex::new(None),
            }),
        }
    }

    /// The network's display name (e.g. `"ethernet"`, `"1394-bus"`).
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// The technology cost model.
    pub fn link(&self) -> &LinkModel {
        &self.inner.link
    }

    /// The simulation world this network lives in.
    pub fn sim(&self) -> &Sim {
        &self.inner.sim
    }

    /// An identity of this network instance, equal for two handles
    /// exactly when they share it. Node ids are only meaningful within
    /// one network, so anything caching per-node state keys it by
    /// `(identity, NodeId)`. The value is the address of the shared
    /// state: a cache keyed by it must hold a handle to the network, so
    /// that no other network can be given the same address.
    pub fn identity(&self) -> usize {
        Arc::as_ptr(&self.inner) as usize
    }

    // ---- attachment -----------------------------------------------------

    /// Attaches a new node and returns its id.
    pub fn attach(&self, label: impl Into<String>) -> NodeId {
        let mut next = self.inner.next_node.lock();
        let id = NodeId(*next);
        *next += 1;
        self.inner.nodes.lock().insert(
            id,
            NodePort {
                label: label.into(),
                frame_handler: None,
                request_handler: None,
                inbox: Arc::new(Mutex::new(VecDeque::new())),
            },
        );
        id
    }

    /// The label a node was attached with.
    pub fn label(&self, node: NodeId) -> Option<String> {
        self.inner.nodes.lock().get(&node).map(|p| p.label.clone())
    }

    /// Number of attached nodes.
    fn node_count(&self) -> usize {
        self.inner.nodes.lock().len()
    }

    /// Ids of all attached nodes, in ascending order.
    pub fn nodes(&self) -> Vec<NodeId> {
        self.inner.nodes.lock().keys().copied().collect()
    }

    /// Installs a handler invoked synchronously for every one-way frame
    /// delivered to `node`. Replaces any previous handler; frames stop
    /// accumulating in the node's inbox.
    pub fn set_frame_handler(
        &self,
        node: NodeId,
        f: impl FnMut(&Sim, &Frame) + Send + 'static,
    ) -> SimResult<()> {
        let mut nodes = self.inner.nodes.lock();
        let port = nodes.get_mut(&node).ok_or(SimError::UnknownNode(node))?;
        port.frame_handler = Some(Arc::new(Mutex::new(Box::new(f))));
        Ok(())
    }

    /// Installs the request/response handler for `node`.
    pub fn set_request_handler(
        &self,
        node: NodeId,
        f: impl FnMut(&Sim, &mut Frame) -> Result<Vec<u8>, String> + Send + 'static,
    ) -> SimResult<()> {
        let mut nodes = self.inner.nodes.lock();
        let port = nodes.get_mut(&node).ok_or(SimError::UnknownNode(node))?;
        port.request_handler = Some(Arc::new(Mutex::new(Box::new(f))));
        Ok(())
    }

    /// Pops the oldest undelivered frame from `node`'s inbox.
    ///
    /// Only frames received while no frame handler was installed land in
    /// the inbox.
    pub fn recv(&self, node: NodeId) -> Option<Frame> {
        let inbox = self.inner.nodes.lock().get(&node)?.inbox.clone();
        let f = inbox.lock().pop_front();
        f
    }

    // ---- availability ---------------------------------------------------

    /// Marks the network up or down (a 1394 bus in reset, a tripped
    /// breaker on the powerline). While down, all sends fail.
    pub fn set_down(&self, down: bool) {
        self.inner.down.store(down, Ordering::SeqCst);
    }

    /// True if the network is currently down.
    pub fn is_down(&self) -> bool {
        self.inner.down.load(Ordering::SeqCst)
    }

    // ---- fault injection ------------------------------------------------

    /// Installs a [`FaultPlan`]: from now on every transfer consults the
    /// plan against the virtual clock, so crashes, partitions, loss and
    /// latency spikes strike exactly when scripted. Replaces any
    /// previous plan.
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        *self.inner.chaos.lock() = Some(plan);
    }

    /// Removes the fault plan, healing every injected fault at once.
    pub fn clear_fault_plan(&self) {
        *self.inner.chaos.lock() = None;
    }

    /// A copy of the installed fault plan, if any.
    #[cfg(test)]
    fn fault_plan(&self) -> Option<FaultPlan> {
        self.inner.chaos.lock().clone()
    }

    /// Checks crash/partition faults for a transfer `src → dst` and
    /// captures the loss/latency effects in force right now.
    fn chaos_gate(&self, src: NodeId, dst: Option<NodeId>) -> SimResult<ChaosGate> {
        let chaos = self.inner.chaos.lock();
        let Some(plan) = chaos.as_ref() else {
            return Ok(ChaosGate::CLEAR);
        };
        let now = self.inner.sim.now();
        if plan.node_down_at(now, src) {
            return Err(SimError::NodeDown(src));
        }
        if let Some(dst) = dst {
            if plan.node_down_at(now, dst) {
                return Err(SimError::NodeDown(dst));
            }
            if plan.partitioned_at(now, src, dst) {
                return Err(SimError::Partitioned { src, dst });
            }
        }
        Ok(ChaosGate {
            extra_latency: plan.extra_latency_at(now),
            extra_loss: plan.extra_loss_at(now),
            duplicate: plan.duplicate_prob_at(now),
            reorder: plan.reorder_window_at(now),
        })
    }

    /// Draws against the gate's extra loss probability, recording a
    /// chaos-injected drop in the stats.
    fn chaos_drop(&self, gate: &ChaosGate, protocol: Protocol) -> bool {
        if gate.extra_loss > 0.0 && self.inner.sim.chance(gate.extra_loss) {
            self.inner.stats.lock().record_lost(protocol);
            true
        } else {
            false
        }
    }

    /// Draws against the gate's duplicate probability. Only consulted
    /// on *delivered* legs — a lost frame cannot also arrive twice.
    fn chaos_duplicate(&self, gate: &ChaosGate) -> bool {
        gate.duplicate > 0.0 && self.inner.sim.chance(gate.duplicate)
    }

    /// The extra out-of-order slip for one delivery: uniform in
    /// `[0, window)`, drawn from the sim RNG only while a reorder
    /// window is active (so quiet plans leave the RNG stream — and
    /// every existing baseline — untouched).
    fn chaos_slip(&self, gate: &ChaosGate) -> SimDuration {
        if gate.reorder.is_zero() {
            SimDuration::ZERO
        } else {
            let span = gate.reorder.as_micros().max(1);
            SimDuration::from_micros(self.inner.sim.with_rng(|r| r.range(0, span)))
        }
    }

    // ---- transfer -------------------------------------------------------

    /// Sends a one-way frame, advancing the virtual clock by the transfer
    /// time. Broadcast frames are delivered to every other node in
    /// ascending node order. A unicast frame moves into its receiver:
    /// a handler reads it in place and [`Network::recv`] returns it.
    pub fn send(&self, frame: Frame) -> SimResult<()> {
        self.check_up()?;
        if !self.inner.link.fits(frame.len()) {
            return Err(SimError::FrameTooLarge {
                size: frame.len(),
                mtu: self.inner.link.mtu,
            });
        }
        // Chaos gate: a crashed endpoint or an active partition stops
        // the frame before it reaches the medium. (Broadcasts check
        // only the sender; delivery to each receiver is best-effort.)
        let gate = self.chaos_gate(
            frame.src,
            match frame.dst {
                Addr::Unicast(n) => Some(n),
                Addr::Broadcast => None,
            },
        )?;
        let sim = &self.inner.sim;
        sim.advance(self.inner.link.transfer_time(frame.len()) + gate.extra_latency);
        if self.lossy_drop(frame.protocol) || self.chaos_drop(&gate, frame.protocol) {
            return Err(SimError::FrameLost {
                dst: match frame.dst {
                    Addr::Unicast(n) => n,
                    Addr::Broadcast => frame.src,
                },
                at: sim.now(),
            });
        }
        // At-least-once: a duplicated frame arrives a second time,
        // after its own independent reorder slip.
        if self.chaos_duplicate(&gate) {
            self.deliver_slipped(frame.clone(), self.chaos_slip(&gate));
        }
        // Out-of-order: a slipped frame leaves the sender now but lands
        // in the destination's future; frames sent after it may arrive
        // first. Delivery errors on the deferred path are dropped —
        // exactly how a late datagram to a vanished node behaves.
        let slip = self.chaos_slip(&gate);
        if !slip.is_zero() {
            self.deliver_slipped(frame, slip);
            return Ok(());
        }
        self.deliver(frame)
    }

    /// Delivers `frame` after `slip` of extra delay (immediately when
    /// `slip` is zero), swallowing delivery errors on the deferred path.
    fn deliver_slipped(&self, frame: Frame, slip: SimDuration) {
        if slip.is_zero() {
            let _ = self.deliver(frame);
        } else {
            let net = self.clone();
            self.inner.sim.schedule_in(slip, move |_| {
                let _ = net.deliver(frame);
            });
        }
    }

    /// Synchronous request/response: transfers the request to `dst`,
    /// invokes its request handler inline, transfers the response back,
    /// and returns the response payload.
    ///
    /// Neither leg copies its bytes: the handler reads `payload` in
    /// place (and may answer in the same buffer), and the buffer it
    /// returns is the one handed back. The
    /// clock advances by both transfer times plus whatever the handler
    /// itself charges. Request/response runs over a stream (TCP-like),
    /// so a payload over the link's MTU is fragmented rather than
    /// rejected.
    pub fn request(
        &self,
        src: NodeId,
        dst: NodeId,
        protocol: Protocol,
        payload: impl Into<Vec<u8>>,
    ) -> SimResult<Vec<u8>> {
        self.check_up()?;
        let sim = self.inner.sim.clone();
        let mut frame = Frame::new(src, dst, protocol, payload);

        // Request leg. The chaos gate runs before any clock advance:
        // these failures guarantee the request never reached `dst`.
        let gate = self.chaos_gate(src, Some(dst))?;
        sim.advance(
            self.inner.link.fragmented_transfer_time(frame.len())
                + gate.extra_latency
                + self.chaos_slip(&gate),
        );
        if self.lossy_drop(protocol) || self.chaos_drop(&gate, protocol) {
            return Err(SimError::FrameLost { dst, at: sim.now() });
        }
        self.record_delivered(protocol, frame.len());

        let handler = {
            let nodes = self.inner.nodes.lock();
            let port = nodes.get(&dst).ok_or(SimError::UnknownNode(dst))?;
            port.request_handler
                .as_ref()
                .ok_or(SimError::NoHandler(dst))?
                .clone()
        };
        // A duplicate re-runs the handler on the request as it arrived,
        // and the first run may take the payload: where the gate can
        // duplicate, keep a copy for it.
        let mut duplicate = (gate.duplicate > 0.0).then(|| frame.clone());
        let response = {
            let mut h = handler.lock();
            (h)(&sim, &mut frame).map_err(SimError::Refused)?
        };
        // At-least-once on the request leg: a duplicated request
        // re-invokes the handler — the side effect happens *twice*
        // unless the receiver deduplicates. The duplicate's response is
        // discarded (the caller only matches the first).
        if self.chaos_duplicate(&gate) {
            if let Some(mut duplicate) = duplicate.take() {
                self.record_delivered(protocol, duplicate.len());
                let mut h = handler.lock();
                let _ = (h)(&sim, &mut duplicate);
            }
        }

        // Response leg. The handler has already run, so every failure
        // from here on must read as a *response* loss — ambiguous to
        // the caller ([`SimError::before_delivery`] returns false) —
        // including a partition or crash whose window opened while the
        // handler was executing.
        let resp_gate = match self.chaos_gate(dst, Some(src)) {
            Ok(gate) => gate,
            Err(_) => {
                return Err(SimError::FrameLost {
                    dst: src,
                    at: sim.now(),
                })
            }
        };
        sim.advance(
            self.inner.link.fragmented_transfer_time(response.len())
                + resp_gate.extra_latency
                + self.chaos_slip(&resp_gate),
        );
        if self.lossy_drop(protocol) || self.chaos_drop(&resp_gate, protocol) {
            return Err(SimError::FrameLost {
                dst: src,
                at: sim.now(),
            });
        }
        self.record_delivered(protocol, response.len());
        Ok(response)
    }

    /// Delivers a frame that already paid its transfer cost elsewhere —
    /// the commit half of a cross-island send. The parallel executor
    /// charges latency on the *sending* island's clock, buffers the
    /// frame, and injects it here on the destination island at the
    /// scheduled delivery time; no further clock advance or loss draw
    /// happens (the send side already drew against its own RNG stream,
    /// keeping outcomes independent of the island partitioning).
    pub fn inject(&self, frame: Frame) -> SimResult<()> {
        self.check_up()?;
        self.deliver(frame)
    }

    fn check_up(&self) -> SimResult<()> {
        if self.is_down() {
            Err(SimError::NetworkDown(self.inner.name.clone()))
        } else {
            Ok(())
        }
    }

    fn lossy_drop(&self, protocol: Protocol) -> bool {
        let p = self.inner.link.loss_prob;
        if p > 0.0 && self.inner.sim.chance(p) {
            self.inner.stats.lock().record_lost(protocol);
            true
        } else {
            false
        }
    }

    fn record_delivered(&self, protocol: Protocol, len: usize) {
        self.inner.stats.lock().record_delivered(protocol, len);
    }

    /// Hands `frame` to its receivers in ascending node-id order, with
    /// no node-table lock held while a handler runs (handlers may send on
    /// this network) and nothing collected: each receiver is looked up
    /// once the one before it has been served. A broadcast reaches the
    /// nodes attached when it arrived. The last receiver takes the frame
    /// itself; only an inbox earlier in a broadcast's order gets a copy.
    fn deliver(&self, frame: Frame) -> SimResult<()> {
        // `last` bounds a broadcast's walk; a unicast frame has one
        // receiver and no walk.
        let (mut next, last) = {
            let nodes = self.inner.nodes.lock();
            match frame.dst {
                Addr::Unicast(dst) => {
                    let port = nodes.get(&dst).ok_or(SimError::UnknownNode(dst))?;
                    (Some(Receiver::of(dst, port)), None)
                }
                Addr::Broadcast => {
                    let last = nodes.keys().next_back().copied();
                    let first = last.and_then(|last| {
                        Receiver::first_in(&nodes, &frame, Bound::Unbounded, last)
                    });
                    (first, last)
                }
            }
        };
        while let Some(Receiver { id, handler, inbox }) = next {
            self.record_delivered(frame.protocol, frame.len());
            let after = || {
                last.and_then(|last| {
                    let nodes = self.inner.nodes.lock();
                    Receiver::first_in(&nodes, &frame, Bound::Excluded(id), last)
                })
            };
            match handler {
                Some(h) => {
                    (h.lock())(&self.inner.sim, &frame);
                    next = after();
                }
                None => {
                    next = after();
                    if next.is_none() {
                        inbox.lock().push_back(frame);
                        break;
                    }
                    inbox.lock().push_back(frame.clone());
                }
            }
        }
        Ok(())
    }

    // ---- statistics -----------------------------------------------------

    /// Runs `f` with the network's traffic statistics.
    pub fn with_stats<T>(&self, f: impl FnOnce(&mut NetStats) -> T) -> T {
        f(&mut self.inner.stats.lock())
    }
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("name", &self.inner.name)
            .field("nodes", &self.node_count())
            .field("down", &self.is_down())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn fast_net(sim: &Sim) -> Network {
        Network::new(
            sim,
            "test",
            LinkModel {
                latency: SimDuration::from_micros(100),
                bandwidth_bps: 8_000_000,
                per_frame_overhead: 0,
                mtu: 1500,
                loss_prob: 0.0,
            },
        )
    }

    #[test]
    fn send_to_inbox_advances_clock() {
        let sim = Sim::new(1);
        let net = fast_net(&sim);
        let a = net.attach("a");
        let b = net.attach("b");
        net.send(Frame::new(a, b, Protocol::Raw, vec![0u8; 800]))
            .unwrap();
        // 800 bytes at 1 B/us + 100us latency = 900us.
        assert_eq!(sim.now().as_micros(), 900);
        let got = net.recv(b).unwrap();
        assert_eq!(got.len(), 800);
        assert!(net.recv(b).is_none());
    }

    #[test]
    fn frame_handler_sees_frames_inline() {
        let sim = Sim::new(1);
        let net = fast_net(&sim);
        let a = net.attach("a");
        let b = net.attach("b");
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = seen.clone();
        net.set_frame_handler(b, move |_, f| seen2.lock().push(f.len()))
            .unwrap();
        net.send(Frame::new(a, b, Protocol::Raw, vec![1, 2, 3]))
            .unwrap();
        assert_eq!(*seen.lock(), vec![3]);
        assert!(net.recv(b).is_none(), "handled frames bypass the inbox");
    }

    #[test]
    fn broadcast_reaches_everyone_but_sender() {
        let sim = Sim::new(1);
        let net = fast_net(&sim);
        let a = net.attach("a");
        let _b = net.attach("b");
        let _c = net.attach("c");
        net.send(Frame::new(a, Addr::Broadcast, Protocol::X10, vec![9]))
            .unwrap();
        let ids: Vec<u32> = net
            .nodes()
            .iter()
            .filter(|n| net.recv(**n).is_some())
            .map(|n| n.0)
            .collect();
        assert_eq!(ids, vec![1, 2]);
    }

    #[test]
    fn request_round_trip_charges_both_legs() {
        let sim = Sim::new(1);
        let net = fast_net(&sim);
        let client = net.attach("client");
        let server = net.attach("server");
        net.set_request_handler(server, |sim, f| {
            sim.advance(SimDuration::from_micros(50)); // processing
            Ok(vec![0u8; f.len() * 2])
        })
        .unwrap();
        let resp = net
            .request(client, server, Protocol::Http, vec![0u8; 100])
            .unwrap();
        assert_eq!(resp.len(), 200);
        // req: 100us lat + 100us tx; proc: 50; resp: 100us lat + 200us tx.
        assert_eq!(sim.now().as_micros(), 550);
    }

    #[test]
    fn request_to_handlerless_node_fails() {
        let sim = Sim::new(1);
        let net = fast_net(&sim);
        let a = net.attach("a");
        let b = net.attach("b");
        assert_eq!(
            net.request(a, b, Protocol::Raw, vec![1]),
            Err(SimError::NoHandler(b))
        );
        assert!(matches!(
            net.request(a, NodeId(99), Protocol::Raw, vec![1]),
            Err(SimError::UnknownNode(NodeId(99)))
        ));
    }

    #[test]
    fn handler_refusal_propagates() {
        let sim = Sim::new(1);
        let net = fast_net(&sim);
        let a = net.attach("a");
        let b = net.attach("b");
        net.set_request_handler(b, |_, _| Err("busy".into()))
            .unwrap();
        assert_eq!(
            net.request(a, b, Protocol::Raw, vec![1]),
            Err(SimError::Refused("busy".into()))
        );
    }

    #[test]
    fn oversized_one_way_frame_rejected() {
        let sim = Sim::new(1);
        let net = fast_net(&sim);
        let a = net.attach("a");
        let b = net.attach("b");
        let err = net
            .send(Frame::new(a, b, Protocol::Raw, vec![0u8; 2000]))
            .unwrap_err();
        assert!(matches!(
            err,
            SimError::FrameTooLarge {
                size: 2000,
                mtu: 1500
            }
        ));
    }

    #[test]
    fn oversized_request_fragments_instead() {
        let sim = Sim::new(1);
        let net = fast_net(&sim);
        let a = net.attach("a");
        let b = net.attach("b");
        net.set_request_handler(b, |_, _| Ok(Vec::new())).unwrap();
        // 3000 bytes over MTU 1500 fragments fine (TCP-like stream).
        net.request(a, b, Protocol::Http, vec![0u8; 3000]).unwrap();
    }

    #[test]
    fn down_network_refuses_traffic() {
        let sim = Sim::new(1);
        let net = fast_net(&sim);
        let a = net.attach("a");
        let b = net.attach("b");
        net.set_down(true);
        assert!(matches!(
            net.send(Frame::new(a, b, Protocol::Raw, vec![1])),
            Err(SimError::NetworkDown(_))
        ));
        net.set_down(false);
        net.send(Frame::new(a, b, Protocol::Raw, vec![1])).unwrap();
    }

    #[test]
    fn lossy_link_drops_statistically() {
        let sim = Sim::new(42);
        let net = Network::new(
            &sim,
            "lossy",
            LinkModel {
                loss_prob: 0.5,
                ..LinkModel::ideal()
            },
        );
        let a = net.attach("a");
        let b = net.attach("b");
        let mut lost = 0;
        for _ in 0..200 {
            if net.send(Frame::new(a, b, Protocol::X10, vec![1])).is_err() {
                lost += 1;
            }
        }
        assert!((60..140).contains(&lost), "lost {lost} of 200");
        assert_eq!(net.with_stats(|s| s.protocol(Protocol::X10).lost), lost);
    }

    #[test]
    fn handler_may_send_on_same_network() {
        // Regression guard for lock ordering: a request handler that
        // itself performs a nested request must not deadlock.
        let sim = Sim::new(1);
        let net = fast_net(&sim);
        let client = net.attach("client");
        let front = net.attach("front");
        let back = net.attach("back");
        net.set_request_handler(back, |_, _| Ok(b"deep".to_vec()))
            .unwrap();
        let net2 = net.clone();
        net.set_request_handler(front, move |_, f| {
            net2.request(
                f.dst_node().unwrap(),
                back,
                Protocol::Raw,
                f.payload.clone(),
            )
            .map_err(|e| e.to_string())
        })
        .unwrap();
        let resp = net.request(client, front, Protocol::Raw, vec![1]).unwrap();
        assert_eq!(&resp[..], b"deep");
    }

    #[test]
    fn fault_plan_crashes_partitions_and_heals_on_schedule() {
        use crate::chaos::FaultPlan;
        use crate::time::SimTime;
        let sim = Sim::new(1);
        let net = fast_net(&sim);
        let a = net.attach("a");
        let b = net.attach("b");
        let c = net.attach("c");
        net.set_request_handler(b, |_, _| Ok(b"ok".to_vec()))
            .unwrap();
        net.set_request_handler(c, |_, _| Ok(b"ok".to_vec()))
            .unwrap();
        net.set_fault_plan(
            FaultPlan::new()
                .node_down(c, SimTime::ZERO, SimTime::from_micros(10_000))
                .partition(
                    vec![a],
                    vec![b],
                    SimTime::from_micros(5_000),
                    SimTime::from_micros(20_000),
                ),
        );
        // c is crashed, b still reachable (partition not yet open).
        assert_eq!(
            net.request(a, c, Protocol::Raw, vec![1]),
            Err(SimError::NodeDown(c))
        );
        net.request(a, b, Protocol::Raw, vec![1]).unwrap();
        // Enter the partition window: a↔b blocked before any time is
        // charged, both directions.
        sim.advance(SimDuration::from_micros(5_000) - (sim.now() - SimTime::ZERO));
        let before = sim.now();
        assert_eq!(
            net.request(a, b, Protocol::Raw, vec![1]),
            Err(SimError::Partitioned { src: a, dst: b })
        );
        assert_eq!(sim.now(), before, "partition rejects without delay");
        // A crashed node cannot send either.
        assert_eq!(
            net.request(c, b, Protocol::Raw, vec![1]),
            Err(SimError::NodeDown(c))
        );
        // Run past every window: all healed.
        sim.advance(SimDuration::from_micros(20_000));
        net.request(a, b, Protocol::Raw, vec![1]).unwrap();
        net.request(a, c, Protocol::Raw, vec![1]).unwrap();
        net.clear_fault_plan();
        assert!(net.fault_plan().is_none());
    }

    #[test]
    fn loss_and_latency_spikes_shape_traffic_during_their_window() {
        use crate::chaos::FaultPlan;
        use crate::time::SimTime;
        let sim = Sim::new(42);
        let net = fast_net(&sim);
        let a = net.attach("a");
        let b = net.attach("b");
        net.set_fault_plan(
            FaultPlan::new()
                .latency_spike(
                    SimTime::ZERO,
                    SimTime::from_micros(u64::MAX / 2),
                    SimDuration::from_micros(700),
                )
                .loss_spike(SimTime::ZERO, SimTime::from_micros(u64::MAX / 2), 0.5),
        );
        let mut lost = 0;
        for _ in 0..100 {
            let before = sim.now();
            let r = net.send(Frame::new(a, b, Protocol::Raw, vec![0u8; 100]));
            // 100B at 1B/us + 100us latency + 700us spike = 900us.
            assert_eq!((sim.now() - before).as_micros(), 900);
            if r.is_err() {
                lost += 1;
            }
        }
        assert!((25..75).contains(&lost), "lost {lost} of 100");
    }

    #[test]
    fn mid_call_partition_reads_as_a_lost_response() {
        use crate::chaos::FaultPlan;
        use crate::time::SimTime;
        let sim = Sim::new(1);
        let net = fast_net(&sim);
        let a = net.attach("a");
        let b = net.attach("b");
        // The handler burns enough virtual time that the partition
        // window opens while it runs: the request was delivered and
        // executed, so the caller must see an *ambiguous* failure.
        net.set_request_handler(b, |sim, _| {
            sim.advance(SimDuration::from_micros(50_000));
            Ok(b"done".to_vec())
        })
        .unwrap();
        net.set_fault_plan(FaultPlan::new().partition(
            vec![a],
            vec![b],
            SimTime::from_micros(10_000),
            SimTime::from_micros(100_000),
        ));
        let err = net.request(a, b, Protocol::Raw, vec![1]).unwrap_err();
        assert_eq!(
            err,
            SimError::FrameLost {
                dst: a,
                at: sim.now()
            }
        );
        assert!(!err.before_delivery(a), "must read as ambiguous");
    }

    #[test]
    fn duplicate_window_reinvokes_request_handler() {
        use crate::chaos::FaultPlan;
        use crate::time::SimTime;
        let sim = Sim::new(42);
        let net = fast_net(&sim);
        let a = net.attach("a");
        let b = net.attach("b");
        let hits = Arc::new(Mutex::new(0u32));
        let hits2 = hits.clone();
        net.set_request_handler(b, move |_, _| {
            *hits2.lock() += 1;
            Ok(b"ok".to_vec())
        })
        .unwrap();
        net.set_fault_plan(FaultPlan::new().duplicate_spike(
            SimTime::ZERO,
            SimTime::from_micros(u64::MAX / 2),
            1.0,
        ));
        for _ in 0..5 {
            net.request(a, b, Protocol::Raw, vec![1]).unwrap();
        }
        assert_eq!(
            *hits.lock(),
            10,
            "prob-1.0 duplicates run the handler twice per request"
        );
    }

    #[test]
    fn duplicate_window_doubles_one_way_frames() {
        use crate::chaos::FaultPlan;
        use crate::time::SimTime;
        let sim = Sim::new(42);
        let net = fast_net(&sim);
        let a = net.attach("a");
        let b = net.attach("b");
        net.set_fault_plan(FaultPlan::new().duplicate_spike(
            SimTime::ZERO,
            SimTime::from_micros(u64::MAX / 2),
            1.0,
        ));
        net.send(Frame::new(a, b, Protocol::Raw, vec![7])).unwrap();
        assert!(net.recv(b).is_some());
        assert!(net.recv(b).is_some(), "the duplicate also lands");
        assert!(net.recv(b).is_none());
    }

    #[test]
    fn reorder_window_transposes_one_way_frames() {
        use crate::chaos::FaultPlan;
        use crate::time::SimTime;
        // With a reorder window much wider than the inter-send gap,
        // some seed reorders two back-to-back frames; the slip is a
        // deterministic function of the seed.
        let sim = Sim::new(7);
        let net = fast_net(&sim);
        let a = net.attach("a");
        let b = net.attach("b");
        net.set_fault_plan(FaultPlan::new().reorder_spike(
            SimTime::ZERO,
            SimTime::from_micros(u64::MAX / 2),
            SimDuration::from_micros(50_000),
        ));
        let mut arrivals = Vec::new();
        for i in 0..8u8 {
            net.send(Frame::new(a, b, Protocol::Raw, vec![i])).unwrap();
        }
        sim.run_for(SimDuration::from_micros(100_000));
        while let Some(f) = net.recv(b) {
            arrivals.push(f.payload[0]);
        }
        assert_eq!(arrivals.len(), 8, "reorder never loses frames");
        let mut sorted = arrivals.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..8).collect::<Vec<u8>>());
        assert_ne!(
            arrivals, sorted,
            "a 50ms window over back-to-back sends transposes some pair"
        );
    }

    #[test]
    fn quiet_duplicate_reorder_plan_leaves_traffic_untouched() {
        use crate::chaos::FaultPlan;
        use crate::time::SimTime;
        // Windows scheduled in the far future must not perturb either
        // the clock or the RNG stream (baseline determinism).
        let run = |plan: Option<FaultPlan>| {
            let sim = Sim::new(9);
            let net = fast_net(&sim);
            let a = net.attach("a");
            let b = net.attach("b");
            net.set_request_handler(b, |_, f| Ok(f.payload.clone()))
                .unwrap();
            if let Some(p) = plan {
                net.set_fault_plan(p);
            }
            for _ in 0..4 {
                net.request(a, b, Protocol::Raw, vec![3]).unwrap();
            }
            sim.now()
        };
        let base = run(None);
        let quiet = run(Some(
            FaultPlan::new()
                .duplicate_spike(
                    SimTime::from_micros(u64::MAX / 4),
                    SimTime::from_micros(u64::MAX / 2),
                    1.0,
                )
                .reorder_spike(
                    SimTime::from_micros(u64::MAX / 4),
                    SimTime::from_micros(u64::MAX / 2),
                    SimDuration::from_micros(10_000),
                ),
        ));
        assert_eq!(base, quiet);
    }
}
