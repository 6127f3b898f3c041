//! Simulated networks.
//!
//! A [`Network`] is one shared medium (an Ethernet segment, an IEEE1394
//! bus, the house powerline, a serial cable) with a [`LinkModel`] cost
//! model and a set of attached nodes. It supports one-way frames
//! (datagrams, broadcasts) and synchronous request/response exchanges —
//! the two interaction patterns every home middleware in the paper uses.
//!
//! A network also keeps a short list of spare byte buffers, and every
//! frame's bytes pass through it: a writer takes its buffer from
//! [`Network::buffer`], a request handler writes its answer into a
//! buffer the network lends it, and each buffer comes back to the list
//! once its frame has been read. So a warm exchange allocates nothing
//! for its bytes.

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
use std::fmt;
use std::ops::{Bound, Deref};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Handles one-way frames delivered to a node.
type FrameHandler = Box<dyn FnMut(&Sim, &Frame) + Send>;

/// Handles request/response exchanges addressed to a node.
///
/// The handler reads the request frame in place and writes its answer
/// into the empty buffer the network lends it; that buffer is the one
/// the caller of [`Network::request`] reads. The frame is read-only, so
/// a duplicated request re-runs the handler on the bytes as they were
/// sent. Returning `Err` surfaces to the caller as
/// [`SimError::Refused`].
type RequestHandler = Box<dyn FnMut(&Sim, &Frame, &mut Vec<u8>) -> Result<(), String> + Send>;

/// How many spare buffers a network keeps: enough for an exchange with
/// a few nested inside its handler.
const SPARE_BUFFERS: usize = 8;

/// The largest buffer a network keeps; a larger one is freed, so one
/// bulk transfer does not pin its memory for the network's lifetime.
const SPARE_CAPACITY: usize = 64 * 1024;

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
    /// Spare frame buffers, empty, most recently returned last. Only
    /// the thread running this network's `Sim` touches it, so what a
    /// run allocates does not depend on thread timing.
    spares: Mutex<Vec<Vec<u8>>>,
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

/// The reply to a [`Network::request`]: the buffer the handler wrote
/// into, read in place through `Deref<Target = [u8]>`. Dropping it
/// gives the buffer back to the network.
pub struct Reply<'n> {
    net: &'n Network,
    buf: Vec<u8>,
}

impl Deref for Reply<'_> {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl Drop for Reply<'_> {
    fn drop(&mut self) {
        self.net.reclaim(std::mem::take(&mut self.buf));
    }
}

impl fmt::Debug for Reply<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Reply").field(&&self.buf[..]).finish()
    }
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
                spares: Mutex::new(Vec::with_capacity(SPARE_BUFFERS)),
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

    /// Installs the request/response handler for `node`. It reads each
    /// request frame and writes its answer into the empty buffer it is
    /// lent.
    pub fn set_request_handler(
        &self,
        node: NodeId,
        f: impl FnMut(&Sim, &Frame, &mut Vec<u8>) -> Result<(), String> + Send + 'static,
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

    /// The `(len, capacity)` of each spare buffer, oldest first.
    #[cfg(test)]
    fn spares(&self) -> Vec<(usize, usize)> {
        let spares = self.inner.spares.lock();
        spares.iter().map(|b| (b.len(), b.capacity())).collect()
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

    // ---- buffers --------------------------------------------------------

    /// An empty buffer to write a frame into: a spare from this
    /// network's list when it has one. Sending the frame, or asking
    /// with it, gives the buffer back once it has been read.
    pub fn buffer(&self) -> Vec<u8> {
        self.inner.spares.lock().pop().unwrap_or_default()
    }

    /// Takes `buf` back into the spare list, emptied, unless the list
    /// is full or the buffer is too large to keep.
    fn reclaim(&self, mut buf: Vec<u8>) {
        if buf.capacity() == 0 || buf.capacity() > SPARE_CAPACITY {
            return;
        }
        let mut spares = self.inner.spares.lock();
        if spares.len() < SPARE_BUFFERS {
            buf.clear();
            spares.push(buf);
        }
    }

    /// Gives `frame`'s buffer back and fails with `err`.
    fn refuse<T>(&self, frame: Frame, err: SimError) -> SimResult<T> {
        self.reclaim(frame.payload);
        Err(err)
    }

    /// A copy of `frame` in a buffer from the spare list, for a frame
    /// that lands twice.
    fn copy(&self, frame: &Frame) -> Frame {
        let mut payload = self.buffer();
        payload.extend_from_slice(&frame.payload);
        Frame::new(frame.src, frame.dst, frame.protocol, payload)
    }

    // ---- transfer -------------------------------------------------------

    /// Sends a one-way frame, advancing the virtual clock by the transfer
    /// time. Broadcast frames are delivered to every other node in
    /// ascending node order. A unicast frame moves into its receiver:
    /// a handler reads it in place and [`Network::recv`] returns it.
    /// Once its handlers have read it, or it is lost, the frame's buffer
    /// comes back to the spare list.
    pub fn send(&self, frame: Frame) -> SimResult<()> {
        let gate = match self.launch(&frame) {
            Ok(gate) => gate,
            Err(e) => return self.refuse(frame, e),
        };
        // At-least-once: a duplicated frame arrives a second time,
        // after its own independent reorder slip.
        if self.chaos_duplicate(&gate) {
            self.deliver_slipped(self.copy(&frame), self.chaos_slip(&gate));
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

    /// Puts a one-way frame on the medium: checks it may go, charges
    /// its transfer time and draws its loss, returning the chaos
    /// effects its delivery is subject to.
    fn launch(&self, frame: &Frame) -> SimResult<ChaosGate> {
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
        let gate = self.chaos_gate(frame.src, frame.dst_node())?;
        let sim = &self.inner.sim;
        sim.advance(self.inner.link.transfer_time(frame.len()) + gate.extra_latency);
        if self.lossy_drop(frame.protocol) || self.chaos_drop(&gate, frame.protocol) {
            return Err(SimError::FrameLost {
                dst: frame.dst_node().unwrap_or(frame.src),
                at: sim.now(),
            });
        }
        Ok(gate)
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
    /// and returns the response.
    ///
    /// Neither leg copies its bytes: the handler reads `payload` in
    /// place and writes its answer into an empty buffer this network
    /// lends it, and the caller reads that buffer through the returned
    /// [`Reply`]. The request's buffer comes back to the spare list
    /// after the exchange, and the reply's when the `Reply` is dropped.
    /// The clock advances by both transfer times plus whatever the
    /// handler itself charges. Request/response runs over a stream
    /// (TCP-like), so a payload over the link's MTU is fragmented rather
    /// than rejected.
    pub fn request(
        &self,
        src: NodeId,
        dst: NodeId,
        protocol: Protocol,
        payload: impl Into<Vec<u8>>,
    ) -> SimResult<Reply<'_>> {
        let frame = Frame::new(src, dst, protocol, payload);
        let result = self.exchange(&frame);
        self.reclaim(frame.payload);
        result.map(|buf| Reply { net: self, buf })
    }

    /// Both legs of [`Network::request`] for `frame`, returning the
    /// reply's buffer.
    fn exchange(&self, frame: &Frame) -> SimResult<Vec<u8>> {
        self.check_up()?;
        let sim = &self.inner.sim;
        let (src, protocol) = (frame.src, frame.protocol);
        let dst = frame.dst_node().expect("a request is unicast");

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
        let mut reply = self.buffer();
        let answered = (handler.lock())(sim, frame, &mut reply);
        if let Err(e) = answered {
            self.reclaim(reply);
            return Err(SimError::Refused(e));
        }
        // At-least-once on the request leg: a duplicated request
        // re-invokes the handler on the same frame — the side effect
        // happens *twice* unless the receiver deduplicates. The
        // duplicate's response is discarded (the caller only matches
        // the first).
        if self.chaos_duplicate(&gate) {
            self.record_delivered(protocol, frame.len());
            let mut echo = self.buffer();
            let _ = (handler.lock())(sim, frame, &mut echo);
            self.reclaim(echo);
        }

        // Response leg. The handler has already run, so every failure
        // from here on must read as a *response* loss — ambiguous to
        // the caller ([`SimError::before_delivery`] returns false) —
        // including a partition or crash whose window opened while the
        // handler was executing.
        let lost = |net: &Network, reply: Vec<u8>| {
            net.reclaim(reply);
            Err(SimError::FrameLost {
                dst: src,
                at: sim.now(),
            })
        };
        let Ok(resp_gate) = self.chaos_gate(dst, Some(src)) else {
            return lost(self, reply);
        };
        sim.advance(
            self.inner.link.fragmented_transfer_time(reply.len())
                + resp_gate.extra_latency
                + self.chaos_slip(&resp_gate),
        );
        if self.lossy_drop(protocol) || self.chaos_drop(&resp_gate, protocol) {
            return lost(self, reply);
        }
        self.record_delivered(protocol, reply.len());
        Ok(reply)
    }

    /// Delivers a frame that already paid its transfer cost elsewhere —
    /// the commit half of a cross-island send. The parallel executor
    /// charges latency on the *sending* island's clock, buffers the
    /// frame, and injects it here on the destination island at the
    /// scheduled delivery time; no further clock advance or loss draw
    /// happens (the send side already drew against its own RNG stream,
    /// keeping outcomes independent of the island partitioning).
    pub fn inject(&self, frame: Frame) -> SimResult<()> {
        match self.check_up() {
            Ok(()) => self.deliver(frame),
            Err(e) => self.refuse(frame, e),
        }
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
    /// itself into its inbox, if it has no handler; only an inbox
    /// earlier in a broadcast's order gets a copy. A frame no inbox
    /// keeps gives its buffer back once its handlers have read it.
    fn deliver(&self, frame: Frame) -> SimResult<()> {
        // `last` bounds a broadcast's walk; a unicast frame has one
        // receiver and no walk.
        let first = {
            let nodes = self.inner.nodes.lock();
            match frame.dst {
                Addr::Unicast(dst) => nodes
                    .get(&dst)
                    .map(|port| (Some(Receiver::of(dst, port)), None))
                    .ok_or(SimError::UnknownNode(dst)),
                Addr::Broadcast => {
                    let last = nodes.keys().next_back().copied();
                    let first = last.and_then(|last| {
                        Receiver::first_in(&nodes, &frame, Bound::Unbounded, last)
                    });
                    Ok((first, last))
                }
            }
        };
        let (mut next, last) = match first {
            Ok(first) => first,
            Err(e) => return self.refuse(frame, e),
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
                        return Ok(());
                    }
                    inbox.lock().push_back(self.copy(&frame));
                }
            }
        }
        self.reclaim(frame.payload);
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
        net.set_request_handler(server, |sim, f, reply| {
            sim.advance(SimDuration::from_micros(50)); // processing
            reply.resize(f.len() * 2, 0);
            Ok(())
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
            net.request(a, b, Protocol::Raw, vec![1]).unwrap_err(),
            SimError::NoHandler(b)
        );
        assert_eq!(
            net.request(a, NodeId(99), Protocol::Raw, vec![1])
                .unwrap_err(),
            SimError::UnknownNode(NodeId(99))
        );
    }

    #[test]
    fn handler_refusal_propagates() {
        let sim = Sim::new(1);
        let net = fast_net(&sim);
        let a = net.attach("a");
        let b = net.attach("b");
        net.set_request_handler(b, |_, _, _| Err("busy".into()))
            .unwrap();
        assert_eq!(
            net.request(a, b, Protocol::Raw, vec![1]).unwrap_err(),
            SimError::Refused("busy".into())
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
        net.set_request_handler(b, |_, _, _| Ok(())).unwrap();
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
        net.set_request_handler(back, |_, _, reply| {
            reply.extend_from_slice(b"deep");
            Ok(())
        })
        .unwrap();
        let net2 = net.clone();
        net.set_request_handler(front, move |_, f, reply| {
            let mut forward = net2.buffer();
            forward.extend_from_slice(&f.payload);
            let deep = net2
                .request(f.dst_node().unwrap(), back, Protocol::Raw, forward)
                .map_err(|e| e.to_string())?;
            reply.extend_from_slice(&deep);
            Ok(())
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
        for node in [b, c] {
            net.set_request_handler(node, |_, _, reply| {
                reply.extend_from_slice(b"ok");
                Ok(())
            })
            .unwrap();
        }
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
            net.request(a, c, Protocol::Raw, vec![1]).unwrap_err(),
            SimError::NodeDown(c)
        );
        net.request(a, b, Protocol::Raw, vec![1]).unwrap();
        // Enter the partition window: a↔b blocked before any time is
        // charged, both directions.
        sim.advance(SimDuration::from_micros(5_000) - (sim.now() - SimTime::ZERO));
        let before = sim.now();
        assert_eq!(
            net.request(a, b, Protocol::Raw, vec![1]).unwrap_err(),
            SimError::Partitioned { src: a, dst: b }
        );
        assert_eq!(sim.now(), before, "partition rejects without delay");
        // A crashed node cannot send either.
        assert_eq!(
            net.request(c, b, Protocol::Raw, vec![1]).unwrap_err(),
            SimError::NodeDown(c)
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
        net.set_request_handler(b, |sim, _, reply| {
            sim.advance(SimDuration::from_micros(50_000));
            reply.extend_from_slice(b"done");
            Ok(())
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
        net.set_request_handler(b, move |_, _, reply| {
            *hits2.lock() += 1;
            reply.extend_from_slice(b"ok");
            Ok(())
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
            net.set_request_handler(b, |_, f, reply| {
                reply.extend_from_slice(&f.payload);
                Ok(())
            })
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

    /// Property: reused buffers never leak bytes. Random exchanges
    /// (some nested inside their handler), broadcasts and one-way frames
    /// of 0 bytes to past the spare capacity cap run under a fault plan
    /// that may duplicate, drop and reorder. Every handler must read
    /// exactly what its caller wrote, every caller exactly what its
    /// handler wrote, and the spare list must stay within its bounds
    /// with every spare empty.
    mod lent_buffers {
        use super::*;
        use crate::chaos::FaultPlan;
        use crate::time::SimTime;
        use proptest::prelude::*;

        #[derive(Debug, Clone)]
        enum Step {
            /// Client → server: request and reply lengths, and the
            /// lengths of an exchange the server makes with the backend
            /// before it answers.
            Ask {
                request: usize,
                reply: usize,
                nested: Option<(usize, usize)>,
            },
            /// A broadcast carrying `len` pattern bytes.
            Broadcast { len: usize },
        }

        /// `len` bytes that differ with `seed` and position.
        fn pattern(seed: u64, len: usize) -> impl Iterator<Item = u8> {
            (0..len).map(move |i| (seed as usize * 131 + i * 7 + i / 256) as u8)
        }

        fn write(buf: &mut Vec<u8>, seed: u64, len: usize) {
            buf.extend(pattern(seed, len));
        }

        fn is(bytes: &[u8], seed: u64, len: usize) -> bool {
            bytes.len() == len && bytes.iter().copied().eq(pattern(seed, len))
        }

        /// A broadcast frame: its seed and length, then the pattern, so
        /// a receiver can check it whenever it lands.
        fn read_broadcast(bytes: &[u8]) -> bool {
            let Some((head, body)) = bytes.split_first_chunk::<16>() else {
                return false;
            };
            let seed = u64::from_le_bytes(head[..8].try_into().unwrap());
            let len = u64::from_le_bytes(head[8..].try_into().unwrap()) as usize;
            is(body, seed, len)
        }

        fn spares_in_bounds(net: &Network) -> Result<(), String> {
            let spares = net.spares();
            if spares.len() > SPARE_BUFFERS {
                return Err(format!("{} spares kept", spares.len()));
            }
            match spares
                .iter()
                .find(|(len, cap)| *len != 0 || *cap > SPARE_CAPACITY)
            {
                Some(spare) => Err(format!("spare (len, capacity) {spare:?} kept")),
                None => Ok(()),
            }
        }

        fn arb_len() -> impl Strategy<Value = usize> {
            prop_oneof![
                0..64usize,
                64..4096usize,
                SPARE_CAPACITY - 8192..SPARE_CAPACITY + 8192,
            ]
        }

        fn arb_step() -> impl Strategy<Value = Step> {
            prop_oneof![
                3 => (arb_len(), arb_len(), prop::option::of((arb_len(), arb_len())))
                    .prop_map(|(request, reply, nested)| Step::Ask { request, reply, nested }),
                1 => arb_len().prop_map(|len| Step::Broadcast { len }),
            ]
        }

        /// What each request handler expects next: the seed and length
        /// of the request it is sent and of the reply it writes.
        type Expect = Arc<Mutex<(u64, usize, u64, usize)>>;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]
            #[test]
            fn reused_buffers_never_leak_bytes(
                steps in prop::collection::vec(arb_step(), 1..24),
                duplicate in prop_oneof![Just(0.0), Just(0.5)],
                loss in prop_oneof![Just(0.0), Just(0.2)],
                reorder in prop_oneof![Just(0u64), Just(5_000u64)],
            ) {
                let sim = Sim::new(3);
                let net = Network::new(
                    &sim,
                    "lent",
                    LinkModel {
                        mtu: 4 * SPARE_CAPACITY,
                        ..LinkModel::ideal()
                    },
                );
                let client = net.attach("client");
                let server = net.attach("server");
                let backend = net.attach("backend");
                let inbox = net.attach("inbox");
                let listener = net.attach("listener");
                let faults: Arc<Mutex<Vec<String>>> = Arc::default();
                let fault = {
                    let faults = faults.clone();
                    move |what: String| faults.lock().push(what)
                };
                for node in [server, backend, listener] {
                    let fault = fault.clone();
                    net.set_frame_handler(node, move |_, frame| {
                        if !read_broadcast(&frame.payload) {
                            fault(format!("node {node} read a broken broadcast"));
                        }
                    })
                    .unwrap();
                }
                let expect_backend: Expect = Arc::default();
                {
                    let (expect, fault, net2) = (expect_backend.clone(), fault.clone(), net.clone());
                    net.set_request_handler(backend, move |_, frame, reply| {
                        let (seed, len, reply_seed, reply_len) = *expect.lock();
                        if !is(&frame.payload, seed, len) {
                            fault(format!("backend read {} bytes, not request {seed}", frame.len()));
                        }
                        if !reply.is_empty() {
                            fault("backend was lent a buffer with bytes in it".into());
                        }
                        if let Err(e) = spares_in_bounds(&net2) {
                            fault(e);
                        }
                        write(reply, reply_seed, reply_len);
                        Ok(())
                    })
                    .unwrap();
                }
                let expect_server: Expect = Arc::default();
                let nested_ask: Arc<Mutex<Option<(usize, usize)>>> = Arc::default();
                {
                    let (expect, fault, net2) = (expect_server.clone(), fault.clone(), net.clone());
                    let (expect_backend, nested_ask) = (expect_backend.clone(), nested_ask.clone());
                    net.set_request_handler(server, move |_, frame, reply| {
                        let (seed, len, reply_seed, reply_len) = *expect.lock();
                        if !is(&frame.payload, seed, len) {
                            fault(format!("server read {} bytes, not request {seed}", frame.len()));
                        }
                        if let Some((request, answer)) = *nested_ask.lock() {
                            let (seed, reply_seed) = (seed + 1_000_000, seed + 2_000_000);
                            *expect_backend.lock() = (seed, request, reply_seed, answer);
                            let mut ask = net2.buffer();
                            write(&mut ask, seed, request);
                            if let Ok(got) = net2.request(server, backend, Protocol::Raw, ask) {
                                if !is(&got, reply_seed, answer) {
                                    fault(format!("server read {} bytes, not reply {reply_seed}", got.len()));
                                }
                            }
                        }
                        write(reply, reply_seed, reply_len);
                        Ok(())
                    })
                    .unwrap();
                }
                net.set_fault_plan(
                    FaultPlan::new()
                        .duplicate_spike(SimTime::ZERO, SimTime::from_micros(u64::MAX / 2), duplicate)
                        .loss_spike(SimTime::ZERO, SimTime::from_micros(u64::MAX / 2), loss)
                        .reorder_spike(
                            SimTime::ZERO,
                            SimTime::from_micros(u64::MAX / 2),
                            SimDuration::from_micros(reorder),
                        ),
                );
                let mut sent_to_inbox = 0;
                for (seed, step) in (1u64..).zip(&steps) {
                    let mut buf = net.buffer();
                    prop_assert!(buf.is_empty(), "a buffer came out with bytes in it");
                    match *step {
                        Step::Ask { request, reply, nested } => {
                            let reply_seed = seed + 500_000;
                            *expect_server.lock() = (seed, request, reply_seed, reply);
                            *nested_ask.lock() = nested;
                            write(&mut buf, seed, request);
                            if let Ok(got) = net.request(client, server, Protocol::Raw, buf) {
                                prop_assert!(
                                    is(&got, reply_seed, reply),
                                    "step {}: client read {} bytes, not reply {}", seed, got.len(), reply_seed
                                );
                            }
                        }
                        Step::Broadcast { len } => {
                            buf.extend_from_slice(&seed.to_le_bytes());
                            buf.extend_from_slice(&(len as u64).to_le_bytes());
                            write(&mut buf, seed, len);
                            let frame = Frame::new(client, Addr::Broadcast, Protocol::Raw, buf);
                            if net.send(frame).is_ok() {
                                sent_to_inbox += 1;
                            }
                        }
                    }
                    if let Err(e) = spares_in_bounds(&net) {
                        return Err(TestCaseError::fail(e));
                    }
                }
                // Deliver every slipped frame, then read the inbox.
                sim.run_for(SimDuration::from_micros(1_000_000));
                let mut landed = 0;
                while let Some(frame) = net.recv(inbox) {
                    prop_assert!(read_broadcast(&frame.payload), "the inbox holds a broken frame");
                    landed += 1;
                }
                prop_assert!(landed >= sent_to_inbox, "{} of {} broadcasts landed", landed, sent_to_inbox);
                let faults = faults.lock();
                prop_assert!(faults.is_empty(), "{:?}", *faults);
                if let Err(e) = spares_in_bounds(&net) {
                    return Err(TestCaseError::fail(e));
                }
            }
        }
    }
}
