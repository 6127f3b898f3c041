//! Event delivery across middleware — the §4.2 problem and its fixes.
//!
//! The paper's event-based multimedia system failed on the SOAP/HTTP
//! VSG: "HTTP is inherently a client/server protocol, which does not map
//! well to asynchronous notification scenarios." This module provides
//! both delivery strategies so experiment E6 can quantify the claim:
//!
//! * [`PollingBridge`] — all HTTP allows: the interested island
//!   periodically invokes `drain_events` on the source service through
//!   the VSG. Latency ≈ poll period / 2; cost ≈ one SOAP round trip per
//!   period *even when idle*.
//! * [`SipPublisher`] / [`SipSubscriber`] — what the §5 SIP discussion
//!   enables: the source island pushes a NOTIFY the moment the event
//!   happens. Latency ≈ one LAN frame; zero idle cost.
//! * [`SipPublisher::with_batching`] — the multiplexed fan-out: one
//!   published event is marshalled once, queued per peer, and flushed
//!   as shared NOTIFY batch frames under an adaptive (Nagle-with-a-
//!   deadline) policy, amortising the per-frame cost across members.

use crate::batch::BatchPolicy;
use crate::metrics::MetricsRegistry;
use crate::obs::Scope;
use crate::protocol::SipLike;
use crate::trace::{HopKind, Tracer};
use crate::vsg::Vsg;
use parking_lot::Mutex;
use simnet::{Network, NodeId, RepeatHandle, Sim, SimDuration, SimTime};
use soap::Value;
use std::fmt;
use std::sync::Arc;

/// Statistics shared by both bridge kinds, for E6's cost accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BridgeStats {
    /// Poll round-trips or NOTIFY frames sent.
    pub carrier_messages: u64,
    /// Events actually delivered to the handler.
    pub events_delivered: u64,
    /// Events that never reached their subscriber: the NOTIFY was lost
    /// in transport, or a full per-peer queue rejected the event
    /// (backpressure).
    pub events_dropped: u64,
}

/// The HTTP-era strategy: poll the source service through the VSG.
pub struct PollingBridge {
    handle: RepeatHandle,
    stats: Arc<Mutex<BridgeStats>>,
}

impl PollingBridge {
    /// Starts polling `source_service` (which must offer `drain_events`,
    /// e.g. [`crate::iface::catalog::motion_sensor`]) every `period`
    /// through `vsg`, delivering each drained event to `handler`.
    pub fn start(
        vsg: &Vsg,
        source_service: &str,
        period: SimDuration,
        mut handler: impl FnMut(&Sim, &Value) + Send + 'static,
    ) -> PollingBridge {
        let stats = Arc::new(Mutex::new(BridgeStats::default()));
        let stats2 = stats.clone();
        let vsg = vsg.clone();
        let service = source_service.to_owned();
        let sim = vsg.backbone().sim().clone();
        let handle = sim.every(period, move |sim| {
            stats2.lock().carrier_messages += 1;
            // A timer tick is not part of any in-flight framework call,
            // so each poll starts a fresh trace.
            let scope = vsg.root_scope(sim, HopKind::Event, || format!("poll {service}"));
            let result = vsg.invoke(sim, &service, "drain_events", &[]);
            scope.finish(&result);
            if let Ok(Value::List(events)) = result {
                let mut st = stats2.lock();
                st.events_delivered += events.len() as u64;
                drop(st);
                for e in &events {
                    handler(sim, e);
                }
            }
        });
        PollingBridge { handle, stats }
    }

    /// Stops polling.
    pub fn stop(&self) {
        self.handle.cancel();
    }

    /// Messages and deliveries so far.
    pub fn stats(&self) -> BridgeStats {
        *self.stats.lock()
    }
}

impl fmt::Debug for PollingBridge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PollingBridge")
            .field("stats", &self.stats())
            .finish()
    }
}

/// One pre-marshalled event waiting in a peer's queue: the payload
/// bytes were produced once at publish time, never re-encoded at
/// flush; the service tag lets the flush splice consecutive
/// same-service members into shared run groups.
struct QueuedEvent {
    service: String,
    payload: Vec<u8>,
    queued_at: SimTime,
}

/// Per-peer queues of the batched fan-out path (small-N association
/// lists: a home has a handful of gateways, not thousands).
#[derive(Default)]
struct MuxState {
    queues: Vec<(NodeId, Vec<QueuedEvent>)>,
    last_flush: Vec<(NodeId, SimTime)>,
}

impl MuxState {
    fn queue_mut(&mut self, peer: NodeId) -> &mut Vec<QueuedEvent> {
        if let Some(i) = self.queues.iter().position(|(n, _)| *n == peer) {
            &mut self.queues[i].1
        } else {
            self.queues.push((peer, Vec::new()));
            &mut self.queues.last_mut().expect("just pushed").1
        }
    }

    fn last_flush(&self, peer: NodeId) -> Option<SimTime> {
        self.last_flush
            .iter()
            .find(|(n, _)| *n == peer)
            .map(|(_, t)| *t)
    }

    fn note_flush(&mut self, peer: NodeId, now: SimTime) {
        if let Some(i) = self.last_flush.iter().position(|(n, _)| *n == peer) {
            self.last_flush[i].1 = now;
        } else {
            self.last_flush.push((peer, now));
        }
    }

    /// Drains every peer whose oldest queued event has waited at least
    /// `max_delay` — the Nagle deadline.
    fn take_due(
        &mut self,
        now: SimTime,
        max_delay: SimDuration,
    ) -> Vec<(NodeId, Vec<QueuedEvent>)> {
        self.queues
            .iter_mut()
            .filter(|(_, q)| {
                q.first()
                    .is_some_and(|e| now.since(e.queued_at) >= max_delay)
            })
            .map(|(peer, q)| (*peer, std::mem::take(q)))
            .collect()
    }

    fn take_all(&mut self) -> Vec<(NodeId, Vec<QueuedEvent>)> {
        self.queues
            .iter_mut()
            .filter(|(_, q)| !q.is_empty())
            .map(|(peer, q)| (*peer, std::mem::take(q)))
            .collect()
    }
}

/// Everything a flush needs, cloneable into the max-delay timer.
#[derive(Clone)]
struct FlushCtx {
    net: Network,
    node: NodeId,
    proto: SipLike,
    stats: Arc<Mutex<BridgeStats>>,
    tracer: Tracer,
    metrics: Arc<MetricsRegistry>,
}

impl FlushCtx {
    /// Sends one peer's queued events as NOTIFY batch frames, in
    /// publish order: one frame when the whole queue fits the link's
    /// MTU, otherwise consecutive runs, each the longest that fits. A
    /// frame is one carrier message with one transport fate; an event
    /// too large for a frame of its own goes alone and is lost, as its
    /// unbatched NOTIFY would be. Per-event queue wait is recorded at
    /// flush.
    fn flush_peer(&self, peer: NodeId, items: Vec<QueuedEvent>) {
        if items.is_empty() {
            return;
        }
        let sim = self.net.sim();
        let n = items.len() as u64;
        let _scope = Scope::root(sim, &self.tracer, &self.metrics, HopKind::Event, || {
            format!("notify batch of {n}")
        });
        let now = sim.now();
        for q in &items {
            self.metrics
                .record_queue_wait(now.since(q.queued_at).as_micros());
        }
        let members: Vec<(&str, &[u8])> = items
            .iter()
            .map(|q| (q.service.as_str(), q.payload.as_slice()))
            .collect();
        let mut rest = members.as_slice();
        while !rest.is_empty() {
            let fits = |n: usize| {
                let frame = SipLike::notify_batch_len(&rest[..n]);
                self.net.link().fits(frame)
            };
            let take = if fits(rest.len()) {
                rest.len()
            } else {
                (2..rest.len()).take_while(|&n| fits(n)).count() + 1
            };
            let (run, tail) = rest.split_at(take);
            self.stats.lock().carrier_messages += 1;
            let ok = self.proto.notify_batch(&self.net, self.node, peer, run);
            let mut st = self.stats.lock();
            if ok {
                st.events_delivered += take as u64;
            } else {
                st.events_dropped += take as u64;
            }
            rest = tail;
        }
    }
}

/// The SIP-era strategy, source side: pushes events to subscribers the
/// moment they occur.
#[derive(Clone)]
pub struct SipPublisher {
    net: Network,
    node: NodeId,
    proto: SipLike,
    subscribers: Arc<Mutex<Vec<(NodeId, String)>>>,
    stats: Arc<Mutex<BridgeStats>>,
    tracer: Tracer,
    metrics: Arc<MetricsRegistry>,
    policy: BatchPolicy,
    mux: Option<Arc<Mutex<MuxState>>>,
    _timer: Option<Arc<RepeatHandle>>,
}

impl SipPublisher {
    /// Creates a publisher sending from the source gateway's node.
    /// Pushes are recorded as `event` spans only once
    /// [`SipPublisher::with_tracer`] attaches an enabled gateway tracer.
    pub fn new(net: &Network, node: NodeId) -> SipPublisher {
        SipPublisher {
            net: net.clone(),
            node,
            proto: SipLike::new(),
            subscribers: Arc::new(Mutex::new(Vec::new())),
            stats: Arc::new(Mutex::new(BridgeStats::default())),
            tracer: Tracer::new("sip-publisher"),
            metrics: Arc::new(MetricsRegistry::new()),
            policy: BatchPolicy::disabled(),
            mux: None,
            _timer: None,
        }
    }

    /// Attributes pushed NOTIFYs to `tracer` (the source gateway's).
    pub fn with_tracer(mut self, tracer: Tracer) -> SipPublisher {
        self.tracer = tracer;
        self
    }

    /// Switches the publisher onto the multiplexed fan-out: each
    /// publish marshals the event once; per-peer queues coalesce
    /// members into shared NOTIFY batch frames under `policy` (flush
    /// immediately for idle peers, otherwise at
    /// [`BatchPolicy::max_batch`] members or after
    /// [`BatchPolicy::max_delay`], enforced by a repeating timer that
    /// fires under `Sim::run_for`). A full peer queue drops the event
    /// and counts it in [`BridgeStats::events_dropped`].
    pub fn with_batching(mut self, policy: BatchPolicy) -> SipPublisher {
        if !policy.enabled {
            self.policy = policy;
            self.mux = None;
            self._timer = None;
            return self;
        }
        let mux = Arc::new(Mutex::new(MuxState::default()));
        let ctx = self.flush_ctx();
        let mux2 = mux.clone();
        let max_delay = policy.max_delay;
        let timer = self.net.sim().every(max_delay, move |sim| {
            let due = {
                let mut state = mux2.lock();
                let due = state.take_due(sim.now(), max_delay);
                for (peer, _) in &due {
                    state.note_flush(*peer, sim.now());
                }
                due
            };
            for (peer, items) in due {
                ctx.flush_peer(peer, items);
            }
        });
        self.policy = policy;
        self.mux = Some(mux);
        self._timer = Some(Arc::new(timer));
        self
    }

    fn flush_ctx(&self) -> FlushCtx {
        FlushCtx {
            net: self.net.clone(),
            node: self.node,
            proto: self.proto,
            stats: self.stats.clone(),
            tracer: self.tracer.clone(),
            metrics: self.metrics.clone(),
        }
    }

    /// Subscribes a gateway node to events of `service` (`%` = all).
    pub fn subscribe(&self, subscriber: NodeId, service_pattern: &str) {
        self.subscribers
            .lock()
            .push((subscriber, service_pattern.to_owned()));
    }

    /// Removes all subscriptions of `subscriber`.
    pub fn unsubscribe(&self, subscriber: NodeId) {
        self.subscribers.lock().retain(|(n, _)| *n != subscriber);
    }

    /// Pushes one event for `service` to every matching subscriber —
    /// immediately (one NOTIFY each) on an unbatched publisher, through
    /// the per-peer coalescing queues on a batched one.
    pub fn publish(&self, service: &str, event: &Value) {
        let targets: Vec<NodeId> = self
            .subscribers
            .lock()
            .iter()
            .filter(|(_, pat)| pat == "%" || pat == service)
            .map(|(n, _)| *n)
            .collect();
        let sim = self.net.sim();
        let Some(mux) = &self.mux else {
            // The unbatched wire: one NOTIFY per subscriber, inline. An
            // event push originates at the device, outside any
            // in-flight framework call: one fresh-trace span covers the
            // whole fan-out.
            let _scope = Scope::root(sim, &self.tracer, &self.metrics, HopKind::Event, || {
                format!("notify {service}")
            });
            for target in targets {
                self.stats.lock().carrier_messages += 1;
                let ok = self
                    .proto
                    .notify(&self.net, self.node, target, service, event);
                let mut st = self.stats.lock();
                if ok {
                    st.events_delivered += 1;
                } else {
                    st.events_dropped += 1;
                }
            }
            return;
        };
        // Marshal once: every peer's queue takes a copy of the payload
        // bytes, not a re-encoding.
        let payload = SipLike::encode_event_payload(event);
        let ctx = self.flush_ctx();
        for target in targets {
            let flush_now = {
                let mut state = mux.lock();
                let last = state.last_flush(target);
                let q = state.queue_mut(target);
                let idle = q.is_empty()
                    && last.is_none_or(|t| sim.now().since(t) >= self.policy.idle_threshold);
                if idle {
                    // An idle peer pays no coalescing tax: its event
                    // leaves as a batch of one, right now.
                    state.note_flush(target, sim.now());
                    Some(vec![QueuedEvent {
                        service: service.to_owned(),
                        payload: payload.clone(),
                        queued_at: sim.now(),
                    }])
                } else if q.len() >= self.policy.max_queue {
                    // Backpressure: drop loudly rather than queue
                    // without bound.
                    self.stats.lock().events_dropped += 1;
                    None
                } else {
                    q.push(QueuedEvent {
                        service: service.to_owned(),
                        payload: payload.clone(),
                        queued_at: sim.now(),
                    });
                    if q.len() >= self.policy.max_batch {
                        let items = std::mem::take(q);
                        state.note_flush(target, sim.now());
                        Some(items)
                    } else {
                        None
                    }
                }
            };
            if let Some(items) = flush_now {
                ctx.flush_peer(target, items);
            }
        }
    }

    /// Flushes every queued event now (a no-op on an unbatched
    /// publisher). The max-delay timer does this automatically while
    /// the sim runs; explicit flush serves callers driving virtual time
    /// by hand.
    pub fn flush(&self) {
        let Some(mux) = &self.mux else {
            return;
        };
        let sim = self.net.sim();
        let all = {
            let mut state = mux.lock();
            let all = state.take_all();
            for (peer, _) in &all {
                state.note_flush(*peer, sim.now());
            }
            all
        };
        let ctx = self.flush_ctx();
        for (peer, items) in all {
            ctx.flush_peer(peer, items);
        }
    }

    /// The publisher's own metrics registry; its queue-wait histogram
    /// records how long each batched event sat queued before its flush.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Messages and deliveries so far.
    pub fn stats(&self) -> BridgeStats {
        *self.stats.lock()
    }
}

impl fmt::Debug for SipPublisher {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SipPublisher")
            .field("subscribers", &self.subscribers.lock().len())
            .field("stats", &self.stats())
            .finish()
    }
}

/// The SIP-era strategy, sink side: installs the NOTIFY receiver on a
/// gateway node.
pub struct SipSubscriber {
    received: Arc<Mutex<u64>>,
}

impl SipSubscriber {
    /// Installs the receiver on `node` (a gateway endpoint); `handler`
    /// gets `(service, event)` the instant a NOTIFY lands.
    pub fn install(
        net: &Network,
        node: NodeId,
        mut handler: impl FnMut(&Sim, &str, &Value) + Send + 'static,
    ) -> SipSubscriber {
        let received = Arc::new(Mutex::new(0u64));
        let received2 = received.clone();
        SipLike::new().install_push_handler(net, node, move |sim, service, event| {
            *received2.lock() += 1;
            handler(sim, service, event);
        });
        SipSubscriber { received }
    }

    /// Events received so far.
    pub fn received(&self) -> u64 {
        *self.received.lock()
    }
}

impl fmt::Debug for SipSubscriber {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SipSubscriber")
            .field("received", &self.received())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iface::catalog;
    use crate::protocol::{Soap11, VsgProtocol};
    use crate::service::{Middleware, VirtualService};
    use crate::vsr::Vsr;
    use std::collections::VecDeque;

    /// A VSG hosting a pollable event source backed by a queue we can
    /// fill from the test.
    fn polling_world() -> (Sim, Vsg, Arc<Mutex<VecDeque<Value>>>) {
        let sim = Sim::new(1);
        let net = Network::ethernet(&sim);
        let vsr = Vsr::start(&net);
        let vsg = Vsg::start(&net, "src-gw", Arc::new(Soap11::new()), vsr.node()).unwrap();
        let queue: Arc<Mutex<VecDeque<Value>>> = Arc::new(Mutex::new(VecDeque::new()));
        let queue2 = queue.clone();
        vsg.export(
            VirtualService::new(
                "hall-motion",
                catalog::motion_sensor(),
                Middleware::X10,
                "src-gw",
            ),
            move |_: &Sim, op: &str, _: &[(String, Value)]| match op {
                "state" => Ok(Value::Bool(!queue2.lock().is_empty())),
                "drain_events" => Ok(Value::List(queue2.lock().drain(..).collect())),
                _ => Ok(Value::Null),
            },
        )
        .unwrap();
        (sim, vsg, queue)
    }

    #[test]
    fn polling_bridge_delivers_with_period_bounded_latency() {
        let (sim, vsg, queue) = polling_world();
        let delivered: Arc<Mutex<Vec<(u64, Value)>>> = Arc::new(Mutex::new(Vec::new()));
        let delivered2 = delivered.clone();
        let bridge = PollingBridge::start(
            &vsg,
            "hall-motion",
            SimDuration::from_secs(2),
            move |sim, e| delivered2.lock().push((sim.now().as_micros(), e.clone())),
        );

        // Event occurs at t=3s; the 2s-period poller sees it at t≈4s.
        sim.run_for(SimDuration::from_secs(3));
        queue.lock().push_back(Value::Bool(true));
        let event_at = sim.now();
        sim.run_for(SimDuration::from_secs(3));

        let delivered = delivered.lock();
        assert_eq!(delivered.len(), 1);
        let latency_us = delivered[0].0 - event_at.as_micros();
        assert!(
            (500_000..2_500_000).contains(&latency_us),
            "latency {latency_us}us should be bounded by the poll period"
        );
        // Idle polls happened too: ~3 carrier messages for 1 event.
        let stats = bridge.stats();
        assert!(stats.carrier_messages >= 2);
        assert_eq!(stats.events_delivered, 1);
        bridge.stop();
    }

    #[test]
    fn stopped_bridge_stops_polling() {
        let (sim, vsg, _queue) = polling_world();
        let bridge =
            PollingBridge::start(&vsg, "hall-motion", SimDuration::from_secs(1), |_, _| {});
        sim.run_for(SimDuration::from_secs(3));
        let before = bridge.stats().carrier_messages;
        bridge.stop();
        sim.run_for(SimDuration::from_secs(5));
        assert_eq!(bridge.stats().carrier_messages, before);
    }

    #[test]
    fn sip_push_is_immediate_and_filtered() {
        let sim = Sim::new(1);
        let net = Network::ethernet(&sim);
        let source = net.attach("src-gw");
        // Two sink gateways with different interests.
        let proto = SipLike::new();
        let sink_a = proto.bind(&net, "gw-a", Arc::new(|_, _| Ok(Value::Null)));
        let sink_b = proto.bind(&net, "gw-b", Arc::new(|_, _| Ok(Value::Null)));

        let got_a: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let got_a2 = got_a.clone();
        let sub_a = SipSubscriber::install(&net, sink_a, move |_, svc, _| {
            got_a2.lock().push(svc.to_owned());
        });
        let got_b: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let got_b2 = got_b.clone();
        let _sub_b = SipSubscriber::install(&net, sink_b, move |_, svc, _| {
            got_b2.lock().push(svc.to_owned());
        });

        let publisher = SipPublisher::new(&net, source);
        publisher.subscribe(sink_a, "%");
        publisher.subscribe(sink_b, "door-motion");

        let before = sim.now();
        publisher.publish("hall-motion", &Value::Bool(true));
        let latency = sim.now() - before;
        assert!(latency < SimDuration::from_millis(1), "push took {latency}");

        publisher.publish("door-motion", &Value::Bool(true));
        assert_eq!(
            *got_a.lock(),
            vec!["hall-motion".to_owned(), "door-motion".to_owned()]
        );
        assert_eq!(*got_b.lock(), vec!["door-motion".to_owned()]);
        assert_eq!(sub_a.received(), 2);

        publisher.unsubscribe(sink_a);
        publisher.publish("hall-motion", &Value::Bool(false));
        assert_eq!(sub_a.received(), 2);
        assert_eq!(publisher.stats().carrier_messages, 3);
    }

    /// Two subscribing sink gateways with handlers that record
    /// `(service, event)` per delivery, plus the publisher's network.
    #[allow(clippy::type_complexity)]
    fn fanout_world() -> (
        Sim,
        Network,
        NodeId,
        (NodeId, Arc<Mutex<Vec<(String, Value)>>>),
        (NodeId, Arc<Mutex<Vec<(String, Value)>>>),
    ) {
        let sim = Sim::new(1);
        let net = Network::ethernet(&sim);
        let source = net.attach("src-gw");
        let proto = SipLike::new();
        let mut sinks = Vec::new();
        for name in ["gw-a", "gw-b"] {
            let node = proto.bind(&net, name, Arc::new(|_, _| Ok(Value::Null)));
            let got: Arc<Mutex<Vec<(String, Value)>>> = Arc::new(Mutex::new(Vec::new()));
            let got2 = got.clone();
            // The handler stays installed on the network; the
            // subscriber guard only carries a counter.
            let _sub = SipSubscriber::install(&net, node, move |_, svc, e| {
                got2.lock().push((svc.to_owned(), e.clone()));
            });
            sinks.push((node, got));
        }
        let b = sinks.pop().unwrap();
        let a = sinks.pop().unwrap();
        (sim, net, source, a, b)
    }

    #[test]
    fn batched_publisher_coalesces_the_fanout() {
        let (_sim, net, source, (sink_a, got_a), (sink_b, got_b)) = fanout_world();
        let publisher = SipPublisher::new(&net, source).with_batching(BatchPolicy::default());
        publisher.subscribe(sink_a, "%");
        publisher.subscribe(sink_b, "%");

        // Eight events back-to-back: the first finds both peers idle
        // and leaves immediately; the other seven coalesce per peer.
        for i in 0..8 {
            publisher.publish("hall-motion", &Value::Int(i));
        }
        publisher.flush();

        let stats = publisher.stats();
        assert_eq!(stats.events_delivered, 16);
        assert_eq!(stats.events_dropped, 0);
        assert_eq!(
            stats.carrier_messages, 4,
            "2 idle singles + 2 batch frames, not 16 NOTIFYs"
        );
        // Every event arrived, in publish order, on both sinks.
        let want: Vec<(String, Value)> = (0..8)
            .map(|i| ("hall-motion".to_owned(), Value::Int(i)))
            .collect();
        assert_eq!(*got_a.lock(), want);
        assert_eq!(*got_b.lock(), want);
        // Each delivered event recorded its queue wait.
        assert_eq!(publisher.metrics().snapshot().queue_wait.count, 16);
    }

    #[test]
    fn batched_publisher_deadline_timer_flushes_stragglers() {
        let (sim, net, source, (sink_a, got_a), _b) = fanout_world();
        let publisher = SipPublisher::new(&net, source).with_batching(BatchPolicy::default());
        publisher.subscribe(sink_a, "%");
        for i in 0..3 {
            publisher.publish("hall-motion", &Value::Int(i));
        }
        // No explicit flush: the max-delay timer drains the queue as
        // virtual time passes.
        sim.run_for(SimDuration::from_millis(10));
        assert_eq!(publisher.stats().events_delivered, 3);
        assert_eq!(got_a.lock().len(), 3);
        // And the straggler wait is bounded by the Nagle deadline plus
        // one timer period.
        let snap = publisher.metrics().snapshot();
        let mean = snap.queue_wait.mean_us();
        assert!(mean < 5_000.0, "mean queue wait {mean}us");
    }

    #[test]
    fn batched_publisher_drops_loudly_when_a_peer_queue_fills() {
        let (_sim, net, source, (sink_a, _got_a), _b) = fanout_world();
        let publisher = SipPublisher::new(&net, source).with_batching(BatchPolicy {
            max_batch: 64,
            max_queue: 2,
            ..BatchPolicy::default()
        });
        publisher.subscribe(sink_a, "%");
        for i in 0..5 {
            publisher.publish("hall-motion", &Value::Int(i));
        }
        // 1 idle single + 2 queued; events 3 and 4 hit the bound.
        assert_eq!(publisher.stats().events_dropped, 2);
        publisher.flush();
        assert_eq!(publisher.stats().events_delivered, 3);
    }

    /// Publishes `events` for one service through a default-policy
    /// batched publisher to one Ethernet subscriber, then flushes.
    /// Returns the size of every NOTIFY frame that reached the
    /// subscriber, the events it delivered in order, and the
    /// publisher's statistics.
    fn publish_to_one_sink(events: &[Value]) -> (Vec<usize>, Vec<Value>, BridgeStats) {
        let sim = Sim::new(1);
        let net = Network::ethernet(&sim);
        let source = net.attach("src-gw");
        // No frame handler yet: frames wait in the sink's inbox, where
        // they can be measured before they are delivered.
        let sink = net.attach("sink-gw");
        let publisher = SipPublisher::new(&net, source).with_batching(BatchPolicy::default());
        publisher.subscribe(sink, "%");
        for e in events {
            publisher.publish("cam", e);
        }
        publisher.flush();
        let frames: Vec<simnet::Frame> = std::iter::from_fn(|| net.recv(sink)).collect();
        let got = Arc::new(Mutex::new(Vec::new()));
        let got2 = got.clone();
        let _sub = SipSubscriber::install(&net, sink, move |_, _, e| got2.lock().push(e.clone()));
        let sizes = frames.iter().map(simnet::Frame::len).collect();
        for frame in frames {
            net.inject(frame).unwrap();
        }
        let got = got.lock().clone();
        (sizes, got, publisher.stats())
    }

    #[test]
    fn batched_flush_splits_a_queue_over_the_mtu_into_fitting_frames() {
        // The first event finds the peer idle and leaves alone; the
        // next sixteen fill a ~3.3 KB queue, over Ethernet's 1 500 B.
        let events: Vec<Value> = (0..17).map(|i| Value::Str(format!("{i:0>200}"))).collect();
        let (sizes, got, stats) = publish_to_one_sink(&events);
        assert_eq!(got, events, "every event arrives, in publish order");
        assert_eq!(stats.events_delivered, 17);
        assert_eq!(stats.events_dropped, 0);
        assert!(sizes.iter().all(|&n| n <= 1_500), "frame sizes {sizes:?}");
        assert_eq!(sizes.len(), 4, "one single, then runs of 7, 7 and 2");
        assert_eq!(stats.carrier_messages, 4);

        // One event too large for any frame is lost alone.
        let mut with_giant = events.clone();
        with_giant.insert(9, Value::Str("x".repeat(2_000)));
        let (sizes, got, stats) = publish_to_one_sink(&with_giant);
        assert_eq!(got, events);
        assert_eq!(stats.events_delivered, 17);
        assert_eq!(stats.events_dropped, 1);
        assert!(sizes.iter().all(|&n| n <= 1_500), "frame sizes {sizes:?}");
    }

    #[test]
    fn unbatched_publish_counts_undeliverable_events() {
        let (sim, net, source, (sink_a, _got_a), _b) = fanout_world();
        let publisher = SipPublisher::new(&net, source);
        publisher.subscribe(sink_a, "%");
        publisher.publish("hall-motion", &Value::Bool(true));
        let t = sim.now();
        net.set_fault_plan(simnet::FaultPlan::new().node_down(
            sink_a,
            t,
            t + SimDuration::from_secs(1),
        ));
        publisher.publish("hall-motion", &Value::Bool(false));
        let stats = publisher.stats();
        assert_eq!(stats.carrier_messages, 2);
        assert_eq!(stats.events_delivered, 1);
        assert_eq!(
            stats.events_dropped, 1,
            "a lost NOTIFY must be counted, not silently forgotten"
        );
    }
}
