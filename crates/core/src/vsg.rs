//! The Virtual Service Gateway.
//!
//! §3.1: each middleware island runs a VSG "which connects middleware to
//! another middleware using certain protocol". PCMs register their
//! island's services here (via Client Proxies); invocations addressed to
//! other islands travel gateway-to-gateway over the pluggable
//! [`VsgProtocol`].

use crate::batch::{BatchItem, BatchPolicy, EVENT_ARG, EVENT_OP};
use crate::compose::{self, CompositeSpec};
use crate::error::MetaError;
use crate::metrics::{CacheStats, MetricsRegistry, MetricsSnapshot};
use crate::obs::Scope;
use crate::protocol::{VsgProtocol, VsgRequest};
use crate::rescache::{Lookup, ResolutionCache};
use crate::resilience::{BreakerBank, BreakerState, ResiliencePolicy};
use crate::service::{ServiceInvoker, VirtualService};
use crate::trace::{HopKind, Tracer};
use crate::vsr::{ServiceRecord, VsrClient};
use parking_lot::Mutex;
use simnet::{Network, NodeId, Sim, SimDuration, SimTime};
use soap::Value;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

struct LocalEntry {
    service: VirtualService,
    invoker: Arc<Mutex<Box<dyn ServiceInvoker>>>,
    /// Composite entries dispatch under `try_lock`: re-entering one
    /// mid-execution means a pipeline cycled back into itself (the
    /// home's gateways share one single-threaded island, so a held
    /// lock here can only be our own call stack) — a typed error
    /// beats the deadlock.
    composite: bool,
}

/// Receives the event notifications addressed to this gateway's
/// services, from local batch members and from the wire alike.
type EventSink = Box<dyn FnMut(&Sim, &str, &Value) + Send>;

/// How a route was learned. It decides what a call's answer teaches
/// the cache (see [`Vsg::learn`]).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Learned {
    /// From a live cache entry.
    Cache,
    /// The record from the VSR just now, its gateway's node remembered.
    Memo,
    /// Record and node both from the VSR just now: a fresh route.
    Vsr,
    /// From a stale entry while the VSR is unreachable.
    Stale,
}

/// Where a service lives: its record, its gateway's backbone node, and
/// how this gateway learned that.
struct Route {
    record: Arc<ServiceRecord>,
    gw_node: NodeId,
    learned: Learned,
}

/// One round of a batch's remote members. Each service is routed once
/// per round; members queue per peer gateway.
#[derive(Default)]
struct BatchRound<'a> {
    /// Whether routes may come from the caches: in the first round only.
    use_cache: bool,
    /// Each service routed so far, with its route.
    routes: Vec<(&'a str, Route)>,
    peers: Vec<PeerQueue>,
}

/// Members bound for one remote gateway, queued in submission order
/// (kept as parallel vectors so a chunk of requests can be borrowed
/// mutably for the wire without cloning).
struct PeerQueue {
    gw_node: NodeId,
    /// Each member's item index and its route's index in the round.
    members: Vec<(usize, usize)>,
    reqs: Vec<VsgRequest>,
}

struct VsgInner {
    name: String,
    backbone: Network,
    node: NodeId,
    protocol: Arc<dyn VsgProtocol>,
    local: Arc<Mutex<HashMap<String, LocalEntry>>>,
    vsr: VsrClient,
    rescache: Mutex<ResolutionCache>,
    tracer: Tracer,
    metrics: Arc<MetricsRegistry>,
    resilience: Mutex<ResiliencePolicy>,
    /// One breaker per remote gateway, keyed by its backbone node.
    breakers: BreakerBank,
    batching: Mutex<BatchPolicy>,
    event_sink: Arc<Mutex<Option<EventSink>>>,
}

/// A running gateway.
#[derive(Clone)]
pub struct Vsg {
    inner: Arc<VsgInner>,
}

impl Vsg {
    /// Starts a gateway named `name` on the backbone, speaking
    /// `protocol`, registered with the VSR at `vsr_node`.
    pub fn start(
        backbone: &Network,
        name: &str,
        protocol: Arc<dyn VsgProtocol>,
        vsr_node: NodeId,
    ) -> Result<Vsg, MetaError> {
        let local: Arc<Mutex<HashMap<String, LocalEntry>>> = Arc::new(Mutex::new(HashMap::new()));
        let local2 = local.clone();
        let tracer = Tracer::new(name);
        let tracer2 = tracer.clone();
        // The sink must exist before `bind`: the serve closure captures
        // it, and a batched event can arrive the moment the endpoint is
        // reachable.
        let event_sink: Arc<Mutex<Option<EventSink>>> = Arc::new(Mutex::new(None));
        let sink2 = event_sink.clone();
        let metrics = Arc::new(MetricsRegistry::new());
        let metrics2 = metrics.clone();
        let node = protocol.bind(
            backbone,
            name,
            Arc::new(move |sim: &Sim, req: &VsgRequest| {
                serve_remote(&local2, &tracer2, &sink2, &metrics2, sim, req)
            }),
        );
        let vsr = VsrClient::new(backbone, node, vsr_node)
            .with_tracer(tracer.clone())
            .with_metrics(metrics.clone());
        vsr.register_gateway(name, node)?;
        let resilience = ResiliencePolicy::default();
        Ok(Vsg {
            inner: Arc::new(VsgInner {
                name: name.to_owned(),
                backbone: backbone.clone(),
                node,
                protocol,
                local,
                vsr,
                rescache: Mutex::new(ResolutionCache::default()),
                tracer,
                metrics,
                breakers: BreakerBank::new(
                    resilience.breaker_threshold,
                    resilience.breaker_open_window,
                ),
                resilience: Mutex::new(resilience),
                batching: Mutex::new(BatchPolicy::default()),
                event_sink,
            }),
        })
    }

    /// The gateway's name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// The gateway's backbone node.
    pub fn node(&self) -> NodeId {
        self.inner.node
    }

    /// The protocol this gateway speaks.
    pub fn protocol(&self) -> &Arc<dyn VsgProtocol> {
        &self.inner.protocol
    }

    /// This gateway's VSR client.
    pub fn vsr(&self) -> &VsrClient {
        &self.inner.vsr
    }

    /// The backbone network.
    pub fn backbone(&self) -> &Network {
        &self.inner.backbone
    }

    // ---- service registration (the Client Proxy side of a PCM) ---------

    /// Exports a local service: installs its invoker and publishes it in
    /// the VSR. Replaces any previous export under the same name.
    pub fn export(
        &self,
        service: VirtualService,
        invoker: impl ServiceInvoker + 'static,
    ) -> Result<(), MetaError> {
        debug_assert_eq!(
            service.gateway, self.inner.name,
            "service fronted by this gateway"
        );
        self.inner.vsr.publish(&service)?;
        // A re-export may change the interface or (on another gateway's
        // behalf) supersede a record this gateway cached — drop it.
        self.inner.rescache.lock().invalidate(&service.name);
        self.inner.local.lock().insert(
            service.name.clone(),
            LocalEntry {
                service,
                invoker: Arc::new(Mutex::new(Box::new(invoker))),
                composite: false,
            },
        );
        Ok(())
    }

    /// Registers a composite pipeline as a first-class service of this
    /// gateway: validates the spec, publishes a VSR record of origin
    /// [`crate::service::Middleware::Composite`] whose service contexts carry the
    /// encoded spec, and installs an invoker that runs the pipeline
    /// through [`crate::compose::execute`] *on this gateway* — a
    /// client anywhere in the home pays one round trip here and the
    /// steps fan out over this gateway's resilient wire.
    pub fn register_composite(&self, spec: CompositeSpec) -> Result<(), MetaError> {
        spec.validate()?;
        let service = VirtualService::new(
            &spec.name,
            spec.interface(),
            crate::service::Middleware::Composite,
            &self.inner.name,
        )
        .context(compose::COMPOSITE_SPEC_CONTEXT, spec.to_xml());
        self.inner.vsr.publish(&service)?;
        self.inner.rescache.lock().invalidate(&spec.name);
        let name = spec.name.clone();
        let weak = Arc::downgrade(&self.inner);
        let spec = Arc::new(spec);
        let invoker = move |sim: &Sim, _op: &str, args: &[(String, Value)]| {
            let Some(inner) = weak.upgrade() else {
                return Err(MetaError::GatewayUnreachable(spec.name.clone()));
            };
            compose::execute(&Vsg { inner }, &spec, sim, args).0
        };
        self.inner.local.lock().insert(
            name,
            LocalEntry {
                service,
                invoker: Arc::new(Mutex::new(Box::new(invoker))),
                composite: true,
            },
        );
        Ok(())
    }

    /// Withdraws a local service from the gateway and the VSR.
    pub fn withdraw(&self, name: &str) -> Result<bool, MetaError> {
        let existed = self.inner.local.lock().remove(name).is_some();
        let _ = self.inner.vsr.unpublish(name)?;
        self.inner.rescache.lock().invalidate(name);
        Ok(existed)
    }

    /// Names of locally exported services.
    #[cfg(test)]
    fn local_services(&self) -> Vec<String> {
        let mut v: Vec<String> = self.inner.local.lock().keys().cloned().collect();
        v.sort();
        v
    }

    /// The interface of a locally exported service.
    pub fn local_interface(&self, name: &str) -> Option<crate::iface::ServiceInterface> {
        self.inner
            .local
            .lock()
            .get(name)
            .map(|e| e.service.interface.clone())
    }

    // ---- invocation (what Server Proxies call) ---------------------------

    /// Invokes `operation` on `service`, wherever it lives: locally if
    /// this gateway fronts it, otherwise via VSR resolution and a
    /// gateway-to-gateway protocol call.
    pub fn invoke(
        &self,
        sim: &Sim,
        service: &str,
        operation: &str,
        args: &[(String, Value)],
    ) -> Result<Value, MetaError> {
        self.invoke_inner(sim, service, operation, args, None)
    }

    /// [`Vsg::invoke`] under a caller-supplied resilience policy
    /// instead of this gateway's configured one. The composition
    /// engine uses this to give each pipeline step a deadline carved
    /// from the composite's budget; any caller with a per-call budget
    /// can too. Retry/breaker semantics are otherwise identical.
    pub fn invoke_with_policy(
        &self,
        sim: &Sim,
        service: &str,
        operation: &str,
        args: &[(String, Value)],
        policy: &ResiliencePolicy,
    ) -> Result<Value, MetaError> {
        self.invoke_inner(sim, service, operation, args, Some(policy))
    }

    fn invoke_inner(
        &self,
        sim: &Sim,
        service: &str,
        operation: &str,
        args: &[(String, Value)],
        policy: Option<&ResiliencePolicy>,
    ) -> Result<Value, MetaError> {
        let scope = self.scope(sim, HopKind::ClientProxy, || {
            format!("{service}.{operation}")
        });
        let result = if self.is_local(service) {
            dispatch_local(
                &self.inner.local,
                &self.inner.tracer,
                &self.inner.metrics,
                sim,
                service,
                operation,
                args,
            )
        } else {
            let mut req = VsgRequest::new(service, operation);
            req.args = args.to_vec();
            self.invoke_remote(sim, req, policy)
        };
        scope.finish_invocation(service, &result);
        result
    }

    fn is_local(&self, service: &str) -> bool {
        self.inner.local.lock().contains_key(service)
    }

    // ---- batched invocation (the multiplexed wire) -----------------------

    /// Replaces this gateway's batching policy (defaults to
    /// [`BatchPolicy::default`], i.e. enabled).
    pub fn set_batching(&self, policy: BatchPolicy) {
        *self.inner.batching.lock() = policy;
    }

    /// A copy of the current batching policy.
    pub fn batching(&self) -> BatchPolicy {
        self.inner.batching.lock().clone()
    }

    /// Installs the receiver for the event notifications batches send
    /// to this gateway's services, from local callers or over the wire;
    /// `handler` gets `(service, event)` per delivered member. Replaces
    /// any previous sink.
    pub fn set_event_sink(&self, handler: impl FnMut(&Sim, &str, &Value) + Send + 'static) {
        *self.inner.event_sink.lock() = Some(Box::new(handler));
    }

    /// Invokes a batch of work and returns one result per item, in item
    /// order. Every member routes, recovers from a stale route and
    /// degrades while the VSR is down exactly as [`Vsg::invoke`] does.
    ///
    /// With batching enabled, local members dispatch in place and remote
    /// ones queue per peer gateway, in submission order, for frames of at
    /// most [`BatchPolicy::max_batch`] members (0 counts as 1). A frame's
    /// transport failure answers every member aboard; a lost frame with
    /// a non-idempotent member is never re-sent. Past
    /// [`BatchPolicy::max_queue`] members per peer, the rest get
    /// [`MetaError::Overloaded`]; no flush timer applies. With batching
    /// disabled, a call item is [`Vsg::invoke`] and a remote event item
    /// the same call carrying the reserved event operation.
    pub fn invoke_batch(&self, sim: &Sim, items: &[BatchItem]) -> Vec<Result<Value, MetaError>> {
        let policy = self.inner.batching.lock().clone();
        if !policy.enabled {
            return items
                .iter()
                .map(|item| match item {
                    BatchItem::Call(call) => {
                        self.invoke(sim, &call.service, &call.operation, &call.args)
                    }
                    BatchItem::Event { service, event } if self.is_local(service) => {
                        deliver_event(&self.inner.event_sink, sim, service, event)
                    }
                    BatchItem::Event { .. } => self.invoke_remote(sim, item_request(item), None),
                })
                .collect();
        }
        let started = sim.now();
        let resilience = self.resilience();
        let _root = self.scope(sim, HopKind::ClientProxy, || {
            format!("batch[{}]", items.len())
        });
        let mut results: Vec<Option<Result<Value, MetaError>>> =
            (0..items.len()).map(|_| None).collect();
        // Round one leaves unanswered only members whose route proved
        // stale, cached or with a remembered node: they did not
        // execute, so round two may re-send them, and routing past both
        // caches, it answers every one.
        for use_cache in [true, false] {
            let mut round = BatchRound {
                use_cache,
                ..BatchRound::default()
            };
            for (i, item) in items.iter().enumerate() {
                if results[i].is_some() {
                    continue;
                }
                let answer = match item {
                    BatchItem::Call(call) if self.is_local(&call.service) => dispatch_local(
                        &self.inner.local,
                        &self.inner.tracer,
                        &self.inner.metrics,
                        sim,
                        &call.service,
                        &call.operation,
                        &call.args,
                    ),
                    BatchItem::Event { service, event } if self.is_local(service) => {
                        deliver_event(&self.inner.event_sink, sim, service, event)
                    }
                    _ => match self.enqueue(sim, &mut round, i, item, &resilience, &policy) {
                        Ok(()) => continue,
                        Err(e) => Err(e),
                    },
                };
                results[i] = Some(self.record_member(sim, item_service(item), started, answer));
            }
            self.flush(sim, round, &policy, started, &resilience, &mut results);
        }
        results
            .into_iter()
            .map(|r| r.expect("the second round answers every member"))
            .collect()
    }

    /// Routes remote batch member `i` and queues it for its peer
    /// gateway. A service routed earlier in the round keeps its route.
    fn enqueue<'a>(
        &self,
        sim: &Sim,
        round: &mut BatchRound<'a>,
        i: usize,
        item: &'a BatchItem,
        resilience: &ResiliencePolicy,
        policy: &BatchPolicy,
    ) -> Result<(), MetaError> {
        let service = item_service(item);
        let r = match round.routes.iter().position(|(s, _)| *s == service) {
            Some(r) => r,
            None => {
                let route = self.route(sim, service, resilience, round.use_cache)?;
                round.routes.push((service, route));
                round.routes.len() - 1
            }
        };
        let route = &round.routes[r].1;
        let p = match round.peers.iter().position(|p| p.gw_node == route.gw_node) {
            Some(p) => p,
            None => {
                round.peers.push(PeerQueue {
                    gw_node: route.gw_node,
                    members: Vec::new(),
                    reqs: Vec::new(),
                });
                round.peers.len() - 1
            }
        };
        let peer = &mut round.peers[p];
        if peer.reqs.len() >= policy.max_queue {
            return Err(MetaError::Overloaded {
                gateway: route.record.gateway.to_string(),
                queued: peer.reqs.len() as u64,
            });
        }
        peer.members.push((i, r));
        peer.reqs.push(item_request(item));
        Ok(())
    }

    /// Sends each peer's queued members in frames of at most
    /// [`BatchPolicy::max_batch`] (0 counts as 1) and teaches the route
    /// cache from every member's answer. A member whose route proved
    /// stale ([`Vsg::learn`]) is left unanswered in `results`.
    fn flush(
        &self,
        sim: &Sim,
        round: BatchRound<'_>,
        policy: &BatchPolicy,
        started: SimTime,
        resilience: &ResiliencePolicy,
        results: &mut [Option<Result<Value, MetaError>>],
    ) {
        let chunk = policy.max_batch.max(1);
        for mut peer in round.peers {
            let n = peer.reqs.len();
            for start in (0..n).step_by(chunk) {
                let end = (start + chunk).min(n);
                // Everything queued behind earlier frames to this (or
                // another) peer waited from submission until now — the
                // coalescing delay the queue-wait histogram exposes.
                let wait_us = sim.now().since(started).as_micros();
                for _ in start..end {
                    self.inner.metrics.record_queue_wait(wait_us);
                }
                let route = |k: usize| &round.routes[peer.members[k].1].1;
                // An ambiguous frame loss is re-sent only when *every*
                // member is idempotent: the remote may have executed all
                // of them.
                let all_idempotent = (start..end)
                    .all(|k| op_is_idempotent(&route(k).record, &peer.reqs[k].operation));
                let (answers, opened) = self.resilient_wire_call(
                    sim,
                    route(start),
                    &mut peer.reqs[start..end],
                    true,
                    all_idempotent,
                    started,
                    resilience,
                    |reqs| self.wire_batch_call(sim, route(start), reqs),
                );
                let moved = opened && self.gateway_moved(route(start));
                let answers = match answers {
                    // Every protocol answers a frame member for member.
                    Ok(answers) => answers,
                    Err(e) => vec![Err(e); end - start],
                };
                for (k, answer) in (start..end).zip(answers) {
                    let (i, service) = (peer.members[k].0, &peer.reqs[k].service);
                    if !self.learn(service, route(k), &answer, moved) {
                        results[i] = Some(self.record_member(sim, service, started, answer));
                    }
                }
            }
        }
    }

    /// Records one batch member's answer in the invocation metrics,
    /// mirroring what [`Vsg::invoke`] records per call, and returns it.
    fn record_member(
        &self,
        sim: &Sim,
        service: &str,
        started: SimTime,
        answer: Result<Value, MetaError>,
    ) -> Result<Value, MetaError> {
        let kind = answer.as_ref().err().map(MetaError::kind);
        let elapsed_us = (sim.now() - started).as_micros();
        self.inner.metrics.record(service, elapsed_us, kind);
        answer
    }

    /// Finds `service`'s route: a live cache entry when `use_cache`,
    /// else the VSR's record, its gateway's node remembered (when
    /// `use_cache`) or looked up; else — the VSR unreachable and
    /// `policy` allowing degraded reads — a stale entry. A definitive
    /// "unknown" is cached negatively; a looked-up node is remembered
    /// at once, a record only once answered ([`Vsg::learn`]).
    fn route(
        &self,
        sim: &Sim,
        service: &str,
        policy: &ResiliencePolicy,
        use_cache: bool,
    ) -> Result<Route, MetaError> {
        // A warm entry carries the full record and the serving gateway's
        // node — zero VSR round trips.
        let looked_up = if use_cache {
            self.inner.rescache.lock().lookup(service)
        } else {
            Lookup::Miss
        };
        let label = looked_up.label();
        if !matches!(looked_up, Lookup::Miss) {
            self.inner
                .tracer
                .note(sim, HopKind::CacheHit, || format!("{label} {service}"));
        }
        let (record, gw_node, learned) = match looked_up {
            Lookup::Hit(record, gw_node) => (record, gw_node, Learned::Cache),
            Lookup::NegativeHit => return Err(MetaError::UnknownService(service.to_owned())),
            Lookup::Miss => match self.inner.vsr.resolve(service) {
                Ok(record) => {
                    let (gw_node, learned) = self.gateway_node(&record.gateway, use_cache)?;
                    (Arc::new(record), gw_node, learned)
                }
                Err(MetaError::UnknownService(name)) => {
                    // Definitive answer from the repository — cacheable.
                    self.inner.rescache.lock().insert_negative(service);
                    return Err(MetaError::UnknownService(name));
                }
                // The VSR itself is unreachable. Degraded mode: a stale
                // (previously invalidated) route beats failing the call
                // — §3.1's backbone still works when discovery is down.
                Err(e) if e.is_transport_failure() => {
                    let (record, gw_node) = policy
                        .degraded_reads
                        .then(|| self.inner.rescache.lock().stale_lookup(service))
                        .flatten()
                        .ok_or(e)?;
                    self.inner.metrics.record_degraded_serve();
                    self.inner.tracer.note(sim, HopKind::Resilience, || {
                        format!(
                            "degraded: VSR down, stale route for {service} via {}",
                            record.gateway
                        )
                    });
                    (record, gw_node, Learned::Stale)
                }
                Err(e) => return Err(e),
            },
        };
        Ok(Route {
            record,
            gw_node,
            learned,
        })
    }

    /// `gateway`'s backbone node: remembered when `use_cache` and
    /// known, else looked up in the VSR and remembered.
    fn gateway_node(&self, gateway: &str, use_cache: bool) -> Result<(NodeId, Learned), MetaError> {
        let remembered = use_cache
            .then(|| self.inner.rescache.lock().gateway_node(gateway))
            .flatten();
        if let Some(node) = remembered {
            return Ok((node, Learned::Memo));
        }
        let node = self
            .inner
            .vsr
            .gateway_node(gateway)
            .map_err(|_| MetaError::GatewayUnreachable(gateway.to_owned()))?;
        self.inner.rescache.lock().insert_gateway(gateway, node);
        Ok((node, Learned::Vsr))
    }

    /// What `answer`, a call's answer over `route`, teaches the cache —
    /// one rule for calls, batch members and events. A retry-safe error
    /// proves a route wrong (and that the call did not execute), and so
    /// does a `moved` gateway ([`Vsg::gateway_moved`]). A wrong route's
    /// entry is invalidated and its gateway's node forgotten. Any other
    /// answer proves the route: a fresh one is cached, and a stale one,
    /// or one with a remembered node, only by a success. Returns
    /// whether a guessed route — cached, or with a remembered node —
    /// proved wrong, so the caller re-routes once, past both caches.
    fn learn(
        &self,
        service: &str,
        route: &Route,
        answer: &Result<Value, MetaError>,
        moved: bool,
    ) -> bool {
        if moved || matches!(answer, Err(e) if e.is_retry_safe()) {
            let mut cache = self.inner.rescache.lock();
            cache.invalidate(service);
            cache.forget_gateway(&route.record.gateway);
            return matches!(route.learned, Learned::Cache | Learned::Memo);
        }
        let promote = match route.learned {
            Learned::Cache => false,
            Learned::Vsr => true,
            Learned::Memo | Learned::Stale => answer.is_ok(),
        };
        if promote {
            let (record, gw_node) = (route.record.clone(), route.gw_node);
            self.inner
                .rescache
                .lock()
                .insert_resolved(service, record, gw_node);
        }
        false
    }

    /// Asked once a call over `route` has opened its peer's breaker
    /// and got no answer: whether the VSR now names another node for
    /// the route's gateway, which has then restarted elsewhere (a
    /// failed lookup proves nothing). If so, every entry routed to the
    /// old node is invalidated and the gateway's node forgotten, so no
    /// later call is refused by the old node's breaker.
    fn gateway_moved(&self, route: &Route) -> bool {
        let moved = self
            .inner
            .vsr
            .gateway_node(&route.record.gateway)
            .is_ok_and(|node| node != route.gw_node);
        if moved {
            let mut cache = self.inner.rescache.lock();
            cache.invalidate_node(route.gw_node);
            cache.forget_gateway(&route.record.gateway);
        }
        moved
    }

    /// One batch frame exchange under a `vsg-wire` span. The frame span
    /// carries no bytes itself; per-member child spans subdivide the
    /// frame's byte delta (remainder on the first member), so summing
    /// wire bytes across spans stays honest.
    fn wire_batch_call(
        &self,
        sim: &Sim,
        route: &Route,
        reqs: &mut [VsgRequest],
    ) -> Result<Vec<Result<Value, MetaError>>, MetaError> {
        let tracer = &self.inner.tracer;
        let mut scope = self
            .scope(sim, HopKind::VsgWire, || {
                format!(
                    "batch of {} via {} to {}",
                    reqs.len(),
                    self.inner.protocol.name(),
                    route.record.gateway
                )
            })
            .bytes_from(&self.inner.backbone);
        let ctx = tracer.current_context();
        for req in reqs.iter_mut() {
            req.trace = ctx;
        }
        let result = self.inner.protocol.call_batch(
            &self.inner.backbone,
            self.inner.node,
            route.gw_node,
            reqs,
        );
        match &result {
            Ok(members) if scope.trace_id().is_some() && !reqs.is_empty() => {
                let bytes = scope.take_bytes();
                let share = bytes / reqs.len() as u64;
                let remainder = bytes - share * reqs.len() as u64;
                for (k, (req, r)) in reqs.iter().zip(members).enumerate() {
                    tracer.note_with(
                        sim,
                        HopKind::VsgWire,
                        || format!("member {}.{}", req.service, req.operation),
                        share + if k == 0 { remainder } else { 0 },
                        r.as_ref().err().map(|e| e.to_string()),
                    );
                }
                drop(scope);
            }
            _ => scope.finish(&result),
        }
        result
    }

    /// Sends `req` to its service's gateway under `policy` (this
    /// gateway's own when `None`): route, send, learn — and once more,
    /// past both caches, when a route that was not fresh proved stale.
    fn invoke_remote(
        &self,
        sim: &Sim,
        mut req: VsgRequest,
        policy: Option<&ResiliencePolicy>,
    ) -> Result<Value, MetaError> {
        // The invocation's deadline spans everything that follows:
        // cached attempt, re-resolution, retries, and backoff waits.
        let started = sim.now();
        let policy = policy.cloned().unwrap_or_else(|| self.resilience());
        let mut use_cache = true;
        loop {
            let route = self.route(sim, &req.service, &policy, use_cache)?;
            let idempotent = op_is_idempotent(&route.record, &req.operation);
            let (answer, opened) = self.resilient_wire_call(
                sim,
                &route,
                std::slice::from_mut(&mut req),
                false,
                idempotent,
                started,
                &policy,
                |r| self.wire_call(sim, &route, &mut r[0]),
            );
            let moved = opened && self.gateway_moved(&route);
            // Only a route that is not fresh can prove stale, and past
            // both caches every route is fresh (or stale-served), so
            // this re-routes at most once.
            if !self.learn(&req.service, &route, &answer, moved) {
                return answer;
            }
            use_cache = false;
        }
    }

    /// One logical wire call under the resilience policy: `send` puts
    /// `reqs` — one request, or one `batch` frame — on the wire, and
    /// this loop wraps it. The peer's breaker admits the call once;
    /// then up to `1 + max_retries` attempts follow, paced by jittered
    /// exponential backoff and all bounded by the deadline, each fed
    /// back to the breaker. Only transport failures are retried, and an
    /// ambiguous one (the remote may have executed) is retried only
    /// when `idempotent` — the no-double-invoke guarantee. Also returns
    /// whether the call's failures opened the breaker: the node is
    /// failing, and no attempt was answered.
    #[allow(clippy::too_many_arguments)]
    fn resilient_wire_call<T>(
        &self,
        sim: &Sim,
        route: &Route,
        reqs: &mut [VsgRequest],
        batch: bool,
        idempotent: bool,
        started: SimTime,
        policy: &ResiliencePolicy,
        send: impl Fn(&mut [VsgRequest]) -> Result<T, MetaError>,
    ) -> (Result<T, MetaError>, bool) {
        let (gw_node, gateway) = (route.gw_node, route.record.gateway.as_str());
        let (admitted, moved) = self.inner.breakers.admit(gw_node, sim.now());
        self.report_breaker(sim, gateway, moved);
        if !admitted {
            self.inner.tracer.note(sim, HopKind::Resilience, || {
                format!("breaker open: fail fast to {gateway}")
            });
            let err = MetaError::CircuitOpen {
                gateway: gateway.to_owned(),
            };
            return (Err(err), false);
        }
        let mut attempt: u32 = 0;
        let mut opened = false;
        loop {
            let result = send(reqs);
            let moved = self.inner.breakers.record(gw_node, sim.now(), &result);
            self.report_breaker(sim, gateway, moved);
            opened |= moved == Some(BreakerState::Open);
            let err = match result {
                Err(e) if e.is_transport_failure() => e,
                // An answer — even an application fault, unknown
                // service/operation or type error — ends the call.
                answered => return (answered, false),
            };
            if !(idempotent || err.is_retry_safe()) || attempt >= policy.max_retries {
                return (Err(err), opened);
            }
            let waited = sim.now().since(started);
            let mut wait = policy.backoff(attempt, sim);
            if waited + wait >= policy.deadline {
                if waited >= policy.deadline {
                    let err = MetaError::DeadlineExceeded {
                        service: reqs
                            .first()
                            .map(|r| r.service.to_string())
                            .unwrap_or_default(),
                        waited_ms: waited.as_millis(),
                    };
                    return (Err(err), opened);
                }
                // The full backoff would overshoot, but budget remains:
                // spend all of it on one final, deadline-aligned attempt
                // rather than giving up with time on the clock.
                wait = SimDuration::from_micros(policy.deadline.as_micros() - waited.as_micros());
            }
            attempt += 1;
            self.inner.metrics.record_retry();
            self.inner.tracer.note(sim, HopKind::Resilience, || {
                if batch {
                    format!(
                        "retry {attempt} (batch of {}) to {gateway} after {wait} ({err})",
                        reqs.len()
                    )
                } else {
                    format!("retry {attempt} to {gateway} after {wait} ({err})")
                }
            });
            sim.advance(wait);
        }
    }

    /// Reports a breaker transition (the state `gateway`'s breaker moved
    /// to, if it moved) to metrics and the tracer.
    fn report_breaker(&self, sim: &Sim, gateway: &str, moved: Option<BreakerState>) {
        if let Some(state) = moved {
            self.inner
                .metrics
                .record_breaker_transition(gateway, state.label());
            self.inner.tracer.note(sim, HopKind::Resilience, || {
                format!("breaker {state} for {gateway}")
            });
        }
    }

    /// One gateway-to-gateway protocol call under a `vsg-wire` span.
    /// The span's context rides the wire (SOAP header / SIP header /
    /// binary tagged field) so the serving gateway's spans join this
    /// trace; the span is charged the backbone bytes the exchange moved.
    fn wire_call(
        &self,
        sim: &Sim,
        route: &Route,
        req: &mut VsgRequest,
    ) -> Result<Value, MetaError> {
        let tracer = &self.inner.tracer;
        let scope = self
            .scope(sim, HopKind::VsgWire, || {
                format!("{} to {}", self.inner.protocol.name(), route.record.gateway)
            })
            .bytes_from(&self.inner.backbone);
        req.trace = tracer.current_context();
        let result =
            self.inner
                .protocol
                .call(&self.inner.backbone, self.inner.node, route.gw_node, req);
        scope.finish(&result);
        result
    }

    /// Resolves a service record via the VSR (always a live lookup —
    /// the cache-bypassing baseline that [`Vsg::resolve_cached`] must
    /// agree with).
    pub fn resolve(&self, service: &str) -> Result<ServiceRecord, MetaError> {
        self.inner.vsr.resolve(service)
    }

    /// Resolves a service record the way an invocation routes: a warm
    /// cache entry costs zero VSR round trips, a miss resolves and fills
    /// the cache, and with the VSR down degraded reads serve a stale
    /// entry (left stale: no call has confirmed it).
    pub fn resolve_cached(&self, service: &str) -> Result<ServiceRecord, MetaError> {
        let route = self.route(self.inner.backbone.sim(), service, &self.resilience(), true)?;
        if matches!(route.learned, Learned::Memo | Learned::Vsr) {
            self.inner.rescache.lock().insert_resolved(
                service,
                route.record.clone(),
                route.gw_node,
            );
        }
        Ok(ServiceRecord::clone(&route.record))
    }

    /// Drops all cached resolutions and remembered gateway nodes,
    /// forcing both VSR round trips on the next remote invocation (used
    /// by the E11 ablation bench).
    pub fn clear_route_cache(&self) {
        self.inner.rescache.lock().clear();
    }

    /// Re-bounds the resolution cache (tests/benches exercise eviction
    /// with small capacities).
    pub fn set_cache_capacity(&self, capacity: usize) {
        self.inner.rescache.lock().set_capacity(capacity);
    }

    /// Number of live resolution-cache entries.
    #[cfg(test)]
    fn cache_len(&self) -> usize {
        self.inner.rescache.lock().len()
    }

    /// This gateway's resolution-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.inner.rescache.lock().stats()
    }

    // ---- resilience ------------------------------------------------------

    /// Replaces this gateway's resilience policy. Existing breakers
    /// keep the thresholds they were created with; new remote gateways
    /// get the new ones.
    pub fn set_resilience(&self, policy: ResiliencePolicy) {
        self.inner
            .breakers
            .set_thresholds(policy.breaker_threshold, policy.breaker_open_window);
        *self.inner.resilience.lock() = policy;
    }

    /// A copy of the current resilience policy.
    pub fn resilience(&self) -> ResiliencePolicy {
        self.inner.resilience.lock().clone()
    }

    /// The circuit-breaker state this gateway holds for the remote
    /// gateway on backbone node `gateway` ([`BreakerState::Closed`]
    /// before any call reached it).
    pub fn breaker_state(&self, gateway: NodeId) -> BreakerState {
        self.inner.breakers.state(gateway)
    }

    // ---- observability ---------------------------------------------------

    /// This gateway's tracer. Disabled (and allocation-free) until
    /// [`Vsg::set_tracing`] turns it on.
    pub fn tracer(&self) -> &Tracer {
        &self.inner.tracer
    }

    /// Enables or disables span recording on this gateway.
    pub fn set_tracing(&self, on: bool) {
        self.inner.tracer.set_enabled(on);
    }

    /// This gateway's always-on invocation counters and latency
    /// histogram.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.inner.metrics
    }

    /// Opens a child [`Scope`] on this gateway's tracer and registry.
    pub(crate) fn scope<'a>(
        &'a self,
        sim: &'a Sim,
        kind: HopKind,
        name: impl FnOnce() -> String,
    ) -> Scope<'a> {
        Scope::child(sim, &self.inner.tracer, &self.inner.metrics, kind, name)
    }

    /// Opens a root [`Scope`] on this gateway's tracer and registry.
    pub(crate) fn root_scope<'a>(
        &'a self,
        sim: &'a Sim,
        kind: HopKind,
        name: impl FnOnce() -> String,
    ) -> Scope<'a> {
        Scope::root(sim, &self.inner.tracer, &self.inner.metrics, kind, name)
    }

    /// One merged, JSON-serializable snapshot of everything this
    /// gateway counts: invocation metrics plus resolution-cache
    /// counters.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            gateway: self.inner.name.clone(),
            island: self.inner.backbone.sim().island(),
            registry: self.inner.metrics.snapshot(),
            cache: self.cache_stats(),
        }
    }
}

impl fmt::Debug for Vsg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Vsg")
            .field("name", &self.inner.name)
            .field("protocol", &self.inner.protocol.name())
            .field("local_services", &self.inner.local.lock().len())
            .finish()
    }
}

/// Whether `operation` may be re-sent after an ambiguous loss: events
/// may (a duplicate is tolerable, a drop is not); calls as the record's
/// interface declares, unknown operations not — the server rejects
/// them anyway, and that answer is never ambiguous.
fn op_is_idempotent(record: &ServiceRecord, operation: &str) -> bool {
    operation == EVENT_OP
        || record
            .interface
            .find(operation)
            .is_some_and(|sig| sig.idempotent)
}

/// The service a batch item addresses.
fn item_service(item: &BatchItem) -> &str {
    match item {
        BatchItem::Call(call) => &call.service,
        BatchItem::Event { service, .. } => service,
    }
}

/// The wire request for a remote batch item: an event rides the
/// reserved event operation.
fn item_request(item: &BatchItem) -> VsgRequest {
    match item {
        BatchItem::Call(call) => VsgRequest {
            args: call.args.clone(),
            ..VsgRequest::new(&call.service, &call.operation)
        },
        BatchItem::Event { service, event } => {
            VsgRequest::new(service.as_str(), EVENT_OP).arg(EVENT_ARG, event.clone())
        }
    }
}

/// Hands an event about `service`, local or from the wire, to the event
/// sink. Delivery is acknowledged even with no sink installed — events
/// are notifications, not queries; an uninterested gateway is fine.
fn deliver_event(
    sink: &Mutex<Option<EventSink>>,
    sim: &Sim,
    service: &str,
    event: &Value,
) -> Result<Value, MetaError> {
    if let Some(sink) = sink.lock().as_mut() {
        sink(sim, service, event);
    }
    Ok(Value::Null)
}

/// Serves one request arriving over the gateway-to-gateway wire: joins
/// the caller's trace (when a context rode along), records the
/// `server-proxy` hop, and dispatches to the local invoker. A member
/// carrying the reserved event operation goes to the gateway's event
/// sink instead of a service invoker.
fn serve_remote(
    local: &Mutex<HashMap<String, LocalEntry>>,
    tracer: &Tracer,
    event_sink: &Mutex<Option<EventSink>>,
    metrics: &MetricsRegistry,
    sim: &Sim,
    req: &VsgRequest,
) -> Result<Value, MetaError> {
    let adopted = req.trace.is_some_and(|ctx| tracer.adopt(ctx));
    let result = if req.operation == EVENT_OP {
        let _scope = Scope::child(sim, tracer, metrics, HopKind::Event, || {
            format!("event {}", req.service)
        });
        let payload = req
            .args
            .iter()
            .find(|(k, _)| k == EVENT_ARG)
            .map_or(&Value::Null, |(_, v)| v);
        deliver_event(event_sink, sim, &req.service, payload)
    } else {
        let scope = Scope::child(sim, tracer, metrics, HopKind::ServerProxy, || {
            format!("{}.{}", req.service, req.operation)
        });
        let result = dispatch_local(
            local,
            tracer,
            metrics,
            sim,
            &req.service,
            &req.operation,
            &req.args,
        );
        scope.finish(&result);
        result
    };
    if adopted {
        tracer.unadopt();
    }
    result
}

fn dispatch_local(
    local: &Mutex<HashMap<String, LocalEntry>>,
    tracer: &Tracer,
    metrics: &MetricsRegistry,
    sim: &Sim,
    service: &str,
    operation: &str,
    args: &[(String, Value)],
) -> Result<Value, MetaError> {
    // Type-check against the signature in place (no OpSig clone); only
    // the invoker handle leaves the map lock's scope.
    let (invoker, composite) =
        {
            let map = local.lock();
            let entry = map
                .get(service)
                .ok_or_else(|| MetaError::UnknownService(service.to_owned()))?;
            let sig = entry.service.interface.find(operation).ok_or_else(|| {
                MetaError::UnknownOperation {
                    service: service.to_owned(),
                    operation: operation.to_owned(),
                }
            })?;
            sig.check_args(args)?;
            (entry.invoker.clone(), entry.composite)
        };
    let scope = Scope::child(sim, tracer, metrics, HopKind::App, || {
        format!("{service}.{operation}")
    });
    // Composite invokers re-enter the gateway to run their steps; a
    // composite that (transitively) invokes itself would self-deadlock
    // on this non-reentrant mutex, so contention on a composite's own
    // lock is reported as a cycle instead of waited on.
    let mut invoker = if composite {
        match invoker.try_lock() {
            Some(guard) => guard,
            None => {
                let err = MetaError::Native {
                    middleware: "composite".to_owned(),
                    detail: format!("re-entrant invocation of composite '{service}' (cycle)"),
                };
                let result = Err(err);
                scope.finish(&result);
                return result;
            }
        }
    } else {
        invoker.lock()
    };
    let result = invoker.invoke(sim, operation, args);
    scope.finish(&result);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iface::catalog;
    use crate::protocol::{CompactBinary, SipLike, Soap11};
    use crate::service::Middleware;
    use crate::vsr::Vsr;

    fn world(protocol: Arc<dyn VsgProtocol>) -> (Sim, Network, Vsr, Vsg, Vsg) {
        let sim = Sim::new(1);
        let net = Network::ethernet(&sim);
        let vsr = Vsr::start(&net);
        let gw_a = Vsg::start(&net, "gw-a", protocol.clone(), vsr.node()).unwrap();
        let gw_b = Vsg::start(&net, "gw-b", protocol, vsr.node()).unwrap();
        (sim, net, vsr, gw_a, gw_b)
    }

    fn export_lamp(gw: &Vsg) {
        let on = Arc::new(Mutex::new(false));
        gw.export(
            VirtualService::new("hall-lamp", catalog::lamp(), Middleware::X10, gw.name()),
            move |_: &Sim, op: &str, args: &[(String, Value)]| match op {
                "switch" => {
                    let want = args
                        .iter()
                        .find(|(k, _)| k == "on")
                        .and_then(|(_, v)| v.as_bool())
                        .unwrap_or(false);
                    *on.lock() = want;
                    Ok(Value::Null)
                }
                "status" => Ok(Value::Bool(*on.lock())),
                "dim" => Ok(Value::Null),
                other => Err(MetaError::UnknownOperation {
                    service: "hall-lamp".into(),
                    operation: other.into(),
                }),
            },
        )
        .unwrap();
    }

    #[test]
    fn local_invocation_with_type_checking() {
        let (sim, _net, _vsr, gw_a, _gw_b) = world(Arc::new(Soap11::new()));
        export_lamp(&gw_a);
        assert_eq!(gw_a.local_services(), vec!["hall-lamp".to_owned()]);
        assert_eq!(gw_a.local_interface("hall-lamp").unwrap(), catalog::lamp());

        gw_a.invoke(
            &sim,
            "hall-lamp",
            "switch",
            &[("on".into(), Value::Bool(true))],
        )
        .unwrap();
        let status = gw_a.invoke(&sim, "hall-lamp", "status", &[]).unwrap();
        assert_eq!(status, Value::Bool(true));

        // Wrong type rejected before reaching the invoker.
        let err = gw_a
            .invoke(&sim, "hall-lamp", "switch", &[("on".into(), Value::Int(1))])
            .unwrap_err();
        assert!(matches!(err, MetaError::TypeMismatch { .. }));
        // Unknown op.
        assert!(matches!(
            gw_a.invoke(&sim, "hall-lamp", "explode", &[]),
            Err(MetaError::UnknownOperation { .. })
        ));
        // Unknown service: not local, and resolution at the VSR fails.
        assert!(matches!(
            gw_a.invoke(&sim, "ghost", "x", &[]),
            Err(MetaError::Repository(_) | MetaError::UnknownService(_))
        ));
    }

    #[test]
    fn cross_gateway_invocation_over_each_protocol() {
        for protocol in [
            Arc::new(Soap11::new()) as Arc<dyn VsgProtocol>,
            Arc::new(CompactBinary::new()),
            Arc::new(SipLike::new()),
        ] {
            let name = protocol.name();
            let (sim, _net, _vsr, gw_a, gw_b) = world(protocol);
            export_lamp(&gw_a);
            // gw_b neither hosts the lamp nor knows where it is; the
            // framework resolves and routes transparently.
            gw_b.invoke(
                &sim,
                "hall-lamp",
                "switch",
                &[("on".into(), Value::Bool(true))],
            )
            .unwrap_or_else(|e| panic!("{name}: {e}"));
            let status = gw_b.invoke(&sim, "hall-lamp", "status", &[]).unwrap();
            assert_eq!(status, Value::Bool(true), "{name}");
        }
    }

    #[test]
    fn composite_runs_cross_island_steps_from_one_entry_hop() {
        use crate::compose::{Binding, CompositeSpec, StepSpec};
        let (sim, _net, _vsr, gw_a, gw_b) = world(Arc::new(Soap11::new()));
        export_lamp(&gw_a);
        let shown: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let log = shown.clone();
        gw_b.export(
            VirtualService::new("tv-display", catalog::display(), Middleware::Havi, "gw-b"),
            move |_: &Sim, _: &str, args: &[(String, Value)]| {
                let text = args
                    .iter()
                    .find(|(k, _)| k == "text")
                    .and_then(|(_, v)| v.as_str())
                    .unwrap_or("")
                    .to_owned();
                log.lock().push(text);
                Ok(Value::Null)
            },
        )
        .unwrap();

        let spec = CompositeSpec::new("evening-check")
            .input("on", crate::iface::TypeTag::Bool)
            .step(StepSpec::new("hall-lamp", "switch").arg("on", Binding::Input("on".into())))
            .step(
                StepSpec::new("tv-display", "show")
                    .arg("text", Binding::Literal(Value::Str("lamp set".into()))),
            )
            .step(StepSpec::new("hall-lamp", "status"));
        gw_b.register_composite(spec).unwrap();

        // Invoked from gw_a: one cross-gateway hop reaches gw_b, which
        // drives all three steps (two of them back across to gw_a).
        let out = gw_a
            .invoke(
                &sim,
                "evening-check",
                "run",
                &[("on".into(), Value::Bool(true))],
            )
            .unwrap();
        assert_eq!(out, Value::Bool(true), "last step's output is returned");
        assert_eq!(shown.lock().as_slice(), ["lamp set".to_owned()]);

        // The hosting gateway's metrics recorded the execution.
        let snap = gw_b.metrics_snapshot();
        assert_eq!(snap.registry.compose_executions, 1);
        assert_eq!(snap.registry.compose_steps, 3);
        assert_eq!(snap.registry.compose_failures, 0);
    }

    #[test]
    fn mutually_recursive_composites_fail_as_cycles_not_deadlocks() {
        use crate::compose::{CompositeSpec, StepSpec};
        let (sim, _net, _vsr, gw_a, _gw_b) = world(Arc::new(Soap11::new()));
        // a-calls-b's only step invokes b-calls-a and vice versa; direct
        // self-invocation is rejected by validate(), but this mutual
        // cycle is only discoverable at run time.
        gw_a.register_composite(
            CompositeSpec::new("a-calls-b").step(StepSpec::new("b-calls-a", "run")),
        )
        .unwrap();
        gw_a.register_composite(
            CompositeSpec::new("b-calls-a").step(StepSpec::new("a-calls-b", "run")),
        )
        .unwrap();
        let err = gw_a.invoke(&sim, "a-calls-b", "run", &[]).unwrap_err();
        assert!(
            err.to_string().contains("cycle"),
            "expected cycle error, got: {err}"
        );
    }

    #[test]
    fn remote_errors_propagate() {
        let (sim, _net, _vsr, gw_a, gw_b) = world(Arc::new(Soap11::new()));
        export_lamp(&gw_a);
        // Type errors are raised on the *serving* gateway and travel back.
        let err = gw_b
            .invoke(&sim, "hall-lamp", "switch", &[("on".into(), Value::Int(1))])
            .unwrap_err();
        assert!(err.to_string().contains("type mismatch"), "{err}");
        // Unknown remote service fails at resolution.
        assert!(matches!(
            gw_b.invoke(&sim, "ghost", "x", &[]),
            Err(MetaError::Repository(_) | MetaError::UnknownService(_))
        ));
    }

    #[test]
    fn route_cache_survives_and_recovers() {
        let (sim, _net, vsr, gw_a, gw_b) = world(Arc::new(CompactBinary::new()));
        export_lamp(&gw_a);
        gw_b.invoke(&sim, "hall-lamp", "status", &[]).unwrap();
        let inquiries_after_first = vsr.registry_stats().inquiries;
        // Second call uses the cached route: no new VSR inquiries.
        gw_b.invoke(&sim, "hall-lamp", "status", &[]).unwrap();
        assert_eq!(vsr.registry_stats().inquiries, inquiries_after_first);

        // Service moves to gw_b itself; the stale cache entry still hits
        // gw_a which no longer hosts it, and the framework re-resolves.
        gw_a.withdraw("hall-lamp").unwrap();
        export_lamp(&gw_b);
        let v = gw_b.invoke(&sim, "hall-lamp", "status", &[]).unwrap();
        assert_eq!(v, Value::Bool(false));
    }

    #[test]
    fn warm_cache_needs_zero_vsr_round_trips() {
        let (sim, _net, vsr, gw_a, gw_b) = world(Arc::new(Soap11::new()));
        export_lamp(&gw_a);
        gw_b.invoke(&sim, "hall-lamp", "status", &[]).unwrap();
        let inquiries_after_first = vsr.registry_stats().inquiries;
        for _ in 0..10 {
            gw_b.invoke(&sim, "hall-lamp", "status", &[]).unwrap();
        }
        // Not a single further VSR SOAP round trip.
        assert_eq!(vsr.registry_stats().inquiries, inquiries_after_first);
        let stats = gw_b.cache_stats();
        assert_eq!(stats.hits, 10);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn withdraw_invalidates_the_caching_gateway() {
        let (sim, _net, vsr, gw_a, gw_b) = world(Arc::new(Soap11::new()));
        export_lamp(&gw_a);
        gw_a.invoke(&sim, "hall-lamp", "status", &[]).ok();
        gw_b.invoke(&sim, "hall-lamp", "status", &[]).unwrap();
        assert_eq!(gw_b.cache_len(), 1);

        // gw_a withdraws: its own entry (if any) is invalidated locally;
        // gw_b's copy goes stale and is evicted on the next use.
        gw_a.withdraw("hall-lamp").unwrap();
        assert!(gw_b.invoke(&sim, "hall-lamp", "status", &[]).is_err());
        assert_eq!(
            gw_b.cache_stats().invalidations,
            1,
            "stale entry dropped after failed call"
        );
        assert_eq!(vsr.service_count(), 0);
    }

    /// The three ways to send one call: [`Vsg::invoke`], and a batch of
    /// one with batching on and off.
    fn ways() -> [Option<BatchPolicy>; 3] {
        [
            None,
            Some(BatchPolicy::default()),
            Some(BatchPolicy::disabled()),
        ]
    }

    /// `hall-lamp.status` from `gw`, sent the way `way` names (see
    /// [`ways`]).
    fn lamp_status(gw: &Vsg, sim: &Sim, way: &Option<BatchPolicy>) -> Result<Value, MetaError> {
        let Some(policy) = way else {
            return gw.invoke(sim, "hall-lamp", "status", &[]);
        };
        gw.set_batching(policy.clone());
        let item = BatchItem::Call(crate::batch::BatchCall::new("hall-lamp", "status"));
        gw.invoke_batch(sim, &[item]).remove(0)
    }

    #[test]
    fn service_move_between_gateways_serves_fresh_record() {
        let runs = ways().map(|way| {
            let (sim, net, vsr, gw_a, gw_b) = world(Arc::new(Soap11::new()));
            let gw_c = Vsg::start(&net, "gw-c", gw_a.protocol().clone(), vsr.node()).unwrap();
            export_lamp(&gw_a);
            lamp_status(&gw_c, &sim, &way).unwrap();
            assert_eq!(gw_c.resolve_cached("hall-lamp").unwrap().gateway, "gw-a");

            // The lamp relocates to gw_b; gw_c's cached record is stale.
            gw_a.withdraw("hall-lamp").unwrap();
            let on = Arc::new(Mutex::new(false));
            gw_b.export(
                VirtualService::new("hall-lamp", catalog::lamp(), Middleware::X10, "gw-b"),
                move |_: &Sim, op: &str, _: &[(String, Value)]| match op {
                    "status" => Ok(Value::Bool(*on.lock())),
                    _ => Ok(Value::Null),
                },
            )
            .unwrap();

            // Invocation recovers transparently on its first call, and
            // the re-learned record names the new gateway — no stale
            // interface or endpoint.
            let answer = lamp_status(&gw_c, &sim, &way);
            let gateway = gw_c.resolve_cached("hall-lamp").unwrap().gateway;
            (answer, gateway, gw_c.cache_stats())
        });
        let (answer, gateway, stats) = &runs[0];
        assert_eq!(*answer, Ok(Value::Bool(false)));
        assert_eq!(gateway, "gw-b");
        assert_eq!(stats.invalidations, 1);
        // A batch member, batched or not, routes and learns as a call.
        assert_eq!(runs[1], runs[0], "batched");
        assert_eq!(runs[2], runs[0], "unbatched");
    }

    #[test]
    fn cache_stays_bounded_under_churn() {
        let (sim, _net, _vsr, gw_a, gw_b) = world(Arc::new(CompactBinary::new()));
        gw_b.set_cache_capacity(2);
        for i in 0..8 {
            let name = format!("svc-{i}");
            gw_a.export(
                VirtualService::new(&name, catalog::lamp(), Middleware::X10, "gw-a"),
                |_: &Sim, _: &str, _: &[(String, Value)]| Ok(Value::Bool(false)),
            )
            .unwrap();
            gw_b.invoke(&sim, &name, "status", &[]).unwrap();
            assert!(gw_b.cache_len() <= 2, "cache grew past its bound");
        }
        assert_eq!(gw_b.cache_stats().evictions, 6);
        // The bound costs re-resolution, never correctness.
        assert_eq!(
            gw_b.invoke(&sim, "svc-0", "status", &[]).unwrap(),
            Value::Bool(false)
        );
    }

    #[test]
    fn app_faults_never_double_invoke() {
        for protocol in [
            Arc::new(Soap11::new()) as Arc<dyn VsgProtocol>,
            Arc::new(CompactBinary::new()),
            Arc::new(SipLike::new()),
        ] {
            let name = protocol.name();
            let (sim, _net, _vsr, gw_a, gw_b) = world(protocol);
            let invocations = Arc::new(Mutex::new(0u32));
            let counter = invocations.clone();
            gw_a.export(
                VirtualService::new("vault", catalog::lamp(), Middleware::X10, "gw-a"),
                move |_: &Sim, _: &str, _: &[(String, Value)]| {
                    *counter.lock() += 1;
                    Err(MetaError::native("x10", "device jammed"))
                },
            )
            .unwrap();

            // Warm the route, then hit the application fault.
            gw_b.invoke(&sim, "vault", "status", &[]).unwrap_err();
            let err = gw_b.invoke(&sim, "vault", "status", &[]).unwrap_err();
            assert_eq!(err, MetaError::native("x10", "device jammed"), "{name}");
            // One invocation per invoke() call: the fault proves the
            // remote side executed, so there must be no evict-and-retry.
            assert_eq!(
                *invocations.lock(),
                2,
                "{name}: non-idempotent op double-invoked"
            );
        }
    }

    #[test]
    fn negative_entries_absorb_repeated_unknown_lookups() {
        let (sim, _net, vsr, gw_a, gw_b) = world(Arc::new(Soap11::new()));
        assert!(matches!(
            gw_b.invoke(&sim, "hall-lamp", "status", &[]),
            Err(MetaError::UnknownService(_))
        ));
        let inquiries_after_first = vsr.registry_stats().inquiries;
        // The next few lookups are answered from the negative entry…
        for _ in 0..3 {
            assert!(matches!(
                gw_b.invoke(&sim, "hall-lamp", "status", &[]),
                Err(MetaError::UnknownService(_))
            ));
        }
        assert_eq!(vsr.registry_stats().inquiries, inquiries_after_first);
        assert_eq!(gw_b.cache_stats().negative_hits, 3);
        // …but the entry has a use budget: a service published *after*
        // the failed lookups becomes invocable within a few attempts
        // rather than staying invisible forever.
        export_lamp(&gw_a);
        let recovered = (0..8).any(|_| gw_b.invoke(&sim, "hall-lamp", "status", &[]).is_ok());
        assert!(recovered, "negative entry never expired");
    }

    #[test]
    fn lost_requests_are_retried_until_the_spike_heals() {
        let (sim, net, _vsr, gw_a, gw_b) = world(Arc::new(Soap11::new()));
        export_lamp(&gw_a);
        gw_b.invoke(&sim, "hall-lamp", "status", &[]).unwrap(); // warm the route
        let t = sim.now();
        net.set_fault_plan(simnet::FaultPlan::new().loss_spike(
            t,
            t + simnet::SimDuration::from_millis(120),
            1.0,
        ));
        // Every request in the window is lost before delivery; backoff
        // paces the retries across the spike and the call lands.
        let v = gw_b.invoke(&sim, "hall-lamp", "status", &[]).unwrap();
        assert_eq!(v, Value::Bool(false));
        let snap = gw_b.metrics().snapshot();
        assert!(snap.retries >= 1, "retries recorded: {}", snap.retries);
        assert_eq!(
            gw_b.breaker_state(gw_a.node()),
            BreakerState::Closed,
            "success reset the failure run"
        );
    }

    #[test]
    fn ambiguous_response_loss_never_double_invokes() {
        let (sim, net, _vsr, gw_a, gw_b) = world(Arc::new(Soap11::new()));
        let count = Arc::new(Mutex::new(0u32));
        let c = count.clone();
        gw_a.export(
            VirtualService::new("vault", catalog::lamp(), Middleware::X10, "gw-a"),
            move |sim: &Sim, _: &str, _: &[(String, Value)]| {
                *c.lock() += 1;
                // Long enough that the partition window opens mid-call.
                sim.advance(simnet::SimDuration::from_millis(10));
                Ok(Value::Null)
            },
        )
        .unwrap();
        gw_b.invoke(&sim, "vault", "switch", &[("on".into(), Value::Bool(true))])
            .unwrap();
        assert_eq!(*count.lock(), 1);

        // The backbone partitions while the handler is running: the
        // request was delivered, the response is lost. `switch` is not
        // idempotent, so the resilience layer must NOT re-send.
        let t = sim.now();
        net.set_fault_plan(simnet::FaultPlan::new().partition(
            vec![gw_a.node()],
            vec![gw_b.node()],
            t + simnet::SimDuration::from_millis(5),
            t + simnet::SimDuration::from_millis(500),
        ));
        let err = gw_b
            .invoke(&sim, "vault", "switch", &[("on".into(), Value::Bool(true))])
            .unwrap_err();
        assert_eq!(err.kind(), "transport");
        assert!(
            matches!(
                err,
                MetaError::Transport {
                    not_executed: false,
                    ..
                }
            ),
            "{err}"
        );
        assert_eq!(
            *count.lock(),
            2,
            "executed once; ambiguous loss not re-sent"
        );
    }

    #[test]
    fn vsr_outage_serves_stale_routes_degraded() {
        let runs = ways().map(|way| {
            let (sim, net, vsr, gw_a, gw_b) = world(Arc::new(Soap11::new()));
            export_lamp(&gw_a);
            lamp_status(&gw_b, &sim, &way).unwrap(); // warm the route
            gw_b.set_resilience(ResiliencePolicy {
                max_retries: 0,
                ..ResiliencePolicy::default()
            });
            let t = sim.now();
            net.set_fault_plan(
                simnet::FaultPlan::new()
                    .node_down(gw_a.node(), t, t + simnet::SimDuration::from_secs(1))
                    .node_down(vsr.node(), t, t + simnet::SimDuration::from_secs(3600)),
            );
            // Gateway and VSR both down: the wire call fails, the route is
            // demoted to stale, re-resolution fails, the stale route is
            // tried (degraded) and fails too — but gracefully typed.
            let err = lamp_status(&gw_b, &sim, &way).unwrap_err();
            assert!(err.is_transport_failure(), "{way:?}: {err}");

            // gw-a recovers; the VSR is still down for an hour. Degraded
            // mode keeps the home controllable from the stale route.
            sim.advance(simnet::SimDuration::from_secs(2));
            let answer = lamp_status(&gw_b, &sim, &way);
            let degraded = gw_b.metrics().snapshot().degraded_serves;
            let stale = gw_b.cache_stats().stale_serves;

            // The degraded success re-promoted the route: next call is a
            // plain cache hit, no VSR needed.
            let hits_before = gw_b.cache_stats().hits;
            lamp_status(&gw_b, &sim, &way).unwrap();
            assert_eq!(gw_b.cache_stats().hits, hits_before + 1, "{way:?}");
            (answer, degraded, stale)
        });
        assert_eq!(runs[0], (Ok(Value::Bool(false)), 2, 2));
        // A batch member, batched or not, degrades as a call does.
        assert_eq!(runs[1], runs[0], "batched");
        assert_eq!(runs[2], runs[0], "unbatched");
    }

    #[test]
    fn request_leg_loss_invalidates_the_cached_route_and_reroutes_once() {
        let runs = ways().map(|way| {
            let (sim, net, vsr, gw_a, gw_b) = world(Arc::new(Soap11::new()));
            export_lamp(&gw_a);
            lamp_status(&gw_b, &sim, &way).unwrap(); // warm the route
            gw_b.set_resilience(ResiliencePolicy {
                max_retries: 0,
                ..ResiliencePolicy::default()
            });
            gw_b.set_tracing(true);
            let t = sim.now();
            net.set_fault_plan(simnet::FaultPlan::new().partition(
                vec![gw_b.node()],
                vec![gw_a.node()],
                t,
                t + simnet::SimDuration::from_secs(60),
            ));
            let inquiries = vsr.registry_stats().inquiries;
            // Every request is lost before delivery, so none executed:
            // the cached route is invalidated and the call re-routed
            // through the VSR once — and only once.
            let err = lamp_status(&gw_b, &sim, &way).unwrap_err();
            assert!(
                matches!(
                    err,
                    MetaError::Transport {
                        not_executed: true,
                        ..
                    }
                ),
                "{way:?}: {err}"
            );
            let sends = gw_b
                .tracer()
                .take_spans()
                .iter()
                .filter(|s| s.kind == HopKind::VsgWire && !s.name.starts_with("member"))
                .count();
            let stats = gw_b.cache_stats();
            (sends, vsr.registry_stats().inquiries - inquiries, stats)
        });
        let (sends, _, stats) = &runs[0];
        assert_eq!((*sends, stats.invalidations), (2, 1), "one re-route");
        assert_eq!(runs[1], runs[0], "batched");
        assert_eq!(runs[2], runs[0], "unbatched");
    }

    #[test]
    fn ambiguous_loss_is_never_rerouted() {
        let runs = ways().map(|way| {
            let (sim, net, _vsr, gw_a, gw_b) = world(Arc::new(Soap11::new()));
            let count = Arc::new(Mutex::new(0u32));
            let c = count.clone();
            gw_a.export(
                VirtualService::new("hall-lamp", catalog::lamp(), Middleware::X10, "gw-a"),
                move |sim: &Sim, _: &str, _: &[(String, Value)]| {
                    *c.lock() += 1;
                    sim.advance(simnet::SimDuration::from_millis(10));
                    Ok(Value::Null)
                },
            )
            .unwrap();
            lamp_status(&gw_b, &sim, &way).unwrap(); // warm the route
            gw_b.set_resilience(ResiliencePolicy {
                max_retries: 0,
                ..ResiliencePolicy::default()
            });
            // The partition opens mid-call and heals before any second
            // attempt: only the response is lost. The call may have run,
            // so it must fail ambiguously rather than re-route.
            let t = sim.now();
            net.set_fault_plan(simnet::FaultPlan::new().partition(
                vec![gw_a.node()],
                vec![gw_b.node()],
                t + simnet::SimDuration::from_millis(5),
                t + simnet::SimDuration::from_millis(13),
            ));
            let before = *count.lock();
            let answer = lamp_status(&gw_b, &sim, &way);
            let ambiguous = matches!(
                answer,
                Err(MetaError::Transport {
                    not_executed: false,
                    ..
                })
            );
            let executed = *count.lock() - before;
            (ambiguous, executed, gw_b.cache_stats().invalidations)
        });
        // Failed ambiguously, executed once, route kept: in every way.
        assert_eq!(runs, [(true, 1, 0); 3]);
    }

    #[test]
    fn zero_max_batch_sends_one_frame_per_member() {
        use crate::batch::{BatchCall, BatchItem};
        let (sim, _net, _vsr, gw_a, gw_b) = world(Arc::new(CompactBinary::new()));
        export_lamp(&gw_a);
        gw_b.set_batching(BatchPolicy {
            max_batch: 0,
            ..BatchPolicy::default()
        });
        gw_b.set_tracing(true);
        let items: Vec<BatchItem> = (0..3)
            .map(|_| BatchItem::Call(BatchCall::new("hall-lamp", "status")))
            .collect();
        let results = gw_b.invoke_batch(&sim, &items);
        assert!(
            results.iter().all(|r| r == &Ok(Value::Bool(false))),
            "{results:?}"
        );
        let frames: Vec<String> = gw_b
            .tracer()
            .take_spans()
            .into_iter()
            .filter(|s| s.name.starts_with("batch of"))
            .map(|s| s.name)
            .collect();
        assert_eq!(frames.len(), 3, "{frames:?}");
        assert!(
            frames.iter().all(|f| f.starts_with("batch of 1 ")),
            "{frames:?}"
        );
    }

    #[test]
    fn disabled_policy_makes_one_attempt_never_trips_and_serves_nothing_stale() {
        let (sim, net, vsr, gw_a, gw_b) = world(Arc::new(Soap11::new()));
        export_lamp(&gw_a);
        gw_b.set_resilience(ResiliencePolicy::disabled());
        gw_b.set_tracing(true);
        let t = sim.now();
        net.set_fault_plan(simnet::FaultPlan::new().partition(
            vec![gw_b.node()],
            vec![gw_a.node()],
            t,
            t + simnet::SimDuration::from_secs(60),
        ));
        // Partitioned from gw-a: every call resolves afresh (a lost
        // call caches no route) and makes exactly one wire attempt.
        let calls = ResiliencePolicy::default().breaker_threshold as usize + 3;
        for _ in 0..calls {
            let err = gw_b.invoke(&sim, "hall-lamp", "status", &[]).unwrap_err();
            assert!(err.is_transport_failure(), "{err}");
        }
        let attempts = gw_b
            .tracer()
            .take_spans()
            .iter()
            .filter(|s| s.kind == HopKind::VsgWire)
            .count();
        assert_eq!(attempts, calls, "one wire attempt per call");
        let snap = gw_b.metrics().snapshot();
        assert_eq!(snap.retries, 0);
        // More consecutive failures than the default threshold, and
        // the breaker never moved.
        assert_eq!(gw_b.breaker_state(gw_a.node()), BreakerState::Closed);
        assert_eq!(snap.breaker_transitions, 0);

        // The VSR goes down with a stale route in the cache: with
        // degraded reads off, the route is not served.
        sim.advance(simnet::SimDuration::from_secs(60));
        gw_b.invoke(&sim, "hall-lamp", "status", &[]).unwrap(); // warm the route
        let t = sim.now();
        net.set_fault_plan(
            simnet::FaultPlan::new()
                .node_down(gw_a.node(), t, t + simnet::SimDuration::from_secs(1))
                .node_down(vsr.node(), t, t + simnet::SimDuration::from_secs(3600)),
        );
        gw_b.invoke(&sim, "hall-lamp", "status", &[]).unwrap_err(); // demotes the route
        sim.advance(simnet::SimDuration::from_secs(2));
        let err = gw_b.invoke(&sim, "hall-lamp", "status", &[]).unwrap_err();
        assert!(err.is_transport_failure(), "{err}");
        assert_eq!(gw_b.metrics().snapshot().degraded_serves, 0);
        assert_eq!(gw_b.cache_stats().stale_serves, 0);
    }

    #[test]
    fn batched_agrees_with_unbatched_and_shares_the_wire() {
        use crate::batch::{BatchCall, BatchItem};
        let items = vec![
            BatchItem::Call(BatchCall::new("hall-lamp", "switch").arg("on", true)),
            BatchItem::Call(BatchCall::new("hall-lamp", "status")),
            BatchItem::Event {
                service: "hall-lamp".into(),
                event: Value::Int(7),
            },
            BatchItem::Call(BatchCall::new("hall-lamp", "explode")),
            BatchItem::Call(BatchCall::new("ghost", "status")),
            BatchItem::Call(BatchCall::new("hall-lamp", "status")),
        ];
        let run = |batched: bool| {
            let (sim, net, _vsr, gw_a, gw_b) = world(Arc::new(CompactBinary::new()));
            export_lamp(&gw_a);
            gw_b.set_batching(if batched {
                BatchPolicy::default()
            } else {
                BatchPolicy::disabled()
            });
            gw_b.invoke(&sim, "hall-lamp", "status", &[]).unwrap(); // warm the route
            let frames_before = net.with_stats(|s| s.total().frames);
            let results = gw_b.invoke_batch(&sim, &items);
            (
                results,
                net.with_stats(|s| s.total().frames) - frames_before,
            )
        };
        let (batched, batched_frames) = run(true);
        let (unbatched, unbatched_frames) = run(false);
        assert_eq!(batched, unbatched, "batching must not change answers");
        assert_eq!(batched[1], Ok(Value::Bool(true)));
        assert_eq!(batched[2], Ok(Value::Null));
        assert!(matches!(
            batched[3],
            Err(MetaError::UnknownOperation { .. })
        ));
        assert!(matches!(batched[4], Err(MetaError::UnknownService(_))));
        assert!(
            batched_frames < unbatched_frames,
            "batched moved {batched_frames} frames, unbatched {unbatched_frames}"
        );

        // From a cold cache, the batch asks the VSR once per distinct
        // service: later members share the route the first one found,
        // and the repeated unknown service hits its negative entry.
        let mut items = items;
        items.push(BatchItem::Call(BatchCall::new("ghost", "status")));
        let cold = |batched: bool| {
            let (sim, _net, vsr, gw_a, gw_b) = world(Arc::new(CompactBinary::new()));
            export_lamp(&gw_a);
            gw_b.set_batching(if batched {
                BatchPolicy::default()
            } else {
                BatchPolicy::disabled()
            });
            let inquiries = || vsr.registry_stats().inquiries;
            let before = inquiries();
            let results = gw_b.invoke_batch(&sim, &items);
            let spent = inquiries() - before;
            // What resolving each distinct service once costs the VSR.
            let before = inquiries();
            gw_b.resolve("hall-lamp").unwrap();
            gw_b.resolve("ghost").unwrap_err();
            (results, spent, inquiries() - before)
        };
        let (batched, batched_inquiries, once_each) = cold(true);
        let (unbatched, unbatched_inquiries, _) = cold(false);
        assert_eq!(batched, unbatched, "batching must not change answers");
        assert!(matches!(batched[6], Err(MetaError::UnknownService(_))));
        assert_eq!(batched_inquiries, once_each, "each service resolved once");
        assert_eq!(unbatched_inquiries, once_each);
    }

    #[test]
    fn batched_events_reach_the_remote_sink_in_order() {
        use crate::batch::BatchItem;
        let (sim, _net, _vsr, gw_a, gw_b) = world(Arc::new(SipLike::new()));
        export_lamp(&gw_a);
        let seen: Arc<Mutex<Vec<(String, Value)>>> = Arc::new(Mutex::new(Vec::new()));
        let seen2 = seen.clone();
        gw_a.set_event_sink(move |_, service, event| {
            seen2.lock().push((service.to_owned(), event.clone()));
        });
        let items: Vec<BatchItem> = (0..3)
            .map(|i| BatchItem::Event {
                service: "hall-lamp".into(),
                event: Value::Int(i),
            })
            .collect();
        let results = gw_b.invoke_batch(&sim, &items);
        assert!(results.iter().all(|r| r == &Ok(Value::Null)), "{results:?}");
        assert_eq!(
            *seen.lock(),
            vec![
                ("hall-lamp".to_owned(), Value::Int(0)),
                ("hall-lamp".to_owned(), Value::Int(1)),
                ("hall-lamp".to_owned(), Value::Int(2)),
            ]
        );
    }

    #[test]
    fn batch_backpressure_rejects_members_beyond_the_queue_bound() {
        use crate::batch::{BatchCall, BatchItem, BatchPolicy};
        let (sim, _net, _vsr, gw_a, gw_b) = world(Arc::new(CompactBinary::new()));
        export_lamp(&gw_a);
        gw_b.set_batching(BatchPolicy {
            max_queue: 2,
            ..BatchPolicy::default()
        });
        let items: Vec<BatchItem> = (0..4)
            .map(|_| BatchItem::Call(BatchCall::new("hall-lamp", "status")))
            .collect();
        let results = gw_b.invoke_batch(&sim, &items);
        assert!(results[0].is_ok() && results[1].is_ok());
        for r in &results[2..] {
            assert!(
                matches!(r, Err(MetaError::Overloaded { queued: 2, .. })),
                "{r:?}"
            );
        }
        // Rejections land in the metrics under their own kind, and the
        // accepted members recorded their queue wait.
        let snap = gw_b.metrics().snapshot();
        let overloaded = snap
            .errors
            .iter()
            .find(|(k, _)| k == "overloaded")
            .map(|(_, n)| *n);
        assert_eq!(overloaded, Some(2));
        assert_eq!(snap.queue_wait.count, 2);
    }

    #[test]
    fn lost_batch_with_non_idempotent_member_is_not_resent() {
        use crate::batch::{BatchCall, BatchItem};
        let (sim, net, _vsr, gw_a, gw_b) = world(Arc::new(Soap11::new()));
        let count = Arc::new(Mutex::new(0u32));
        let c = count.clone();
        gw_a.export(
            VirtualService::new("vault", catalog::lamp(), Middleware::X10, "gw-a"),
            move |sim: &Sim, _: &str, _: &[(String, Value)]| {
                *c.lock() += 1;
                sim.advance(simnet::SimDuration::from_millis(10));
                Ok(Value::Null)
            },
        )
        .unwrap();
        gw_b.invoke(&sim, "vault", "status", &[]).unwrap(); // warm the route
        let executed_before = *count.lock();

        // The response frame is lost mid-batch: the members may all
        // have executed. `switch` is not idempotent, so the whole frame
        // must not be re-sent — every member fails ambiguously instead.
        let t = sim.now();
        net.set_fault_plan(simnet::FaultPlan::new().partition(
            vec![gw_a.node()],
            vec![gw_b.node()],
            t + simnet::SimDuration::from_millis(5),
            t + simnet::SimDuration::from_millis(500),
        ));
        let items = vec![
            BatchItem::Call(BatchCall::new("vault", "status")),
            BatchItem::Call(BatchCall::new("vault", "switch").arg("on", true)),
        ];
        let results = gw_b.invoke_batch(&sim, &items);
        for r in &results {
            assert!(
                matches!(
                    r,
                    Err(MetaError::Transport {
                        not_executed: false,
                        ..
                    })
                ),
                "{r:?}"
            );
        }
        assert_eq!(
            *count.lock() - executed_before,
            2,
            "each member executed exactly once despite the lost reply"
        );
    }

    #[test]
    fn withdraw_removes_service_everywhere() {
        let (sim, _net, vsr, gw_a, gw_b) = world(Arc::new(Soap11::new()));
        export_lamp(&gw_a);
        assert_eq!(vsr.service_count(), 1);
        assert!(gw_a.withdraw("hall-lamp").unwrap());
        assert!(!gw_a.withdraw("hall-lamp").unwrap());
        assert_eq!(vsr.service_count(), 0);
        assert!(gw_b.invoke(&sim, "hall-lamp", "status", &[]).is_err());
    }
}
