//! The Virtual Service Repository.
//!
//! §3.3: "a virtual database which has a lot of information of
//! heterogeneous services such as service locations and service
//! contexts. The VSG and the PCM use this component to detect services
//! … if the protocol of VSG is SOAP, the VSG will be implemented with
//! WSDL and UDDI." And so it is here: the repository is a SOAP service
//! on the backbone whose storage is a UDDI registry holding WSDL
//! documents as tModels.
//!
//! Since this PR the "virtual database" is federated (see
//! [`crate::federation`]): [`Vsr::start_federated`] brings up N
//! replicas with the namespace consistently hashed across shards, and
//! [`VsrClient`] routes each operation to the owning shard's replicas,
//! caching the shard map and failing writes over (with promotion) when
//! a primary is unreachable. [`Vsr::start`] remains the one-replica,
//! one-shard special case and is wire- and behaviour-compatible with
//! the original single-node repository.

use crate::error::MetaError;
use crate::federation::{
    self, shard_lag, start_replicas, sync_cluster, FederationConfig, Replica, ShardMap,
};
use crate::iface::ServiceInterface;
use crate::intern::Name;
use crate::metrics::MetricsRegistry;
use crate::obs::Scope;
use crate::rescache::ShardMapCache;
use crate::resilience::BreakerBank;
use crate::service::{Middleware, VirtualService};
use crate::trace::{HopKind, Span, Tracer};
use parking_lot::Mutex;
use simnet::{Network, NodeId, Sim, SimDuration};
use soap::{RpcCall, SoapClient, SoapError, Value};
use std::fmt;
use std::sync::Arc;

/// The repository's SOAP namespace.
pub const VSR_NS: &str = federation::VSR_NS;

/// Consecutive transport failures before a client opens its breaker
/// for one replica and routes around it.
const ROUTE_BREAKER_THRESHOLD: u32 = 3;
/// How long an opened per-replica breaker stays open before the next
/// probe (short: in a home deployment a replica reboot is seconds).
const ROUTE_BREAKER_WINDOW_MS: u64 = 1_000;
/// `MovedShard` redirects tolerated per operation before giving up
/// (one stale map plus one promotion race is the realistic worst case).
const MAX_REDIRECTS: u32 = 2;

/// A resolved repository record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceRecord {
    /// Service name (interned — clones are refcount bumps).
    pub name: Name,
    /// Native middleware.
    pub middleware: Middleware,
    /// Fronting gateway.
    pub gateway: String,
    /// Reconstructed interface, interned behind `Arc` so resolution
    /// caches and bridge clients share one parse instead of cloning
    /// the whole operation table per call.
    pub interface: Arc<ServiceInterface>,
    /// Service contexts (§3.3), e.g. `("room", "hall")`.
    pub contexts: Vec<(String, String)>,
}

impl ServiceRecord {
    /// The `vsg://` endpoint.
    pub fn endpoint(&self) -> String {
        format!("vsg://{}/{}", self.gateway, self.name)
    }

    /// True when this record describes a composite pipeline rather
    /// than a natively bridged service.
    pub fn is_composite(&self) -> bool {
        self.middleware == Middleware::Composite
    }

    /// The composite pipeline spec carried in the record's contexts,
    /// if any. `None` for native services or malformed specs.
    pub fn composite_spec(&self) -> Option<crate::compose::CompositeSpec> {
        self.contexts
            .iter()
            .find(|(k, _)| k == crate::compose::COMPOSITE_SPEC_CONTEXT)
            .and_then(|(_, xml)| crate::compose::CompositeSpec::from_xml(xml))
    }

    fn from_value(v: &Value) -> Option<ServiceRecord> {
        let name = Name::new(v.field("name")?.as_str()?);
        let middleware = Middleware::from_label(v.field("middleware")?.as_str()?)?;
        let gateway = v.field("gateway")?.as_str()?.to_owned();
        let wsdl_doc = v.field("wsdl")?.as_str()?;
        let parsed = minixml::parse_ref(wsdl_doc).ok()?;
        let desc = wsdl::ServiceDescription::from_xml(&parsed).ok()?;
        let contexts = match v.field("contexts") {
            Some(Value::Record(fields)) => fields
                .iter()
                .filter_map(|(k, v)| v.as_str().map(|s| (k.clone(), s.to_owned())))
                .collect(),
            _ => Vec::new(),
        };
        Some(ServiceRecord {
            name,
            middleware,
            gateway,
            interface: Arc::new(ServiceInterface::from_wsdl(&desc)),
            contexts,
        })
    }
}

/// The running repository service — one handle for the whole cluster,
/// however many replicas it has.
#[derive(Clone)]
pub struct Vsr {
    sim: Sim,
    replicas: Vec<Replica>,
    map: Arc<Mutex<ShardMap>>,
    metrics: Arc<MetricsRegistry>,
    tracer: Tracer,
}

impl Vsr {
    /// Starts a single-replica, single-shard repository on a fresh
    /// node of the backbone `net` — the original §3.3 deployment.
    pub fn start(net: &Network) -> Vsr {
        Vsr::start_federated(net, &FederationConfig::default())
    }

    /// Starts a federated repository: `config.replicas` replicas on
    /// fresh backbone nodes, the namespace consistently hashed over
    /// `config.shards` shards, each shard replicated on up to
    /// `config.replication` replicas (primary first).
    pub fn start_federated(net: &Network, config: &FederationConfig) -> Vsr {
        let tracer = Tracer::new("vsr-cluster");
        let metrics = Arc::new(MetricsRegistry::new());
        let (replicas, map) = start_replicas(net, config, &tracer, &metrics);
        Vsr {
            sim: net.sim().clone(),
            replicas,
            map,
            metrics,
            tracer,
        }
    }

    /// The bootstrap replica's backbone node (what [`VsrClient`]s are
    /// pointed at; they discover the rest via the shard map).
    pub fn node(&self) -> NodeId {
        self.replicas[0].node
    }

    /// Every replica's backbone node, in start order.
    pub fn nodes(&self) -> Vec<NodeId> {
        self.replicas.iter().map(|r| r.node).collect()
    }

    /// A snapshot of the cluster's current shard map.
    pub fn shard_map(&self) -> ShardMap {
        self.map.lock().clone()
    }

    /// The node currently primary for the shard owning `name`.
    pub fn primary_for(&self, name: &str) -> NodeId {
        let map = self.map.lock();
        map.primary(map.shard_of(name))
    }

    /// Number of published services, cluster-wide: each live record is
    /// counted once, on its shard's current primary (backups hold
    /// copies; counting them would double-count).
    pub fn service_count(&self) -> usize {
        let map = self.map.lock();
        self.replicas
            .iter()
            .map(|r| {
                let st = r.state.lock();
                st.entries()
                    .iter()
                    .filter(|(_, e)| {
                        matches!(e.kind, federation::EntryKind::Record(_))
                            && map.primary(e.shard) == r.node
                    })
                    .count()
            })
            .sum()
    }

    /// The underlying registries' inquiry statistics, summed across
    /// replicas (with one replica this is exactly the old single-node
    /// counter).
    pub fn registry_stats(&self) -> wsdl::RegistryStats {
        let mut total = wsdl::RegistryStats::default();
        for r in &self.replicas {
            let stats = r.state.lock().registry.stats();
            total.publishes += stats.publishes;
            total.inquiries += stats.inquiries;
            total.records_scanned += stats.records_scanned;
        }
        total
    }

    /// Toggles index-backed inquiry on every replica's registry
    /// (ablation hook — indexes are maintained either way, only the
    /// lookup path changes, so toggling mid-run is safe).
    pub fn set_indexing(&self, enabled: bool) {
        for r in &self.replicas {
            r.state.lock().registry.set_indexing(enabled);
        }
    }

    /// Turns record leases on (`Some(duration)`) or off (`None`, the
    /// default) on every replica. With leases on, a record not renewed
    /// or re-published within `duration` is reaped lazily on the next
    /// repository operation — a crashed gateway's exports stop
    /// resolving instead of lingering forever. Records published
    /// before the switch have no lease until their next publish/renew.
    pub fn set_lease_duration(&self, duration: Option<SimDuration>) {
        for r in &self.replicas {
            r.state.lock().lease = duration;
        }
    }

    /// Runs one anti-entropy pass over every shard (backups exchange
    /// digests with their primary over the backbone) and refreshes the
    /// per-shard replication-lag gauges. Returns the worst per-shard
    /// lag *after* the pass — 0 means fully converged. The
    /// `SmartHomeBuilder` arms this on a timer for multi-replica
    /// clusters; tests may call it directly.
    pub fn sync_now(&self) -> u64 {
        sync_cluster(
            &self.sim,
            &self.replicas,
            &self.map,
            &self.metrics,
            &self.tracer,
        )
    }

    /// The worst per-shard replication lag right now (entries on a
    /// shard's primary that a backup is missing or holds at a
    /// different version), measured in-process without syncing.
    pub fn replication_lag(&self) -> u64 {
        let prefs = self.map.lock().preference_lists().to_vec();
        (0u32..)
            .zip(&prefs)
            .map(|(shard, prefs)| shard_lag(&self.replicas, shard, prefs[0], &prefs[1..]))
            .max()
            .unwrap_or(0)
    }

    /// The cluster's metrics registry: per-shard op counters live in
    /// the *client* registries, but failover promotions observed
    /// server-side and the replication-lag gauges land here.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Enables or disables the cluster's federation tracer
    /// (replication pushes, anti-entropy exchanges, promotions).
    pub fn set_tracing(&self, on: bool) {
        self.tracer.set_enabled(on);
    }

    /// Drains the cluster tracer's recorded spans.
    pub fn take_spans(&self) -> Vec<Span> {
        self.tracer.take_spans()
    }
}

impl fmt::Debug for Vsr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Vsr")
            .field("replicas", &self.replicas.len())
            .field("shards", &self.map.lock().shard_count())
            .field("services", &self.service_count())
            .finish()
    }
}

/// A client of the repository (used by gateways and PCMs). Shard-map
/// aware: it learns the cluster topology from its bootstrap replica,
/// caches it, routes each operation to the owning shard's preference
/// list, and on a `MovedShard` redirect refreshes the map and retries.
/// Writes that cannot reach a shard's primary fail over to a backup
/// with a promotion request.
#[derive(Debug, Clone)]
pub struct VsrClient {
    soap: SoapClient,
    seed: NodeId,
    sim: Sim,
    tracer: Tracer,
    map_cache: Arc<ShardMapCache>,
    breakers: Arc<BreakerBank>,
    metrics: Arc<MetricsRegistry>,
}

impl VsrClient {
    /// Creates a client calling from `node` on the backbone, pointed
    /// at bootstrap replica `vsr`. Spans are recorded only once
    /// [`VsrClient::with_tracer`] attaches an enabled gateway tracer.
    pub fn new(net: &Network, node: NodeId, vsr: NodeId) -> VsrClient {
        VsrClient {
            soap: SoapClient::on_node(
                net,
                node,
                soap::CpuModel::default(),
                soap::TcpModel::default(),
            ),
            seed: vsr,
            sim: net.sim().clone(),
            tracer: Tracer::new("vsr-client"),
            map_cache: Arc::new(ShardMapCache::new()),
            breakers: Arc::new(BreakerBank::new(
                ROUTE_BREAKER_THRESHOLD,
                SimDuration::from_millis(ROUTE_BREAKER_WINDOW_MS),
            )),
            metrics: Arc::new(MetricsRegistry::new()),
        }
    }

    /// Attributes this client's repository round trips to `tracer`
    /// (the owning gateway's), as `vsr-lookup` spans (plus
    /// `federation` spans for routing decisions).
    pub fn with_tracer(mut self, tracer: Tracer) -> VsrClient {
        self.tracer = tracer;
        self
    }

    /// Records this client's shard routing (per-shard op counters,
    /// failovers, map refreshes) and its `vsr` layer samples into
    /// `metrics` — typically the owning gateway's registry. Without it
    /// they land in a registry of the client's own.
    pub fn with_metrics(mut self, metrics: Arc<MetricsRegistry>) -> VsrClient {
        self.metrics = metrics;
        self
    }

    /// One SOAP round trip to a specific replica, traced and with
    /// faults mapped back to typed errors.
    fn call_node(&self, node: NodeId, call: &RpcCall) -> Result<Value, MetaError> {
        let scope = Scope::child(
            &self.sim,
            &self.tracer,
            &self.metrics,
            HopKind::VsrLookup,
            || call.method.clone(),
        );
        let result = self.soap.call(node, call).map_err(|e| match e {
            SoapError::Fault(f) => MetaError::from_fault_string(&f.string),
            // A wire failure on the repository leg: typed, so callers
            // can tell "VSR down" from a protocol bug and degrade.
            SoapError::Http(h) => MetaError::from_http_error(&h),
            other => MetaError::Protocol(other.to_string()),
        });
        scope.finish(&result);
        result
    }

    /// The synthesized error when no replica could even be tried
    /// (every breaker open, or the map names nobody reachable). It is
    /// transport-classified so gateways engage the same degraded path
    /// as for a single-node VSR outage.
    fn unreachable() -> MetaError {
        MetaError::transport("all VSR replicas unreachable", true)
    }

    /// The cached shard map, fetching it if this client has none yet.
    fn map(&self) -> Result<Arc<ShardMap>, MetaError> {
        match self.map_cache.get() {
            Some(map) => Ok(map),
            None => self.refresh_map(),
        }
    }

    /// Fetches a fresh shard map from the first reachable replica:
    /// the bootstrap node first, then every replica the last-known map
    /// named (so a client survives its bootstrap replica dying).
    fn refresh_map(&self) -> Result<Arc<ShardMap>, MetaError> {
        let mut candidates: Vec<NodeId> = vec![self.seed];
        if let Some(stale) = self.map_cache.peek() {
            for n in stale.nodes() {
                if !candidates.contains(&n) {
                    candidates.push(n);
                }
            }
        }
        let mut last: Option<MetaError> = None;
        for node in candidates {
            if !self.breakers.admit(node, self.sim.now()) {
                continue;
            }
            match self.call_node(node, &RpcCall::new(VSR_NS, "shard_map")) {
                Ok(v) => {
                    self.breakers.on_success(node);
                    match ShardMap::from_value(&v) {
                        Some(map) => {
                            let map = Arc::new(map);
                            self.map_cache.put(map.clone());
                            self.metrics.record_shard_map_refresh();
                            self.tracer.note(&self.sim, HopKind::Federation, || {
                                format!("shard map v{} from n{}", map.version(), node.0)
                            });
                            return Ok(map);
                        }
                        None => last = Some(MetaError::Repository("bad shard_map reply".into())),
                    }
                }
                Err(e) if e.is_transport_failure() => {
                    self.breakers.on_failure(node, self.sim.now());
                    last = Some(e);
                }
                Err(e) => {
                    self.breakers.on_success(node);
                    last = Some(e);
                }
            }
        }
        Err(last.unwrap_or_else(Self::unreachable))
    }

    /// Routes one operation to `shard`: walks the shard's preference
    /// list (skipping replicas whose breaker is open), failing over on
    /// transport errors — a write landing on a backup carries a
    /// promotion request — and refreshing the map on `MovedShard`.
    fn route(
        &self,
        shard: u32,
        write: bool,
        build: &dyn Fn(bool) -> RpcCall,
    ) -> Result<Value, MetaError> {
        self.metrics.record_shard_op(shard);
        let mut map = self.map()?;
        let mut redirects = 0u32;
        'with_map: loop {
            let prefs: Vec<NodeId> = map.replicas_for(shard).to_vec();
            let mut last_transport: Option<MetaError> = None;
            for (i, &node) in prefs.iter().enumerate() {
                if !self.breakers.admit(node, self.sim.now()) {
                    continue;
                }
                match self.call_node(node, &build(write && i > 0)) {
                    Ok(v) => {
                        self.breakers.on_success(node);
                        if i > 0 {
                            self.metrics.record_vsr_failover();
                            self.tracer.note(&self.sim, HopKind::Federation, || {
                                format!("shard {shard} failover -> n{}", node.0)
                            });
                        }
                        return Ok(v);
                    }
                    Err(MetaError::MovedShard { shard: s, node: to }) => {
                        // The replica is alive but disowns the shard:
                        // our map is stale. Refresh and re-route.
                        self.breakers.on_success(node);
                        self.map_cache.invalidate();
                        if redirects >= MAX_REDIRECTS {
                            return Err(MetaError::Repository(format!(
                                "shard {s} routing did not settle (last redirect -> n{to})"
                            )));
                        }
                        redirects += 1;
                        self.tracer.note(&self.sim, HopKind::Federation, || {
                            format!("shard {s} moved, refreshing map (n{} -> n{to})", node.0)
                        });
                        map = self.refresh_map()?;
                        continue 'with_map;
                    }
                    Err(e) if e.is_transport_failure() => {
                        self.breakers.on_failure(node, self.sim.now());
                        last_transport = Some(e);
                    }
                    Err(e) => {
                        // The replica answered (liveness proven): a
                        // domain error is final, not worth a failover.
                        self.breakers.on_success(node);
                        return Err(e);
                    }
                }
            }
            return Err(last_transport.unwrap_or_else(Self::unreachable));
        }
    }

    /// Registers a gateway's backbone node under its name. The
    /// directory is broadcast to every replica (it is not sharded);
    /// success on any replica counts — anti-entropy spreads the rest.
    pub fn register_gateway(&self, name: &str, node: NodeId) -> Result<(), MetaError> {
        let map = self.map()?;
        let mut ok = false;
        let mut last: Option<MetaError> = None;
        for target in map.nodes() {
            if !self.breakers.admit(target, self.sim.now()) {
                continue;
            }
            let call = RpcCall::new(VSR_NS, "register_gateway")
                .arg("name", name)
                .arg("node", i64::from(node.0));
            match self.call_node(target, &call) {
                Ok(_) => {
                    self.breakers.on_success(target);
                    ok = true;
                }
                Err(e) => {
                    if e.is_transport_failure() {
                        self.breakers.on_failure(target, self.sim.now());
                    } else {
                        self.breakers.on_success(target);
                    }
                    last = Some(e);
                }
            }
        }
        if ok {
            Ok(())
        } else {
            Err(last.unwrap_or_else(Self::unreachable))
        }
    }

    /// Looks up a gateway's backbone node, trying replicas in map
    /// order (any replica may know; a directory miss on one is
    /// retried on the others in case replication is still catching
    /// up).
    pub fn gateway_node(&self, name: &str) -> Result<NodeId, MetaError> {
        let map = self.map()?;
        let mut last: Option<MetaError> = None;
        for target in map.nodes() {
            if !self.breakers.admit(target, self.sim.now()) {
                continue;
            }
            match self.call_node(
                target,
                &RpcCall::new(VSR_NS, "gateway_node").arg("name", name),
            ) {
                Ok(v) => {
                    self.breakers.on_success(target);
                    return v
                        .as_int()
                        .and_then(|n| u32::try_from(n).ok())
                        .map(NodeId)
                        .ok_or_else(|| MetaError::Repository("bad gateway_node reply".into()));
                }
                Err(e) if e.is_transport_failure() => {
                    self.breakers.on_failure(target, self.sim.now());
                    last = Some(e);
                }
                Err(e) => {
                    self.breakers.on_success(target);
                    last = Some(e);
                }
            }
        }
        Err(last.unwrap_or_else(Self::unreachable))
    }

    /// Publishes a virtual service (a write: routed to its shard's
    /// primary).
    pub fn publish(&self, service: &VirtualService) -> Result<(), MetaError> {
        let wsdl_doc = service
            .interface
            .to_wsdl(&service.name, &service.endpoint())
            .to_xml()
            .to_document();
        let contexts: Vec<(String, Value)> = service
            .contexts
            .iter()
            .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
            .collect();
        let shard = self.map()?.shard_of(&service.name);
        self.route(shard, true, &|promote| {
            let mut call = RpcCall::new(VSR_NS, "publish")
                .arg("name", service.name.as_str())
                .arg("middleware", service.origin.label())
                .arg("gateway", service.gateway.as_str())
                .arg("wsdl", wsdl_doc.clone())
                .arg("contexts", Value::Record(contexts.clone()))
                .arg("shard", i64::from(shard));
            if promote {
                call = call.arg("promote", true);
            }
            call
        })
        .map(|_| ())
    }

    /// Finds services whose name matches `pattern` and whose context bag
    /// contains every given `(key, value)` pair — §3.3's context-aware
    /// discovery ("the VSG and the PCM use this component to detect
    /// services or aware contexts"). Fans out across shards and merges.
    pub fn find_by_context(
        &self,
        pattern: &str,
        contexts: &[(&str, &str)],
    ) -> Result<Vec<ServiceRecord>, MetaError> {
        let ctx: Vec<(String, Value)> = contexts
            .iter()
            .map(|(k, v)| ((*k).to_owned(), Value::Str((*v).to_owned())))
            .collect();
        self.fan_out(&|shard| {
            RpcCall::new(VSR_NS, "find_ctx")
                .arg("pattern", pattern)
                .arg("contexts", Value::Record(ctx.clone()))
                .arg("shard", i64::from(shard))
        })
    }

    /// Renews `name`'s lease (a no-op when the repository runs without
    /// leases). Returns whether the service is currently registered.
    /// With leases on this is a write — it is routed (and fails over)
    /// like one, so a renewal can promote a backup if the shard's
    /// primary just died.
    pub fn renew(&self, name: &str) -> Result<bool, MetaError> {
        let shard = self.map()?.shard_of(name);
        let v = self.route(shard, true, &|promote| {
            let mut call = RpcCall::new(VSR_NS, "renew")
                .arg("name", name)
                .arg("shard", i64::from(shard));
            if promote {
                call = call.arg("promote", true);
            }
            call
        })?;
        v.as_bool()
            .ok_or_else(|| MetaError::Repository("bad renew reply".into()))
    }

    /// Withdraws a service by name. Returns whether it existed.
    pub fn unpublish(&self, name: &str) -> Result<bool, MetaError> {
        let shard = self.map()?.shard_of(name);
        let v = self.route(shard, true, &|promote| {
            let mut call = RpcCall::new(VSR_NS, "unpublish")
                .arg("name", name)
                .arg("shard", i64::from(shard));
            if promote {
                call = call.arg("promote", true);
            }
            call
        })?;
        v.as_bool()
            .ok_or_else(|| MetaError::Repository("bad unpublish reply".into()))
    }

    /// Finds services by name pattern (`%` wildcards) and optional
    /// middleware filter, fanning out across shards; the merged result
    /// is sorted by name.
    pub fn find(
        &self,
        pattern: &str,
        middleware: Option<Middleware>,
    ) -> Result<Vec<ServiceRecord>, MetaError> {
        self.fan_out(&|shard| {
            RpcCall::new(VSR_NS, "find")
                .arg("pattern", pattern)
                .arg("middleware", middleware.map_or("", Middleware::label))
                .arg("shard", i64::from(shard))
        })
    }

    /// Resolves one service by exact name (routed straight to its
    /// shard — one round trip, no fan-out).
    pub fn resolve(&self, name: &str) -> Result<ServiceRecord, MetaError> {
        let shard = self.map()?.shard_of(name);
        let v = self.route(shard, false, &|_| {
            RpcCall::new(VSR_NS, "resolve")
                .arg("name", name)
                .arg("shard", i64::from(shard))
        })?;
        ServiceRecord::from_value(&v)
            .ok_or_else(|| MetaError::Repository("bad resolve reply".into()))
    }

    /// Number of published services, summed across shards.
    pub fn count(&self) -> Result<usize, MetaError> {
        let map = self.map()?;
        let mut total: usize = 0;
        for shard in 0..map.shard_count() {
            let v = self.route(shard, false, &|_| {
                RpcCall::new(VSR_NS, "count").arg("shard", i64::from(shard))
            })?;
            total += v
                .as_int()
                .and_then(|n| usize::try_from(n).ok())
                .ok_or_else(|| MetaError::Repository("bad count reply".into()))?;
        }
        Ok(total)
    }

    /// Shared shard fan-out for the inquiry operations: queries every
    /// shard, concatenates, sorts by name (shards are disjoint, so no
    /// dedup is needed).
    fn fan_out(&self, build: &dyn Fn(u32) -> RpcCall) -> Result<Vec<ServiceRecord>, MetaError> {
        let map = self.map()?;
        let mut out: Vec<ServiceRecord> = Vec::new();
        for shard in 0..map.shard_count() {
            let v = self.route(shard, false, &|_| build(shard))?;
            match v {
                Value::List(items) => {
                    out.extend(items.iter().filter_map(ServiceRecord::from_value));
                }
                _ => return Err(MetaError::Repository("bad find reply".into())),
            }
        }
        out.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iface::catalog;
    use simnet::Sim;

    fn world() -> (Sim, Network, Vsr, VsrClient) {
        let sim = Sim::new(1);
        let net = Network::ethernet(&sim);
        let vsr = Vsr::start(&net);
        let client_node = net.attach("pcm");
        let client = VsrClient::new(&net, client_node, vsr.node());
        (sim, net, vsr, client)
    }

    fn lamp_service() -> VirtualService {
        VirtualService::new("hall-lamp", catalog::lamp(), Middleware::X10, "x10-gw")
    }

    #[test]
    fn publish_resolve_round_trip() {
        let (_sim, _net, vsr, client) = world();
        client.publish(&lamp_service()).unwrap();
        assert_eq!(vsr.service_count(), 1);
        let rec = client.resolve("hall-lamp").unwrap();
        assert_eq!(rec.name, "hall-lamp");
        assert_eq!(rec.middleware, Middleware::X10);
        assert_eq!(rec.gateway, "x10-gw");
        assert_eq!(rec.endpoint(), "vsg://x10-gw/hall-lamp");
        assert_eq!(*rec.interface, catalog::lamp());
    }

    #[test]
    fn find_with_filters() {
        let (_sim, _net, _vsr, client) = world();
        client.publish(&lamp_service()).unwrap();
        client
            .publish(&VirtualService::new(
                "living-room-vcr",
                catalog::vcr(),
                Middleware::Havi,
                "havi-gw",
            ))
            .unwrap();
        client
            .publish(&VirtualService::new(
                "laserdisc",
                catalog::laserdisc(),
                Middleware::Jini,
                "jini-gw",
            ))
            .unwrap();

        assert_eq!(client.find("%", None).unwrap().len(), 3);
        assert_eq!(client.find("l%", None).unwrap().len(), 2);
        let havi_only = client.find("%", Some(Middleware::Havi)).unwrap();
        assert_eq!(havi_only.len(), 1);
        assert_eq!(havi_only[0].name, "living-room-vcr");
        assert!(client.find("%", Some(Middleware::Upnp)).unwrap().is_empty());
        assert_eq!(client.count().unwrap(), 3);
    }

    #[test]
    fn unknown_service_resolution_fails() {
        let (_sim, _net, _vsr, client) = world();
        let err = client.resolve("ghost").unwrap_err();
        assert!(err.to_string().contains("ghost"));
    }

    #[test]
    fn republish_replaces() {
        let (_sim, _net, vsr, client) = world();
        client.publish(&lamp_service()).unwrap();
        let mut moved = lamp_service();
        moved.gateway = "x10-gw-2".into();
        client.publish(&moved).unwrap();
        assert_eq!(vsr.service_count(), 1);
        assert_eq!(client.resolve("hall-lamp").unwrap().gateway, "x10-gw-2");
    }

    #[test]
    fn unpublish() {
        let (_sim, _net, vsr, client) = world();
        client.publish(&lamp_service()).unwrap();
        assert!(client.unpublish("hall-lamp").unwrap());
        assert!(!client.unpublish("hall-lamp").unwrap());
        assert_eq!(vsr.service_count(), 0);
        assert!(client.resolve("hall-lamp").is_err());
    }

    #[test]
    fn gateway_directory() {
        let (_sim, net, _vsr, client) = world();
        let gw_node = net.attach("x10-gw");
        client.register_gateway("x10-gw", gw_node).unwrap();
        assert_eq!(client.gateway_node("x10-gw").unwrap(), gw_node);
        assert!(matches!(
            client.gateway_node("ghost-gw"),
            Err(MetaError::GatewayUnreachable(_))
        ));
    }

    #[test]
    fn leases_reap_unrenewed_records_lazily() {
        let (sim, _net, vsr, client) = world();
        vsr.set_lease_duration(Some(SimDuration::from_secs(60)));
        client.publish(&lamp_service()).unwrap();

        sim.advance(SimDuration::from_secs(30));
        assert!(client.resolve("hall-lamp").is_ok(), "mid-lease");
        // Renewal restarts the clock.
        assert!(client.renew("hall-lamp").unwrap());
        sim.advance(SimDuration::from_secs(45));
        assert!(client.resolve("hall-lamp").is_ok(), "renewed lease holds");

        // 45 + 20 > 60: the record is reaped on the next operation.
        sim.advance(SimDuration::from_secs(20));
        assert!(matches!(
            client.resolve("hall-lamp"),
            Err(MetaError::UnknownService(_))
        ));
        assert_eq!(vsr.service_count(), 0, "expired record gone");
        assert!(!client.renew("hall-lamp").unwrap(), "nothing to renew");

        // Re-publishing (a recovered gateway) brings it back.
        client.publish(&lamp_service()).unwrap();
        assert!(client.resolve("hall-lamp").is_ok());
    }

    #[test]
    fn leases_off_by_default_records_never_expire() {
        let (sim, _net, _vsr, client) = world();
        client.publish(&lamp_service()).unwrap();
        sim.advance(SimDuration::from_secs(3600));
        assert!(client.resolve("hall-lamp").is_ok());
    }

    #[test]
    fn repository_access_costs_soap_round_trips() {
        let (sim, _net, _vsr, client) = world();
        let before = sim.now();
        client.publish(&lamp_service()).unwrap();
        client.resolve("hall-lamp").unwrap();
        assert!(sim.now() - before > simnet::SimDuration::from_millis(2));
    }

    #[test]
    fn federated_cluster_replicates_writes_eagerly() {
        let sim = Sim::new(7);
        let net = Network::ethernet(&sim);
        let vsr = Vsr::start_federated(
            &net,
            &FederationConfig {
                shards: 4,
                replicas: 3,
                replication: 2,
                ..FederationConfig::default()
            },
        );
        assert_eq!(vsr.nodes().len(), 3);
        let client_node = net.attach("pcm");
        let client = VsrClient::new(&net, client_node, vsr.node());
        client.publish(&lamp_service()).unwrap();
        assert_eq!(vsr.service_count(), 1, "counted once despite replicas");
        assert_eq!(
            vsr.replication_lag(),
            0,
            "eager push converged without anti-entropy"
        );
        assert_eq!(client.resolve("hall-lamp").unwrap().gateway, "x10-gw");
    }

    #[test]
    fn moved_shard_redirect_refreshes_client_map() {
        let sim = Sim::new(3);
        let net = Network::ethernet(&sim);
        let vsr = Vsr::start_federated(
            &net,
            &FederationConfig {
                shards: 4,
                replicas: 3,
                replication: 2,
                ..FederationConfig::default()
            },
        );
        let client_node = net.attach("pcm");
        let client = VsrClient::new(&net, client_node, vsr.node())
            .with_metrics(Arc::new(crate::metrics::MetricsRegistry::new()));
        client.publish(&lamp_service()).unwrap();

        // Promote the backup server-side: the client's cached map is
        // now stale for this shard, but a write re-routes through the
        // MovedShard redirect and still lands.
        let map = vsr.shard_map();
        let shard = map.shard_of("hall-lamp");
        let backup = map.replicas_for(shard)[1];
        vsr.map.lock().promote(shard, backup);
        assert!(client.renew("hall-lamp").is_ok());
        assert_eq!(vsr.shard_map().primary(shard), backup);
        assert_eq!(client.resolve("hall-lamp").unwrap().name, "hall-lamp");
    }
}
