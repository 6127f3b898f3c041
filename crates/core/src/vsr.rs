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
use minixml::{ParseError, Reader};
use parking_lot::Mutex;
use simnet::{Network, NodeId, Sim, SimDuration};
use soap::{Arg, Compound, SoapClient, SoapError, Value, ValueError};
use std::borrow::Cow;
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

/// The flag a write carries when it fails over to a backup.
static PROMOTE: Value = Value::Bool(true);

/// Reads a reply's `return` element into a `T` (see
/// [`SoapClient::call_parts_decode`]).
type Decode<T> = fn(&mut Reader<'_>) -> Result<Result<T, ValueError>, ParseError>;

/// A resolved repository record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceRecord {
    /// Service name (interned — clones are refcount bumps).
    pub name: Name,
    /// Native middleware.
    pub middleware: Middleware,
    /// Fronting gateway (interned).
    pub gateway: Name,
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

    /// Reads a `resolve` reply's `return` element straight into a
    /// record, in one pass. Each field is read once and the first of
    /// each named field is kept; strings are borrowed from the reply
    /// ([`Value::decode_str`]), the WSDL text is read by
    /// [`ServiceInterface::from_document`], and the names are interned.
    /// Unknown and repeated fields are checked as they would decode, so
    /// a field's value error is the reply's error whatever the field.
    /// `Ok(None)` is a reply that decodes but is no record: not a
    /// Struct, or a field missing or of the wrong type, or a WSDL
    /// document that does not read.
    fn decode(r: &mut Reader<'_>) -> Result<Result<Option<ServiceRecord>, ValueError>, ParseError> {
        ServiceRecord::decode_within(r, soap::MAX_DEPTH)
    }

    /// [`ServiceRecord::decode`] of an element that may nest `depth`
    /// levels of Structs and Arrays, as [`Value::decode`] counts them.
    fn decode_within(
        r: &mut Reader<'_>,
        depth: usize,
    ) -> Result<Result<Option<ServiceRecord>, ValueError>, ParseError> {
        let (Some(Compound::Struct), Some(depth)) = (Value::compound(r), depth.checked_sub(1))
        else {
            return Ok(Value::decode_str(r, depth)?.map(|_| None));
        };
        let mut fields = RecordFields::default();
        let decoded = Value::decode_members(r, |name, r| fields.read(name, r, depth))?;
        Ok(decoded.map(|()| fields.into_record()))
    }

    /// Reads a `find`/`find_ctx` reply: an Array of records, each item
    /// read as [`ServiceRecord::decode`] reads a reply, one level
    /// deeper. Items that are no record are dropped; `Ok(None)` is a
    /// reply that is no Array.
    fn decode_list(
        r: &mut Reader<'_>,
    ) -> Result<Result<Option<Vec<ServiceRecord>>, ValueError>, ParseError> {
        if Value::compound(r) != Some(Compound::Array) {
            return Ok(Value::decode(r)?.map(|_| None));
        }
        let mut records = Vec::new();
        let decoded = Value::decode_members(r, |_, r| {
            let record = ServiceRecord::decode_within(r, soap::MAX_DEPTH - 1)?;
            Ok(record.map(|record| records.extend(record)))
        })?;
        Ok(decoded.map(|()| Some(records)))
    }

    /// The `Value`-tree decode the one-pass [`ServiceRecord::decode`]
    /// replaced, kept as its test oracle.
    #[cfg(test)]
    fn from_value(v: &Value) -> Option<ServiceRecord> {
        let name = Name::new(v.field("name")?.as_str()?);
        let middleware = Middleware::from_label(v.field("middleware")?.as_str()?)?;
        let gateway = Name::new(v.field("gateway")?.as_str()?);
        let wsdl_doc = v.field("wsdl")?.as_str()?;
        let desc = wsdl::ServiceDescription::from_document(wsdl_doc).ok()?;
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
            interface: Arc::new(ServiceInterface::from_wsdl(desc)),
            contexts,
        })
    }
}

/// The first of each field of a record reply, as
/// [`ServiceRecord::decode`] reads them: a string field is `None` until
/// it is met, and `Some(None)` when its first occurrence is no string.
#[derive(Default)]
struct RecordFields<'a> {
    name: Option<Option<Cow<'a, str>>>,
    middleware: Option<Option<Cow<'a, str>>>,
    gateway: Option<Option<Cow<'a, str>>>,
    wsdl: Option<Option<Cow<'a, str>>>,
    /// The first `contexts` field's string members: none unless it is
    /// a Struct.
    contexts: Option<Vec<(String, String)>>,
}

impl<'a> RecordFields<'a> {
    /// Reads the field `name` whose start tag the reader just returned,
    /// which may nest `depth` levels of Structs and Arrays.
    fn read(
        &mut self,
        name: &str,
        r: &mut Reader<'a>,
        depth: usize,
    ) -> Result<Result<(), ValueError>, ParseError> {
        let slot = match name {
            "name" => &mut self.name,
            "middleware" => &mut self.middleware,
            "gateway" => &mut self.gateway,
            "wsdl" => &mut self.wsdl,
            "contexts" if self.contexts.is_none() => {
                return Ok(read_contexts(r, depth)?.map(|contexts| self.contexts = Some(contexts)));
            }
            _ => return Ok(Value::decode_str(r, depth)?.map(drop)),
        };
        Ok(Value::decode_str(r, depth)?.map(|s| {
            slot.get_or_insert(s);
        }))
    }

    /// The record, or `None` when a field is missing or of the wrong
    /// type, the middleware unknown or the WSDL unreadable.
    fn into_record(self) -> Option<ServiceRecord> {
        let (Some(Some(name)), Some(Some(middleware)), Some(Some(gateway)), Some(Some(wsdl))) =
            (self.name, self.middleware, self.gateway, self.wsdl)
        else {
            return None;
        };
        let middleware = Middleware::from_label(&middleware)?;
        let interface = ServiceInterface::from_document(&wsdl).ok()?;
        Some(ServiceRecord {
            name: Name::new(&name),
            middleware,
            gateway: Name::new(&gateway),
            interface: Arc::new(interface),
            contexts: self.contexts.unwrap_or_default(),
        })
    }
}

/// Reads a record's `contexts` field, which may nest `depth` levels of
/// Structs and Arrays: a Struct's string members, copied out, and
/// nothing for any other value.
fn read_contexts(
    r: &mut Reader<'_>,
    depth: usize,
) -> Result<Result<Vec<(String, String)>, ValueError>, ParseError> {
    let (Some(Compound::Struct), Some(depth)) = (Value::compound(r), depth.checked_sub(1)) else {
        return Ok(Value::decode_str(r, depth)?.map(|_| Vec::new()));
    };
    let mut contexts = Vec::new();
    let read = Value::decode_members(r, |key, r| {
        Ok(Value::decode_str(r, depth)?.map(|value| {
            contexts.extend(value.map(|value| (key.to_owned(), value.into_owned())));
        }))
    })?;
    Ok(read.map(|()| contexts))
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
                        matches!(e.kind, federation::EntryKind::Record { .. })
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
    /// faults mapped back to typed errors. The call is written from the
    /// borrowed `args`, and the reply's `return` element is read
    /// straight into a `T` by `decode` (`None`: the reply had none).
    fn call_node<'a, T>(
        &self,
        node: NodeId,
        method: &str,
        args: impl Iterator<Item = (&'a str, Arg<'a>)> + Clone,
        decode: Decode<T>,
    ) -> Result<Option<T>, MetaError> {
        let scope = Scope::child(
            &self.sim,
            &self.tracer,
            &self.metrics,
            HopKind::VsrLookup,
            || method.to_owned(),
        );
        let result = self
            .soap
            .call_parts_decode(node, VSR_NS, method, args, decode)
            .map_err(|e| match e {
                SoapError::Fault(f) => MetaError::from_fault_string(&f.string),
                // A wire failure on the repository leg: typed, so callers
                // can tell "VSR down" from a protocol bug and degrade.
                SoapError::Http(h) => MetaError::from_http_error(&h),
                other => MetaError::Protocol(other.to_string()),
            });
        scope.finish(&result);
        result
    }

    /// One round trip to replica `node` behind its breaker: `None` when
    /// the breaker is open (the call is not even written), otherwise
    /// the result, already fed back to the breaker. Transitions go
    /// unreported: replica breakers steer routing, and the gateway
    /// reports its own peers' health.
    fn guarded<'a, T>(
        &self,
        node: NodeId,
        method: &str,
        args: impl Iterator<Item = (&'a str, Arg<'a>)> + Clone,
        decode: Decode<T>,
    ) -> Option<Result<Option<T>, MetaError>> {
        if !self.breakers.admit(node, self.sim.now()).0 {
            return None;
        }
        let result = self.call_node(node, method, args, decode);
        self.breakers.record(node, self.sim.now(), &result);
        Some(result)
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
            for &n in stale.nodes() {
                if !candidates.contains(&n) {
                    candidates.push(n);
                }
            }
        }
        let mut last: Option<MetaError> = None;
        for node in candidates {
            let Some(result) = self.guarded(node, "shard_map", [].into_iter(), Value::decode)
            else {
                continue;
            };
            match result.map(|v| v.as_ref().and_then(ShardMap::from_value)) {
                Ok(Some(map)) => {
                    let map = Arc::new(map);
                    self.map_cache.put(map.clone());
                    self.metrics.record_shard_map_refresh();
                    self.tracer.note(&self.sim, HopKind::Federation, || {
                        format!("shard map v{} from n{}", map.version(), node.0)
                    });
                    return Ok(map);
                }
                Ok(None) => last = Some(MetaError::Repository("bad shard_map reply".into())),
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(Self::unreachable))
    }

    /// Routes one operation to `shard`: walks the shard's preference
    /// list (skipping replicas whose breaker is open), failing over on
    /// transport errors — a write landing on a backup carries a
    /// promotion request — and refreshing the map on `MovedShard`.
    /// Every routed call names its shard after `args`, so the owning
    /// replica need not hash the name again.
    fn route<T>(
        &self,
        shard: u32,
        write: bool,
        method: &str,
        args: &[(&str, Arg<'_>)],
        decode: Decode<T>,
    ) -> Result<Option<T>, MetaError> {
        self.metrics.record_shard_op(shard);
        let shard_arg = Value::Int(i64::from(shard));
        let routed = args
            .iter()
            .copied()
            .chain([("shard", Arg::Value(&shard_arg))]);
        let mut map = self.map()?;
        let mut redirects = 0u32;
        'with_map: loop {
            let mut last_transport: Option<MetaError> = None;
            for (i, &node) in map.replicas_for(shard).iter().enumerate() {
                let promote = (write && i > 0).then_some(("promote", Arg::Value(&PROMOTE)));
                let Some(result) =
                    self.guarded(node, method, routed.clone().chain(promote), decode)
                else {
                    continue;
                };
                match result {
                    Ok(v) => {
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
                    Err(e) if e.is_transport_failure() => last_transport = Some(e),
                    // The replica answered (liveness proven): a domain
                    // error is final, not worth a failover.
                    Err(e) => return Err(e),
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
        let node = Value::Int(i64::from(node.0));
        let args = [("name", Arg::Str(name)), ("node", Arg::Value(&node))];
        let mut ok = false;
        let mut last: Option<MetaError> = None;
        for &target in map.nodes() {
            match self.guarded(target, "register_gateway", args.into_iter(), Value::decode) {
                Some(Ok(_)) => ok = true,
                Some(Err(e)) => last = Some(e),
                None => {}
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
        for &target in map.nodes() {
            match self.guarded(
                target,
                "gateway_node",
                [("name", Arg::Str(name))].into_iter(),
                Value::decode,
            ) {
                Some(Ok(v)) => {
                    return v
                        .as_ref()
                        .and_then(Value::as_int)
                        .and_then(|n| u32::try_from(n).ok())
                        .map(NodeId)
                        .ok_or_else(|| MetaError::Repository("bad gateway_node reply".into()));
                }
                Some(Err(e)) => last = Some(e),
                None => {}
            }
        }
        Err(last.unwrap_or_else(Self::unreachable))
    }

    /// Publishes a virtual service (a write: routed to its shard's
    /// primary). The WSDL document is written once, by the streaming
    /// writer, and every attempt sends it from the same borrowed
    /// argument list.
    pub fn publish(&self, service: &VirtualService) -> Result<(), MetaError> {
        let wsdl_doc = service
            .interface
            .to_wsdl(&service.name, &service.endpoint())
            .to_document();
        let contexts = Value::Record(
            service
                .contexts
                .iter()
                .map(|(k, v)| (k.clone(), Value::from(v.as_str())))
                .collect(),
        );
        let shard = self.map()?.shard_of(&service.name);
        let args = [
            ("name", Arg::Str(&service.name)),
            ("middleware", Arg::Str(service.origin.label())),
            ("gateway", Arg::Str(&service.gateway)),
            ("wsdl", Arg::Str(&wsdl_doc)),
            ("contexts", Arg::Value(&contexts)),
        ];
        self.route(shard, true, "publish", &args, Value::decode)
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
        let contexts = Value::Record(
            contexts
                .iter()
                .map(|(k, v)| ((*k).to_owned(), Value::from(*v)))
                .collect(),
        );
        self.fan_out(
            "find_ctx",
            &[
                ("pattern", Arg::Str(pattern)),
                ("contexts", Arg::Value(&contexts)),
            ],
        )
    }

    /// Renews `name`'s lease (a no-op when the repository runs without
    /// leases). Returns whether the service is currently registered.
    /// With leases on this is a write — it is routed (and fails over)
    /// like one, so a renewal can promote a backup if the shard's
    /// primary just died.
    pub fn renew(&self, name: &str) -> Result<bool, MetaError> {
        self.write_by_name("renew", name)
    }

    /// Withdraws a service by name. Returns whether it existed.
    pub fn unpublish(&self, name: &str) -> Result<bool, MetaError> {
        self.write_by_name("unpublish", name)
    }

    /// A write whose only argument is the service's name, routed to the
    /// name's shard, answered with a flag.
    fn write_by_name(&self, method: &str, name: &str) -> Result<bool, MetaError> {
        let shard = self.map()?.shard_of(name);
        self.route(
            shard,
            true,
            method,
            &[("name", Arg::Str(name))],
            Value::decode,
        )?
        .as_ref()
        .and_then(Value::as_bool)
        .ok_or_else(|| MetaError::Repository(format!("bad {method} reply")))
    }

    /// Finds services by name pattern (`%` wildcards) and optional
    /// middleware filter, fanning out across shards; the merged result
    /// is sorted by name.
    pub fn find(
        &self,
        pattern: &str,
        middleware: Option<Middleware>,
    ) -> Result<Vec<ServiceRecord>, MetaError> {
        let middleware = middleware.map_or("", Middleware::label);
        self.fan_out(
            "find",
            &[
                ("pattern", Arg::Str(pattern)),
                ("middleware", Arg::Str(middleware)),
            ],
        )
    }

    /// Resolves one service by exact name (routed straight to its
    /// shard — one round trip, no fan-out). The reply decodes straight
    /// into the record.
    pub fn resolve(&self, name: &str) -> Result<ServiceRecord, MetaError> {
        let shard = self.map()?.shard_of(name);
        self.route(
            shard,
            false,
            "resolve",
            &[("name", Arg::Str(name))],
            ServiceRecord::decode,
        )?
        .flatten()
        .ok_or_else(|| MetaError::Repository("bad resolve reply".into()))
    }

    /// Number of published services, summed across shards.
    pub fn count(&self) -> Result<usize, MetaError> {
        let map = self.map()?;
        let mut total: usize = 0;
        for shard in 0..map.shard_count() {
            total += self
                .route(shard, false, "count", &[], Value::decode)?
                .as_ref()
                .and_then(Value::as_int)
                .and_then(|n| usize::try_from(n).ok())
                .ok_or_else(|| MetaError::Repository("bad count reply".into()))?;
        }
        Ok(total)
    }

    /// Shared shard fan-out for the inquiry operations: queries every
    /// shard, concatenates, sorts by name (shards are disjoint, so no
    /// dedup is needed). Each shard's reply decodes item by item into
    /// records.
    fn fan_out(
        &self,
        method: &str,
        args: &[(&str, Arg<'_>)],
    ) -> Result<Vec<ServiceRecord>, MetaError> {
        let map = self.map()?;
        let mut out: Vec<ServiceRecord> = Vec::new();
        for shard in 0..map.shard_count() {
            match self
                .route(shard, false, method, args, ServiceRecord::decode_list)?
                .flatten()
            {
                Some(records) => out.extend(records),
                None => return Err(MetaError::Repository("bad find reply".into())),
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

    #[test]
    fn record_decoder_reads_what_the_replica_writes() {
        let (_sim, _net, _vsr, client) = world();
        let service = lamp_service()
            .context("room", "hall")
            .context("note", "a & <b>");
        client.publish(&service).unwrap();
        let rec = client.resolve("hall-lamp").unwrap();
        assert_eq!(
            rec.contexts,
            [
                ("room".to_owned(), "hall".to_owned()),
                ("note".to_owned(), "a & <b>".to_owned())
            ]
        );
        assert_eq!(*rec.interface, catalog::lamp());
        assert_eq!(client.find("%", None).unwrap(), [rec]);
    }
}

/// The one-pass record decoders against the `Value` tree: a reply
/// decoded by [`ServiceRecord::decode`] must give what decoding it to a
/// `Value` and then running the [`ServiceRecord::from_value`] oracle
/// gives — the same record, or the same error kind and message.
#[cfg(test)]
mod decode_oracle {
    use super::*;
    use crate::iface::catalog;
    use proptest::prelude::*;
    use soap::{decode_response, fault_envelope, Fault};

    fn wsdl_text(name: &str) -> String {
        let iface = [catalog::lamp(), catalog::vcr(), catalog::display()][name.len() % 3].clone();
        iface
            .to_wsdl(name, &format!("vsg://gw/{name}"))
            .to_document()
    }

    fn escape(s: &str) -> String {
        minixml::escape_text(s)
    }

    /// Struct fields a record reply can carry: every field well typed,
    /// mistyped, undecodable or nil, WSDL text that does not read, and
    /// unknown fields that decode or do not.
    fn field_pool() -> Vec<String> {
        let wsdl = wsdl_text("hall-lamp");
        vec![
            r#"<name xsi:type="xsd:string">hall-lamp</name>"#.into(),
            r#"<name xsi:type="xsd:string">Den &amp; VCR</name>"#.into(),
            r#"<name xsi:type="xsd:long">7</name>"#.into(),
            r#"<name xsi:type="xsd:long">seven</name>"#.into(),
            r#"<name xsi:nil="true"/>"#.into(),
            r#"<middleware xsi:type="xsd:string">x10</middleware>"#.into(),
            r#"<middleware xsi:type="xsd:string">jini</middleware>"#.into(),
            r#"<middleware xsi:type="xsd:string">corba</middleware>"#.into(),
            r#"<middleware xsi:type="xsd:boolean">maybe</middleware>"#.into(),
            r#"<gateway xsi:type="xsd:string">x10-gw</gateway>"#.into(),
            r#"<gateway>untyped-gw</gateway>"#.into(),
            r#"<gateway xsi:type="SOAP-ENC:Struct"><a xsi:type="xsd:long">1</a></gateway>"#.into(),
            format!(r#"<wsdl xsi:type="xsd:string">{}</wsdl>"#, escape(&wsdl)),
            format!(
                r#"<wsdl xsi:type="xsd:string">{}</wsdl>"#,
                escape(&wsdl_text("den-vcr"))
            ),
            format!(
                r#"<wsdl xsi:type="xsd:string">{}</wsdl>"#,
                escape(&wsdl[..wsdl.len() / 2])
            ),
            r#"<wsdl xsi:type="xsd:string">&lt;other/&gt;</wsdl>"#.into(),
            r#"<wsdl xsi:type="SOAP-ENC:base64">!!</wsdl>"#.into(),
            r#"<contexts xsi:type="SOAP-ENC:Struct"><room xsi:type="xsd:string">hall</room><n xsi:type="xsd:long">2</n></contexts>"#.into(),
            r#"<contexts xsi:type="SOAP-ENC:Struct"><room xsi:type="xsd:long">x</room></contexts>"#.into(),
            r#"<contexts xsi:type="xsd:string">room=hall</contexts>"#.into(),
            r#"<contexts xsi:type="SOAP-ENC:Struct"/>"#.into(),
            r#"<extra xsi:type="xsd:long">1</extra>"#.into(),
            r#"<extra xsi:type="xsd:double">one</extra>"#.into(),
            r#"<extra xsi:type="vendor:odd">?</extra>"#.into(),
            r#"<ns1:name xsi:type="xsd:string">prefixed</ns1:name>"#.into(),
        ]
    }

    /// Valid records as pool indices: all five fields in wire order,
    /// reordered without contexts, and with an empty context struct.
    const COMPLETE: &[&[usize]] = &[&[0, 5, 9, 12, 17], &[13, 10, 6, 1], &[1, 20, 6, 10, 12]];

    fn arb_fields() -> impl Strategy<Value = String> {
        let pool = field_pool();
        let picks = prop::collection::vec(0..pool.len(), 0..9);
        (picks, 0..COMPLETE.len() + 1).prop_map(move |(picks, base)| {
            // Most cases start from a complete, valid record, then add
            // fields that the first of each must not let override it.
            let base = COMPLETE.get(base).copied().unwrap_or(&[]);
            let mut fields: String = base.iter().map(|&i| pool[i].as_str()).collect();
            for i in picks {
                fields.push_str(&pool[i]);
            }
            fields
        })
    }

    /// A `return` element: a Struct of fields, or one of the shapes
    /// that is no record (nil, a scalar, an undecodable scalar, an
    /// Array).
    fn arb_record_return() -> impl Strategy<Value = String> {
        (arb_fields(), 0..8u8).prop_map(|(fields, shape)| match shape {
            0 => format!(r#"<return xsi:nil="true">{fields}</return>"#),
            1 => r#"<return xsi:type="xsd:string">hall-lamp</return>"#.to_owned(),
            2 => r#"<return xsi:type="xsd:long">x</return>"#.to_owned(),
            3 => format!(r#"<return xsi:type="SOAP-ENC:Array">{fields}</return>"#),
            4 => format!(r#"<return xsi:type="SOAP-ENC:Struct" xsi:nil="true">{fields}</return>"#),
            _ => format!(r#"<return xsi:type="SOAP-ENC:Struct">{fields}</return>"#),
        })
    }

    /// A `find` reply's `return`: an Array mixing records with items
    /// that are no record, or a return that is no Array.
    fn arb_list_return() -> impl Strategy<Value = String> {
        (prop::collection::vec((arb_fields(), 0..5u8), 0..4), 0..6u8).prop_map(|(items, shape)| {
            let items: String = items
                .into_iter()
                .map(|(fields, kind)| match kind {
                    0 => r#"<item xsi:type="xsd:long">3</item>"#.to_owned(),
                    1 => r#"<item xsi:type="xsd:long">three</item>"#.to_owned(),
                    2 => format!(r#"<item xsi:type="SOAP-ENC:Array">{fields}</item>"#),
                    _ => format!(r#"<item xsi:type="SOAP-ENC:Struct">{fields}</item>"#),
                })
                .collect();
            match shape {
                0 => format!(r#"<return xsi:type="SOAP-ENC:Struct">{items}</return>"#),
                1 => r#"<return xsi:nil="true"/>"#.to_owned(),
                _ => format!(r#"<return xsi:type="SOAP-ENC:Array">{items}</return>"#),
            }
        })
    }

    /// Wraps `ret` in a response envelope; some cases carry a fault
    /// (which wins over any value error), a second `return`, or no
    /// `return` at all.
    fn envelope(ret: &str, variant: u8) -> String {
        let body = match variant {
            0 => return fault_envelope(&Fault::server("unknown service 'ghost'")),
            1 => format!(
                "<SOAP-ENV:Fault><faultcode>SOAP-ENV:Server</faultcode>\
                 <faultstring>bad</faultstring>{ret}</SOAP-ENV:Fault>"
            ),
            2 => r#"<ns1:resolveResponse xmlns:ns1="urn:vsg:response"/>"#.to_owned(),
            3 => format!(
                r#"<ns1:resolveResponse xmlns:ns1="urn:vsg:response">{ret}<return xsi:type="xsd:long">1</return></ns1:resolveResponse>"#
            ),
            _ => format!(
                r#"<ns1:resolveResponse xmlns:ns1="urn:vsg:response">{ret}</ns1:resolveResponse>"#
            ),
        };
        format!(
            "<?xml version=\"1.0\" encoding=\"UTF-8\"?><SOAP-ENV:Envelope \
             xmlns:SOAP-ENV=\"http://schemas.xmlsoap.org/soap/envelope/\"><SOAP-ENV:Body>\
             {body}</SOAP-ENV:Body></SOAP-ENV:Envelope>"
        )
    }

    /// The reply as the `Value` path reads it.
    fn value_reply(doc: &str) -> Result<Value, SoapError> {
        decode_response(doc, Value::decode).map(|v| v.unwrap_or(Value::Null))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1000))]

        #[test]
        fn record_decoder_equals_value_oracle(ret in arb_record_return(), variant in 0..8u8) {
            let doc = envelope(&ret, variant);
            let streamed = decode_response(&doc, ServiceRecord::decode).map(Option::flatten);
            let oracle = value_reply(&doc).map(|v| ServiceRecord::from_value(&v));
            prop_assert_eq!(streamed, oracle, "document {}", doc);
        }

        #[test]
        fn list_decoder_equals_value_oracle(ret in arb_list_return(), variant in 0..8u8) {
            let doc = envelope(&ret, variant);
            let streamed = decode_response(&doc, ServiceRecord::decode_list).map(Option::flatten);
            let oracle = value_reply(&doc).map(|v| match v {
                Value::List(items) => Some(items.iter().filter_map(ServiceRecord::from_value).collect()),
                _ => None,
            });
            prop_assert_eq!(streamed, oracle, "document {}", doc);
        }
    }

    /// A member named `name` that nests `levels` Structs around an int.
    fn nested_member(name: &str, levels: usize) -> String {
        let open = r#"<s xsi:type="SOAP-ENC:Struct">"#;
        format!(
            r#"<{name} xsi:type="SOAP-ENC:Struct">{}<i xsi:type="xsd:long">1</i>{}</{name}>"#,
            open.repeat(levels - 1),
            "</s>".repeat(levels - 1),
        )
    }

    /// Resolve and find replies whose `return` value nests one level
    /// short of the bound, at it and one past it, the deepest part in
    /// an unknown field of a lamp record or in a `contexts` member:
    /// both readers read the record at and under the bound and fail
    /// past it.
    #[test]
    fn readers_agree_with_the_oracle_at_the_depth_bound() {
        let pool = field_pool();
        let lamp: String = [0, 5, 9, 12].iter().map(|&i| pool[i].as_str()).collect();
        // A lamp record as element `tag`, nesting `levels` levels.
        let record = |tag: &str, levels: usize, in_contexts: bool| {
            let deep = if in_contexts {
                format!(
                    r#"<contexts xsi:type="SOAP-ENC:Struct">{}</contexts>"#,
                    nested_member("room", levels - 2)
                )
            } else {
                nested_member("extra", levels - 1)
            };
            format!(r#"<{tag} xsi:type="SOAP-ENC:Struct">{lamp}{deep}</{tag}>"#)
        };
        for levels in [soap::MAX_DEPTH - 1, soap::MAX_DEPTH, soap::MAX_DEPTH + 1] {
            for in_contexts in [false, true] {
                let case = format!("{levels} levels, in contexts: {in_contexts}");
                let resolve = envelope(&record("return", levels, in_contexts), 4);
                let streamed =
                    decode_response(&resolve, ServiceRecord::decode).map(Option::flatten);
                let oracle = value_reply(&resolve).map(|v| ServiceRecord::from_value(&v));
                assert_eq!(streamed, oracle, "resolve, {case}");
                assert_eq!(
                    streamed.map(|r| r.is_some()).ok(),
                    (levels <= soap::MAX_DEPTH).then_some(true),
                    "resolve, {case}"
                );

                let find = envelope(
                    &format!(
                        r#"<return xsi:type="SOAP-ENC:Array">{}</return>"#,
                        record("item", levels - 1, in_contexts)
                    ),
                    4,
                );
                let streamed =
                    decode_response(&find, ServiceRecord::decode_list).map(Option::flatten);
                let oracle = value_reply(&find).map(|v| match v {
                    Value::List(items) => {
                        Some(items.iter().filter_map(ServiceRecord::from_value).collect())
                    }
                    _ => None,
                });
                assert_eq!(streamed, oracle, "find, {case}");
                assert_eq!(
                    streamed.map(|r| r.map(|records| records.len())).ok(),
                    (levels <= soap::MAX_DEPTH).then_some(Some(1)),
                    "find, {case}"
                );
            }
        }
    }

    /// Text that needs every escape: printable ASCII, `&<>"'` included,
    /// and a character outside it.
    fn arb_text(max: usize) -> impl Strategy<Value = String> {
        prop::collection::vec(
            prop_oneof![
                "[ -~]".prop_map(|s: String| s),
                Just("&".to_owned()),
                Just("<".to_owned()),
                Just("\"".to_owned()),
                Just("'".to_owned()),
                Just("é".to_owned()),
            ],
            0..max,
        )
        .prop_map(|parts| parts.concat())
    }

    /// ` key="value"`, the value escaped, or nothing.
    fn attr(key: &str, value: Option<String>) -> String {
        value.map_or_else(String::new, |v| {
            format!(r#" {key}="{}""#, minixml::escape_attr(&v))
        })
    }

    /// Part types as a description may declare them, known or not.
    const PART_TYPES: &[&str] = &[
        "xsd:string",
        "xsd:long",
        "xsd:boolean",
        "xsd:double",
        "xsd:base64Binary",
        "xsd:anyType",
        "vendor:blob",
        "int",
        "",
    ];

    /// A part, named or not, typed or not.
    fn arb_part() -> impl Strategy<Value = String> {
        (
            prop::option::of(arb_text(6)),
            prop::option::of(0..PART_TYPES.len()),
        )
            .prop_map(|(name, ty)| {
                let ty = attr("type", ty.map(|t| PART_TYPES[t].to_owned()));
                format!("<part{}{ty}/>", attr("name", name))
            })
    }

    /// An operation, named or not, with its `input` and `output` in
    /// either order, missing or repeated.
    fn arb_operation() -> impl Strategy<Value = String> {
        (
            prop::option::of(arb_text(8)),
            0..3usize,
            prop::collection::vec(arb_part(), 0..3),
            prop::collection::vec(arb_part(), 0..2),
            0..4u8,
        )
            .prop_map(|(name, idempotent, inputs, outputs, shape)| {
                let idempotent = ["", r#" idempotent="true""#, r#" idempotent="yes""#][idempotent];
                let (inputs, outputs) = (inputs.concat(), outputs.concat());
                let body = match shape {
                    0 => format!("<input>{inputs}</input><output>{outputs}</output>"),
                    1 => format!(
                        r#"<output>{outputs}</output><input>{inputs}</input><input><part name="late"/></input>"#
                    ),
                    2 => format!("<input>{inputs}</input>"),
                    _ => format!(
                        r#"<output>{outputs}</output><output><part type="xsd:long"/></output>"#
                    ),
                };
                format!("<operation{}{idempotent}>{body}</operation>", attr("name", name))
            })
    }

    /// WSDL documents a record may carry: escapes in every name, no,
    /// one or two `documentation` and `portType` elements, unnamed
    /// operations, unknown part types, roots that are no named
    /// `definitions`, and broken tails.
    fn arb_wsdl() -> impl Strategy<Value = String> {
        (
            prop::option::of(arb_text(10)),
            prop::collection::vec((any::<bool>(), arb_text(10)), 0..3),
            prop::collection::vec(prop::collection::vec(arb_operation(), 0..4), 0..3),
            arb_text(8),
            0..8u8,
        )
            .prop_map(|(name, docs, port_types, location, shape)| {
                let docs: String = docs
                    .iter()
                    .map(|(prefixed, text)| {
                        let prefix = if *prefixed { "interface " } else { "" };
                        let text = minixml::escape_text(&format!("{prefix}{text}"));
                        format!("<documentation>{text}</documentation>")
                    })
                    .collect();
                let port_types: String = port_types
                    .iter()
                    .map(|ops| format!(r#"<portType name="pt">{}</portType>"#, ops.concat()))
                    .collect();
                let service = format!(
                    "<service><port><soap:address{}/></port></service>",
                    attr("location", Some(location))
                );
                let root = if shape == 6 { "definition" } else { "definitions" };
                let doc = format!(
                    r#"<?xml version="1.0"?><{root}{} targetNamespace="urn:x">{docs}{port_types}{service}</{root}>"#,
                    attr("name", name)
                );
                match shape {
                    7 => doc[..doc.len() - 5].to_owned(),
                    _ => doc,
                }
            })
    }

    /// The middleware labels a record may name, and one it may not.
    const MIDDLEWARES: &[&str] = &["x10", "jini", "havi", "upnp", "corba"];

    /// Field `name` carrying the string `value`, a value of another
    /// type, or (variant 7) one that does not decode.
    fn field(name: &str, value: &str, variant: u8) -> String {
        match variant {
            0 => format!(r#"<{name} xsi:type="xsd:long">2</{name}>"#),
            7 => format!(r#"<{name} xsi:type="xsd:double">one</{name}>"#),
            1 => format!(r#"<{name} xsi:nil="true"/>"#),
            2 => format!(
                r#"<{name} xsi:type="SOAP-ENC:Struct"><v xsi:type="xsd:string">{}</v></{name}>"#,
                escape(value)
            ),
            _ => format!(
                r#"<{name} xsi:type="xsd:string">{}</{name}>"#,
                escape(value)
            ),
        }
    }

    /// Generated record replies: escapes in every name and context
    /// value, generated WSDL text, and fields missing, repeated,
    /// wrong-typed or out of order.
    fn arb_generated_record() -> impl Strategy<Value = String> {
        (
            (arb_text(12), 0..MIDDLEWARES.len(), arb_text(8)),
            arb_wsdl(),
            prop::collection::vec(("[a-z]{1,6}", arb_text(10), 0..6u8), 0..4),
            prop::collection::vec((0..5usize, 0..8u8, 0..16usize), 0..4),
            prop::option::of(0..5usize),
            any::<bool>(),
        )
            .prop_map(
                |(
                    (name, middleware, gateway),
                    wsdl,
                    contexts,
                    extras,
                    missing,
                    contexts_struct,
                )| {
                    let contexts: String = contexts
                        .iter()
                        .map(|(k, v, variant)| field(k, v, variant + 2))
                        .collect();
                    let contexts = if contexts_struct {
                        format!(r#"<contexts xsi:type="SOAP-ENC:Struct">{contexts}</contexts>"#)
                    } else {
                        format!(r#"<contexts xsi:type="SOAP-ENC:Array">{contexts}</contexts>"#)
                    };
                    let own = |i: usize, variant: u8| match i {
                        0 => field("name", &name, variant),
                        1 => field("middleware", MIDDLEWARES[middleware], variant),
                        2 => field("gateway", &gateway, variant),
                        3 => field("wsdl", &wsdl, variant),
                        _ if variant < 2 => field("contexts", "", variant),
                        _ => contexts.clone(),
                    };
                    let mut fields: Vec<String> = (0..5)
                        .filter(|&i| Some(i) != missing)
                        .map(|i| own(i, 3))
                        .collect();
                    for (i, variant, at) in extras {
                        fields.insert(at % (fields.len() + 1), own(i, variant));
                    }
                    format!(
                        r#"<return xsi:type="SOAP-ENC:Struct">{}</return>"#,
                        fields.concat()
                    )
                },
            )
    }

    /// The record reply `doc` read both ways: the same record, no
    /// record, or error.
    fn record_read_agrees(doc: &str) {
        let streamed = decode_response(doc, ServiceRecord::decode).map(Option::flatten);
        let oracle = value_reply(doc).map(|v| ServiceRecord::from_value(&v));
        assert_eq!(streamed, oracle, "document {doc}");
    }

    /// A catalog lamp's `resolve` reply, as a replica answers it.
    fn lamp_reply() -> String {
        let wsdl = catalog::lamp()
            .to_wsdl("hall-lamp", "vsg://x10-gw/hall-lamp")
            .to_document();
        let record = Value::Record(vec![
            ("name".into(), Value::from("hall-lamp")),
            ("middleware".into(), Value::from("x10")),
            ("gateway".into(), Value::from("x10-gw")),
            ("wsdl".into(), Value::Str(wsdl)),
            (
                "contexts".into(),
                Value::Record(vec![("room".into(), Value::from("hall"))]),
            ),
        ]);
        soap::RpcResponse::new("resolve", record).to_envelope()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1000))]

        #[test]
        fn record_decoder_equals_value_oracle_on_generated_records(
            ret in arb_generated_record(),
            variant in 3..8u8,
        ) {
            record_read_agrees(&envelope(&ret, variant));
        }

        #[test]
        fn record_decoder_equals_value_oracle_on_arbitrary_text(
            text in "[ -~\n\u{a0}é]{0,160}",
            at in 0..3u8,
        ) {
            let pool = field_pool();
            let complete: String = COMPLETE[0][..3].iter().map(|&i| pool[i].as_str()).collect();
            let doc = match at {
                0 => text,
                1 => envelope(&format!(r#"<return xsi:type="SOAP-ENC:Struct">{text}</return>"#), 7),
                _ => envelope(
                    &format!(
                        r#"<return xsi:type="SOAP-ENC:Struct">{complete}<wsdl xsi:type="xsd:string">{}</wsdl></return>"#,
                        escape(&text)
                    ),
                    7,
                ),
            };
            record_read_agrees(&doc);
        }
    }

    #[test]
    fn generated_records_are_not_all_alike() {
        // Of a fixed sample, some replies are records with operations,
        // parameters and contexts, some are no record, and some are a
        // value error.
        let mut rng = TestRng::from_label("generated_records_are_not_all_alike");
        let (mut records, mut none, mut errors) = (0, 0, 0);
        let (mut params, mut contexts) = (0, 0);
        let strategy = arb_generated_record();
        for _ in 0..400 {
            let doc = envelope(&strategy.generate(&mut rng), 7);
            match decode_response(&doc, ServiceRecord::decode).map(Option::flatten) {
                Ok(Some(rec)) => {
                    records += 1;
                    params += rec
                        .interface
                        .operations
                        .iter()
                        .map(|o| o.params.len())
                        .sum::<usize>();
                    contexts += rec.contexts.len();
                }
                Ok(None) => none += 1,
                Err(_) => errors += 1,
            }
        }
        assert!(records >= 20, "{records} records");
        assert!(none >= 20, "{none} replies that are no record");
        assert!(errors >= 1, "{errors} value errors");
        assert!(
            params > 0 && contexts > 0,
            "{params} parameters, {contexts} contexts"
        );
    }

    #[test]
    fn record_decoder_equals_value_oracle_on_every_cut_and_byte_edit_of_a_lamp_reply() {
        let reply = lamp_reply();
        let rec = decode_response(&reply, ServiceRecord::decode)
            .unwrap()
            .flatten()
            .expect("the whole reply is a record");
        assert_eq!(*rec.interface, catalog::lamp());
        assert!(reply.is_ascii());
        for end in 0..=reply.len() {
            record_read_agrees(&reply[..end]);
        }
        let mut edited = reply.clone().into_bytes();
        for at in 0..edited.len() {
            let original = edited[at];
            for &byte in b"<>&\"'/ =;:x" {
                if byte != original {
                    edited[at] = byte;
                    record_read_agrees(std::str::from_utf8(&edited).unwrap());
                }
            }
            edited[at] = original;
        }
    }

    #[test]
    fn the_oracle_cases_are_not_all_alike() {
        // A complete record decodes; a broken field is a value error;
        // a fault wins; a bare scalar is no record.
        let pool = field_pool();
        let complete: String = COMPLETE[0].iter().map(|&i| pool[i].as_str()).collect();
        let ret = format!(r#"<return xsi:type="SOAP-ENC:Struct">{complete}</return>"#);
        let rec = decode_response(&envelope(&ret, 7), ServiceRecord::decode)
            .unwrap()
            .flatten()
            .unwrap();
        assert_eq!(rec.name, "hall-lamp");
        assert_eq!(rec.contexts, [("room".to_owned(), "hall".to_owned())]);
        let broken = format!(
            r#"<return xsi:type="SOAP-ENC:Struct">{complete}<extra xsi:type="xsd:double">one</extra></return>"#
        );
        assert!(matches!(
            decode_response(&envelope(&broken, 7), ServiceRecord::decode),
            Err(SoapError::Value(_))
        ));
        assert!(matches!(
            decode_response(&envelope(&broken, 1), ServiceRecord::decode),
            Err(SoapError::Fault(_))
        ));
        let scalar = r#"<return xsi:type="xsd:string">x</return>"#;
        assert_eq!(
            decode_response(&envelope(scalar, 7), ServiceRecord::decode),
            Ok(Some(None))
        );
    }
}
