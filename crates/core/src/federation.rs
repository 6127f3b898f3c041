//! The federated Virtual Service Repository: shards, replicas, failover.
//!
//! §3.3 describes the VSR as "a *virtual* database" — nothing in the
//! paper says it must be one process, and the road-map's multi-backend
//! scale target says it must not be. This module turns the repository
//! into a small federation:
//!
//! * the service **namespace is partitioned** across a fixed number of
//!   shards by consistent hashing (a ring of virtual points, so a
//!   future re-shard moves a minimal slice of names);
//! * each shard has a **preference list** of replicas — the first
//!   entry is the shard's *primary*, the rest are backups — assigned
//!   by hashing replicas onto a second ring (adding a replica steals
//!   shards evenly instead of reshuffling everything);
//! * writes land on the primary and are **eagerly pushed** to the
//!   shard's backups; a periodic **anti-entropy** exchange (digests of
//!   `(name, version)` pairs, then targeted fetch/push) repairs
//!   whatever a crash window dropped;
//! * every entry carries a [`Version`] — `(virtual-time, replica,
//!   seq)` — and conflicts resolve last-writer-wins, with one twist:
//!   a lease-expiry tombstone names the exact incarnation it reaped
//!   (`EntryKind::Expired`), so a record renewed against a new
//!   primary can never be killed by a stale reaper on the old one;
//! * a replica asked about a shard it does not host answers
//!   [`MetaError::MovedShard`], telling the client to refresh its
//!   cached [`ShardMap`] and re-route.
//!
//! The shard map itself is shared state among the replicas of one
//! cluster (they live in one simulated process group); clients learn
//! it over the wire via the `shard_map` operation and cache it.
//! Failover is client-driven: a write that cannot reach the primary is
//! retried against a backup with a `promote` flag, and the backup
//! moves itself to the front of the preference list (bumping the map
//! version) before applying.

use crate::error::MetaError;
use crate::metrics::MetricsRegistry;
use crate::obs::Scope;
use crate::trace::{HopKind, Tracer};
use parking_lot::Mutex;
use simnet::{Network, NodeId, Sim, SimDuration, SimTime};
use soap::{Fault, RpcCall, SoapClient, SoapServer, Value};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use wsdl::{Key, KeyedReference, UddiRegistry};

/// The repository's SOAP namespace (same as the single-node VSR — a
/// one-replica federation is wire-compatible with the original).
pub(crate) const VSR_NS: &str = "urn:vsg:repository";

pub(crate) const TAX_MIDDLEWARE: &str = "uddi:middleware";
pub(crate) const TAX_GATEWAY: &str = "uddi:gateway";
/// Context taxonomies are namespaced per key: `uddi:ctx:<key>`.
pub(crate) const TAX_CONTEXT_PREFIX: &str = "uddi:ctx:";

/// Virtual points per shard (and per replica) on the hash rings.
/// Enough that placement variance stays small — with too few points a
/// shard can end up owning no arc of the name ring at all.
const RING_POINTS: u32 = 64;

/// FNV-1a with a murmur-style avalanche finalizer: stable across runs
/// and platforms, so shard placement is deterministic. Raw FNV-1a
/// clusters badly in the upper bits on short, similar names (exactly
/// what service names are), and ring placement keys on the upper
/// bits — the finalizer spreads them.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

// ---- configuration ---------------------------------------------------------

/// Shape of a federated repository.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FederationConfig {
    /// Number of namespace shards (≥ 1).
    pub shards: u32,
    /// Number of repository replicas (≥ 1).
    pub replicas: usize,
    /// Preference-list length per shard — primary plus backups,
    /// clamped to the replica count.
    pub replication: usize,
    /// Period of the anti-entropy exchange (armed by
    /// `SmartHomeBuilder` when the cluster has more than one replica).
    pub sync_interval: SimDuration,
    /// Extra delay before the first anti-entropy pass. Defaults to
    /// zero; fleets stagger this per island so that thousands of homes
    /// don't all sync at the same virtual instant.
    pub sync_phase: SimDuration,
}

impl Default for FederationConfig {
    fn default() -> Self {
        FederationConfig {
            shards: 1,
            replicas: 1,
            replication: 2,
            sync_interval: SimDuration::from_secs(2),
            sync_phase: SimDuration::ZERO,
        }
    }
}

// ---- versions --------------------------------------------------------------

/// A replicated entry's version: virtual time first, then replica id
/// and a per-replica sequence number as tie-breakers. Ordering is the
/// derived lexicographic one — last writer wins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Version {
    /// Virtual microseconds when the write was stamped.
    pub at_us: u64,
    /// The stamping replica's id.
    pub replica: u32,
    /// The stamping replica's write counter.
    pub seq: u64,
}

impl Version {
    fn to_value(self) -> Value {
        Value::List(vec![
            Value::Int(self.at_us as i64),
            Value::Int(i64::from(self.replica)),
            Value::Int(self.seq as i64),
        ])
    }

    fn from_value(v: &Value) -> Option<Version> {
        match v {
            Value::List(items) if items.len() == 3 => Some(Version {
                at_us: items[0].as_int()? as u64,
                replica: u32::try_from(items[1].as_int()?).ok()?,
                seq: items[2].as_int()? as u64,
            }),
            _ => None,
        }
    }
}

// ---- the shard map ---------------------------------------------------------

/// The cluster's routing table: which replicas host each shard, in
/// preference order (primary first), plus a version that bumps on
/// every promotion so clients can tell a stale map from a fresh one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    version: u64,
    /// Per-shard preference lists (primary first).
    assignments: Vec<Vec<NodeId>>,
    /// Sorted `(point, shard)` ring mapping name hashes to shards.
    ring: Vec<(u64, u32)>,
}

fn shard_ring(shards: u32) -> Vec<(u64, u32)> {
    let mut ring = Vec::with_capacity((shards * RING_POINTS) as usize);
    for s in 0..shards {
        for p in 0..RING_POINTS {
            ring.push((fnv1a(format!("shard-{s}#{p}").as_bytes()), s));
        }
    }
    ring.sort_unstable();
    ring
}

impl ShardMap {
    /// Builds the initial map: names partition onto `shards` via the
    /// shard ring; each shard's preference list is the first
    /// `replication` distinct replicas clockwise from the shard's
    /// anchor point on a ring of the given `nodes`.
    pub fn build(shards: u32, nodes: &[NodeId], replication: usize) -> ShardMap {
        let shards = shards.max(1);
        assert!(!nodes.is_empty(), "a shard map needs at least one node");
        let replication = replication.clamp(1, nodes.len());

        // The replica ring: RING_POINTS virtual points per node.
        let mut replica_ring: Vec<(u64, usize)> =
            Vec::with_capacity(nodes.len() * RING_POINTS as usize);
        for (idx, node) in nodes.iter().enumerate() {
            for p in 0..RING_POINTS {
                replica_ring.push((fnv1a(format!("replica-{}#{p}", node.0).as_bytes()), idx));
            }
        }
        replica_ring.sort_unstable();

        let assignments = (0..shards)
            .map(|s| {
                let anchor = fnv1a(format!("shard-{s}").as_bytes());
                let start = replica_ring.partition_point(|&(point, _)| point < anchor);
                let mut prefs: Vec<NodeId> = Vec::with_capacity(replication);
                for i in 0..replica_ring.len() {
                    let (_, idx) = replica_ring[(start + i) % replica_ring.len()];
                    if !prefs.contains(&nodes[idx]) {
                        prefs.push(nodes[idx]);
                        if prefs.len() == replication {
                            break;
                        }
                    }
                }
                prefs
            })
            .collect();

        ShardMap {
            version: 1,
            assignments,
            ring: shard_ring(shards),
        }
    }

    /// The map's version (bumped by every promotion).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of shards.
    pub fn shard_count(&self) -> u32 {
        self.assignments.len() as u32
    }

    /// The shard `name` hashes to: the shard owning the first ring
    /// point at or after the name's hash (wrapping).
    pub fn shard_of(&self, name: &str) -> u32 {
        let h = fnv1a(name.as_bytes());
        let i = self.ring.partition_point(|&(point, _)| point < h);
        self.ring[i % self.ring.len()].1
    }

    /// The shard's preference list, primary first.
    pub fn replicas_for(&self, shard: u32) -> &[NodeId] {
        &self.assignments[shard as usize % self.assignments.len()]
    }

    /// The shard's current primary.
    pub fn primary(&self, shard: u32) -> NodeId {
        self.replicas_for(shard)[0]
    }

    /// Every node appearing in any preference list, deduplicated in
    /// first-appearance order (deterministic).
    pub fn nodes(&self) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = Vec::new();
        for prefs in &self.assignments {
            for &n in prefs {
                if !out.contains(&n) {
                    out.push(n);
                }
            }
        }
        out
    }

    /// True if `node` is in `shard`'s preference list.
    pub fn hosts(&self, shard: u32, node: NodeId) -> bool {
        self.replicas_for(shard).contains(&node)
    }

    /// Moves `node` to the front of `shard`'s preference list (a
    /// backup promoting itself after the primary failed). Bumps the
    /// map version when anything changed; returns whether it did.
    pub fn promote(&mut self, shard: u32, node: NodeId) -> bool {
        let prefs = &mut self.assignments[shard as usize];
        match prefs.iter().position(|&n| n == node) {
            Some(0) | None => false,
            Some(i) => {
                prefs.remove(i);
                prefs.insert(0, node);
                self.version += 1;
                true
            }
        }
    }

    pub(crate) fn to_value(&self) -> Value {
        Value::Record(vec![
            ("version".into(), Value::Int(self.version as i64)),
            (
                "shards".into(),
                Value::List(
                    self.assignments
                        .iter()
                        .map(|prefs| {
                            Value::List(prefs.iter().map(|n| Value::Int(i64::from(n.0))).collect())
                        })
                        .collect(),
                ),
            ),
        ])
    }

    pub(crate) fn from_value(v: &Value) -> Option<ShardMap> {
        let version = v.field("version")?.as_int()? as u64;
        let shards = match v.field("shards")? {
            Value::List(items) => items
                .iter()
                .map(|prefs| match prefs {
                    Value::List(nodes) => nodes
                        .iter()
                        .map(|n| n.as_int().and_then(|i| u32::try_from(i).ok()).map(NodeId))
                        .collect::<Option<Vec<NodeId>>>(),
                    _ => None,
                })
                .collect::<Option<Vec<Vec<NodeId>>>>()?,
            _ => return None,
        };
        if shards.is_empty() || shards.iter().any(Vec::is_empty) {
            return None;
        }
        let ring = shard_ring(shards.len() as u32);
        Some(ShardMap {
            version,
            assignments: shards,
            ring,
        })
    }
}

// ---- the replicated store --------------------------------------------------

/// The raw publish payload, replicated verbatim so any replica can
/// serve (or re-serve) the record. The lease deadline travels with it:
/// a replica may only reap what the *replicated* state says is due.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct StoredRecord {
    pub middleware: String,
    pub gateway: String,
    pub wsdl: String,
    pub contexts: Vec<(String, String)>,
    pub expires_at: Option<SimTime>,
}

/// What a versioned entry holds.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum EntryKind {
    /// A live record.
    Record(StoredRecord),
    /// A deliberate withdrawal — beats anything older, LWW.
    Unpublished,
    /// A lease-expiry tombstone. `of` names the exact incarnation the
    /// reaper saw: a record re-published or renewed *after* `of`
    /// survives this tombstone even if the tombstone's own version is
    /// later (a stale reaper on a crashed-and-recovered primary must
    /// not kill a record that was renewed elsewhere meanwhile).
    Expired {
        /// Version of the incarnation that was reaped.
        of: Version,
    },
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Entry {
    pub version: Version,
    pub shard: u32,
    pub kind: EntryKind,
}

impl Entry {
    fn to_value(&self, name: &str) -> Value {
        let mut fields = vec![
            ("name".into(), Value::Str(name.to_owned())),
            ("shard".into(), Value::Int(i64::from(self.shard))),
            ("version".into(), self.version.to_value()),
        ];
        match &self.kind {
            EntryKind::Record(rec) => {
                fields.push(("kind".into(), Value::Str("record".into())));
                fields.push(("middleware".into(), Value::Str(rec.middleware.clone())));
                fields.push(("gateway".into(), Value::Str(rec.gateway.clone())));
                fields.push(("wsdl".into(), Value::Str(rec.wsdl.clone())));
                fields.push((
                    "contexts".into(),
                    Value::Record(
                        rec.contexts
                            .iter()
                            .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
                            .collect(),
                    ),
                ));
                fields.push((
                    "expires_at".into(),
                    rec.expires_at
                        .map_or(Value::Null, |t| Value::Int(t.as_micros() as i64)),
                ));
            }
            EntryKind::Unpublished => {
                fields.push(("kind".into(), Value::Str("unpublish".into())));
            }
            EntryKind::Expired { of } => {
                fields.push(("kind".into(), Value::Str("expired".into())));
                fields.push(("of".into(), of.to_value()));
            }
        }
        Value::Record(fields)
    }

    fn from_value(v: &Value) -> Option<(String, Entry)> {
        let name = v.field("name")?.as_str()?.to_owned();
        let shard = u32::try_from(v.field("shard")?.as_int()?).ok()?;
        let version = Version::from_value(v.field("version")?)?;
        let kind = match v.field("kind")?.as_str()? {
            "record" => EntryKind::Record(StoredRecord {
                middleware: v.field("middleware")?.as_str()?.to_owned(),
                gateway: v.field("gateway")?.as_str()?.to_owned(),
                wsdl: v.field("wsdl")?.as_str()?.to_owned(),
                contexts: match v.field("contexts") {
                    Some(Value::Record(fields)) => fields
                        .iter()
                        .filter_map(|(k, val)| val.as_str().map(|s| (k.clone(), s.to_owned())))
                        .collect(),
                    _ => Vec::new(),
                },
                expires_at: v
                    .field("expires_at")
                    .and_then(Value::as_int)
                    .map(|us| SimTime::from_micros(us as u64)),
            }),
            "unpublish" => EntryKind::Unpublished,
            "expired" => EntryKind::Expired {
                of: Version::from_value(v.field("of")?)?,
            },
            _ => return None,
        };
        Some((
            name,
            Entry {
                version,
                shard,
                kind,
            },
        ))
    }
}

pub(crate) struct ReplicaState {
    pub id: u32,
    pub registry: UddiRegistry,
    pub business: Key,
    /// The replicated, versioned truth. The UDDI registry below is a
    /// mirror of the live records, kept for §3.3-faithful inquiry
    /// (pattern matching, category filters, inquiry statistics).
    pub entries: HashMap<String, Entry>,
    /// The gateway directory, versioned like entries but not sharded
    /// (every replica carries the full directory).
    pub gateways: HashMap<String, (u32, Version)>,
    pub lease: Option<SimDuration>,
    seq: u64,
}

impl ReplicaState {
    fn new(id: u32) -> ReplicaState {
        let mut registry = UddiRegistry::new();
        let business = registry.save_business("smart-home", "the home's service federation");
        ReplicaState {
            id,
            registry,
            business,
            entries: HashMap::new(),
            gateways: HashMap::new(),
            lease: None,
            seq: 0,
        }
    }

    fn next_version(&mut self, now: SimTime) -> Version {
        self.seq += 1;
        Version {
            at_us: now.as_micros(),
            replica: self.id,
            seq: self.seq,
        }
    }

    /// Merges one incoming entry; returns whether it was applied. The
    /// general rule is last-writer-wins on [`Version`]; expiry
    /// tombstones are scoped to the incarnation they reaped (see
    /// [`EntryKind::Expired`]).
    pub(crate) fn apply_entry(&mut self, name: &str, inc: Entry) -> bool {
        let accept = match self.entries.get(name) {
            None => true,
            Some(cur) => match (&inc.kind, &cur.kind) {
                // An expiry tombstone kills only the incarnation it
                // reaped (or older); a later renew/republish survives.
                (EntryKind::Expired { of }, EntryKind::Record(_)) => *of >= cur.version,
                // A record written after the reaped incarnation
                // supersedes the tombstone even if the tombstone's own
                // stamp is later (the stale-reaper race).
                (EntryKind::Record(_), EntryKind::Expired { of }) => inc.version > *of,
                _ => inc.version > cur.version,
            },
        };
        if !accept {
            return false;
        }
        self.mirror(name, &inc);
        self.entries.insert(name.to_owned(), inc);
        true
    }

    /// Rebuilds the UDDI mirror for `name` from an entry about to be
    /// stored (same save/delete calls the single-node VSR made, so
    /// publish statistics and inquiry behaviour are unchanged).
    fn mirror(&mut self, name: &str, entry: &Entry) {
        delete_by_name(&mut self.registry, name);
        if let EntryKind::Record(rec) = &entry.kind {
            let tmodel = self
                .registry
                .save_tmodel(&format!("{name}-interface"), &rec.wsdl);
            let endpoint = format!("vsg://{}/{}", rec.gateway, name);
            let business = self.business.clone();
            let mut categories = vec![
                KeyedReference::new(TAX_MIDDLEWARE, &rec.middleware),
                KeyedReference::new(TAX_GATEWAY, &rec.gateway),
            ];
            for (k, v) in &rec.contexts {
                categories.push(KeyedReference::new(format!("{TAX_CONTEXT_PREFIX}{k}"), v));
            }
            self.registry
                .save_service(&business, name, categories, &endpoint, Some(tmodel));
        }
    }

    /// Lazily reaps every record whose replicated lease deadline has
    /// passed, tombstoning it with [`EntryKind::Expired`]. Returns the
    /// tombstones so the caller can replicate them to the shard peers.
    fn expire_due(&mut self, now: SimTime) -> Vec<(String, Entry)> {
        let mut due: Vec<String> = self
            .entries
            .iter()
            .filter(|(_, e)| match &e.kind {
                EntryKind::Record(rec) => rec.expires_at.is_some_and(|at| at <= now),
                _ => false,
            })
            .map(|(name, _)| name.clone())
            .collect();
        due.sort_unstable();
        let mut out = Vec::with_capacity(due.len());
        for name in due {
            let (of, shard) = {
                let cur = &self.entries[&name];
                (cur.version, cur.shard)
            };
            let tomb = Entry {
                version: self.next_version(now),
                shard,
                kind: EntryKind::Expired { of },
            };
            self.mirror(&name, &tomb);
            self.entries.insert(name.clone(), tomb.clone());
            out.push((name, tomb));
        }
        out
    }

    /// Merges one gateway-directory entry (LWW on version).
    fn apply_gateway(&mut self, name: &str, node: u32, version: Version) -> bool {
        match self.gateways.get(name) {
            Some(&(_, cur)) if version <= cur => false,
            _ => {
                self.gateways.insert(name.to_owned(), (node, version));
                true
            }
        }
    }
}

/// Deletes every record named `name` (index-backed, no scan) together
/// with the tModels its bindings referenced. Returns whether anything
/// was removed.
pub(crate) fn delete_by_name(registry: &mut UddiRegistry, name: &str) -> bool {
    let removed = registry.delete_services_by_name(name);
    let found = !removed.is_empty();
    for service in removed {
        for binding in &service.bindings {
            if let Some(tm) = &binding.tmodel_key {
                registry.delete_tmodel(tm);
            }
        }
    }
    found
}

/// Serializes one registry inquiry hit the way the single-node VSR
/// did: categories carry middleware/gateway/contexts, the bound tModel
/// carries the WSDL (and the `get_tmodel` inquiry is counted).
pub(crate) fn service_to_value(
    registry: &mut UddiRegistry,
    svc: &wsdl::BusinessService,
) -> Option<Value> {
    let middleware = svc
        .categories
        .iter()
        .find(|c| c.taxonomy == TAX_MIDDLEWARE)?
        .value
        .clone();
    let gateway = svc
        .categories
        .iter()
        .find(|c| c.taxonomy == TAX_GATEWAY)?
        .value
        .clone();
    let tmodel_key = svc.bindings.first()?.tmodel_key.clone()?;
    let tmodel = registry.get_tmodel(&tmodel_key)?;
    let contexts: Vec<(String, Value)> = svc
        .categories
        .iter()
        .filter_map(|c| {
            c.taxonomy
                .strip_prefix(TAX_CONTEXT_PREFIX)
                .map(|k| (k.to_owned(), Value::Str(c.value.clone())))
        })
        .collect();
    Some(Value::Record(vec![
        ("name".into(), Value::Str(svc.name.clone())),
        ("middleware".into(), Value::Str(middleware)),
        ("gateway".into(), Value::Str(gateway)),
        ("wsdl".into(), Value::Str(tmodel.overview_doc)),
        ("contexts".into(), Value::Record(contexts)),
    ]))
}

// ---- the replica server ----------------------------------------------------

/// One running repository replica: its backbone node, its state, and a
/// SOAP client originating from its own node (replication pushes ride
/// the same simulated links as everything else, so a partition that
/// splits primary from backup also splits their sync traffic).
#[derive(Clone)]
pub(crate) struct Replica {
    pub node: NodeId,
    pub state: Arc<Mutex<ReplicaState>>,
    pub client: SoapClient,
}

#[derive(Clone)]
struct ReplicaCtx {
    node: NodeId,
    state: Arc<Mutex<ReplicaState>>,
    map: Arc<Mutex<ShardMap>>,
    client: SoapClient,
    tracer: Tracer,
    metrics: Arc<MetricsRegistry>,
}

/// Starts `config.replicas` repository replicas on fresh backbone
/// nodes, seeds the shared shard map, and returns the replicas (first
/// one is the bootstrap node clients are pointed at) plus the map.
pub(crate) fn start_replicas(
    net: &Network,
    config: &FederationConfig,
    tracer: &Tracer,
    metrics: &Arc<MetricsRegistry>,
) -> (Vec<Replica>, Arc<Mutex<ShardMap>>) {
    let servers: Vec<SoapServer> = (0..config.replicas.max(1))
        .map(|i| SoapServer::bind(net, &format!("vsr-{i}")))
        .collect();
    let nodes: Vec<NodeId> = servers.iter().map(SoapServer::node).collect();
    let map = Arc::new(Mutex::new(ShardMap::build(
        config.shards,
        &nodes,
        config.replication,
    )));

    let replicas = servers
        .into_iter()
        .enumerate()
        .map(|(i, server)| {
            let node = server.node();
            let client = SoapClient::on_node(
                net,
                node,
                soap::CpuModel::default(),
                soap::TcpModel::default(),
            );
            let state = Arc::new(Mutex::new(ReplicaState::new(i as u32)));
            let ctx = ReplicaCtx {
                node,
                state: state.clone(),
                map: map.clone(),
                client: client.clone(),
                tracer: tracer.clone(),
                metrics: metrics.clone(),
            };
            server.mount(VSR_NS, move |sim, call: &RpcCall| {
                handle(&ctx, sim, call).map_err(|e| Fault::server(e.to_string()))
            });
            Replica {
                node,
                state,
                client,
            }
        })
        .collect();
    (replicas, map)
}

impl ReplicaCtx {
    /// Best-effort eager push of freshly written entries to the other
    /// members of each entry's shard. Failures are swallowed — the
    /// anti-entropy pass repairs them — but each push gets a
    /// `federation` span so the decision is visible in traces.
    fn replicate_out(&self, sim: &Sim, outgoing: &[(String, Entry)]) {
        let map = self.map.lock().clone();
        let mut per_peer: BTreeMap<u32, Vec<Value>> = BTreeMap::new();
        for (name, entry) in outgoing {
            for &peer in map.replicas_for(entry.shard) {
                if peer != self.node {
                    per_peer
                        .entry(peer.0)
                        .or_default()
                        .push(entry.to_value(name));
                }
            }
        }
        for (peer, entries) in per_peer {
            let n = entries.len();
            let scope = Scope::child(
                sim,
                &self.tracer,
                &self.metrics,
                HopKind::Federation,
                || {
                    let plural = if n == 1 { "y" } else { "ies" };
                    format!("replicate {n} entr{plural} -> n{peer}")
                },
            );
            let result = self.client.call(
                NodeId(peer),
                &RpcCall::new(VSR_NS, "replicate").arg("entries", Value::List(entries)),
            );
            scope.finish(&result);
        }
    }
}

/// The replica's request handler. Mutates state under one lock, then
/// releases it *before* pushing replication traffic to peers (a peer's
/// handler may be reached over the same synchronous wire). The
/// replication-facing operations (`replicate`, `sync_digest`,
/// `sync_fetch`) never push in turn, so the call chain is bounded.
fn handle(ctx: &ReplicaCtx, sim: &Sim, call: &RpcCall) -> Result<Value, MetaError> {
    let now = sim.now();
    let str_arg = |name: &str| -> Result<String, MetaError> {
        call.get(name)
            .and_then(Value::as_str)
            .map(str::to_owned)
            .ok_or_else(|| MetaError::Repository(format!("missing argument '{name}'")))
    };

    // The replication plane: applied under the state lock, no reaping,
    // no pushes (these arrive from peers that are mid-handler).
    match call.method.as_str() {
        "shard_map" => return Ok(ctx.map.lock().to_value()),
        "replicate" => {
            let mut st = ctx.state.lock();
            let mut applied = 0i64;
            if let Some(Value::List(items)) = call.get("entries") {
                for item in items {
                    if let Some((name, entry)) = Entry::from_value(item) {
                        if st.apply_entry(&name, entry) {
                            applied += 1;
                        }
                    }
                }
            }
            if let Some(Value::List(items)) = call.get("gateways") {
                for item in items {
                    if let (Some(name), Some(node), Some(version)) = (
                        item.field("name").and_then(Value::as_str),
                        item.field("node").and_then(Value::as_int),
                        item.field("version").and_then(Version::from_value),
                    ) {
                        if st.apply_gateway(name, node as u32, version) {
                            applied += 1;
                        }
                    }
                }
            }
            return Ok(Value::Int(applied));
        }
        "sync_digest" => {
            let shard = shard_arg(call)?;
            let st = ctx.state.lock();
            let mut records: Vec<(String, Version)> = st
                .entries
                .iter()
                .filter(|(_, e)| e.shard == shard)
                .map(|(name, e)| (name.clone(), e.version))
                .collect();
            records.sort_unstable_by(|a, b| a.0.cmp(&b.0));
            let mut gateways: Vec<(String, Version)> = st
                .gateways
                .iter()
                .map(|(name, &(_, v))| (name.clone(), v))
                .collect();
            gateways.sort_unstable_by(|a, b| a.0.cmp(&b.0));
            let digest = |pairs: Vec<(String, Version)>| {
                Value::List(
                    pairs
                        .into_iter()
                        .map(|(name, v)| {
                            Value::Record(vec![
                                ("name".into(), Value::Str(name)),
                                ("version".into(), v.to_value()),
                            ])
                        })
                        .collect(),
                )
            };
            return Ok(Value::Record(vec![
                ("records".into(), digest(records)),
                ("gateways".into(), digest(gateways)),
            ]));
        }
        "sync_fetch" => {
            let st = ctx.state.lock();
            let mut records = Vec::new();
            if let Some(Value::List(names)) = call.get("names") {
                for n in names {
                    if let Some(name) = n.as_str() {
                        if let Some(entry) = st.entries.get(name) {
                            records.push(entry.to_value(name));
                        }
                    }
                }
            }
            let mut gateways = Vec::new();
            if let Some(Value::List(names)) = call.get("gw_names") {
                for n in names {
                    if let Some(name) = n.as_str() {
                        if let Some(&(node, version)) = st.gateways.get(name) {
                            gateways.push(gateway_to_value(name, node, version));
                        }
                    }
                }
            }
            return Ok(Value::Record(vec![
                ("records".into(), Value::List(records)),
                ("gateways".into(), Value::List(gateways)),
            ]));
        }
        _ => {}
    }

    // The client plane: reap due leases first (lazily, like the
    // single-node VSR), remember what must be pushed to peers, answer,
    // then push with the lock released.
    let mut st = ctx.state.lock();
    let mut outgoing = st.expire_due(now);

    let result = (|| -> Result<Value, MetaError> {
        match call.method.as_str() {
            "register_gateway" => {
                let name = str_arg("name")?;
                let node = call
                    .get("node")
                    .and_then(Value::as_int)
                    .ok_or_else(|| MetaError::Repository("missing node".into()))?;
                let version = st.next_version(now);
                st.apply_gateway(&name, node as u32, version);
                Ok(Value::Null)
            }
            "gateway_node" => {
                let name = str_arg("name")?;
                st.gateways
                    .get(&name)
                    .map(|&(n, _)| Value::Int(i64::from(n)))
                    .ok_or(MetaError::GatewayUnreachable(name))
            }
            "publish" => {
                let name = str_arg("name")?;
                let shard = route_write(ctx, sim, call, &name)?;
                let expires_at = st.lease.map(|l| now + l);
                let version = st.next_version(now);
                let entry = Entry {
                    version,
                    shard,
                    kind: EntryKind::Record(StoredRecord {
                        middleware: str_arg("middleware")?,
                        gateway: str_arg("gateway")?,
                        wsdl: str_arg("wsdl")?,
                        contexts: match call.get("contexts") {
                            Some(Value::Record(fields)) => fields
                                .iter()
                                .filter_map(|(k, v)| v.as_str().map(|s| (k.clone(), s.to_owned())))
                                .collect(),
                            _ => Vec::new(),
                        },
                        expires_at,
                    }),
                };
                st.apply_entry(&name, entry.clone());
                outgoing.push((name, entry));
                Ok(Value::Null)
            }
            "unpublish" => {
                let name = str_arg("name")?;
                let shard = route_write(ctx, sim, call, &name)?;
                let found = matches!(
                    st.entries.get(&name).map(|e| &e.kind),
                    Some(EntryKind::Record(_))
                );
                let entry = Entry {
                    version: st.next_version(now),
                    shard,
                    kind: EntryKind::Unpublished,
                };
                st.apply_entry(&name, entry.clone());
                outgoing.push((name, entry));
                Ok(Value::Bool(found))
            }
            "renew" => {
                let name = str_arg("name")?;
                let shard = route_write(ctx, sim, call, &name)?;
                let lease = st.lease;
                match st.entries.get(&name).map(|e| e.kind.clone()) {
                    Some(EntryKind::Record(mut rec)) => {
                        // With leases on, a renewal is a real write: it
                        // bumps the version so a later stale reaper
                        // (EntryKind::Expired of an older incarnation)
                        // cannot kill the renewed record.
                        if let Some(lease) = lease {
                            rec.expires_at = Some(now + lease);
                            let entry = Entry {
                                version: st.next_version(now),
                                shard,
                                kind: EntryKind::Record(rec),
                            };
                            st.apply_entry(&name, entry.clone());
                            outgoing.push((name, entry));
                        }
                        Ok(Value::Bool(true))
                    }
                    _ => Ok(Value::Bool(false)),
                }
            }
            "resolve" => {
                let name = str_arg("name")?;
                route_read(ctx, call, &name)?;
                let services = st.registry.find_service(&name, &[]);
                let svc = services
                    .into_iter()
                    .find(|s| s.name == name)
                    .ok_or(MetaError::UnknownService(name))?;
                service_to_value(&mut st.registry, &svc)
                    .ok_or_else(|| MetaError::Repository("corrupt record".into()))
            }
            "find" => {
                let pattern = str_arg("pattern")?;
                let middleware = str_arg("middleware")?;
                let categories: Vec<KeyedReference> = if middleware.is_empty() {
                    vec![]
                } else {
                    vec![KeyedReference::new(TAX_MIDDLEWARE, &middleware)]
                };
                serve_inquiry(ctx, call, &mut st, &pattern, &categories)
            }
            "find_ctx" => {
                let pattern = str_arg("pattern")?;
                let categories: Vec<KeyedReference> = match call.get("contexts") {
                    Some(Value::Record(fields)) => fields
                        .iter()
                        .filter_map(|(k, v)| {
                            v.as_str()
                                .map(|s| KeyedReference::new(format!("{TAX_CONTEXT_PREFIX}{k}"), s))
                        })
                        .collect(),
                    _ => Vec::new(),
                };
                serve_inquiry(ctx, call, &mut st, &pattern, &categories)
            }
            "count" => match call.get("shard").and_then(Value::as_int) {
                Some(shard) => {
                    let shard = {
                        let map = ctx.map.lock();
                        let shard = shard as u32 % map.shard_count();
                        if !map.hosts(shard, ctx.node) {
                            let primary = map.primary(shard);
                            return Err(MetaError::MovedShard {
                                shard,
                                node: primary.0,
                            });
                        }
                        shard
                    };
                    let n = st
                        .entries
                        .values()
                        .filter(|e| e.shard == shard && matches!(e.kind, EntryKind::Record(_)))
                        .count();
                    Ok(Value::Int(n as i64))
                }
                None => Ok(Value::Int(st.registry.service_count() as i64)),
            },
            other => Err(MetaError::Repository(format!(
                "unknown VSR operation '{other}'"
            ))),
        }
    })();

    drop(st);
    if !outgoing.is_empty() {
        ctx.replicate_out(sim, &outgoing);
    }
    result
}

fn shard_arg(call: &RpcCall) -> Result<u32, MetaError> {
    call.get("shard")
        .and_then(Value::as_int)
        .and_then(|i| u32::try_from(i).ok())
        .ok_or_else(|| MetaError::Repository("missing argument 'shard'".into()))
}

fn gateway_to_value(name: &str, node: u32, version: Version) -> Value {
    Value::Record(vec![
        ("name".into(), Value::Str(name.to_owned())),
        ("node".into(), Value::Int(i64::from(node))),
        ("version".into(), version.to_value()),
    ])
}

/// Validates a write's routing: the shard must be hosted here, and the
/// write must land on the shard's primary — unless the caller set the
/// `promote` flag (it could not reach the primary), in which case this
/// backup promotes itself before accepting.
fn route_write(ctx: &ReplicaCtx, sim: &Sim, call: &RpcCall, name: &str) -> Result<u32, MetaError> {
    let mut map = ctx.map.lock();
    let shard = match call.get("shard").and_then(Value::as_int) {
        Some(s) => s as u32 % map.shard_count(),
        None => map.shard_of(name),
    };
    if !map.hosts(shard, ctx.node) {
        let primary = map.primary(shard);
        return Err(MetaError::MovedShard {
            shard,
            node: primary.0,
        });
    }
    if map.primary(shard) != ctx.node {
        let promote = call
            .get("promote")
            .and_then(Value::as_bool)
            .unwrap_or(false);
        if !promote {
            let primary = map.primary(shard);
            return Err(MetaError::MovedShard {
                shard,
                node: primary.0,
            });
        }
        if map.promote(shard, ctx.node) {
            let version = map.version();
            let node = ctx.node.0;
            drop(map);
            ctx.tracer.note(sim, HopKind::Federation, || {
                format!("promoted n{node} to primary of shard {shard} (map v{version})")
            });
            return Ok(shard);
        }
    }
    Ok(shard)
}

/// Validates a read's routing: any member of the shard's preference
/// list may answer (a backup serves reads during a primary outage).
fn route_read(ctx: &ReplicaCtx, call: &RpcCall, name: &str) -> Result<u32, MetaError> {
    let map = ctx.map.lock();
    let shard = match call.get("shard").and_then(Value::as_int) {
        Some(s) => s as u32 % map.shard_count(),
        None => map.shard_of(name),
    };
    if !map.hosts(shard, ctx.node) {
        let primary = map.primary(shard);
        return Err(MetaError::MovedShard {
            shard,
            node: primary.0,
        });
    }
    Ok(shard)
}

/// Serves a `find`/`find_ctx` inquiry from the local registry mirror,
/// filtered to the requested shard when one is given (the shard-aware
/// client fans an inquiry out to every shard and merges).
fn serve_inquiry(
    ctx: &ReplicaCtx,
    call: &RpcCall,
    st: &mut ReplicaState,
    pattern: &str,
    categories: &[KeyedReference],
) -> Result<Value, MetaError> {
    let shard = match call.get("shard").and_then(Value::as_int) {
        Some(s) => {
            let map = ctx.map.lock();
            let shard = s as u32 % map.shard_count();
            if !map.hosts(shard, ctx.node) {
                let primary = map.primary(shard);
                return Err(MetaError::MovedShard {
                    shard,
                    node: primary.0,
                });
            }
            Some(shard)
        }
        None => None,
    };
    let services = st.registry.find_service(pattern, categories);
    let mut out = Vec::with_capacity(services.len());
    for svc in services {
        if let Some(want) = shard {
            match st.entries.get(&svc.name) {
                Some(e) if e.shard == want => {}
                _ => continue,
            }
        }
        if let Some(v) = service_to_value(&mut st.registry, &svc) {
            out.push(v);
        }
    }
    Ok(Value::List(out))
}

// ---- anti-entropy ----------------------------------------------------------

fn replica_by_node(replicas: &[Replica], node: NodeId) -> Option<&Replica> {
    replicas.iter().find(|r| r.node == node)
}

/// One anti-entropy pass over the whole cluster: for every shard, each
/// backup exchanges digests with the shard's primary over the wire
/// (pull what the primary has newer, push what the backup has that the
/// primary lacks), then the per-shard replication-lag gauge is
/// recomputed. Returns the worst per-shard lag after the pass.
pub(crate) fn sync_cluster(
    sim: &Sim,
    replicas: &[Replica],
    map: &Arc<Mutex<ShardMap>>,
    metrics: &MetricsRegistry,
    tracer: &Tracer,
) -> u64 {
    let snapshot = map.lock().clone();
    let mut worst = 0u64;
    for shard in 0..snapshot.shard_count() {
        let prefs = snapshot.replicas_for(shard).to_vec();
        let primary = prefs[0];
        for &backup in &prefs[1..] {
            sync_pair(sim, replicas, shard, primary, backup, tracer, metrics);
        }
        let lag = shard_lag(replicas, shard, primary, &prefs[1..]);
        metrics.set_replication_lag(shard, lag);
        worst = worst.max(lag);
    }
    worst
}

/// How far `shard`'s laggiest backup trails its primary, measured
/// in-process (entries whose version differs or are missing). This is
/// the honest divergence, so a partition that blocks sync still shows
/// up on the gauge.
pub(crate) fn shard_lag(
    replicas: &[Replica],
    shard: u32,
    primary: NodeId,
    backups: &[NodeId],
) -> u64 {
    let Some(pri) = replica_by_node(replicas, primary) else {
        return 0;
    };
    let pri_entries: Vec<(String, Version)> = {
        let st = pri.state.lock();
        st.entries
            .iter()
            .filter(|(_, e)| e.shard == shard)
            .map(|(name, e)| (name.clone(), e.version))
            .collect()
    };
    let mut worst = 0u64;
    for &backup in backups {
        let Some(rep) = replica_by_node(replicas, backup) else {
            continue;
        };
        let st = rep.state.lock();
        let behind = pri_entries
            .iter()
            .filter(|(name, version)| st.entries.get(name).map(|e| e.version) != Some(*version))
            .count() as u64;
        worst = worst.max(behind);
    }
    worst
}

/// One digest exchange between a backup and its shard's primary. All
/// wire traffic originates from the backup's node, so partitions and
/// crash windows gate sync exactly like any other backbone traffic.
fn sync_pair(
    sim: &Sim,
    replicas: &[Replica],
    shard: u32,
    primary: NodeId,
    backup: NodeId,
    tracer: &Tracer,
    metrics: &MetricsRegistry,
) {
    let Some(rep) = replica_by_node(replicas, backup) else {
        return;
    };
    let scope = Scope::child(sim, tracer, metrics, HopKind::Federation, || {
        format!("sync shard {shard}: n{} <-> n{}", backup.0, primary.0)
    });
    let digest = match rep.client.call(
        primary,
        &RpcCall::new(VSR_NS, "sync_digest").arg("shard", i64::from(shard)),
    ) {
        Ok(v) => v,
        failed @ Err(_) => {
            scope.finish(&failed);
            return;
        }
    };
    let parse_digest = |field: &str| -> Vec<(String, Version)> {
        match digest.field(field) {
            Some(Value::List(items)) => items
                .iter()
                .filter_map(|i| {
                    Some((
                        i.field("name")?.as_str()?.to_owned(),
                        Version::from_value(i.field("version")?)?,
                    ))
                })
                .collect(),
            _ => Vec::new(),
        }
    };
    let pri_records = parse_digest("records");
    let pri_gateways = parse_digest("gateways");

    // Diff against local state: anything whose version differs moves,
    // in both directions; the merge rules decide what sticks.
    let (need, need_gw, push, push_gw) = {
        let st = rep.state.lock();
        let need: Vec<Value> = pri_records
            .iter()
            .filter(|(name, version)| st.entries.get(name).map(|e| e.version) != Some(*version))
            .map(|(name, _)| Value::Str(name.clone()))
            .collect();
        let need_gw: Vec<Value> = pri_gateways
            .iter()
            .filter(|(name, version)| st.gateways.get(name).map(|&(_, v)| v) != Some(*version))
            .map(|(name, _)| Value::Str(name.clone()))
            .collect();
        let mut push: Vec<(String, Entry)> = st
            .entries
            .iter()
            .filter(|(name, e)| {
                e.shard == shard
                    && pri_records
                        .iter()
                        .find(|(n, _)| n == *name)
                        .map(|(_, v)| *v)
                        != Some(e.version)
            })
            .map(|(name, e)| (name.clone(), e.clone()))
            .collect();
        push.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let mut push_gw: Vec<(String, u32, Version)> = st
            .gateways
            .iter()
            .filter(|(name, &(_, v))| {
                pri_gateways
                    .iter()
                    .find(|(n, _)| n == *name)
                    .map(|(_, v)| *v)
                    != Some(v)
            })
            .map(|(name, &(node, v))| (name.clone(), node, v))
            .collect();
        push_gw.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        (need, need_gw, push, push_gw)
    };

    // Pull newer/different entries from the primary and merge locally.
    if !need.is_empty() || !need_gw.is_empty() {
        let fetched = rep.client.call(
            primary,
            &RpcCall::new(VSR_NS, "sync_fetch")
                .arg("shard", i64::from(shard))
                .arg("names", Value::List(need))
                .arg("gw_names", Value::List(need_gw)),
        );
        if let Ok(v) = fetched {
            let mut st = rep.state.lock();
            if let Some(Value::List(items)) = v.field("records") {
                for item in items {
                    if let Some((name, entry)) = Entry::from_value(item) {
                        st.apply_entry(&name, entry);
                    }
                }
            }
            if let Some(Value::List(items)) = v.field("gateways") {
                for item in items {
                    if let (Some(name), Some(node), Some(version)) = (
                        item.field("name").and_then(Value::as_str),
                        item.field("node").and_then(Value::as_int),
                        item.field("version").and_then(Version::from_value),
                    ) {
                        st.apply_gateway(name, node as u32, version);
                    }
                }
            }
        }
    }

    // Push what the primary lacks (e.g. writes this backup took while
    // promoted, or tombstones the primary missed while down).
    if !push.is_empty() || !push_gw.is_empty() {
        let entries: Vec<Value> = push.iter().map(|(name, e)| e.to_value(name)).collect();
        let gateways: Vec<Value> = push_gw
            .iter()
            .map(|(name, node, v)| gateway_to_value(name, *node, *v))
            .collect();
        let _ = rep.client.call(
            primary,
            &RpcCall::new(VSR_NS, "replicate")
                .arg("entries", Value::List(entries))
                .arg("gateways", Value::List(gateways)),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(n: u32) -> Vec<NodeId> {
        (0..n).map(|i| NodeId(100 + i)).collect()
    }

    #[test]
    fn shard_map_partitions_deterministically_and_covers_all_shards() {
        let map = ShardMap::build(8, &nodes(3), 2);
        assert_eq!(map.shard_count(), 8);
        let again = ShardMap::build(8, &nodes(3), 2);
        assert_eq!(map, again, "same inputs, same map");
        for s in 0..8 {
            let prefs = map.replicas_for(s);
            assert_eq!(prefs.len(), 2);
            assert_ne!(prefs[0], prefs[1]);
        }
        // Every shard is reachable from names, eventually.
        let mut seen = std::collections::HashSet::new();
        for i in 0..4096 {
            seen.insert(map.shard_of(&format!("svc-{i}")));
        }
        assert_eq!(seen.len(), 8, "all shards get names");
        // Stable name placement.
        assert_eq!(map.shard_of("hall-lamp"), map.shard_of("hall-lamp"));
    }

    #[test]
    fn replication_clamps_to_replica_count() {
        let map = ShardMap::build(4, &nodes(1), 3);
        for s in 0..4 {
            assert_eq!(map.replicas_for(s), &[NodeId(100)]);
        }
    }

    #[test]
    fn adding_a_replica_moves_a_minority_of_shards() {
        let before = ShardMap::build(64, &nodes(4), 1);
        let after = ShardMap::build(64, &nodes(5), 1);
        let moved = (0..64)
            .filter(|&s| before.primary(s) != after.primary(s))
            .count();
        assert!(moved > 0, "the new replica must take some shards");
        assert!(
            moved < 32,
            "consistent hashing must move a minority of shards, moved {moved}"
        );
        // Names never change shard when only replicas change.
        for i in 0..128 {
            let name = format!("svc-{i}");
            assert_eq!(before.shard_of(&name), after.shard_of(&name));
        }
    }

    #[test]
    fn promote_reorders_and_bumps_version() {
        let mut map = ShardMap::build(2, &nodes(3), 3);
        let v0 = map.version();
        let backup = map.replicas_for(0)[1];
        assert!(map.promote(0, backup));
        assert_eq!(map.primary(0), backup);
        assert_eq!(map.version(), v0 + 1);
        assert!(!map.promote(0, backup), "already primary: no-op");
        assert_eq!(map.version(), v0 + 1);
    }

    #[test]
    fn shard_map_round_trips_through_value() {
        let mut map = ShardMap::build(4, &nodes(3), 2);
        map.promote(2, map.replicas_for(2)[1]);
        let decoded = ShardMap::from_value(&map.to_value()).unwrap();
        assert_eq!(decoded, map);
    }

    #[test]
    fn versions_order_by_time_then_replica_then_seq() {
        let a = Version {
            at_us: 10,
            replica: 0,
            seq: 5,
        };
        let b = Version {
            at_us: 10,
            replica: 1,
            seq: 1,
        };
        let c = Version {
            at_us: 11,
            replica: 0,
            seq: 1,
        };
        assert!(a < b && b < c);
        assert_eq!(Version::from_value(&a.to_value()), Some(a));
    }

    fn record_entry(version: Version, expires_at: Option<SimTime>) -> Entry {
        Entry {
            version,
            shard: 0,
            kind: EntryKind::Record(StoredRecord {
                middleware: "x10".into(),
                gateway: "x10-gw".into(),
                wsdl: "<definitions/>".into(),
                contexts: vec![],
                expires_at,
            }),
        }
    }

    #[test]
    fn merge_is_last_writer_wins_with_expiry_scoping() {
        let mut st = ReplicaState::new(0);
        let v = |at_us, replica, seq| Version {
            at_us,
            replica,
            seq,
        };

        // Plain LWW for records.
        assert!(st.apply_entry("lamp", record_entry(v(10, 0, 1), None)));
        assert!(
            !st.apply_entry("lamp", record_entry(v(5, 1, 1), None)),
            "stale"
        );
        assert!(st.apply_entry("lamp", record_entry(v(20, 1, 1), None)));

        // An expiry tombstone for the current incarnation applies...
        let tomb_current = Entry {
            version: v(30, 2, 1),
            shard: 0,
            kind: EntryKind::Expired { of: v(20, 1, 1) },
        };
        assert!(st.apply_entry("lamp", tomb_current.clone()));
        assert_eq!(st.registry.service_count(), 0, "mirror follows");

        // ...and a record renewed after the reaped incarnation beats
        // the tombstone even though the tombstone's stamp is later.
        assert!(
            st.apply_entry("lamp", record_entry(v(25, 1, 2), None)),
            "renewal after the reaped incarnation survives a stale reaper"
        );
        assert_eq!(st.registry.service_count(), 1);

        // A tombstone for an *older* incarnation bounces off.
        let stale_tomb = Entry {
            version: v(40, 2, 2),
            shard: 0,
            kind: EntryKind::Expired { of: v(20, 1, 1) },
        };
        assert!(!st.apply_entry("lamp", stale_tomb));
        assert_eq!(st.registry.service_count(), 1, "renewed record survives");

        // Deliberate unpublish is plain LWW: it wins over the record...
        let unpub = Entry {
            version: v(50, 0, 9),
            shard: 0,
            kind: EntryKind::Unpublished,
        };
        assert!(st.apply_entry("lamp", unpub));
        assert_eq!(st.registry.service_count(), 0);
        // ...and a later republish wins over the unpublish.
        assert!(st.apply_entry("lamp", record_entry(v(60, 1, 3), None)));
        assert_eq!(st.registry.service_count(), 1);
    }

    #[test]
    fn expire_due_tombstones_only_due_records() {
        let mut st = ReplicaState::new(0);
        let v = |at_us| Version {
            at_us,
            replica: 0,
            seq: at_us,
        };
        st.apply_entry("due", record_entry(v(1), Some(SimTime::from_micros(100))));
        st.apply_entry(
            "later",
            record_entry(v(2), Some(SimTime::from_micros(1_000))),
        );
        st.apply_entry("forever", record_entry(v(3), None));
        let tombs = st.expire_due(SimTime::from_micros(500));
        assert_eq!(tombs.len(), 1);
        assert_eq!(tombs[0].0, "due");
        assert!(matches!(
            tombs[0].1.kind,
            EntryKind::Expired { of } if of == v(1)
        ));
        assert_eq!(st.registry.service_count(), 2);
        assert!(
            st.expire_due(SimTime::from_micros(500)).is_empty(),
            "idempotent"
        );
    }
}
