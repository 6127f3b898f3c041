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
//!   shard's backups; a periodic **anti-entropy** exchange (a 64-bit
//!   fingerprint of the backup's `(name, version)` pairs, then, only if
//!   the primary's differs, digests and targeted fetch/push) repairs
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
use minixml::{Measure, Stack, XmlOut};
use parking_lot::Mutex;
use simnet::{Network, NodeId, Sim, SimDuration, SimTime};
use soap::{
    write_compound_xml, write_str_xml, Answered, Arg, CallRef, Compound, Fault, Reply, SoapClient,
    SoapServer, Value, ValueRef,
};
use std::borrow::Cow;
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

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv_feed(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn avalanche(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// FNV-1a with a murmur-style avalanche finalizer: stable across runs
/// and platforms, so shard placement is deterministic. Raw FNV-1a
/// clusters badly in the upper bits on short, similar names (exactly
/// what service names are), and ring placement keys on the upper
/// bits — the finalizer spreads them.
fn fnv1a(bytes: &[u8]) -> u64 {
    avalanche(fnv_feed(FNV_OFFSET, bytes))
}

/// Fingerprint domain of a record entry's `(name, version)` pair.
const TAG_RECORD: u8 = 0xff;
/// Fingerprint domain of a gateway-directory `(name, version)` pair.
/// Neither tag byte occurs in UTF-8, so a name cannot forge the other.
const TAG_GATEWAY: u8 = 0xfe;

/// One `(name, version)` pair's term in an anti-entropy fingerprint.
/// A fingerprint is the wrapping sum of its pairs' terms, so it is
/// independent of order and updates in O(1) per write.
fn pair_hash(tag: u8, name: &str, v: Version) -> u64 {
    let mut h = fnv_feed(FNV_OFFSET, name.as_bytes());
    h = fnv_feed(h, &[tag]);
    h = fnv_feed(h, &v.at_us.to_le_bytes());
    h = fnv_feed(h, &v.replica.to_le_bytes());
    avalanche(fnv_feed(h, &v.seq.to_le_bytes()))
}

/// A non-negative counter or timestamp as a wire `Int`. Saturates at
/// `i64::MAX` (292 000 years of virtual µs), where no value gets to.
fn int_to_wire(u: u64) -> Value {
    Value::Int(i64::try_from(u).unwrap_or(i64::MAX))
}

/// The inverse of [`int_to_wire`]: `None` for a negative value or a
/// non-integer.
fn int_from_wire(v: &Value) -> Option<u64> {
    u64::try_from(v.as_int()?).ok()
}

/// A fingerprint travels as the `Int` with the same 64 bits.
fn fingerprint_to_wire(fp: u64) -> Value {
    Value::Int(i64::from_ne_bytes(fp.to_ne_bytes()))
}

fn fingerprint_from_int(i: i64) -> u64 {
    u64::from_ne_bytes(i.to_ne_bytes())
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
            sync_phase: SimDuration::ZERO,
        }
    }
}

/// Period of the anti-entropy exchange (armed by `SmartHomeBuilder`
/// when the cluster has more than one replica).
pub(crate) const SYNC_INTERVAL: SimDuration = SimDuration::from_secs(2);

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
            int_to_wire(self.at_us),
            Value::Int(i64::from(self.replica)),
            int_to_wire(self.seq),
        ])
    }

    fn from_value(v: &Value) -> Option<Version> {
        match v {
            Value::List(items) if items.len() == 3 => Some(Version {
                at_us: int_from_wire(&items[0])?,
                replica: u32::try_from(items[1].as_int()?).ok()?,
                seq: int_from_wire(&items[2])?,
            }),
            _ => None,
        }
    }

    /// Writes the version as the Array element `name`: the bytes of
    /// [`Version::to_value`].
    fn write_xml<O: XmlOut + ?Sized>(self, name: &str, out: &mut O) {
        write_compound_xml(Compound::Array, name, 3, out, |out| {
            int_to_wire(self.at_us).write_xml("item", out);
            Value::Int(i64::from(self.replica)).write_xml("item", out);
            int_to_wire(self.seq).write_xml("item", out);
        });
    }

    /// [`Version::from_value`] of a value read in place.
    fn from_ref(v: ValueRef<'_>) -> Option<Version> {
        let mut items = array_items(Some(v));
        let (at_us, replica, seq) = (items.next()?, items.next()?, items.next()?);
        if items.next().is_some() {
            return None;
        }
        Some(Version {
            at_us: u64::try_from(at_us.as_int()?).ok()?,
            replica: u32::try_from(replica.as_int()?).ok()?,
            seq: u64::try_from(seq.as_int()?).ok()?,
        })
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
    /// Every node of any preference list, deduplicated in
    /// first-appearance order: kept, since a promotion is the only
    /// change that can reorder it.
    nodes: Vec<NodeId>,
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

        let assignments: Vec<Vec<NodeId>> = (0..shards)
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
            nodes: distinct_nodes(&assignments),
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

    /// Every shard's preference list, indexed by shard: all a caller
    /// needs to copy out from under the map's lock to walk the shards.
    pub(crate) fn preference_lists(&self) -> &[Vec<NodeId>] {
        &self.assignments
    }

    /// Every node appearing in any preference list, deduplicated in
    /// first-appearance order (deterministic).
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
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
                self.nodes = distinct_nodes(&self.assignments);
                self.version += 1;
                true
            }
        }
    }

    pub(crate) fn to_value(&self) -> Value {
        Value::Record(vec![
            ("version".into(), int_to_wire(self.version)),
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
        let version = int_from_wire(v.field("version")?)?;
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
            nodes: distinct_nodes(&shards),
            assignments: shards,
            ring,
        })
    }
}

/// The nodes of `assignments`, deduplicated in first-appearance order.
fn distinct_nodes(assignments: &[Vec<NodeId>]) -> Vec<NodeId> {
    let mut out: Vec<NodeId> = Vec::new();
    for &n in assignments.iter().flatten() {
        if !out.contains(&n) {
            out.push(n);
        }
    }
    out
}

// ---- the replicated store --------------------------------------------------

/// What a versioned entry holds. A live record's body (middleware,
/// gateway, WSDL text, contexts) is not here: the replica's UDDI
/// registry keeps it, as its only copy (see [`ReplicaState::store`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum EntryKind {
    /// A live record. Its lease deadline travels with it: a replica may
    /// only reap what the *replicated* state says is due.
    Record {
        /// When the lease runs out; `None` without a lease.
        expires_at: Option<SimTime>,
    },
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

#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Entry {
    pub version: Version,
    pub shard: u32,
    pub kind: EntryKind,
}

impl Entry {
    /// Writes `name`'s entry as the Struct element `elem`, a live
    /// record's body from `body`: the bytes of the oracle
    /// `Entry::to_value(name, ..).write_xml(elem, ..)`.
    fn write_xml<O: XmlOut + ?Sized>(
        &self,
        elem: &str,
        name: &str,
        body: Option<&RecordParts<'_>>,
        out: &mut O,
    ) {
        let fields = match (self.kind, body) {
            (EntryKind::Record { .. }, Some(_)) => 9,
            (EntryKind::Record { .. }, None) | (EntryKind::Expired { .. }, _) => 5,
            (EntryKind::Unpublished, _) => 4,
        };
        write_compound_xml(Compound::Struct, elem, fields, out, |out| {
            write_str_xml("name", name, out);
            Value::Int(i64::from(self.shard)).write_xml("shard", out);
            self.version.write_xml("version", out);
            match self.kind {
                EntryKind::Record { expires_at } => {
                    write_str_xml("kind", "record", out);
                    if let Some(body) = body {
                        body.write_body(out);
                    }
                    expires_at
                        .map_or(Value::Null, |t| int_to_wire(t.as_micros()))
                        .write_xml("expires_at", out);
                }
                EntryKind::Unpublished => write_str_xml("kind", "unpublish", out),
                EntryKind::Expired { of } => {
                    write_str_xml("kind", "expired", out);
                    of.write_xml("of", out);
                }
            }
        });
    }
}

/// `v` if it is a Struct.
fn struct_of(v: Option<ValueRef<'_>>) -> Option<ValueRef<'_>> {
    v.filter(|v| v.compound() == Some(Compound::Struct))
}

/// The first field named `name` of the Struct `v`, as [`Value::field`]
/// finds it.
fn struct_field<'a>(v: Option<ValueRef<'a>>, name: &str) -> Option<ValueRef<'a>> {
    struct_of(v)?
        .members()
        .find(|&(k, _)| k == name)
        .map(|(_, v)| v)
}

/// The items of the Array `v`; none if it is missing or no Array.
fn array_items<'a>(v: Option<ValueRef<'a>>) -> impl Iterator<Item = ValueRef<'a>> {
    v.filter(|v| v.compound() == Some(Compound::Array))
        .into_iter()
        .flat_map(|v| v.members())
        .map(|(_, item)| item)
}

/// Reads one pushed or fetched entry in place, or `None` for a
/// malformed item. The first field of each name counts, as the oracle
/// `Entry::from_value` reads them. A record's body stays borrowed from
/// the message.
fn read_entry(item: ValueRef<'_>) -> Option<(Cow<'_, str>, Entry, Option<WireBody<'_>>)> {
    const FIELDS: [&str; 10] = [
        "name",
        "shard",
        "version",
        "kind",
        "middleware",
        "gateway",
        "wsdl",
        "contexts",
        "expires_at",
        "of",
    ];
    let mut fields = [None; FIELDS.len()];
    for (k, v) in struct_of(Some(item))?.members() {
        if let Some(i) = FIELDS.iter().position(|&f| f == k) {
            fields[i].get_or_insert(v);
        }
    }
    let [name, shard, version, kind, middleware, gateway, wsdl, contexts, expires_at, of] = fields;
    let name = name?.as_str()?;
    let shard = u32::try_from(shard?.as_int()?).ok()?;
    let version = Version::from_ref(version?)?;
    let (kind, body) = match &*kind?.as_str()? {
        "record" => {
            let body = WireBody {
                middleware: middleware?.as_str()?,
                gateway: gateway?.as_str()?,
                wsdl: wsdl?.as_str()?,
                contexts: struct_of(contexts),
            };
            // No deadline means no lease; a negative one is malformed,
            // never a lease that cannot expire.
            let expires_at = match expires_at.and_then(|v| v.as_int()) {
                None => None,
                Some(us) => Some(SimTime::from_micros(u64::try_from(us).ok()?)),
            };
            (EntryKind::Record { expires_at }, Some(body))
        }
        "unpublish" => (EntryKind::Unpublished, None),
        "expired" => (
            EntryKind::Expired {
                of: Version::from_ref(of?)?,
            },
            None,
        ),
        _ => return None,
    };
    Some((
        name,
        Entry {
            version,
            shard,
            kind,
        },
        body,
    ))
}

/// Writes a gateway-directory item as the Struct element `elem`: the
/// bytes of the oracle `gateway_to_value`.
fn write_gateway<O: XmlOut + ?Sized>(
    elem: &str,
    name: &str,
    node: u32,
    version: Version,
    out: &mut O,
) {
    write_compound_xml(Compound::Struct, elem, 3, out, |out| {
        write_str_xml("name", name, out);
        Value::Int(i64::from(node)).write_xml("node", out);
        version.write_xml("version", out);
    });
}

/// Reads one gateway-directory item in place, or `None` for a
/// malformed one (the oracle is `gateway_from_value`).
fn read_gateway(item: ValueRef<'_>) -> Option<(Cow<'_, str>, u32, Version)> {
    let field = |name| struct_field(Some(item), name);
    Some((
        field("name")?.as_str()?,
        u32::try_from(field("node")?.as_int()?).ok()?,
        Version::from_ref(field("version")?)?,
    ))
}

/// A live record's body as it arrives, read in place: a `publish`
/// call's arguments, or a pushed or fetched entry's fields. Strings are
/// slices of the message unless an entity had to be unescaped.
struct WireBody<'a> {
    middleware: Cow<'a, str>,
    gateway: Cow<'a, str>,
    wsdl: Cow<'a, str>,
    /// The contexts Struct, whose string fields are the contexts.
    contexts: Option<ValueRef<'a>>,
}

impl<'a> WireBody<'a> {
    /// The body as the registry saves it. A WSDL text that had to be
    /// unescaped is moved in, not copied.
    fn into_body(self) -> Body<'a> {
        let mut categories = vec![
            KeyedReference::new(TAX_MIDDLEWARE, self.middleware),
            KeyedReference::new(TAX_GATEWAY, self.gateway),
        ];
        categories.extend(context_categories(self.contexts));
        Body {
            wsdl: self.wsdl,
            categories,
        }
    }
}

/// The `uddi:ctx:<key>` categories of a contexts Struct's string
/// fields, in order.
fn context_categories<'a>(
    contexts: Option<ValueRef<'a>>,
) -> impl Iterator<Item = KeyedReference> + 'a {
    struct_of(contexts)
        .into_iter()
        .flat_map(|v| v.members())
        .filter_map(|(k, v)| {
            Some(KeyedReference::new(
                format!("{TAX_CONTEXT_PREFIX}{k}"),
                v.as_str()?,
            ))
        })
}

/// A live record's body as the registry saves it: the WSDL text its
/// tModel keeps, and its category list — middleware, gateway, then one
/// per context.
struct Body<'a> {
    wsdl: Cow<'a, str>,
    categories: Vec<KeyedReference>,
}

impl Body<'_> {
    /// The body as record `name`'s parts, to write it.
    fn parts<'p>(&'p self, name: &'p str) -> RecordParts<'p> {
        RecordParts {
            name,
            middleware: &self.categories[0].value,
            gateway: &self.categories[1].value,
            wsdl: &self.wsdl,
            categories: &self.categories,
        }
    }
}

pub(crate) struct ReplicaState {
    pub id: u32,
    /// The §3.3 store: the one copy of each live record's body, kept
    /// for inquiry (pattern matching, category filters, inquiry
    /// statistics) and read back, uncounted, to replicate it.
    pub registry: UddiRegistry,
    pub business: Key,
    /// The replicated, versioned truth: each name's version, shard,
    /// and lease or tombstone. Private: every write goes through
    /// [`ReplicaState::store`], which keeps the registry, the watermark
    /// and the fingerprints below in step.
    entries: HashMap<String, Entry>,
    /// The gateway directory, versioned like entries but not sharded
    /// (every replica carries the full directory).
    gateways: HashMap<String, (u32, Version)>,
    pub lease: Option<SimDuration>,
    seq: u64,
    /// A lower bound on every live record's lease deadline (`None`:
    /// no live record has one). Until `now` reaches it nothing can be
    /// due, so [`ReplicaState::expire_due`] skips its scan.
    next_expiry: Option<SimTime>,
    /// Per shard, the wrapping sum of [`pair_hash`] over the shard's
    /// entries — the record half of its anti-entropy fingerprint.
    shard_sums: BTreeMap<u32, u64>,
    /// The same sum over the gateway directory.
    gateway_sum: u64,
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
            next_expiry: None,
            shard_sums: BTreeMap::new(),
            gateway_sum: 0,
        }
    }

    /// The replicated entries, by name.
    pub(crate) fn entries(&self) -> &HashMap<String, Entry> {
        &self.entries
    }

    fn next_version(&mut self, now: SimTime) -> Version {
        self.seq += 1;
        Version {
            at_us: now.as_micros(),
            replica: self.id,
            seq: self.seq,
        }
    }

    /// A local write's entry, stamped with this replica's next version.
    fn stamp(&mut self, shard: u32, kind: EntryKind, now: SimTime) -> Entry {
        Entry {
            version: self.next_version(now),
            shard,
            kind,
        }
    }

    /// The anti-entropy fingerprint of `shard`: the sum of a hash per
    /// `(name, version)` over the shard's entries and the gateway
    /// directory. Two replicas holding the same pairs have the same
    /// fingerprint; different pairs collide with probability ~2^-64.
    fn fingerprint(&self, shard: u32) -> u64 {
        let records = self.shard_sums.get(&shard).copied().unwrap_or(0);
        records.wrapping_add(self.gateway_sum)
    }

    /// Merges one entry, local or replicated; returns whether it was
    /// applied. The decision reads the name, version and kind alone:
    /// the general rule is last-writer-wins on [`Version`]; expiry
    /// tombstones are scoped to the incarnation they reaped (see
    /// [`EntryKind::Expired`]). A live record's `body` is asked for
    /// only once its entry is accepted.
    fn apply<'b>(
        &mut self,
        name: &str,
        inc: Entry,
        body: impl FnOnce() -> Option<Body<'b>>,
    ) -> bool {
        let accept = match self.entries.get(name) {
            None => true,
            Some(cur) => match (inc.kind, cur.kind) {
                // An expiry tombstone kills only the incarnation it
                // reaped (or older); a later renew/republish survives.
                (EntryKind::Expired { of }, EntryKind::Record { .. }) => of >= cur.version,
                // A record written after the reaped incarnation
                // supersedes the tombstone even if the tombstone's own
                // stamp is later (the stale-reaper race).
                (EntryKind::Record { .. }, EntryKind::Expired { of }) => inc.version > of,
                _ => inc.version > cur.version,
            },
        };
        if accept {
            self.store(name, inc, body());
        }
        accept
    }

    /// Stores an accepted entry: rebuilds its UDDI record from `body`
    /// (a live record's), lowers the lease watermark to its deadline,
    /// and moves its fingerprint term from the entry it replaces.
    fn store(&mut self, name: &str, entry: Entry, body: Option<Body<'_>>) {
        debug_assert_eq!(
            matches!(entry.kind, EntryKind::Record { .. }),
            body.is_some(),
            "a live record and only a live record has a body"
        );
        self.mirror(name, body);
        if let EntryKind::Record {
            expires_at: Some(at),
        } = entry.kind
        {
            self.next_expiry = Some(self.next_expiry.map_or(at, |w| w.min(at)));
        }
        let sum = self.shard_sums.entry(entry.shard).or_default();
        *sum = sum.wrapping_add(pair_hash(TAG_RECORD, name, entry.version));
        let old = match self.entries.get_mut(name) {
            Some(slot) => Some(std::mem::replace(slot, entry)),
            None => self.entries.insert(name.to_owned(), entry),
        };
        if let Some(old) = old {
            let sum = self.shard_sums.entry(old.shard).or_default();
            *sum = sum.wrapping_sub(pair_hash(TAG_RECORD, name, old.version));
        }
    }

    /// Rebuilds the UDDI record of `name` from `body` (`None`: the name
    /// has no live record). The registry ends as the single-node VSR's
    /// delete by name, `save_tmodel` and `save_service` left it, so
    /// keys, publish statistics and inquiry behaviour are unchanged:
    /// the record named exactly `name` goes with its tModel, and a case
    /// variant's record stays, as its entry does. A live record is saved
    /// before the old one goes ([`UddiRegistry::replace_service`]), so
    /// the index buckets they share are kept; its tModel name and
    /// endpoint are each written once into an exactly sized string.
    fn mirror(&mut self, name: &str, body: Option<Body<'_>>) {
        let Some(Body { wsdl, categories }) = body else {
            self.registry.delete_services_by_name(name);
            return;
        };
        let tmodel = self
            .registry
            .save_tmodel([name, "-interface"].concat(), wsdl);
        // The second category is the gateway.
        let endpoint = ["vsg://", &categories[1].value, "/", name].concat();
        self.registry
            .replace_service(&self.business, name, categories, endpoint, Some(tmodel));
    }

    /// Writes `name`'s entry as the element `elem`, a live record's
    /// body read back from the registry.
    fn write_entry<O: XmlOut + ?Sized>(&self, elem: &str, name: &str, entry: &Entry, out: &mut O) {
        let body = match entry.kind {
            EntryKind::Record { .. } => RecordParts::stored(&self.registry, name),
            EntryKind::Unpublished | EntryKind::Expired { .. } => None,
        };
        entry.write_xml(elem, name, body.as_ref(), out);
    }

    /// Lazily reaps every record whose replicated lease deadline has
    /// passed, tombstoning it with [`EntryKind::Expired`] in name
    /// order. Returns the tombstones so the caller can replicate them
    /// to the shard peers. Costs O(1) until the lease watermark is
    /// due; the scan it then runs recomputes the watermark.
    fn expire_due(&mut self, now: SimTime) -> Vec<(String, Entry)> {
        if self.next_expiry.is_none_or(|at| at > now) {
            return Vec::new();
        }
        let mut due: Vec<String> = Vec::new();
        let mut next: Option<SimTime> = None;
        for (name, e) in &self.entries {
            if let EntryKind::Record {
                expires_at: Some(at),
            } = e.kind
            {
                if at <= now {
                    due.push(name.clone());
                } else {
                    next = Some(next.map_or(at, |n| n.min(at)));
                }
            }
        }
        self.next_expiry = next;
        due.sort_unstable();
        let mut out = Vec::with_capacity(due.len());
        for name in due {
            let Entry { version, shard, .. } = self.entries[&name];
            let tomb = self.stamp(shard, EntryKind::Expired { of: version }, now);
            self.store(&name, tomb, None);
            out.push((name, tomb));
        }
        out
    }

    /// Merges one gateway-directory entry (LWW on version).
    fn apply_gateway(&mut self, name: &str, node: u32, version: Version) -> bool {
        let old = match self.gateways.get_mut(name) {
            Some(&mut (_, cur)) if version <= cur => return false,
            Some(slot) => Some(std::mem::replace(slot, (node, version)).1),
            None => self
                .gateways
                .insert(name.to_owned(), (node, version))
                .map(|(_, v)| v),
        };
        let mut sum = self
            .gateway_sum
            .wrapping_add(pair_hash(TAG_GATEWAY, name, version));
        if let Some(old) = old {
            sum = sum.wrapping_sub(pair_hash(TAG_GATEWAY, name, old));
        }
        self.gateway_sum = sum;
        true
    }

    /// Applies the entry and gateway items of a `replicate` call or a
    /// `sync_fetch` reply, read in place and skipping malformed items;
    /// an accepted record is saved from the borrowed strings. Returns
    /// how many items were applied.
    fn apply_wire(&mut self, entries: Option<ValueRef<'_>>, gateways: Option<ValueRef<'_>>) -> i64 {
        let mut applied = 0i64;
        for item in array_items(entries) {
            if let Some((name, entry, body)) = read_entry(item) {
                if self.apply(&name, entry, || body.map(WireBody::into_body)) {
                    applied += 1;
                }
            }
        }
        for item in array_items(gateways) {
            if let Some((name, node, version)) = read_gateway(item) {
                if self.apply_gateway(&name, node, version) {
                    applied += 1;
                }
            }
        }
        applied
    }
}

/// A record's parts, borrowed from where they are: the registry record
/// an inquiry hit or a replication read found, or the body a `publish`
/// call is about to save. A `resolve` or `find` reply, a push and a
/// `sync_fetch` reply are written straight from them.
struct RecordParts<'r> {
    name: &'r str,
    middleware: &'r str,
    gateway: &'r str,
    wsdl: &'r str,
    /// The category list; the contexts are its `uddi:ctx:` entries.
    categories: &'r [KeyedReference],
}

impl<'r> RecordParts<'r> {
    /// An inquiry hit's parts: categories carry middleware, gateway and
    /// contexts, and the bound tModel carries the WSDL (its
    /// `get_tmodel` inquiry is counted here). `None` for a corrupt
    /// record.
    fn of(registry: &'r UddiRegistry, svc: &'r wsdl::BusinessService) -> Option<Self> {
        RecordParts::in_registry(svc, || {
            registry.get_tmodel(svc.bindings.first()?.tmodel_key.as_ref()?)
        })
    }

    /// The stored record named exactly `name`, read to replicate it:
    /// no inquiry is counted.
    fn stored(registry: &'r UddiRegistry, name: &str) -> Option<Self> {
        let (svc, tmodel) = registry.record_named(name)?;
        RecordParts::in_registry(svc, || Some(tmodel))
    }

    fn in_registry(
        svc: &'r wsdl::BusinessService,
        tmodel: impl FnOnce() -> Option<&'r wsdl::TModel>,
    ) -> Option<Self> {
        let category = |taxonomy: &str| {
            svc.categories
                .iter()
                .find(|c| c.taxonomy == taxonomy)
                .map(|c| c.value.as_str())
        };
        let middleware = category(TAX_MIDDLEWARE)?;
        let gateway = category(TAX_GATEWAY)?;
        Some(RecordParts {
            name: &svc.name,
            middleware,
            gateway,
            wsdl: &tmodel()?.overview_doc,
            categories: &svc.categories,
        })
    }

    /// The body copied out, to save it again (a renewal re-saves its
    /// record).
    fn body(&self) -> Body<'static> {
        Body {
            wsdl: Cow::Owned(self.wsdl.to_owned()),
            categories: self.categories.to_vec(),
        }
    }

    /// The `(key, value)` contexts.
    fn contexts(&self) -> impl Iterator<Item = (&'r str, &'r str)> + Clone {
        self.categories.iter().filter_map(|c| {
            c.taxonomy
                .strip_prefix(TAX_CONTEXT_PREFIX)
                .map(|k| (k, c.value.as_str()))
        })
    }

    /// Writes the record as the Struct element `elem`: the bytes its
    /// `Value::Record` of name, middleware, gateway, wsdl and contexts
    /// writes.
    fn write_xml(&self, elem: &str, out: &mut dyn XmlOut) {
        write_compound_xml(Compound::Struct, elem, 5, out, |out| {
            write_str_xml("name", self.name, out);
            self.write_body(out);
        });
    }

    /// Writes the body's fields: middleware, gateway, wsdl, contexts.
    fn write_body<O: XmlOut + ?Sized>(&self, out: &mut O) {
        write_str_xml("middleware", self.middleware, out);
        write_str_xml("gateway", self.gateway, out);
        write_str_xml("wsdl", self.wsdl, out);
        let contexts = self.contexts();
        write_compound_xml(
            Compound::Struct,
            "contexts",
            contexts.clone().count(),
            out,
            |out| {
                for (k, v) in contexts {
                    write_str_xml(k, v, out);
                }
            },
        );
    }
}

/// Serializes one registry inquiry hit as the `Value` the replicas
/// answered with before they wrote [`RecordParts`] in place: the
/// oracle of their byte identity.
#[cfg(test)]
pub(crate) fn service_to_value(
    registry: &UddiRegistry,
    svc: &wsdl::BusinessService,
) -> Option<Value> {
    let category = |taxonomy: &str| {
        svc.categories
            .iter()
            .find(|c| c.taxonomy == taxonomy)
            .map(|c| c.value.as_str())
    };
    let middleware = category(TAX_MIDDLEWARE)?;
    let gateway = category(TAX_GATEWAY)?;
    let tmodel = registry.get_tmodel(svc.bindings.first()?.tmodel_key.as_ref()?)?;
    let contexts: Vec<(String, Value)> = svc
        .categories
        .iter()
        .filter_map(|c| {
            c.taxonomy
                .strip_prefix(TAX_CONTEXT_PREFIX)
                .map(|k| (k.to_owned(), Value::from(c.value.as_str())))
        })
        .collect();
    Some(Value::Record(vec![
        ("name".into(), Value::from(svc.name.as_str())),
        ("middleware".into(), Value::from(middleware)),
        ("gateway".into(), Value::from(gateway)),
        ("wsdl".into(), Value::from(tmodel.overview_doc.as_str())),
        ("contexts".into(), Value::Record(contexts)),
    ]))
}

/// The entries one handler wrote, for the other replicas of their
/// shards: each entry's `item` element measured and written once, back
/// to back, under the state lock, and sent once it is released.
#[derive(Default)]
struct Push {
    xml: String,
    /// Each entry's shard, and where its element ends in `xml`.
    items: Stack<(u32, usize), 4>,
}

impl Push {
    /// Adds the entry of `shard` that `write` writes.
    fn add(&mut self, shard: u32, write: impl Fn(&mut dyn XmlOut)) {
        let mut len = Measure::default();
        write(&mut len);
        self.xml.reserve_exact(len.0);
        write(&mut self.xml);
        self.items.push((shard, self.xml.len()));
    }

    fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Entry `i`'s element.
    fn item(&self, i: usize) -> &str {
        let items = self.items.as_slice();
        let start = i.checked_sub(1).map_or(0, |p| items[p].1);
        &self.xml[start..items[i].1]
    }
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
            server.mount(VSR_NS, move |sim, call, reply| {
                handle(&ctx, sim, call, reply)
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
    /// Adds the entry of `shard` that `write` writes to `push`, unless
    /// no other replica hosts the shard: a single-replica cluster
    /// writes no push at all.
    fn stage(&self, push: &mut Push, shard: u32, write: impl Fn(&mut dyn XmlOut)) {
        let peers = self
            .map
            .lock()
            .replicas_for(shard)
            .iter()
            .any(|&n| n != self.node);
        if peers {
            push.add(shard, write);
        }
    }

    /// Best-effort eager push of freshly written entries to the other
    /// members of each entry's shard: peers in ascending order, each
    /// sent the elements of its entries, in write order, as written
    /// once. Failures are swallowed — the anti-entropy pass repairs
    /// them — but each push gets a `federation` span so the decision
    /// is visible in traces.
    fn replicate_out(&self, sim: &Sim, push: &Push) {
        // Which peer gets which entry, read under one lock of the map.
        let mut targets: Stack<(u32, usize), 4> = Stack::new();
        {
            let map = self.map.lock();
            for (i, &(shard, _)) in push.items.as_slice().iter().enumerate() {
                for &peer in map.replicas_for(shard) {
                    if peer != self.node {
                        targets.push((peer.0, i));
                    }
                }
            }
        }
        // Each peer once, in ascending order: the next smallest above
        // the last one sent to.
        let targets = targets.as_slice();
        let mut last = None;
        while let Some(peer) = targets
            .iter()
            .map(|&(p, _)| p)
            .filter(|&p| last.is_none_or(|l| p > l))
            .min()
        {
            last = Some(peer);
            let items = || {
                targets
                    .iter()
                    .filter(move |&&(p, _)| p == peer)
                    .map(|&(_, i)| push.item(i))
            };
            let n = items().count();
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
            let entries = |name: &str, out: &mut dyn XmlOut| {
                write_compound_xml(Compound::Array, name, n, out, |out| {
                    items().for_each(|xml| out.put(xml));
                });
            };
            let result = self.client.call_parts(
                NodeId(peer),
                VSR_NS,
                "replicate",
                [("entries", Arg::Write(&entries))],
            );
            scope.finish(&result);
        }
    }
}

/// The replica's request handler. Reads the call in place and mutates
/// state under one lock, then releases it *before* pushing replication
/// traffic to peers (a peer's handler may be reached over the same
/// synchronous wire). The replication-facing operations (`replicate`,
/// `sync_digest`, `sync_fetch`) never push in turn, so the call chain
/// is bounded. A `resolve` or `find` reply is written under the lock,
/// straight from the borrowed registry records; the router charges its
/// emit cost after the handler returns, so any pushes run before it
/// on the virtual clock.
fn handle(ctx: &ReplicaCtx, sim: &Sim, call: &CallRef<'_>, reply: Reply<'_>) -> Answered {
    // The replication plane: applied under the state lock, no reaping,
    // no pushes (these arrive from peers that are mid-handler).
    match call.method() {
        "shard_map" => return reply.value(&ctx.map.lock().to_value()),
        "replicate" => {
            let applied = ctx
                .state
                .lock()
                .apply_wire(call.get("entries"), call.get("gateways"));
            return reply.value(&Value::Int(applied));
        }
        "sync_digest" => return answer(reply, sync_digest(ctx, call)),
        "sync_fetch" => return sync_fetch(ctx, call, reply),
        _ => {}
    }

    // The client plane: reap due leases first (lazily, like the
    // single-node VSR), write what must be pushed to peers, answer,
    // then push with the lock released.
    let now = sim.now();
    let mut st = ctx.state.lock();
    let mut push = Push::default();
    for (name, tomb) in st.expire_due(now) {
        ctx.stage(&mut push, tomb.shard, |out| {
            tomb.write_xml("item", &name, None, out)
        });
    }
    let answered = match client_op(ctx, sim, call, &mut st, &mut push) {
        Ok(ClientAnswer::Value(v)) => reply.value(&v),
        Ok(ClientAnswer::Record(record)) => reply.write(|out| record.write_xml("return", out)),
        Ok(ClientAnswer::Records(records)) => reply.write(|out| {
            write_compound_xml(Compound::Array, "return", records.len(), out, |out| {
                for record in &records {
                    record.write_xml("item", out);
                }
            })
        }),
        Err(e) => reply.fault(&Fault::server(e.to_string())),
    };
    drop(st);
    if !push.is_empty() {
        ctx.replicate_out(sim, &push);
    }
    answered
}

/// Answers with `result`'s value, or with its error as a server fault.
fn answer(reply: Reply<'_>, result: Result<Value, MetaError>) -> Answered {
    match result {
        Ok(v) => reply.value(&v),
        Err(e) => reply.fault(&Fault::server(e.to_string())),
    }
}

/// What a client-plane operation answers: a value, or registry records
/// borrowed from the replica's state, written in place.
enum ClientAnswer<'r> {
    Value(Value),
    Record(RecordParts<'r>),
    Records(Vec<RecordParts<'r>>),
}

/// The call's string argument `name`, read in place.
fn str_arg<'a>(call: &CallRef<'a>, name: &str) -> Result<Cow<'a, str>, MetaError> {
    call.get(name)
        .and_then(|v| v.as_str())
        .ok_or_else(|| MetaError::Repository(format!("missing argument '{name}'")))
}

/// The string items of the call's Array argument `name`; none if it
/// is missing or no Array.
fn str_items<'a>(call: &CallRef<'a>, name: &str) -> impl Iterator<Item = Cow<'a, str>> {
    array_items(call.get(name)).filter_map(|v| v.as_str())
}

/// `sync_digest`: the shard's `(name, version)` pairs and the gateway
/// directory's, or `in_sync` when the caller's fingerprint matches.
fn sync_digest(ctx: &ReplicaCtx, call: &CallRef<'_>) -> Result<Value, MetaError> {
    let shard = shard_arg(call)?;
    let st = ctx.state.lock();
    // Fingerprint first: a backup whose pairs already match ours needs
    // no digest at all.
    let theirs = call
        .get("fingerprint")
        .and_then(|v| v.as_int())
        .map(fingerprint_from_int);
    if theirs == Some(st.fingerprint(shard)) {
        return Ok(Value::Record(vec![("in_sync".into(), Value::Bool(true))]));
    }
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
    Ok(Value::Record(vec![
        ("records".into(), digest(records)),
        ("gateways".into(), digest(gateways)),
    ]))
}

/// `sync_fetch`: the named entries and gateway items this replica
/// has, written straight from its state and its registry records.
fn sync_fetch(ctx: &ReplicaCtx, call: &CallRef<'_>, reply: Reply<'_>) -> Answered {
    let st = ctx.state.lock();
    let records =
        || str_items(call, "names").filter_map(|name| Some((*st.entries.get(&*name)?, name)));
    let gateways =
        || str_items(call, "gw_names").filter_map(|name| Some((*st.gateways.get(&*name)?, name)));
    reply.write(|out| {
        write_compound_xml(Compound::Struct, "return", 2, out, |out| {
            write_compound_xml(Compound::Array, "records", records().count(), out, |out| {
                for (entry, name) in records() {
                    st.write_entry("item", &name, &entry, out);
                }
            });
            write_compound_xml(
                Compound::Array,
                "gateways",
                gateways().count(),
                out,
                |out| {
                    for ((node, version), name) in gateways() {
                        write_gateway("item", &name, node, version, out);
                    }
                },
            );
        });
    })
}

/// One client-plane operation, run under the state lock: writes add
/// their entries to `push`, and reads answer with records borrowed
/// from `st`.
fn client_op<'s>(
    ctx: &ReplicaCtx,
    sim: &Sim,
    call: &CallRef<'_>,
    st: &'s mut ReplicaState,
    push: &mut Push,
) -> Result<ClientAnswer<'s>, MetaError> {
    let now = sim.now();
    let value = match call.method() {
        "register_gateway" => {
            let name = str_arg(call, "name")?;
            let node = call
                .get("node")
                .and_then(|v| v.as_int())
                .ok_or_else(|| MetaError::Repository("missing node".into()))?;
            let node = u32::try_from(node)
                .map_err(|_| MetaError::Repository(format!("bad node {node}")))?;
            let version = st.next_version(now);
            st.apply_gateway(&name, node, version);
            Value::Null
        }
        "gateway_node" => {
            let name = str_arg(call, "name")?;
            st.gateways
                .get(&*name)
                .map(|&(n, _)| Value::Int(i64::from(n)))
                .ok_or_else(|| MetaError::GatewayUnreachable(name.into_owned()))?
        }
        "publish" => {
            let name = str_arg(call, "name")?;
            let shard = route_write(ctx, sim, call, &name)?;
            let body = WireBody {
                middleware: str_arg(call, "middleware")?,
                gateway: str_arg(call, "gateway")?,
                wsdl: str_arg(call, "wsdl")?,
                contexts: struct_of(call.get("contexts")),
            }
            .into_body();
            let expires_at = st.lease.map(|l| now + l);
            let entry = st.stamp(shard, EntryKind::Record { expires_at }, now);
            // Pushed and saved straight from the call's arguments.
            ctx.stage(push, shard, |out| {
                entry.write_xml("item", &name, Some(&body.parts(&name)), out)
            });
            st.apply(&name, entry, || Some(body));
            Value::Null
        }
        "unpublish" => {
            let name = str_arg(call, "name")?;
            let shard = route_write(ctx, sim, call, &name)?;
            let found = matches!(
                st.entries.get(&*name).map(|e| e.kind),
                Some(EntryKind::Record { .. })
            );
            let entry = st.stamp(shard, EntryKind::Unpublished, now);
            ctx.stage(push, shard, |out| entry.write_xml("item", &name, None, out));
            st.apply(&name, entry, || None);
            Value::Bool(found)
        }
        "renew" => {
            let name = str_arg(call, "name")?;
            let shard = route_write(ctx, sim, call, &name)?;
            let live = matches!(
                st.entries.get(&*name).map(|e| e.kind),
                Some(EntryKind::Record { .. })
            );
            // With leases on, a renewal is a real write: it bumps the
            // version so a later stale reaper (EntryKind::Expired of an
            // older incarnation) cannot kill the renewed record. The
            // body is the stored one, saved again.
            if let (true, Some(lease)) = (live, st.lease) {
                let kind = EntryKind::Record {
                    expires_at: Some(now + lease),
                };
                let entry = st.stamp(shard, kind, now);
                let parts = RecordParts::stored(&st.registry, &name)
                    .ok_or_else(|| MetaError::Repository("corrupt record".into()))?;
                ctx.stage(push, shard, |out| {
                    entry.write_xml("item", &name, Some(&parts), out)
                });
                let body = parts.body();
                st.apply(&name, entry, || Some(body));
            }
            Value::Bool(live)
        }
        "resolve" => {
            let name = str_arg(call, "name")?;
            route_read(ctx, call, &name)?;
            let registry = &st.registry;
            let svc = registry
                .find_service_exact(&name)
                .ok_or_else(|| MetaError::UnknownService(name.into_owned()))?;
            return RecordParts::of(registry, svc)
                .map(ClientAnswer::Record)
                .ok_or_else(|| MetaError::Repository("corrupt record".into()));
        }
        "find" => {
            let pattern = str_arg(call, "pattern")?;
            let middleware = str_arg(call, "middleware")?;
            let categories: Vec<KeyedReference> = if middleware.is_empty() {
                vec![]
            } else {
                vec![KeyedReference::new(TAX_MIDDLEWARE, middleware)]
            };
            return serve_inquiry(ctx, call, st, &pattern, &categories).map(ClientAnswer::Records);
        }
        "find_ctx" => {
            let pattern = str_arg(call, "pattern")?;
            let categories: Vec<KeyedReference> =
                context_categories(call.get("contexts")).collect();
            return serve_inquiry(ctx, call, st, &pattern, &categories).map(ClientAnswer::Records);
        }
        "count" => match hosted_shard(ctx, call)? {
            Some(shard) => {
                let n = st
                    .entries
                    .values()
                    .filter(|e| e.shard == shard && matches!(e.kind, EntryKind::Record { .. }))
                    .count();
                Value::Int(n as i64)
            }
            None => Value::Int(st.registry.service_count() as i64),
        },
        other => {
            return Err(MetaError::Repository(format!(
                "unknown VSR operation '{other}'"
            )))
        }
    };
    Ok(ClientAnswer::Value(value))
}

fn shard_arg(call: &CallRef<'_>) -> Result<u32, MetaError> {
    call.get("shard")
        .and_then(|v| v.as_int())
        .and_then(|i| u32::try_from(i).ok())
        .ok_or_else(|| MetaError::Repository("missing argument 'shard'".into()))
}

/// A client-plane call's optional `shard` argument, folded onto the
/// map's shards. A value that is no `u32` is a malformed call, never a
/// shard (a negative one must not wrap onto a real shard).
fn client_shard(call: &CallRef<'_>, map: &ShardMap) -> Result<Option<u32>, MetaError> {
    match call.get("shard").and_then(|v| v.as_int()) {
        None => Ok(None),
        Some(s) => u32::try_from(s)
            .map(|s| Some(s % map.shard_count()))
            .map_err(|_| MetaError::Repository(format!("bad shard {s}"))),
    }
}

/// `shard`, or the redirect to its primary if this replica does not
/// host it.
fn hosts_or_moved(ctx: &ReplicaCtx, map: &ShardMap, shard: u32) -> Result<u32, MetaError> {
    if map.hosts(shard, ctx.node) {
        Ok(shard)
    } else {
        Err(MetaError::MovedShard {
            shard,
            node: map.primary(shard).0,
        })
    }
}

/// The call's `shard` argument, if any, checked to be hosted here.
fn hosted_shard(ctx: &ReplicaCtx, call: &CallRef<'_>) -> Result<Option<u32>, MetaError> {
    let map = ctx.map.lock();
    client_shard(call, &map)?
        .map(|shard| hosts_or_moved(ctx, &map, shard))
        .transpose()
}

/// Validates a write's routing: the shard must be hosted here, and the
/// write must land on the shard's primary — unless the caller set the
/// `promote` flag (it could not reach the primary), in which case this
/// backup promotes itself before accepting.
fn route_write(
    ctx: &ReplicaCtx,
    sim: &Sim,
    call: &CallRef<'_>,
    name: &str,
) -> Result<u32, MetaError> {
    let mut map = ctx.map.lock();
    let shard = client_shard(call, &map)?.unwrap_or_else(|| map.shard_of(name));
    hosts_or_moved(ctx, &map, shard)?;
    if map.primary(shard) != ctx.node {
        let promote = call
            .get("promote")
            .and_then(|v| v.as_bool())
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
fn route_read(ctx: &ReplicaCtx, call: &CallRef<'_>, name: &str) -> Result<u32, MetaError> {
    let map = ctx.map.lock();
    let shard = client_shard(call, &map)?.unwrap_or_else(|| map.shard_of(name));
    hosts_or_moved(ctx, &map, shard)
}

/// Serves a `find`/`find_ctx` inquiry from the local registry mirror,
/// filtered to the requested shard when one is given (the shard-aware
/// client fans an inquiry out to every shard and merges). Each hit is
/// looked up once, and borrowed.
fn serve_inquiry<'s>(
    ctx: &ReplicaCtx,
    call: &CallRef<'_>,
    st: &'s ReplicaState,
    pattern: &str,
    categories: &[KeyedReference],
) -> Result<Vec<RecordParts<'s>>, MetaError> {
    let shard = hosted_shard(ctx, call)?;
    let services = st.registry.find_service(pattern, categories);
    let mut out = Vec::with_capacity(services.len());
    for svc in services {
        if let Some(want) = shard {
            match st.entries.get(&svc.name) {
                Some(e) if e.shard == want => {}
                _ => continue,
            }
        }
        out.extend(RecordParts::of(&st.registry, svc));
    }
    Ok(out)
}

// ---- anti-entropy ----------------------------------------------------------

fn replica_by_node(replicas: &[Replica], node: NodeId) -> Option<&Replica> {
    replicas.iter().find(|r| r.node == node)
}

/// One anti-entropy pass over the whole cluster: for every shard, each
/// backup exchanges fingerprints, and digests where they differ, with
/// the shard's primary over the wire (pull what the primary has newer,
/// push what the backup has that the primary lacks), then the
/// per-shard replication-lag gauge is recomputed. Returns the worst
/// per-shard lag after the pass.
///
/// A backup's push can move the primary past backups that synced
/// earlier in the round: its own reaper tombstoned a lease, or it took
/// writes while promoted. When the primary applied such a push and the
/// shard has another backup, a second round brings them level (for the
/// already-converged ones it costs a fingerprint exchange each).
pub(crate) fn sync_cluster(
    sim: &Sim,
    replicas: &[Replica],
    map: &Arc<Mutex<ShardMap>>,
    metrics: &MetricsRegistry,
    tracer: &Tracer,
) -> u64 {
    let prefs = map.lock().preference_lists().to_vec();
    let mut worst = 0u64;
    for (shard, prefs) in (0u32..).zip(&prefs) {
        let (primary, backups) = (prefs[0], &prefs[1..]);
        let round = || {
            let mut moved = false;
            for &backup in backups {
                moved |= sync_pair(sim, replicas, shard, primary, backup, tracer, metrics);
            }
            moved
        };
        if round() && backups.len() > 1 {
            round();
        }
        let lag = shard_lag(replicas, shard, primary, backups);
        metrics.set_replication_lag(shard, lag);
        worst = worst.max(lag);
    }
    worst
}

/// How far `shard`'s laggiest backup trails its primary, measured
/// in-process (entries whose version differs or are missing). This is
/// the honest divergence, so a partition that blocks sync still shows
/// up on the gauge — and it compares entries, not fingerprints, so it
/// stays exact.
pub(crate) fn shard_lag(
    replicas: &[Replica],
    shard: u32,
    primary: NodeId,
    backups: &[NodeId],
) -> u64 {
    let Some(pri) = replica_by_node(replicas, primary) else {
        return 0;
    };
    let pri = pri.state.lock();
    let mut worst = 0u64;
    for &backup in backups {
        let Some(rep) = replica_by_node(replicas, backup) else {
            continue;
        };
        let st = rep.state.lock();
        let behind = pri
            .entries
            .iter()
            .filter(|(name, e)| {
                e.shard == shard && st.entries.get(*name).map(|b| b.version) != Some(e.version)
            })
            .count() as u64;
        worst = worst.max(behind);
    }
    worst
}

/// One exchange between a backup and its shard's primary. The backup
/// sends its fingerprint; a primary with the same one answers
/// `in_sync` and the exchange ends there. Otherwise the primary sends
/// its full digest and the two sides swap whatever differs. All wire
/// traffic originates from the backup's node, so partitions and crash
/// windows gate sync exactly like any other backbone traffic. Returns
/// whether the primary applied anything the backup pushed.
fn sync_pair(
    sim: &Sim,
    replicas: &[Replica],
    shard: u32,
    primary: NodeId,
    backup: NodeId,
    tracer: &Tracer,
    metrics: &MetricsRegistry,
) -> bool {
    let Some(rep) = replica_by_node(replicas, backup) else {
        return false;
    };
    let scope = Scope::child(sim, tracer, metrics, HopKind::Federation, || {
        format!("sync shard {shard}: n{} <-> n{}", backup.0, primary.0)
    });
    let fingerprint = rep.state.lock().fingerprint(shard);
    let shard_arg = Value::Int(i64::from(shard));
    let digest = match rep.client.call_parts(
        primary,
        VSR_NS,
        "sync_digest",
        [
            ("shard", &shard_arg),
            ("fingerprint", &fingerprint_to_wire(fingerprint)),
        ],
    ) {
        Ok(v) => v,
        failed @ Err(_) => {
            scope.finish(&failed);
            return false;
        }
    };
    if digest.field("in_sync").and_then(Value::as_bool) == Some(true) {
        return false;
    }
    let parse_digest = |field: &str| -> Vec<(&str, Version)> {
        match digest.field(field) {
            Some(Value::List(items)) => items
                .iter()
                .filter_map(|i| {
                    Some((
                        i.field("name")?.as_str()?,
                        Version::from_value(i.field("version")?)?,
                    ))
                })
                .collect(),
            _ => Vec::new(),
        }
    };
    let pri_records = parse_digest("records");
    let pri_gateways = parse_digest("gateways");
    let pri_record_index: HashMap<&str, Version> = pri_records.iter().copied().collect();
    let pri_gateway_index: HashMap<&str, Version> = pri_gateways.iter().copied().collect();

    // Diff against local state: anything whose version differs moves,
    // in both directions; the merge rules decide what sticks.
    let (need, need_gw, push, push_gw) = {
        let st = rep.state.lock();
        let need: Vec<Value> = pri_records
            .iter()
            .filter(|(name, version)| st.entries.get(*name).map(|e| e.version) != Some(*version))
            .map(|(name, _)| Value::Str((*name).to_owned()))
            .collect();
        let need_gw: Vec<Value> = pri_gateways
            .iter()
            .filter(|(name, version)| st.gateways.get(*name).map(|&(_, v)| v) != Some(*version))
            .map(|(name, _)| Value::Str((*name).to_owned()))
            .collect();
        // What the primary lacks is written now, under the lock and
        // before the fetch below can change what this replica holds.
        let mut lacking: Vec<(&String, &Entry)> = st
            .entries
            .iter()
            .filter(|(name, e)| {
                e.shard == shard && pri_record_index.get(name.as_str()) != Some(&e.version)
            })
            .collect();
        lacking.sort_unstable_by(|a, b| a.0.cmp(b.0));
        let mut push = Push::default();
        for (name, entry) in lacking {
            push.add(entry.shard, |out| st.write_entry("item", name, entry, out));
        }
        let mut push_gw: Vec<(String, u32, Version)> = st
            .gateways
            .iter()
            .filter(|(name, &(_, v))| pri_gateway_index.get(name.as_str()) != Some(&v))
            .map(|(name, &(node, v))| (name.clone(), node, v))
            .collect();
        push_gw.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        (need, need_gw, push, push_gw)
    };

    // Pull newer/different entries from the primary and merge them
    // locally as the reply is read. A failed fetch is repaired by the
    // next pass.
    if !need.is_empty() || !need_gw.is_empty() {
        let _ = rep.client.call_parts_ref(
            primary,
            VSR_NS,
            "sync_fetch",
            [
                ("shard", &shard_arg),
                ("names", &Value::List(need)),
                ("gw_names", &Value::List(need_gw)),
            ],
            |fetched| {
                rep.state.lock().apply_wire(
                    struct_field(fetched, "records"),
                    struct_field(fetched, "gateways"),
                )
            },
        );
    }

    // Push what the primary lacks (e.g. writes this backup took while
    // promoted, or tombstones the primary missed while down).
    if push.is_empty() && push_gw.is_empty() {
        return false;
    }
    let entries = |name: &str, out: &mut dyn XmlOut| {
        write_compound_xml(Compound::Array, name, push.items.len(), out, |out| {
            out.put(&push.xml);
        });
    };
    let gateways = |name: &str, out: &mut dyn XmlOut| {
        write_compound_xml(Compound::Array, name, push_gw.len(), out, |out| {
            for (gw, node, version) in &push_gw {
                write_gateway("item", gw, *node, *version, out);
            }
        });
    };
    let applied = rep.client.call_parts(
        primary,
        VSR_NS,
        "replicate",
        [
            ("entries", Arg::Write(&entries)),
            ("gateways", Arg::Write(&gateways)),
        ],
    );
    matches!(applied, Ok(Value::Int(n)) if n > 0)
}

// ---- oracles ---------------------------------------------------------------

/// A live record's body as owned strings, as the entries held it before
/// the registry became its only copy: what the oracles below read and
/// write.
#[cfg(test)]
#[derive(Debug, Clone, PartialEq)]
struct OwnedBody {
    middleware: String,
    gateway: String,
    wsdl: String,
    contexts: Vec<(String, String)>,
}

#[cfg(test)]
impl OwnedBody {
    /// A lamp's body.
    fn lamp() -> OwnedBody {
        OwnedBody {
            middleware: "x10".into(),
            gateway: "x10-gw".into(),
            wsdl: "<definitions/>".into(),
            contexts: vec![],
        }
    }

    /// The body as the registry saves it, built the way the mirror
    /// built it from the entries' copy.
    fn body(&self) -> Body<'_> {
        let mut categories = vec![
            KeyedReference::new(TAX_MIDDLEWARE, &self.middleware),
            KeyedReference::new(TAX_GATEWAY, &self.gateway),
        ];
        for (k, v) in &self.contexts {
            categories.push(KeyedReference::new(format!("{TAX_CONTEXT_PREFIX}{k}"), v));
        }
        Body {
            wsdl: Cow::Borrowed(&self.wsdl),
            categories,
        }
    }
}

#[cfg(test)]
impl Entry {
    /// The entry as the `Value` pushes and `sync_fetch` replies were
    /// built from before they were written in place: the oracle of
    /// [`Entry::write_xml`].
    fn to_value(self, name: &str, body: Option<&OwnedBody>) -> Value {
        let mut fields = vec![
            ("name".into(), Value::Str(name.to_owned())),
            ("shard".into(), Value::Int(i64::from(self.shard))),
            ("version".into(), self.version.to_value()),
        ];
        match self.kind {
            EntryKind::Record { expires_at } => {
                fields.push(("kind".into(), Value::Str("record".into())));
                if let Some(rec) = body {
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
                }
                fields.push((
                    "expires_at".into(),
                    expires_at.map_or(Value::Null, |t| int_to_wire(t.as_micros())),
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

    /// The owned decoder [`read_entry`] replaced: its oracle.
    fn from_value(v: &Value) -> Option<(String, Entry, Option<OwnedBody>)> {
        let name = v.field("name")?.as_str()?.to_owned();
        let shard = u32::try_from(v.field("shard")?.as_int()?).ok()?;
        let version = Version::from_value(v.field("version")?)?;
        let (kind, body) = match v.field("kind")?.as_str()? {
            "record" => {
                let body = OwnedBody {
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
                };
                let expires_at = match v.field("expires_at").and_then(Value::as_int) {
                    None => None,
                    Some(us) => Some(SimTime::from_micros(u64::try_from(us).ok()?)),
                };
                (EntryKind::Record { expires_at }, Some(body))
            }
            "unpublish" => (EntryKind::Unpublished, None),
            "expired" => (
                EntryKind::Expired {
                    of: Version::from_value(v.field("of")?)?,
                },
                None,
            ),
            _ => return None,
        };
        Some((
            name,
            Entry {
                version,
                shard,
                kind,
            },
            body,
        ))
    }
}

/// A gateway-directory item as the `Value` it was built as: the oracle
/// of [`write_gateway`].
#[cfg(test)]
fn gateway_to_value(name: &str, node: u32, version: Version) -> Value {
    Value::Record(vec![
        ("name".into(), Value::Str(name.to_owned())),
        ("node".into(), Value::Int(i64::from(node))),
        ("version".into(), version.to_value()),
    ])
}

/// The inverse of [`gateway_to_value`]; `None` for a malformed item.
/// The oracle of [`read_gateway`].
#[cfg(test)]
fn gateway_from_value(item: &Value) -> Option<(&str, u32, Version)> {
    Some((
        item.field("name")?.as_str()?,
        u32::try_from(item.field("node")?.as_int()?).ok()?,
        Version::from_value(item.field("version")?)?,
    ))
}

#[cfg(test)]
impl ReplicaState {
    /// Merges `entry`, saving a live record's `body` from owned
    /// strings.
    fn apply_owned(&mut self, name: &str, entry: Entry, body: Option<&OwnedBody>) -> bool {
        self.apply(name, entry, || body.map(OwnedBody::body))
    }

    /// [`ReplicaState::apply_owned`] with [`OwnedBody::lamp`] as a
    /// record's body.
    fn apply_entry(&mut self, name: &str, entry: Entry) -> bool {
        let lamp = OwnedBody::lamp();
        let body = matches!(entry.kind, EntryKind::Record { .. }).then_some(&lamp);
        self.apply_owned(name, entry, body)
    }

    /// The owned apply [`ReplicaState::apply_wire`] replaced: every item
    /// decoded into an owned entry and body first. Its oracle.
    fn apply_items(&mut self, entries: Option<&Value>, gateways: Option<&Value>) -> i64 {
        let mut applied = 0i64;
        if let Some(Value::List(items)) = entries {
            for item in items {
                if let Some((name, entry, body)) = Entry::from_value(item) {
                    if self.apply_owned(&name, entry, body.as_ref()) {
                        applied += 1;
                    }
                }
            }
        }
        if let Some(Value::List(items)) = gateways {
            for item in items {
                if let Some((name, node, version)) = gateway_from_value(item) {
                    if self.apply_gateway(name, node, version) {
                        applied += 1;
                    }
                }
            }
        }
        applied
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::SimRng;
    use soap::RpcCall;

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
            kind: EntryKind::Record { expires_at },
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
        assert!(st.apply_entry("lamp", tomb_current));
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

    /// The reaper the watermark gates: the full scan `expire_due` ran
    /// on every client-plane request before, kept as the reference.
    fn expire_due_full_scan(st: &mut ReplicaState, now: SimTime) -> Vec<(String, Entry)> {
        let mut due: Vec<String> = st
            .entries
            .iter()
            .filter(|(_, e)| match e.kind {
                EntryKind::Record { expires_at } => expires_at.is_some_and(|at| at <= now),
                _ => false,
            })
            .map(|(name, _)| name.clone())
            .collect();
        due.sort_unstable();
        let mut out = Vec::with_capacity(due.len());
        for name in due {
            let (of, shard) = {
                let cur = &st.entries[&name];
                (cur.version, cur.shard)
            };
            let tomb = Entry {
                version: st.next_version(now),
                shard,
                kind: EntryKind::Expired { of },
            };
            st.store(&name, tomb, None);
            out.push((name, tomb));
        }
        out
    }

    const NAMES: [&str; 6] = ["den-tv", "hall-lamp", "oven", "porch", "vcr", "x"];

    fn shard_of_name(name: &str) -> u32 {
        (name.len() % 3) as u32
    }

    /// One random step against a replica: a lease toggle, a local
    /// publish/renew/unpublish (stamped like the handler stamps them),
    /// a replicated entry or gateway item with an arbitrary version and
    /// deadline, or a clock advance. Returns the new clock.
    fn random_step(st: &mut ReplicaState, rng: &mut SimRng, now: SimTime) -> SimTime {
        let name = NAMES[rng.index(NAMES.len())];
        let shard = shard_of_name(name);
        let deadline = |rng: &mut SimRng| {
            let t = now.as_micros() + rng.range(0, 300);
            SimTime::from_micros(t.saturating_sub(100))
        };
        match rng.range(0, 8) {
            0 => {
                st.lease = if rng.chance(0.3) {
                    None
                } else {
                    Some(SimDuration::from_micros(rng.range(1, 250)))
                };
            }
            1 => {
                let mut body = OwnedBody::lamp();
                body.gateway = format!("gw-{}", rng.range(0, 3));
                let expires_at = st.lease.map(|l| now + l);
                let entry = st.stamp(shard, EntryKind::Record { expires_at }, now);
                st.apply_owned(name, entry, Some(&body));
            }
            2 => {
                if let (Some(lease), Some(EntryKind::Record { .. })) =
                    (st.lease, st.entries.get(name).map(|e| e.kind))
                {
                    let body = RecordParts::stored(&st.registry, name).map(|p| p.body());
                    let kind = EntryKind::Record {
                        expires_at: Some(now + lease),
                    };
                    let entry = st.stamp(shard, kind, now);
                    st.apply(name, entry, || body);
                }
            }
            3 => {
                let entry = st.stamp(shard, EntryKind::Unpublished, now);
                st.apply_entry(name, entry);
            }
            4 | 5 => {
                let version = Version {
                    at_us: now.as_micros().saturating_sub(rng.range(0, 50)),
                    replica: rng.range(1, 3) as u32,
                    seq: rng.range(0, 1_000),
                };
                let kind = match rng.range(0, 4) {
                    0 => EntryKind::Unpublished,
                    1 => EntryKind::Expired {
                        of: st.entries.get(name).map_or(version, |e| e.version),
                    },
                    2 => EntryKind::Record { expires_at: None },
                    _ => EntryKind::Record {
                        expires_at: Some(deadline(rng)),
                    },
                };
                st.apply_entry(
                    name,
                    Entry {
                        version,
                        shard,
                        kind,
                    },
                );
            }
            6 => {
                let version = Version {
                    at_us: now.as_micros(),
                    replica: rng.range(0, 3) as u32,
                    seq: rng.range(0, 1_000),
                };
                st.apply_gateway(&format!("gw-{}", rng.range(0, 3)), 7, version);
            }
            _ => return now + SimDuration::from_micros(rng.range(0, 60)),
        }
        now
    }

    #[test]
    fn watermark_gated_expiry_reaps_what_the_full_scan_reaps() {
        let mut reaped = 0;
        let mut skipped = 0;
        for seed in 0..64 {
            let mut rng = SimRng::seeded(seed);
            let mut fast = ReplicaState::new(0);
            let mut slow = ReplicaState::new(0);
            let mut now = SimTime::ZERO;
            for step in 0..400 {
                // Both replicas see the same schedule: each step draws
                // from its own generator, replayed on the twin.
                let step_seed = rng.range(0, u64::MAX);
                let then = random_step(&mut fast, &mut SimRng::seeded(step_seed), now);
                random_step(&mut slow, &mut SimRng::seeded(step_seed), now);
                now = then;
                if step % 3 == 0 {
                    if fast.next_expiry.is_none_or(|at| at > now) {
                        skipped += 1;
                    }
                    let gated = fast.expire_due(now);
                    let full = expire_due_full_scan(&mut slow, now);
                    assert_eq!(gated, full, "seed {seed} step {step}");
                    assert!(
                        fast.next_expiry.is_none_or(|at| at > now),
                        "a reaped replica must not scan again at the same instant (seed {seed})"
                    );
                    reaped += gated.len();
                }
                assert_eq!(fast.entries, slow.entries, "seed {seed} step {step}");
                let earliest = fast
                    .entries
                    .values()
                    .filter_map(|e| match e.kind {
                        EntryKind::Record { expires_at } => expires_at,
                        _ => None,
                    })
                    .min();
                if let Some(earliest) = earliest {
                    assert!(
                        fast.next_expiry.is_some_and(|w| w <= earliest),
                        "the watermark must bound every live deadline (seed {seed})"
                    );
                }
            }
        }
        assert!(reaped > 100, "the schedule must actually reap ({reaped})");
        assert!(
            skipped > 100,
            "and the watermark must skip scans ({skipped})"
        );
    }

    #[test]
    fn fingerprints_track_every_write_incrementally() {
        for seed in 0..32 {
            let mut rng = SimRng::seeded(seed);
            let mut st = ReplicaState::new(0);
            let mut now = SimTime::ZERO;
            for _ in 0..300 {
                now = random_step(&mut st, &mut rng, now);
                st.expire_due(now);
                let gateways = st.gateways.iter().fold(0u64, |sum, (name, &(_, v))| {
                    sum.wrapping_add(pair_hash(TAG_GATEWAY, name, v))
                });
                for shard in 0..3 {
                    let from_scratch = st
                        .entries
                        .iter()
                        .filter(|(_, e)| e.shard == shard)
                        .fold(gateways, |sum, (name, e)| {
                            sum.wrapping_add(pair_hash(TAG_RECORD, name, e.version))
                        });
                    assert_eq!(st.fingerprint(shard), from_scratch, "seed {seed}");
                }
            }
        }
        // Different pairs, different fingerprints; order never matters.
        let mut a = ReplicaState::new(0);
        let mut b = ReplicaState::new(1);
        let v = |seq| Version {
            at_us: 1,
            replica: 0,
            seq,
        };
        a.apply_entry("x", record_entry(v(1), None));
        a.apply_entry("y", record_entry(v(2), None));
        b.apply_entry("y", record_entry(v(2), None));
        assert_ne!(a.fingerprint(0), b.fingerprint(0));
        b.apply_entry("x", record_entry(v(1), None));
        assert_eq!(a.fingerprint(0), b.fingerprint(0));
        a.apply_gateway("gw", 1, v(3));
        assert_ne!(a.fingerprint(0), b.fingerprint(0));
    }

    fn with_field(v: &Value, key: &str, to: Value) -> Value {
        match v {
            Value::Record(fields) => Value::Record(
                fields
                    .iter()
                    .map(|(k, old)| (k.clone(), if k == key { to.clone() } else { old.clone() }))
                    .collect(),
            ),
            _ => panic!("not a record"),
        }
    }

    const OVERSIZED_U32: i64 = u32::MAX as i64 + 1;

    #[test]
    fn wire_integers_reject_negative_and_oversized_values() {
        let version = |at: i64, replica: i64, seq: i64| {
            Value::List(vec![Value::Int(at), Value::Int(replica), Value::Int(seq)])
        };
        let ok = Version {
            at_us: 1,
            replica: 2,
            seq: 3,
        };
        assert_eq!(Version::from_value(&version(1, 2, 3)), Some(ok));
        for bad in [
            version(-1, 2, 3),
            version(1, 2, -3),
            version(i64::MIN, 2, 3),
            version(1, -2, 3),
            version(1, OVERSIZED_U32, 3),
        ] {
            assert_eq!(Version::from_value(&bad), None, "{bad:?}");
        }
        let huge = Version {
            at_us: u64::MAX,
            replica: 0,
            seq: u64::MAX,
        };
        assert_eq!(
            huge.to_value(),
            version(i64::MAX, 0, i64::MAX),
            "saturates, never wraps negative"
        );

        let entry = record_entry(ok, Some(SimTime::from_micros(1_000)));
        let lamp = OwnedBody::lamp();
        let value = entry.to_value("lamp", Some(&lamp));
        assert_eq!(
            Entry::from_value(&value),
            Some(("lamp".into(), entry, Some(lamp)))
        );
        let leaseless = Entry::from_value(&with_field(&value, "expires_at", Value::Null));
        assert!(matches!(
            leaseless,
            Some((
                _,
                Entry {
                    kind: EntryKind::Record { expires_at: None },
                    ..
                },
                _
            ))
        ));
        for (field, bad) in [
            ("expires_at", Value::Int(-1)),
            ("expires_at", Value::Int(i64::MIN)),
            ("shard", Value::Int(-1)),
            ("shard", Value::Int(OVERSIZED_U32)),
            ("version", version(-5, 0, 1)),
        ] {
            assert_eq!(
                Entry::from_value(&with_field(&value, field, bad.clone())),
                None,
                "{field} = {bad:?}"
            );
        }

        let gateway = gateway_to_value("gw", 7, ok);
        assert_eq!(gateway_from_value(&gateway), Some(("gw", 7, ok)));
        for bad in [-7, OVERSIZED_U32] {
            assert_eq!(
                gateway_from_value(&with_field(&gateway, "node", Value::Int(bad))),
                None
            );
        }

        let mut map = ShardMap::build(4, &nodes(3), 2).to_value();
        map = with_field(&map, "version", Value::Int(-1));
        assert_eq!(ShardMap::from_value(&map), None);
    }

    #[test]
    fn fingerprints_travel_losslessly() {
        for fp in [
            0,
            1,
            0x0123_4567_89ab_cdef,
            i64::MAX as u64,
            1 << 63,
            u64::MAX,
        ] {
            assert_eq!(
                fingerprint_to_wire(fp).as_int().map(fingerprint_from_int),
                Some(fp)
            );
            // Through the SOAP envelope `sync_digest` rides in, too.
            let call =
                RpcCall::new(VSR_NS, "sync_digest").arg("fingerprint", fingerprint_to_wire(fp));
            let doc = call.to_envelope();
            let back = CallRef::parse(&doc).unwrap();
            assert_eq!(
                back.get("fingerprint")
                    .and_then(|v| v.as_int())
                    .map(fingerprint_from_int),
                Some(fp)
            );
        }
    }

    /// A one-replica, four-shard replica context mounted on a router of
    /// its own, and the client that drives [`handle`] through it.
    fn replica_ctx() -> (Sim, ReplicaCtx, Driver) {
        let sim = Sim::new(1);
        let net = Network::ethernet(&sim);
        let server = SoapServer::bind(&net, "vsr-0");
        let node = server.node();
        let ctx = ReplicaCtx {
            node,
            state: Arc::new(Mutex::new(ReplicaState::new(0))),
            map: Arc::new(Mutex::new(ShardMap::build(4, &[node], 1))),
            client: SoapClient::on_node(
                &net,
                node,
                soap::CpuModel::default(),
                soap::TcpModel::default(),
            ),
            tracer: Tracer::new("vsr-test"),
            metrics: Arc::new(MetricsRegistry::new()),
        };
        let served = ctx.clone();
        server.mount(VSR_NS, move |sim, call, reply| {
            handle(&served, sim, call, reply)
        });
        let driver = Driver {
            client: SoapClient::attach(&net, "driver"),
            server: node,
            node: net.attach("poster"),
            net,
        };
        (sim, ctx, driver)
    }

    /// Sends calls to one replica and reads its faults back as errors;
    /// `node` posts raw envelopes on `net`.
    struct Driver {
        client: SoapClient,
        server: NodeId,
        net: Network,
        node: NodeId,
    }

    impl Driver {
        fn serve(&self, call: &RpcCall) -> Result<Value, MetaError> {
            self.client.call(self.server, call).map_err(|e| match e {
                soap::SoapError::Fault(f) => MetaError::from_fault_string(&f.string),
                other => panic!("transport failure {other:?}"),
            })
        }
    }

    #[test]
    fn malformed_client_plane_integers_are_repository_errors() {
        let (_sim, ctx, driver) = replica_ctx();
        let call = |method: &str| {
            RpcCall::new(VSR_NS, method)
                .arg("name", "hall-lamp")
                .arg("pattern", "%")
                .arg("middleware", "x10")
                .arg("gateway", "x10-gw")
                .arg("wsdl", "<definitions name=\"hall-lamp\"/>")
        };
        assert!(driver.serve(&call("publish").arg("shard", 1i64)).is_ok());
        for shard in [-1, i64::MIN, OVERSIZED_U32] {
            for method in ["publish", "unpublish", "renew", "resolve", "find", "count"] {
                let result = driver.serve(&call(method).arg("shard", shard));
                assert!(
                    matches!(result, Err(MetaError::Repository(_))),
                    "{method} with shard {shard}: {result:?}"
                );
            }
        }
        for node in [-1, OVERSIZED_U32] {
            let result = driver.serve(&call("register_gateway").arg("node", node));
            assert!(
                matches!(result, Err(MetaError::Repository(_))),
                "{result:?}"
            );
        }
        let st = ctx.state.lock();
        assert!(st.gateways.is_empty());
        assert_eq!(
            st.registry.service_count(),
            1,
            "only the well-formed publish"
        );
    }

    #[test]
    fn replicate_skips_malformed_items() {
        let (_sim, ctx, driver) = replica_ctx();
        let v = |seq| Version {
            at_us: 1,
            replica: 1,
            seq,
        };
        let lamp = OwnedBody::lamp();
        let good = record_entry(v(1), None).to_value("good", Some(&lamp));
        let bad_version = with_field(
            &record_entry(v(2), None).to_value("bad", Some(&lamp)),
            "version",
            Value::List(vec![Value::Int(-5), Value::Int(1), Value::Int(2)]),
        );
        let never_expires = with_field(
            &record_entry(v(3), None).to_value("forever", Some(&lamp)),
            "expires_at",
            Value::Int(-1),
        );
        let gw_ok = gateway_to_value("gw-a", 3, v(4));
        let gw_bad = with_field(&gateway_to_value("gw-b", 4, v(5)), "node", Value::Int(-4));
        let call = RpcCall::new(VSR_NS, "replicate")
            .arg(
                "entries",
                Value::List(vec![good, bad_version, never_expires]),
            )
            .arg("gateways", Value::List(vec![gw_ok, gw_bad]));
        assert_eq!(driver.serve(&call).unwrap(), Value::Int(2));
        let st = ctx.state.lock();
        let mut names: Vec<&str> = st.entries.keys().map(String::as_str).collect();
        names.sort_unstable();
        assert_eq!(names, ["good"]);
        assert_eq!(st.gateways.keys().collect::<Vec<_>>(), ["gw-a"]);
    }

    #[test]
    fn sync_digest_answers_in_sync_only_on_a_matching_fingerprint() {
        let (_sim, ctx, driver) = replica_ctx();
        let version = Version {
            at_us: 1,
            replica: 0,
            seq: 1,
        };
        ctx.state
            .lock()
            .apply_entry("hall-lamp", record_entry(version, None));
        let fp = ctx.state.lock().fingerprint(0);
        let digest = |fp: Option<u64>| {
            let mut call = RpcCall::new(VSR_NS, "sync_digest").arg("shard", 0i64);
            if let Some(fp) = fp {
                call = call.arg("fingerprint", fingerprint_to_wire(fp));
            }
            driver.serve(&call).unwrap()
        };
        assert_eq!(
            digest(Some(fp)),
            Value::Record(vec![("in_sync".into(), Value::Bool(true))])
        );
        for differs in [Some(fp.wrapping_add(1)), None] {
            let full = digest(differs);
            assert!(full.field("in_sync").is_none());
            match full.field("records") {
                Some(Value::List(items)) => assert_eq!(items.len(), 1),
                other => panic!("full digest expected, got {other:?}"),
            }
        }
    }

    /// Golden wire bytes of the replication plane.
    ///
    /// One scripted session on a three-replica, four-shard cluster with
    /// replication 2 and leases on records every `replicate`,
    /// `sync_digest` and `sync_fetch` request a replica sends to a peer
    /// and every reply, and must reproduce
    /// `tests/goldens/replication_wire.hex` byte for byte. The replicas'
    /// routers sit on one network and their push clients on another;
    /// on the second, a forwarding tap stands in for each replica (the
    /// taps are attached first, so they get the replicas' node ids),
    /// records the payloads and can lose the requests bound for one
    /// replica. The repository client talks to the routers directly.
    mod replication_goldens {
        use super::*;
        use crate::iface::catalog;
        use crate::service::{Middleware, VirtualService};
        use crate::vsr::VsrClient;
        use simnet::Protocol;

        const GOLDENS: &str = include_str!("../../../tests/goldens/replication_wire.hex");

        fn hex(b: &[u8]) -> String {
            use std::fmt::Write;
            b.iter().fold(String::new(), |mut s, x| {
                let _ = write!(s, "{x:02x}");
                s
            })
        }

        /// Runs the session: one line per payload, `> nS->nD <hex>` for
        /// a request, `< <hex>` for its reply, `x lost` for a request
        /// the tap dropped.
        fn session() -> Vec<String> {
            let sim = Sim::new(1);
            let server_net = Network::ethernet(&sim);
            let push_net = Network::ethernet(&sim);
            let servers: Vec<SoapServer> = (0..3)
                .map(|i| SoapServer::bind(&server_net, &format!("vsr-{i}")))
                .collect();
            let nodes: Vec<NodeId> = servers.iter().map(SoapServer::node).collect();
            let forwarder = server_net.attach("forwarder");
            let map = Arc::new(Mutex::new(ShardMap::build(4, &nodes, 2)));
            let tracer = Tracer::new("golden");
            let metrics = Arc::new(MetricsRegistry::new());
            let seen: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
            let lost: Arc<Mutex<Option<NodeId>>> = Arc::new(Mutex::new(None));
            let lease = SimDuration::from_secs(30);

            let replicas: Vec<Replica> = servers
                .into_iter()
                .enumerate()
                .map(|(i, server)| {
                    let node = server.node();
                    let tap = push_net.attach(format!("tap-{i}"));
                    assert_eq!(tap, node, "the tap must stand in for the replica");
                    let (log, lost, server_net) = (seen.clone(), lost.clone(), server_net.clone());
                    push_net
                        .set_request_handler(tap, move |_sim, frame| {
                            log.lock().push(format!(
                                "> n{}->n{} {}",
                                frame.src.0,
                                node.0,
                                hex(&frame.payload)
                            ));
                            if *lost.lock() == Some(node) {
                                log.lock().push("x lost".to_owned());
                                return Err("lost".to_owned());
                            }
                            let reply = server_net
                                .request(forwarder, node, Protocol::Http, frame.payload.clone())
                                .map_err(|e| e.to_string())?;
                            log.lock().push(format!("< {}", hex(&reply)));
                            Ok(reply)
                        })
                        .unwrap();
                    let client = SoapClient::on_node(
                        &push_net,
                        node,
                        soap::CpuModel::default(),
                        soap::TcpModel::default(),
                    );
                    let state = Arc::new(Mutex::new(ReplicaState::new(i as u32)));
                    state.lock().lease = Some(lease);
                    let ctx = ReplicaCtx {
                        node,
                        state: state.clone(),
                        map: map.clone(),
                        client: client.clone(),
                        tracer: tracer.clone(),
                        metrics: metrics.clone(),
                    };
                    server.mount(VSR_NS, move |sim, call, reply| {
                        handle(&ctx, sim, call, reply)
                    });
                    Replica {
                        node,
                        state,
                        client,
                    }
                })
                .collect();

            let pcm = server_net.attach("pcm");
            let client = VsrClient::new(&server_net, pcm, nodes[0]);
            let driver = SoapClient::attach(&server_net, "driver");
            let replica_of = |name: &str, i: usize| {
                let map = map.lock();
                map.replicas_for(map.shard_of(name))[i]
            };
            let primary = |name: &str| replica_of(name, 0);
            let backup = |name: &str| replica_of(name, 1);
            let sync = || sync_cluster(&sim, &replicas, &map, &metrics, &tracer);

            client.register_gateway("x10-gw", NodeId(7)).unwrap();
            let lamp = |gateway: &str| {
                VirtualService::new("hall-lamp", catalog::lamp(), Middleware::X10, gateway)
                    .context("room", "hall")
                    .context("floor", "1 & <ground>")
            };
            client.publish(&lamp("x10-gw")).unwrap();
            client
                .publish(&VirtualService::new(
                    "den-vcr",
                    catalog::vcr(),
                    Middleware::Havi,
                    "havi-gw",
                ))
                .unwrap();
            // A gateway move, then a case variant of the same name.
            client.publish(&lamp("x10-gw-2")).unwrap();
            client
                .publish(
                    &VirtualService::new("Hall-Lamp", catalog::lamp(), Middleware::X10, "x10-gw")
                        .context("room", "<attic>"),
                )
                .unwrap();
            assert!(client.renew("hall-lamp").unwrap());
            assert!(client.unpublish("den-vcr").unwrap());

            // A push lost on its way to the backup, repaired by the
            // next anti-entropy pass.
            *lost.lock() = Some(backup("porch-light"));
            client
                .publish(&VirtualService::new(
                    "porch-light",
                    catalog::lamp(),
                    Middleware::X10,
                    "x10-gw",
                ))
                .unwrap();
            *lost.lock() = None;
            assert_eq!(sync(), 0);

            // Every lease runs out. The backup of `hall-lamp`'s shard
            // reaps first and its tombstones to the primary are lost,
            // so anti-entropy pushes them from the backup.
            sim.advance(lease + SimDuration::from_secs(1));
            *lost.lock() = Some(primary("hall-lamp"));
            driver
                .call(backup("hall-lamp"), &RpcCall::new(VSR_NS, "count"))
                .unwrap();
            *lost.lock() = None;
            sync();
            // The primaries reap the rest.
            client.count().unwrap();
            assert_eq!(sync(), 0);
            assert!(client.resolve("hall-lamp").is_err());
            let lines = seen.lock().clone();
            lines
        }

        #[test]
        fn replication_wire_bytes_match_goldens() {
            let got = session();
            let want: Vec<&str> = GOLDENS.lines().filter(|l| !l.is_empty()).collect();
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g, w, "payload {i} differs from the golden");
            }
            assert_eq!(got.len(), want.len(), "payload count");
        }
    }

    /// The replication plane written and read in one pass is the owned
    /// plane it replaced: a push or `sync_fetch` entry is written with
    /// the bytes of `Entry::to_value`, and an entry read in place is
    /// merged exactly as `Entry::from_value` and the owned apply merge
    /// it.
    mod one_pass_replication {
        use super::*;
        use proptest::prelude::*;
        use simnet::Protocol;
        use soap::{HttpRequest, HttpResponseRef, RpcResponse, RPC_ROUTER_PATH};

        const NAMES: [&str; 4] = ["hall-lamp", "Hall-Lamp", "den <tv> & co", "x"];
        const FIELDS: [&str; 10] = [
            "name",
            "shard",
            "version",
            "kind",
            "middleware",
            "gateway",
            "wsdl",
            "contexts",
            "expires_at",
            "of",
        ];

        fn arb_text() -> impl Strategy<Value = String> {
            "[ -~é<>&\"']{0,16}"
        }

        /// One of `items`.
        fn select<T: Clone + std::fmt::Debug>(items: Vec<T>) -> impl Strategy<Value = T> {
            (0..items.len()).prop_map(move |i| items[i].clone())
        }

        fn arb_version() -> impl Strategy<Value = Version> {
            (
                prop_oneof![0..1_000u64, Just(u64::MAX)],
                prop_oneof![0..3u32, Just(u32::MAX)],
                prop_oneof![0..1_000u64, Just(u64::MAX)],
            )
                .prop_map(|(at_us, replica, seq)| Version {
                    at_us,
                    replica,
                    seq,
                })
        }

        fn arb_body() -> impl Strategy<Value = OwnedBody> {
            (
                arb_text(),
                arb_text(),
                arb_text(),
                prop::collection::vec(("[a-z][a-z0-9]{0,6}", arb_text()), 0..4),
            )
                .prop_map(|(middleware, gateway, wsdl, contexts)| OwnedBody {
                    middleware,
                    gateway,
                    wsdl,
                    contexts,
                })
        }

        /// A named entry of any kind, with a body when it is a record.
        fn arb_entry() -> impl Strategy<Value = (String, Entry, Option<OwnedBody>)> {
            (
                (select(NAMES.to_vec()), 0..4u32, arb_version()),
                0..4u8,
                prop::option::of(prop_oneof![0..2_000u64, Just(u64::MAX)]),
                arb_version(),
                arb_body(),
            )
                .prop_map(|((name, shard, version), kind, deadline, of, body)| {
                    let (kind, body) = match kind {
                        0 => (EntryKind::Unpublished, None),
                        1 => (EntryKind::Expired { of }, None),
                        _ => (
                            EntryKind::Record {
                                expires_at: deadline.map(SimTime::from_micros),
                            },
                            Some(body),
                        ),
                    };
                    let entry = Entry {
                        version,
                        shard,
                        kind,
                    };
                    (name.to_owned(), entry, body)
                })
        }

        /// A field value of any type, with the integers a decoder must
        /// refuse.
        fn arb_field() -> impl Strategy<Value = Value> {
            prop_oneof![
                arb_text().prop_map(Value::Str),
                select(vec!["record", "unpublish", "expired"]).prop_map(Value::from),
                any::<i64>().prop_map(Value::Int),
                select(vec![-1, i64::MIN, OVERSIZED_U32, i64::MAX]).prop_map(Value::Int),
                Just(Value::Null),
                Just(Value::Bool(true)),
                Just(Value::Float(1.5)),
                prop::collection::vec((-2..3i64).prop_map(Value::Int), 0..5).prop_map(Value::List),
                prop::collection::vec(("[a-z]{1,4}", arb_text().prop_map(Value::Str)), 0..3)
                    .prop_map(Value::Record),
            ]
        }

        /// A pushed item: a well-formed entry, or one with a field
        /// replaced, dropped, repeated before or after the original, or
        /// no record at all.
        fn arb_item() -> impl Strategy<Value = Value> {
            (arb_entry(), 0..6u8, select(FIELDS.to_vec()), arb_field()).prop_map(
                |((name, entry, body), how, field, value)| {
                    let Value::Record(mut fields) = entry.to_value(&name, body.as_ref()) else {
                        unreachable!("an entry is a record")
                    };
                    match how {
                        0 | 1 => {}
                        2 => {
                            if let Some(f) = fields.iter_mut().find(|(k, _)| k == field) {
                                f.1 = value;
                            }
                        }
                        3 => fields.retain(|(k, _)| k != field),
                        4 => fields.insert(0, (field.to_owned(), value)),
                        _ => fields.push((field.to_owned(), value)),
                    }
                    if how == 1 && field == "of" {
                        return Value::List(fields.into_iter().map(|(_, v)| v).collect());
                    }
                    Value::Record(fields)
                },
            )
        }

        fn arb_gateway() -> impl Strategy<Value = Value> {
            (
                select(vec!["gw-a", "gw-b"]),
                prop_oneof![0..8i64, Just(-4), Just(OVERSIZED_U32)],
                arb_version(),
            )
                .prop_map(|(name, node, version)| {
                    Value::Record(vec![
                        ("name".into(), Value::from(name)),
                        ("node".into(), Value::Int(node)),
                        ("version".into(), version.to_value()),
                    ])
                })
        }

        fn xml(write: impl FnOnce(&mut String)) -> String {
            let mut out = String::new();
            write(&mut out);
            out
        }

        /// Everything a replica's state holds that a merge can change.
        type Snapshot = (
            Vec<(String, Entry)>,
            Vec<(String, (u32, Version))>,
            Vec<u64>,
            Vec<(wsdl::BusinessService, String)>,
            wsdl::RegistryStats,
        );

        fn snapshot(st: &ReplicaState) -> Snapshot {
            let mut entries: Vec<_> = st.entries.iter().map(|(k, e)| (k.clone(), *e)).collect();
            entries.sort_by(|a, b| a.0.cmp(&b.0));
            let mut gateways: Vec<_> = st.gateways.iter().map(|(k, g)| (k.clone(), *g)).collect();
            gateways.sort_by(|a, b| a.0.cmp(&b.0));
            let fingerprints = (0..4).map(|shard| st.fingerprint(shard)).collect();
            let records = st
                .registry
                .find_service("%", &[])
                .into_iter()
                .map(|svc| {
                    let (_, tmodel) = st.registry.record_named(&svc.name).expect("a tModel");
                    (svc.clone(), tmodel.overview_doc.clone())
                })
                .collect();
            (
                entries,
                gateways,
                fingerprints,
                records,
                st.registry.stats(),
            )
        }

        /// Two replicas with the same history.
        fn twins(history: &[(String, Entry, Option<OwnedBody>)]) -> (ReplicaState, ReplicaState) {
            let mut a = ReplicaState::new(1);
            let mut b = ReplicaState::new(1);
            for (name, entry, body) in history {
                a.apply_owned(name, *entry, body.as_ref());
                b.apply_owned(name, *entry, body.as_ref());
            }
            (a, b)
        }

        /// Applies the `replicate` call `doc` in place on one twin and
        /// through the owned decode on the other; both must agree. `None`
        /// when the envelope does not parse (a router answers a fault).
        fn both_ways(history: &[(String, Entry, Option<OwnedBody>)], doc: &str) -> Option<i64> {
            let view = CallRef::parse(doc).ok()?;
            let owned = view.to_owned();
            let (mut in_place, mut oracle) = twins(history);
            let applied = in_place.apply_wire(view.get("entries"), view.get("gateways"));
            let expected = oracle.apply_items(owned.get("entries"), owned.get("gateways"));
            assert_eq!(applied, expected, "applied count for {doc}");
            assert!(
                snapshot(&in_place) == snapshot(&oracle),
                "state after {doc}"
            );
            Some(applied)
        }

        fn replicate_doc(items: Vec<Value>, gateways: Vec<Value>) -> String {
            RpcCall::new(VSR_NS, "replicate")
                .arg("entries", Value::List(items))
                .arg("gateways", Value::List(gateways))
                .to_envelope()
        }

        /// Posts `envelope` to the replica's router as raw bytes: the
        /// HTTP status and body of its answer.
        fn post(driver: &Driver, envelope: &[u8]) -> (u16, String) {
            let request = HttpRequest::post(
                RPC_ROUTER_PATH,
                "text/xml; charset=utf-8",
                envelope.to_vec(),
            )
            .to_bytes();
            let reply = driver
                .net
                .request(driver.node, driver.server, Protocol::Http, request)
                .expect("the router answers");
            let reply = HttpResponseRef::parse(&reply).expect("an HTTP response");
            (
                reply.status,
                String::from_utf8_lossy(reply.body).into_owned(),
            )
        }

        proptest! {
            #[test]
            fn pushed_entries_are_the_value_bytes(
                (name, entry, body) in arb_entry(),
            ) {
                let oracle = xml(|out| entry.to_value(&name, body.as_ref()).write_xml("item", out));
                // Read back from the registry, as a renewal, an
                // anti-entropy push and a `sync_fetch` reply write it.
                let mut st = ReplicaState::new(0);
                prop_assert!(st.apply_owned(&name, entry, body.as_ref()));
                prop_assert_eq!(xml(|out| st.write_entry("item", &name, &entry, out)), oracle.clone());
                // Straight from a `publish` call's arguments.
                if let Some(b) = &body {
                    let contexts = Value::Record(
                        b.contexts.iter().map(|(k, v)| (k.clone(), Value::from(v.as_str()))).collect(),
                    );
                    let doc = RpcCall::new(VSR_NS, "publish")
                        .arg("middleware", b.middleware.as_str())
                        .arg("gateway", b.gateway.as_str())
                        .arg("wsdl", b.wsdl.as_str())
                        .arg("contexts", contexts)
                        .to_envelope();
                    let call = CallRef::parse(&doc).unwrap();
                    let arg = |k: &str| call.get(k).and_then(|v| v.as_str()).unwrap();
                    let body = WireBody {
                        middleware: arg("middleware"),
                        gateway: arg("gateway"),
                        wsdl: arg("wsdl"),
                        contexts: struct_of(call.get("contexts")),
                    }
                    .into_body();
                    prop_assert_eq!(
                        xml(|out| entry.write_xml("item", &name, Some(&body.parts(&name)), out)),
                        oracle
                    );
                }
            }

            #[test]
            fn sync_fetch_replies_are_the_value_bytes(
                history in prop::collection::vec(arb_entry(), 0..6),
                gateways in prop::collection::vec((select(vec!["gw-a", "gw-b", "gw <c>"]), 0..9u32, arb_version()), 0..3),
                asked in prop::collection::vec(select(NAMES.to_vec()), 0..5),
                asked_gw in prop::collection::vec(select(vec!["gw-a", "gw <c>", "gw-z"]), 0..3),
            ) {
                let (_sim, ctx, driver) = replica_ctx();
                let mut bodies: HashMap<String, OwnedBody> = HashMap::new();
                {
                    let mut st = ctx.state.lock();
                    for (name, entry, body) in &history {
                        if st.apply_owned(name, *entry, body.as_ref()) {
                            if let Some(body) = body {
                                bodies.insert(name.clone(), body.clone());
                            }
                        }
                    }
                    for (name, node, version) in &gateways {
                        st.apply_gateway(name, *node, *version);
                    }
                }
                let names = Value::List(asked.iter().map(|&n| Value::from(n)).collect());
                let gw_names = Value::List(asked_gw.iter().map(|&n| Value::from(n)).collect());
                let doc = RpcCall::new(VSR_NS, "sync_fetch")
                    .arg("shard", 0i64)
                    .arg("names", names)
                    .arg("gw_names", gw_names)
                    .to_envelope();
                let expected = {
                    let st = ctx.state.lock();
                    let records = asked
                        .iter()
                        .filter_map(|&n| {
                            let entry = st.entries.get(n)?;
                            Some(entry.to_value(n, bodies.get(n)))
                        })
                        .collect();
                    let gateways = asked_gw
                        .iter()
                        .filter_map(|&n| {
                            let &(node, version) = st.gateways.get(n)?;
                            Some(gateway_to_value(n, node, version))
                        })
                        .collect();
                    RpcResponse::new(
                        "sync_fetch",
                        Value::Record(vec![
                            ("records".into(), Value::List(records)),
                            ("gateways".into(), Value::List(gateways)),
                        ]),
                    )
                    .to_envelope()
                };
                prop_assert_eq!(post(&driver, doc.as_bytes()), (200, expected));
            }

            #[test]
            fn entries_read_in_place_merge_as_the_owned_decode_does(
                history in prop::collection::vec(arb_entry(), 0..5),
                items in prop::collection::vec(arb_item(), 0..6),
                gateways in prop::collection::vec(arb_gateway(), 0..3),
                wrap in 0..3u8,
            ) {
                let items = Value::List(items);
                // The argument itself may be no Array.
                let entries = match wrap {
                    0 => items,
                    1 => Value::Record(vec![("item".into(), items)]),
                    _ => Value::from("entries"),
                };
                let doc = RpcCall::new(VSR_NS, "replicate")
                    .arg("entries", entries)
                    .arg("gateways", Value::List(gateways))
                    .to_envelope();
                prop_assert!(both_ways(&history, &doc).is_some());
                let (_sim, _ctx, driver) = replica_ctx();
                prop_assert_eq!(post(&driver, doc.as_bytes()).0, 200);
            }
        }

        /// Every truncation and every single-byte edit of a valid
        /// `replicate` envelope either fails to parse or is merged in
        /// place exactly as through the owned decode, and a replica
        /// answers each with a 200 or a 500.
        #[test]
        fn damaged_replicate_envelopes_merge_as_the_owned_decode_does() {
            let v = |seq| Version {
                at_us: 5,
                replica: 2,
                seq,
            };
            let history = vec![(
                "hall-lamp".to_owned(),
                record_entry(v(1), None),
                Some(OwnedBody::lamp()),
            )];
            let body = OwnedBody {
                contexts: vec![("room".into(), "hall & <stairs>".into())],
                ..OwnedBody::lamp()
            };
            let doc = replicate_doc(
                vec![
                    record_entry(v(2), Some(SimTime::from_micros(900)))
                        .to_value("hall-lamp", Some(&body)),
                    Entry {
                        version: v(3),
                        shard: 1,
                        kind: EntryKind::Expired { of: v(2) },
                    }
                    .to_value("den", None),
                ],
                vec![gateway_to_value("gw-a", 3, v(4))],
            );
            let (_sim, _ctx, driver) = replica_ctx();
            let mut parsed = 0;
            let mut check = |damaged: &[u8]| {
                if let Ok(text) = std::str::from_utf8(damaged) {
                    parsed += usize::from(both_ways(&history, text).is_some());
                }
                let (status, _) = post(&driver, damaged);
                assert!(status == 200 || status == 500, "status {status}");
            };
            let bytes = doc.as_bytes();
            for len in 0..bytes.len() {
                check(&bytes[..len]);
            }
            for i in 0..bytes.len() {
                for b in [b'<', b'>', b'x', b'"', b'&', b'-', b'9', b'/', 0xff] {
                    if bytes[i] != b {
                        let mut edited = bytes.to_vec();
                        edited[i] = b;
                        check(&edited);
                    }
                }
            }
            assert!(
                parsed > 100,
                "edits must leave envelopes that parse ({parsed})"
            );
        }
    }

    /// What a replica answers a `resolve` and a `find` with, written in
    /// place from the registry, is byte for byte what writing the
    /// `Value` of [`service_to_value`] gave, and it makes the same
    /// `get_tmodel` inquiries.
    mod in_place_replies {
        use super::*;
        use proptest::prelude::*;

        fn arb_text() -> impl Strategy<Value = String> {
            "[ -~é<>&\"']{0,16}"
        }

        fn arb_record() -> impl Strategy<Value = (String, OwnedBody)> {
            (
                "[a-z][a-z0-9-]{0,10}",
                arb_text(),
                arb_text(),
                arb_text(),
                prop::collection::vec(("[a-z][a-z0-9]{0,6}", arb_text()), 0..4),
            )
                .prop_map(|(name, middleware, gateway, wsdl, contexts)| {
                    let record = OwnedBody {
                        middleware,
                        gateway,
                        wsdl,
                        contexts,
                    };
                    (name, record)
                })
        }

        fn xml(write: impl FnOnce(&mut String)) -> String {
            let mut out = String::new();
            write(&mut out);
            out
        }

        proptest! {
            #[test]
            fn replies_are_the_value_bytes(records in prop::collection::vec(arb_record(), 1..6)) {
                let mut st = ReplicaState::new(0);
                for (i, (name, record)) in records.into_iter().enumerate() {
                    let version = Version { at_us: 1, replica: 0, seq: i as u64 + 1 };
                    let entry = Entry { version, shard: 0, kind: EntryKind::Record { expires_at: None } };
                    st.apply_owned(&name, entry, Some(&record));
                }
                let services = st.registry.find_service("%", &[]);
                let before = st.registry.stats();
                let parts: Vec<RecordParts<'_>> = services
                    .iter()
                    .map(|svc| RecordParts::of(&st.registry, svc).expect("a stored record"))
                    .collect();
                let in_place_inquiries = st.registry.stats().inquiries - before.inquiries;
                let values: Vec<Value> = services
                    .iter()
                    .map(|svc| service_to_value(&st.registry, svc).expect("a stored record"))
                    .collect();
                let after = st.registry.stats();
                prop_assert_eq!(after.inquiries - before.inquiries, 2 * in_place_inquiries);
                for (part, value) in parts.iter().zip(&values) {
                    prop_assert_eq!(
                        xml(|out| part.write_xml("return", out)),
                        xml(|out| value.write_xml("return", out))
                    );
                }
                let list = Value::List(values);
                prop_assert_eq!(
                    xml(|out| write_compound_xml(Compound::Array, "return", parts.len(), out, |out| {
                        for part in &parts {
                            part.write_xml("item", out);
                        }
                    })),
                    xml(|out| list.write_xml("return", out))
                );
                prop_assert_eq!(
                    xml(|out| write_compound_xml(Compound::Array, "return", 0, out, |_| {})),
                    xml(|out| Value::List(Vec::new()).write_xml("return", out))
                );
            }
        }
    }
}
