//! The gateway's record-level resolution cache.
//!
//! The original route cache memoised only the serving gateway's
//! `NodeId`, so every miss re-fetched and re-parsed the service's full
//! WSDL from the VSR. This cache holds the entire resolved
//! [`ServiceRecord`] behind one `Arc` — a hit hands out a reference
//! count, not a copy of the record's strings — together with the
//! gateway node, bounded by an LRU capacity, with explicit
//! invalidation on withdraw/re-export and short-lived negative entries
//! so repeated lookups of a nonexistent service don't hammer the VSR.

use crate::intern::Name;
use crate::metrics::CacheStats;
use crate::vsr::ServiceRecord;
use simnet::NodeId;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::Arc;

/// Default per-gateway capacity: generous for a home's service count
/// while still bounding a pathological churn workload.
const DEFAULT_CAPACITY: usize = 512;

/// How many lookups a negative entry may answer before it expires and
/// the next lookup re-consults the VSR. Keeps a service published
/// elsewhere *after* a failed lookup from becoming invisible for long.
const NEGATIVE_USE_BUDGET: u32 = 4;

enum Entry {
    Resolved {
        record: Arc<ServiceRecord>,
        gw_node: NodeId,
        last_used: u64,
    },
    Negative {
        budget: u32,
        last_used: u64,
    },
    /// An invalidated resolution kept around as a last resort: normal
    /// lookups skip it (the route is suspect), but when the VSR itself
    /// is unreachable a gateway in degraded mode may still serve it via
    /// [`ResolutionCache::stale_lookup`] — availability over freshness.
    Stale {
        record: Arc<ServiceRecord>,
        gw_node: NodeId,
        last_used: u64,
    },
}

impl Entry {
    fn last_used(&self) -> u64 {
        match self {
            Entry::Resolved { last_used, .. }
            | Entry::Negative { last_used, .. }
            | Entry::Stale { last_used, .. } => *last_used,
        }
    }
}

/// Outcome of a cache lookup.
#[derive(Debug, Clone, PartialEq)]
pub enum Lookup {
    /// Known record and serving gateway node — zero VSR traffic needed.
    Hit(Arc<ServiceRecord>, NodeId),
    /// Known-missing service — answer `UnknownService` without a VSR
    /// round trip.
    NegativeHit,
    /// Unknown to the cache; resolve via the VSR.
    Miss,
}

impl Lookup {
    /// A short outcome label (used to name `cache-hit` trace spans).
    pub fn label(&self) -> &'static str {
        match self {
            Lookup::Hit(..) => "hit",
            Lookup::NegativeHit => "negative-hit",
            Lookup::Miss => "miss",
        }
    }
}

/// A bounded LRU cache of VSR resolutions.
pub struct ResolutionCache {
    /// Keyed with a fixed-key hasher: LRU evictions leave tombstones,
    /// and a per-process random seed would decide whether a full table
    /// rehashes in place or grows, so allocation counts (and the
    /// iteration order eviction walks) would vary from run to run. The
    /// table never exceeds `capacity` entries, which bounds what
    /// colliding names could cost.
    entries: HashMap<Name, Entry, BuildHasherDefault<DefaultHasher>>,
    capacity: usize,
    tick: u64,
    stats: CacheStats,
}

impl Default for ResolutionCache {
    fn default() -> Self {
        ResolutionCache::new(DEFAULT_CAPACITY)
    }
}

impl ResolutionCache {
    /// Creates a cache bounded to `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> ResolutionCache {
        ResolutionCache {
            entries: HashMap::default(),
            capacity: capacity.max(1),
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// Looks up `service`, updating recency and counters. A negative
    /// entry spends one unit of its budget and expires at zero.
    pub fn lookup(&mut self, service: &str) -> Lookup {
        self.tick += 1;
        let tick = self.tick;
        match self.entries.get_mut(service) {
            Some(Entry::Resolved {
                record,
                gw_node,
                last_used,
            }) => {
                *last_used = tick;
                self.stats.hits += 1;
                Lookup::Hit(record.clone(), *gw_node)
            }
            Some(Entry::Negative { budget, last_used }) => {
                *last_used = tick;
                self.stats.negative_hits += 1;
                *budget -= 1;
                if *budget == 0 {
                    self.entries.remove(service);
                }
                Lookup::NegativeHit
            }
            // A stale entry is not a route — the VSR must be re-asked.
            Some(Entry::Stale { .. }) | None => {
                self.stats.misses += 1;
                Lookup::Miss
            }
        }
    }

    /// Serves an invalidated (stale) resolution, if one survives. Only
    /// for degraded mode: the caller has already failed to reach the
    /// VSR and prefers a possibly-outdated route over no route at all.
    pub fn stale_lookup(&mut self, service: &str) -> Option<(Arc<ServiceRecord>, NodeId)> {
        self.tick += 1;
        let tick = self.tick;
        match self.entries.get_mut(service) {
            Some(Entry::Stale {
                record,
                gw_node,
                last_used,
            }) => {
                *last_used = tick;
                self.stats.stale_serves += 1;
                Some((record.clone(), *gw_node))
            }
            _ => None,
        }
    }

    /// Caches a successful resolution, displacing the least recently
    /// used entry if the cache is full.
    pub fn insert_resolved(
        &mut self,
        service: &str,
        record: impl Into<Arc<ServiceRecord>>,
        gw_node: NodeId,
    ) {
        self.tick += 1;
        let entry = Entry::Resolved {
            record: record.into(),
            gw_node,
            last_used: self.tick,
        };
        self.insert(service, entry);
    }

    /// Caches a definitive "no such service" answer from the VSR.
    /// Never call this for transport failures — a dead link says
    /// nothing about whether the service exists.
    pub fn insert_negative(&mut self, service: &str) {
        self.tick += 1;
        let entry = Entry::Negative {
            budget: NEGATIVE_USE_BUDGET,
            last_used: self.tick,
        };
        self.insert(service, entry);
    }

    fn insert(&mut self, service: &str, entry: Entry) {
        if !self.entries.contains_key(service) && self.entries.len() >= self.capacity {
            self.evict_lru();
        }
        // Interned: a service resolved before (or named by a live
        // ServiceRecord) reuses its existing allocation.
        self.entries.insert(Name::new(service), entry);
    }

    fn evict_lru(&mut self) {
        if let Some(victim) = self
            .entries
            .iter()
            .min_by_key(|(_, e)| e.last_used())
            .map(|(name, _)| name.clone())
        {
            self.entries.remove(&victim);
            self.stats.evictions += 1;
        }
    }

    /// Invalidates the entry for `service` (withdraw, re-export, or a
    /// stale route detected mid-invocation). A resolved entry is
    /// demoted to stale — invisible to [`Self::lookup`] but available
    /// to [`Self::stale_lookup`] when the VSR is down; a negative entry
    /// is dropped. Returns whether a live entry was invalidated.
    pub fn invalidate(&mut self, service: &str) -> bool {
        match self.entries.get_mut(service) {
            Some(entry @ Entry::Resolved { .. }) => {
                let demoted = match entry {
                    Entry::Resolved {
                        record,
                        gw_node,
                        last_used,
                    } => Entry::Stale {
                        record: record.clone(),
                        gw_node: *gw_node,
                        last_used: *last_used,
                    },
                    _ => unreachable!(),
                };
                *entry = demoted;
                self.stats.invalidations += 1;
                true
            }
            Some(Entry::Negative { .. }) => {
                self.entries.remove(service);
                self.stats.invalidations += 1;
                true
            }
            Some(Entry::Stale { .. }) | None => false,
        }
    }

    /// Drops every entry. Live (resolved/negative) entries count as
    /// invalidations; stale entries were already counted when demoted.
    pub fn clear(&mut self) {
        self.stats.invalidations += self
            .entries
            .values()
            .filter(|e| !matches!(e, Entry::Stale { .. }))
            .count() as u64;
        self.entries.clear();
    }

    /// Re-bounds the cache, evicting LRU entries if shrinking below
    /// the current population.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity.max(1);
        while self.entries.len() > self.capacity {
            self.evict_lru();
        }
    }

    /// Current entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

/// Counters for a [`ShardMapCache`] (test and metrics introspection).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardMapCacheStats {
    /// Successful map refreshes stored via [`ShardMapCache::put`].
    pub refreshes: u64,
    /// Invalidations (typically after a `MovedShard` redirect).
    pub invalidations: u64,
}

struct ShardMapCacheInner {
    current: Option<Arc<crate::federation::ShardMap>>,
    /// The most recent map ever seen, kept across invalidations: even
    /// a stale map names replicas worth asking for a fresh one, which
    /// is how a client rides out the bootstrap replica being down.
    last: Option<Arc<crate::federation::ShardMap>>,
    stats: ShardMapCacheStats,
}

/// A client-side cache of the federation's [`ShardMap`]. Shared (via
/// `Arc`) between the clones of one `VsrClient`, so a redirect
/// observed on one cloned handle refreshes routing for all of them.
///
/// [`ShardMap`]: crate::federation::ShardMap
pub struct ShardMapCache {
    inner: parking_lot::Mutex<ShardMapCacheInner>,
}

impl Default for ShardMapCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardMapCache {
    /// An empty cache: the first routing decision must fetch a map.
    pub fn new() -> ShardMapCache {
        ShardMapCache {
            inner: parking_lot::Mutex::new(ShardMapCacheInner {
                current: None,
                last: None,
                stats: ShardMapCacheStats::default(),
            }),
        }
    }

    /// The trusted current map, if any.
    pub fn get(&self) -> Option<Arc<crate::federation::ShardMap>> {
        self.inner.lock().current.clone()
    }

    /// The current map or, failing that, the last map ever seen (no
    /// longer trusted for routing, but still a source of candidate
    /// replicas to ask for a fresh one).
    pub fn peek(&self) -> Option<Arc<crate::federation::ShardMap>> {
        let inner = self.inner.lock();
        inner.current.clone().or_else(|| inner.last.clone())
    }

    /// Stores a freshly fetched map.
    pub fn put(&self, map: Arc<crate::federation::ShardMap>) {
        let mut inner = self.inner.lock();
        inner.current = Some(map.clone());
        inner.last = Some(map);
        inner.stats.refreshes += 1;
    }

    /// Drops trust in the current map (a replica answered
    /// `MovedShard`, so routing is stale) while keeping it reachable
    /// via [`ShardMapCache::peek`].
    pub fn invalidate(&self) {
        let mut inner = self.inner.lock();
        inner.current = None;
        inner.stats.invalidations += 1;
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ShardMapCacheStats {
        self.inner.lock().stats
    }
}

impl std::fmt::Debug for ShardMapCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("ShardMapCache")
            .field("cached", &inner.current.is_some())
            .field("stats", &inner.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iface::catalog;
    use crate::service::Middleware;
    use std::sync::Arc;

    fn record(name: &str) -> ServiceRecord {
        ServiceRecord {
            name: Name::new(name),
            middleware: Middleware::X10,
            gateway: Name::new("x10-gw"),
            interface: Arc::new(catalog::lamp()),
            contexts: vec![],
        }
    }

    #[test]
    fn hit_miss_and_counters() {
        let mut cache = ResolutionCache::new(8);
        assert_eq!(cache.lookup("lamp"), Lookup::Miss);
        cache.insert_resolved("lamp", record("lamp"), NodeId(7));
        match cache.lookup("lamp") {
            Lookup::Hit(rec, node) => {
                assert_eq!(rec.name, "lamp");
                assert_eq!(node, NodeId(7));
            }
            other => panic!("expected hit, got {other:?}"),
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert!(stats.hit_ratio() > 0.49 && stats.hit_ratio() < 0.51);
    }

    #[test]
    fn lru_eviction_respects_recency() {
        let mut cache = ResolutionCache::new(2);
        cache.insert_resolved("a", record("a"), NodeId(1));
        cache.insert_resolved("b", record("b"), NodeId(2));
        // Touch "a" so "b" is the LRU victim.
        assert!(matches!(cache.lookup("a"), Lookup::Hit(..)));
        cache.insert_resolved("c", record("c"), NodeId(3));
        assert_eq!(cache.len(), 2);
        assert!(matches!(cache.lookup("a"), Lookup::Hit(..)));
        assert_eq!(cache.lookup("b"), Lookup::Miss);
        assert!(matches!(cache.lookup("c"), Lookup::Hit(..)));
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn negative_entries_expire_after_budget() {
        let mut cache = ResolutionCache::new(8);
        cache.insert_negative("ghost");
        for _ in 0..NEGATIVE_USE_BUDGET {
            assert_eq!(cache.lookup("ghost"), Lookup::NegativeHit);
        }
        // Budget exhausted: the VSR gets asked again.
        assert_eq!(cache.lookup("ghost"), Lookup::Miss);
        assert_eq!(cache.stats().negative_hits, u64::from(NEGATIVE_USE_BUDGET));
    }

    #[test]
    fn invalidation_and_clear() {
        let mut cache = ResolutionCache::new(8);
        cache.insert_resolved("a", record("a"), NodeId(1));
        assert!(cache.invalidate("a"));
        assert!(!cache.invalidate("a"));
        assert_eq!(cache.lookup("a"), Lookup::Miss);
        cache.insert_resolved("b", record("b"), NodeId(2));
        cache.insert_negative("c");
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().invalidations, 3);
    }

    #[test]
    fn shrinking_capacity_evicts_lru_first() {
        let mut cache = ResolutionCache::new(4);
        for (i, name) in ["a", "b", "c", "d"].into_iter().enumerate() {
            cache.insert_resolved(name, record(name), NodeId(i as u32));
        }
        assert!(matches!(cache.lookup("a"), Lookup::Hit(..)));
        cache.set_capacity(2);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.capacity(), 2);
        assert!(
            matches!(cache.lookup("a"), Lookup::Hit(..)),
            "recently used survives"
        );
        assert!(
            matches!(cache.lookup("d"), Lookup::Hit(..)),
            "newest survives"
        );
    }

    #[test]
    fn invalidated_entries_remain_servable_as_stale() {
        let mut cache = ResolutionCache::new(8);
        cache.insert_resolved("lamp", record("lamp"), NodeId(7));
        assert!(cache.invalidate("lamp"));
        // Invisible to the normal path…
        assert_eq!(cache.lookup("lamp"), Lookup::Miss);
        // …but a degraded gateway can still get a route.
        let (rec, node) = cache.stale_lookup("lamp").expect("stale route");
        assert_eq!((rec.name.as_str(), node), ("lamp", NodeId(7)));
        assert_eq!(cache.stats().stale_serves, 1);
        // A fresh resolution replaces the stale entry outright.
        cache.insert_resolved("lamp", record("lamp"), NodeId(9));
        assert!(matches!(cache.lookup("lamp"), Lookup::Hit(..)));
        assert!(cache.stale_lookup("lamp").is_none());
        // Nothing stale for unknown services.
        assert!(cache.stale_lookup("ghost").is_none());
    }

    #[test]
    fn churn_stays_bounded() {
        let mut cache = ResolutionCache::new(16);
        for i in 0..1000 {
            cache.insert_resolved(&format!("svc-{i}"), record(&format!("svc-{i}")), NodeId(1));
            assert!(cache.len() <= 16);
        }
        assert_eq!(cache.stats().evictions, 1000 - 16);
    }
}
