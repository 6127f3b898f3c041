//! A UDDI-style registry.
//!
//! Universal Description, Discovery and Integration, as the paper's
//! prototype used "to describe the repository" (§4.1). The model keeps
//! UDDI's three-tier structure — business entities own business services,
//! services carry binding templates pointing at access points, and
//! tModels hold the technical fingerprints (here: WSDL documents) —
//! with the v2 `find_*` inquiry semantics ('%' wildcards, category bags).

use std::borrow::Cow;
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::ops::Bound;

/// A registry key: the kind of record it names and the registry's
/// sequence number, which no two keys of one registry share. It is
/// copied, never formatted or cloned as a string: it displays as
/// `uuid:<kind>:<NNNNNN>` (six digits, wider past 999 999) and orders
/// by sequence number, which is publication order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Key {
    id: u64,
    kind: KeyKind,
}

/// What a [`Key`] names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum KeyKind {
    Business,
    TModel,
    Service,
    Binding,
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.kind {
            KeyKind::Business => "biz",
            KeyKind::TModel => "tm",
            KeyKind::Service => "svc",
            KeyKind::Binding => "bind",
        };
        write!(f, "uuid:{kind}:{:06}", self.id)
    }
}

impl fmt::Debug for Key {
    /// As the display form, quoted: `Key("uuid:svc:000042")`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Key(\"{self}\")")
    }
}

/// A publisher (in the home: a middleware island's gateway).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BusinessEntity {
    /// Registry key.
    pub key: Key,
    /// Display name.
    pub name: String,
    /// Free-text description.
    pub description: String,
}

/// A categorisation entry in a service's category bag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyedReference {
    /// The taxonomy this reference belongs to (e.g. `uddi:middleware`).
    /// A fixed taxonomy is borrowed, not copied into every bag.
    pub taxonomy: Cow<'static, str>,
    /// The value within the taxonomy (e.g. `jini`, `havi`, `x10`).
    pub value: String,
}

impl KeyedReference {
    /// Creates a reference.
    pub fn new(taxonomy: impl Into<Cow<'static, str>>, value: impl Into<String>) -> Self {
        KeyedReference {
            taxonomy: taxonomy.into(),
            value: value.into(),
        }
    }
}

/// A concrete way to reach a service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BindingTemplate {
    /// Registry key.
    pub key: Key,
    /// The access point (here: a `vsg://gateway/service` endpoint).
    pub access_point: String,
    /// The tModel describing the interface, if registered.
    pub tmodel_key: Option<Key>,
}

/// A published service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BusinessService {
    /// Registry key.
    pub key: Key,
    /// Owning business.
    pub business_key: Key,
    /// Display name.
    pub name: String,
    /// Categorisation.
    pub categories: Vec<KeyedReference>,
    /// Ways to reach the service.
    pub bindings: Vec<BindingTemplate>,
}

impl BusinessService {
    /// True if the category bag contains `taxonomy == value`.
    fn has_category(&self, taxonomy: &str, value: &str) -> bool {
        self.categories
            .iter()
            .any(|c| c.taxonomy == taxonomy && c.value == value)
    }
}

/// A technical model: named interface fingerprint with an overview
/// document (here, the WSDL text).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TModel {
    /// Registry key.
    pub key: Key,
    /// Interface name.
    pub name: String,
    /// The overview document (WSDL).
    pub overview_doc: String,
}

/// Inquiry statistics, reported by experiment E8.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// `save_*` calls served.
    pub publishes: u64,
    /// `find_*` calls served.
    pub inquiries: u64,
    /// Records scanned across all inquiries.
    pub records_scanned: u64,
}

/// The in-memory registry.
///
/// Inquiries are index-backed: a name index (keyed on the
/// ASCII-lowercased service name, so both exact lookups and
/// `prefix%` wildcard patterns resolve via `BTreeMap` range scans)
/// and a per-taxonomy category index narrow `find_service` to the
/// candidate set instead of scanning every record. The indexes are
/// always maintained; [`UddiRegistry::set_indexing`] only switches
/// the *lookup* path back to a full scan, so benches can ablate
/// indexed vs. scan behaviour on identical registry state.
///
/// Inquiries take `&self` and hand out records by reference: only the
/// statistics change on a read, and they live in a [`Cell`], so a
/// caller may hold a found service while it looks up its tModel.
#[derive(Debug)]
pub struct UddiRegistry {
    businesses: BTreeMap<Key, BusinessEntity>,
    services: BTreeMap<Key, BusinessService>,
    tmodels: BTreeMap<Key, TModel>,
    /// ASCII-lowercased service name → keys of services with that name.
    name_index: BTreeMap<String, Vec<Key>>,
    /// taxonomy → value → keys of services carrying that category.
    category_index: HashMap<String, HashMap<String, BTreeSet<Key>>>,
    indexing: bool,
    next_id: u64,
    stats: Cell<RegistryStats>,
}

impl Default for UddiRegistry {
    fn default() -> Self {
        UddiRegistry {
            businesses: BTreeMap::new(),
            services: BTreeMap::new(),
            tmodels: BTreeMap::new(),
            name_index: BTreeMap::new(),
            category_index: HashMap::new(),
            indexing: true,
            next_id: 0,
            stats: Cell::default(),
        }
    }
}

/// Which records an inquiry must examine, borrowed from the indexes.
enum Candidates<'r> {
    /// No index applies — scan every record.
    All,
    /// An exact name: only the records under it can match.
    Named(&'r [Key]),
    /// Only these keys can possibly match.
    Keys(Vec<&'r Key>),
}

impl UddiRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables or disables index-backed inquiry (for ablation
    /// benchmarks). Indexes stay maintained either way; disabling only
    /// forces `find_service` back to a full scan.
    pub fn set_indexing(&mut self, enabled: bool) {
        self.indexing = enabled;
    }

    /// Counts one inquiry that examined `records` records.
    fn count_inquiry(&self, records: usize) {
        let mut stats = self.stats.get();
        stats.inquiries += 1;
        stats.records_scanned += records as u64;
        self.stats.set(stats);
    }

    fn fresh_key(&mut self, kind: KeyKind) -> Key {
        self.next_id += 1;
        Key {
            id: self.next_id,
            kind,
        }
    }

    // ---- publication -----------------------------------------------------

    /// Registers a business entity, returning its key.
    pub fn save_business(&mut self, name: &str, description: &str) -> Key {
        self.stats.get_mut().publishes += 1;
        let key = self.fresh_key(KeyKind::Business);
        self.businesses.insert(
            key,
            BusinessEntity {
                key,
                name: name.into(),
                description: description.into(),
            },
        );
        key
    }

    /// Registers a tModel, returning its key. An owned name or
    /// document is moved in, not copied.
    pub fn save_tmodel(&mut self, name: impl Into<String>, overview_doc: impl Into<String>) -> Key {
        self.stats.get_mut().publishes += 1;
        let key = self.fresh_key(KeyKind::TModel);
        self.tmodels.insert(
            key,
            TModel {
                key,
                name: name.into(),
                overview_doc: overview_doc.into(),
            },
        );
        key
    }

    /// Publishes a service under `business_key`, returning its key. An
    /// owned access point is moved in, not copied.
    ///
    /// Returns `None` if the business does not exist.
    pub fn save_service(
        &mut self,
        business_key: &Key,
        name: &str,
        categories: Vec<KeyedReference>,
        access_point: impl Into<String>,
        tmodel_key: Option<Key>,
    ) -> Option<Key> {
        self.stats.get_mut().publishes += 1;
        if !self.businesses.contains_key(business_key) {
            return None;
        }
        let key = self.fresh_key(KeyKind::Service);
        let binding_key = self.fresh_key(KeyKind::Binding);
        let service = BusinessService {
            key,
            business_key: *business_key,
            name: name.into(),
            categories,
            bindings: vec![BindingTemplate {
                key: binding_key,
                access_point: access_point.into(),
                tmodel_key,
            }],
        };
        self.index_service(&service);
        self.services.insert(key, service);
        Some(key)
    }

    /// Publishes a service named `name` as
    /// [`UddiRegistry::save_service`] does, in place of every service
    /// already named exactly `name`, which then goes as
    /// [`UddiRegistry::delete_services_by_name`] removes it. The
    /// registry ends as that delete followed by the save leaves it (the
    /// same keys, statistics and find order), but the index buckets the
    /// old and new records share are never emptied, so none is made
    /// again. Returns `None`, removing nothing, if the business does not
    /// exist.
    pub fn replace_service(
        &mut self,
        business_key: &Key,
        name: &str,
        categories: Vec<KeyedReference>,
        access_point: impl Into<String>,
        tmodel_key: Option<Key>,
    ) -> Option<Key> {
        let key = self.save_service(business_key, name, categories, access_point, tmodel_key)?;
        self.delete_named(name, Some(key));
        Some(key)
    }

    /// Removes every service named exactly `name`, and the tModels
    /// their bindings reference, in place: nothing is collected.
    /// Inquiries match names case-insensitively, as UDDI does, but a
    /// deletion by name leaves a case variant's record alone (a record
    /// keyed by its exact name must not take `Hall-Lamp` with
    /// `hall-lamp`). Index-backed: no scan of unrelated records.
    pub fn delete_services_by_name(&mut self, name: &str) -> Removed {
        self.delete_named(name, None)
    }

    /// [`UddiRegistry::delete_services_by_name`], sparing the service
    /// `keep`.
    fn delete_named(&mut self, name: &str, keep: Option<Key>) -> Removed {
        let lname = lowercase(name);
        let Some(keys) = self.name_index.get_mut(lname.as_ref()) else {
            return Removed(0);
        };
        let mut removed = 0;
        keys.retain(|&key| {
            if Some(key) == keep || self.services.get(&key).is_none_or(|s| s.name != name) {
                return true;
            }
            if let Some(service) = self.services.remove(&key) {
                unindex_categories(&mut self.category_index, &service);
                for binding in &service.bindings {
                    if let Some(tmodel) = &binding.tmodel_key {
                        self.tmodels.remove(tmodel);
                    }
                }
            }
            removed += 1;
            false
        });
        if keys.is_empty() {
            self.name_index.remove(lname.as_ref());
        }
        Removed(removed)
    }

    /// Adds `service` to the name and category indexes. A bucket that
    /// exists is found first; only a new one copies its lowercased
    /// name, taxonomy or value.
    fn index_service(&mut self, service: &BusinessService) {
        let lname = lowercase(&service.name);
        match self.name_index.get_mut(lname.as_ref()) {
            Some(keys) => keys.push(service.key),
            None => {
                self.name_index
                    .insert(lname.into_owned(), vec![service.key]);
            }
        }
        for cat in &service.categories {
            bucket(bucket(&mut self.category_index, &cat.taxonomy), &cat.value).insert(service.key);
        }
    }

    // ---- inquiry ----------------------------------------------------------

    /// Finds businesses whose name matches `pattern` (`%` wildcards,
    /// case-insensitive — UDDI v2 semantics).
    #[cfg(test)]
    fn find_business(&self, pattern: &str) -> Vec<&BusinessEntity> {
        self.count_inquiry(self.businesses.len());
        self.businesses
            .values()
            .filter(|b| matches_pattern(pattern, &b.name))
            .collect()
    }

    /// Finds services by name pattern and (optional) required categories.
    ///
    /// All `categories` must be present in a service's bag for it to
    /// match. With indexing enabled, only candidate records selected by
    /// the name/category indexes are examined, and
    /// `RegistryStats::records_scanned` counts exactly those — so E8
    /// reports the true lookup cost either way.
    pub fn find_service(
        &self,
        pattern: &str,
        categories: &[KeyedReference],
    ) -> Vec<&BusinessService> {
        self.inquire(pattern, categories, |hits| hits.collect())
    }

    /// The first service [`UddiRegistry::find_service`]`(name, &[])`
    /// finds whose name is exactly `name`, found without collecting
    /// the hits: the same inquiry, counted with the same records
    /// scanned, indexed or not.
    pub fn find_service_exact(&self, name: &str) -> Option<&BusinessService> {
        // `find` on the `&mut dyn Iterator` itself, not on the unsized
        // iterator behind it.
        self.inquire(name, &[], |mut hits| {
            Iterator::find(&mut hits, |s| s.name == name)
        })
    }

    /// Runs one `find_service` inquiry: counts it with the records it
    /// examines, and hands the matching services, in find order, to
    /// `take`.
    fn inquire<'r, T>(
        &'r self,
        pattern: &str,
        categories: &[KeyedReference],
        take: impl FnOnce(&mut dyn Iterator<Item = &'r BusinessService>) -> T,
    ) -> T {
        let matches = |s: &&BusinessService| {
            matches_pattern(pattern, &s.name)
                && categories
                    .iter()
                    .all(|c| s.has_category(&c.taxonomy, &c.value))
        };
        let service = |k: &Key| self.services.get(k);
        match self.candidates(pattern, categories) {
            Candidates::All => {
                self.count_inquiry(self.services.len());
                take(&mut self.services.values().filter(matches))
            }
            Candidates::Named(keys) => {
                self.count_inquiry(keys.len());
                take(&mut keys.iter().filter_map(service).filter(matches))
            }
            Candidates::Keys(keys) => {
                self.count_inquiry(keys.len());
                take(&mut keys.into_iter().filter_map(service).filter(matches))
            }
        }
    }

    /// Picks the cheapest candidate set for an inquiry: exact-name hit,
    /// name-prefix range, or the smallest matching category bucket.
    fn candidates(&self, pattern: &str, categories: &[KeyedReference]) -> Candidates<'_> {
        if !self.indexing {
            return Candidates::All;
        }
        // The run of literal characters before the first wildcard is an
        // index-resolvable prefix (UDDI names compare case-insensitively).
        let wildcard = pattern.find('%');
        let prefix = lowercase(&pattern[..wildcard.unwrap_or(pattern.len())]);
        let prefix = prefix.as_ref();
        if wildcard.is_none() {
            return Candidates::Named(self.name_index.get(prefix).map_or(&[], Vec::as_slice));
        }
        if !prefix.is_empty() {
            let keys = self
                .name_index
                .range::<str, _>((Bound::Included(prefix), Bound::Unbounded))
                .take_while(|(name, _)| name.starts_with(prefix))
                .flat_map(|(_, ks)| ks)
                .collect();
            return Candidates::Keys(keys);
        }
        // Leading wildcard: the name index cannot help, but if the
        // inquiry constrains categories, the smallest category bucket
        // bounds the candidates (a category absent from the index means
        // no record can match at all).
        let smallest = categories
            .iter()
            .map(|c| {
                self.category_index
                    .get(c.taxonomy.as_ref())
                    .and_then(|values| values.get(&c.value))
            })
            .min_by_key(|bucket| bucket.map_or(0, |keys| keys.len()));
        match smallest {
            Some(bucket) => Candidates::Keys(bucket.into_iter().flatten().collect()),
            None => Candidates::All,
        }
    }

    /// Full detail for one tModel.
    pub fn get_tmodel(&self, key: &Key) -> Option<&TModel> {
        self.count_inquiry(1);
        self.tmodels.get(key)
    }

    /// The service named exactly `name` and the tModel its first
    /// binding references: a replication read by a replica that keeps
    /// each record's body here, not an inquiry, so the
    /// [`RegistryStats`] stay as they are. A case variant's record is
    /// another record. `None` when there is no such service or it has
    /// no tModel.
    pub fn record_named(&self, name: &str) -> Option<(&BusinessService, &TModel)> {
        let service = self
            .name_index
            .get(lowercase(name).as_ref())?
            .iter()
            .filter_map(|k| self.services.get(k))
            .find(|s| s.name == name)?;
        let tmodel = self
            .tmodels
            .get(service.bindings.first()?.tmodel_key.as_ref()?)?;
        Some((service, tmodel))
    }

    /// Finds tModels by name pattern.
    pub fn find_tmodel(&self, pattern: &str) -> Vec<&TModel> {
        self.count_inquiry(self.tmodels.len());
        self.tmodels
            .values()
            .filter(|t| matches_pattern(pattern, &t.name))
            .collect()
    }

    // ---- introspection -----------------------------------------------------

    /// Number of published services.
    pub fn service_count(&self) -> usize {
        self.services.len()
    }

    /// Number of registered businesses.
    #[cfg(test)]
    fn business_count(&self) -> usize {
        self.businesses.len()
    }

    /// Inquiry/publication statistics.
    pub fn stats(&self) -> RegistryStats {
        self.stats.get()
    }
}

/// How many services [`UddiRegistry::delete_services_by_name`] removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Removed(usize);

impl Removed {
    /// The number of services removed.
    pub fn len(self) -> usize {
        self.0
    }

    /// True when no service was removed.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

/// The bucket of `map` under `key`, made (and `key` copied) only when
/// there is none yet.
fn bucket<'m, V: Default>(map: &'m mut HashMap<String, V>, key: &str) -> &'m mut V {
    if !map.contains_key(key) {
        map.insert(key.to_owned(), V::default());
    }
    map.get_mut(key).expect("the bucket was just made")
}

/// Drops `service`'s key from the category index, and any bucket it
/// leaves empty.
fn unindex_categories(
    index: &mut HashMap<String, HashMap<String, BTreeSet<Key>>>,
    service: &BusinessService,
) {
    for cat in &service.categories {
        let Some(values) = index.get_mut(cat.taxonomy.as_ref()) else {
            continue;
        };
        if let Some(keys) = values.get_mut(&cat.value) {
            keys.remove(&service.key);
            if keys.is_empty() {
                values.remove(&cat.value);
            }
        }
        if values.is_empty() {
            index.remove(cat.taxonomy.as_ref());
        }
    }
}

/// `s` ASCII-lowercased, borrowed when it has no uppercase letter (the
/// name index's key form).
fn lowercase(s: &str) -> Cow<'_, str> {
    if s.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(s.to_ascii_lowercase())
    } else {
        Cow::Borrowed(s)
    }
}

/// UDDI v2 name matching: `%` matches any run of characters,
/// comparison is case-insensitive.
pub fn matches_pattern(pattern: &str, name: &str) -> bool {
    fn rec(p: &[u8], n: &[u8]) -> bool {
        match p.split_first() {
            None => n.is_empty(),
            Some((b'%', rest)) => (0..=n.len()).any(|i| rec(rest, &n[i..])),
            Some((c, rest)) => match n.split_first() {
                Some((nc, nrest)) => c.eq_ignore_ascii_case(nc) && rec(rest, nrest),
                None => false,
            },
        }
    }
    rec(pattern.as_bytes(), name.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded() -> (UddiRegistry, Key) {
        let mut reg = UddiRegistry::new();
        let biz = reg.save_business("havi-gateway", "HAVi island");
        let tm = reg.save_tmodel("VcrPortType", "<definitions name=\"vcr\"/>");
        reg.save_service(
            &biz,
            "living-room-vcr",
            vec![
                KeyedReference::new("uddi:middleware", "havi"),
                KeyedReference::new("uddi:device-class", "vcr"),
            ],
            "vsg://havi-gw/living-room-vcr",
            Some(tm),
        )
        .unwrap();
        reg.save_service(
            &biz,
            "bedroom-camera",
            vec![KeyedReference::new("uddi:middleware", "havi")],
            "vsg://havi-gw/bedroom-camera",
            None,
        )
        .unwrap();
        (reg, biz)
    }

    #[test]
    fn publish_and_find_by_name() {
        let (reg, _) = seeded();
        assert_eq!(reg.service_count(), 2);
        let found = reg.find_service("living%", &[]);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].name, "living-room-vcr");
        assert_eq!(
            found[0].bindings[0].access_point,
            "vsg://havi-gw/living-room-vcr"
        );
    }

    #[test]
    fn find_by_category() {
        let (reg, _) = seeded();
        let havi = reg.find_service("%", &[KeyedReference::new("uddi:middleware", "havi")]);
        assert_eq!(havi.len(), 2);
        let vcrs = reg.find_service(
            "%",
            &[
                KeyedReference::new("uddi:middleware", "havi"),
                KeyedReference::new("uddi:device-class", "vcr"),
            ],
        );
        assert_eq!(vcrs.len(), 1);
        let jini = reg.find_service("%", &[KeyedReference::new("uddi:middleware", "jini")]);
        assert!(jini.is_empty());
    }

    #[test]
    fn tmodel_carries_wsdl() {
        let (reg, _) = seeded();
        let svc = &reg.find_service("living%", &[])[0];
        let tm_key = svc.bindings[0].tmodel_key.unwrap();
        let tm = reg.get_tmodel(&tm_key).unwrap();
        assert!(tm.overview_doc.contains("definitions"));
        assert_eq!(reg.find_tmodel("Vcr%").len(), 1);
    }

    #[test]
    fn service_under_unknown_business_rejected() {
        let mut reg = UddiRegistry::new();
        let unknown = Key {
            id: 999_999,
            kind: KeyKind::Business,
        };
        let got = reg.save_service(&unknown, "x", vec![], "vsg://x", None);
        assert!(got.is_none());
    }

    #[test]
    fn stats_track_activity() {
        let (reg, _) = seeded();
        let before = reg.stats();
        assert_eq!(before.publishes, 4); // 1 biz + 1 tmodel + 2 services
        reg.find_service("%", &[]);
        reg.find_business("%");
        let after = reg.stats();
        assert_eq!(after.inquiries, before.inquiries + 2);
        assert!(after.records_scanned > before.records_scanned);
    }

    #[test]
    fn pattern_semantics() {
        assert!(matches_pattern("%", ""));
        assert!(matches_pattern("%", "anything"));
        assert!(matches_pattern("vcr", "VCR"));
        assert!(matches_pattern("living%vcr", "living-room-vcr"));
        assert!(matches_pattern("%vcr%", "the-vcr-service"));
        assert!(!matches_pattern("vcr", "vcr2"));
        assert!(!matches_pattern("a%b", "ac"));
        assert!(matches_pattern("a%%b", "ab"));
    }

    #[test]
    fn keys_are_unique_and_ordered() {
        let mut reg = UddiRegistry::new();
        let a = reg.save_business("a", "");
        let b = reg.save_business("b", "");
        assert_ne!(a, b);
        assert_eq!(reg.business_count(), 2);
    }

    fn populated(n: usize) -> UddiRegistry {
        let mut reg = UddiRegistry::new();
        let biz = reg.save_business("home", "whole home");
        for i in 0..n {
            let middleware = ["jini", "havi", "x10", "upnp"][i % 4];
            reg.save_service(
                &biz,
                &format!("device-{i:04}"),
                vec![KeyedReference::new("uddi:middleware", middleware)],
                format!("vsg://gw/device-{i:04}"),
                None,
            )
            .unwrap();
        }
        reg
    }

    #[test]
    fn exact_name_inquiry_is_index_backed() {
        let mut reg = populated(1000);
        let before = reg.stats().records_scanned;
        let found = reg.find_service("device-0777", &[]);
        assert_eq!(found.len(), 1);
        let scanned = reg.stats().records_scanned - before;
        // Required: >=10x fewer records examined than the
        // full 1000-record scan. The index gets it down to exactly 1.
        assert_eq!(scanned, 1, "exact-name inquiry examined {scanned} records");

        reg.set_indexing(false);
        let before = reg.stats().records_scanned;
        let found = reg.find_service("device-0777", &[]);
        assert_eq!(found.len(), 1);
        assert_eq!(reg.stats().records_scanned - before, 1000);
    }

    #[test]
    fn prefix_pattern_scans_only_the_name_range() {
        let reg = populated(1000);
        let before = reg.stats().records_scanned;
        let found = reg.find_service("device-099%", &[]);
        assert_eq!(found.len(), 10); // device-0990 .. device-0999
        assert_eq!(reg.stats().records_scanned - before, 10);
    }

    #[test]
    fn leading_wildcard_uses_the_category_index() {
        let reg = populated(1000);
        let before = reg.stats().records_scanned;
        let found = reg.find_service("%", &[KeyedReference::new("uddi:middleware", "x10")]);
        assert_eq!(found.len(), 250);
        assert_eq!(reg.stats().records_scanned - before, 250);

        // A category no record carries is answered from the index alone.
        let before = reg.stats().records_scanned;
        let found = reg.find_service("%", &[KeyedReference::new("uddi:middleware", "corba")]);
        assert!(found.is_empty());
        assert_eq!(reg.stats().records_scanned - before, 0);
    }

    #[test]
    fn indexed_and_scan_lookups_agree() {
        let mut reg = populated(97);
        let patterns = [
            "%",
            "device-0042",
            "device-00%",
            "%42",
            "DEVICE-0007",
            "nothing-like-this",
        ];
        let cats = [
            vec![],
            vec![KeyedReference::new("uddi:middleware", "jini")],
            vec![KeyedReference::new("uddi:middleware", "nope")],
        ];
        for pattern in patterns {
            for cat in &cats {
                let indexed: Vec<BusinessService> = reg
                    .find_service(pattern, cat)
                    .into_iter()
                    .cloned()
                    .collect();
                reg.set_indexing(false);
                let scanned: Vec<BusinessService> = reg
                    .find_service(pattern, cat)
                    .into_iter()
                    .cloned()
                    .collect();
                reg.set_indexing(true);
                assert_eq!(indexed, scanned, "pattern {pattern:?} cats {cat:?}");
            }
        }
    }

    #[test]
    fn delete_by_name_updates_indexes() {
        let (mut reg, biz) = seeded();
        // A second service under a case variant of the name: inquiry
        // finds both, deletion by name takes only the exact spelling.
        reg.save_service(
            &biz,
            "Living-Room-VCR",
            vec![KeyedReference::new("uddi:middleware", "havi")],
            "vsg://havi-gw/living-room-vcr-2",
            None,
        )
        .unwrap();
        assert_eq!(reg.find_service("living-room-vcr", &[]).len(), 2);
        let removed = reg.delete_services_by_name("living-room-vcr");
        assert_eq!(removed.len(), 1);
        assert!(reg.find_service_exact("living-room-vcr").is_none());
        assert!(reg.find_tmodel("%").is_empty(), "its tModel went with it");
        assert_eq!(reg.service_count(), 2);
        assert!(reg.delete_services_by_name("living-room-vcr").is_empty());
        let variant = reg.find_service("living-room-vcr", &[]);
        assert_eq!(variant.len(), 1);
        assert_eq!(variant[0].name, "Living-Room-VCR");
        assert_eq!(reg.delete_services_by_name("Living-Room-VCR").len(), 1);
        assert!(reg.find_service("living-room-vcr", &[]).is_empty());
        // The survivor is still fully indexed.
        let found = reg.find_service("%", &[KeyedReference::new("uddi:middleware", "havi")]);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].name, "bedroom-camera");
    }

    #[test]
    fn exact_lookup_counts_the_inquiry_find_service_counts() {
        let mut reg = populated(40);
        let biz = reg.save_business("other", "");
        reg.save_service(&biz, "Device-0007", vec![], "vsg://gw/x", None)
            .unwrap();
        for indexing in [true, false] {
            reg.set_indexing(indexing);
            for name in [
                "device-0007",
                "Device-0007",
                "DEVICE-0007",
                "device-00%",
                "absent",
            ] {
                let before = reg.stats();
                let want = reg
                    .find_service(name, &[])
                    .into_iter()
                    .find(|s| s.name == name)
                    .cloned();
                let between = reg.stats();
                let got = reg.find_service_exact(name).cloned();
                let after = reg.stats();
                assert_eq!(got, want, "{name} (indexing {indexing})");
                assert_eq!(after.inquiries - between.inquiries, 1);
                assert_eq!(
                    after.records_scanned - between.records_scanned,
                    between.records_scanned - before.records_scanned,
                    "{name} (indexing {indexing})"
                );
            }
        }
    }

    #[test]
    fn replication_reads_are_exact_and_uncounted() {
        let (mut reg, biz) = seeded();
        reg.save_service(&biz, "Living-Room-VCR", vec![], "vsg://x", None)
            .unwrap();
        let before = reg.stats();
        let (svc, tm) = reg.record_named("living-room-vcr").unwrap();
        assert_eq!(svc.name, "living-room-vcr");
        assert!(tm.overview_doc.contains("definitions"));
        assert!(reg.record_named("Living-Room-VCR").is_none(), "no tModel");
        assert!(reg.record_named("bedroom-camera").is_none(), "no tModel");
        assert!(reg.record_named("LIVING-ROOM-VCR").is_none());
        assert_eq!(reg.stats(), before);
    }

    #[test]
    fn replacing_a_service_ends_as_delete_then_save() {
        // The same saves, by `replace_service` and by a delete by name
        // followed by `save_service`: a new record, a case variant, a
        // move, a second move, a record in another bucket.
        let saves = [
            ("hall-lamp", "gw-a"),
            ("Hall-Lamp", "gw-a"),
            ("vcr", "gw-b"),
            ("hall-lamp", "gw-b"),
            ("hall-lamp", "gw-c"),
            ("vcr", "gw-b"),
        ];
        let run = |replace: bool| {
            let mut reg = UddiRegistry::new();
            let biz = reg.save_business("home", "");
            for (name, gateway) in saves {
                let tmodel = reg.save_tmodel(format!("{name}-interface"), "<definitions/>");
                let categories = vec![
                    KeyedReference::new("uddi:middleware", "x10"),
                    KeyedReference::new("uddi:gateway", gateway),
                ];
                let endpoint = format!("vsg://{gateway}/{name}");
                let key = if replace {
                    reg.replace_service(&biz, name, categories, endpoint, Some(tmodel))
                } else {
                    reg.delete_services_by_name(name);
                    reg.save_service(&biz, name, categories, endpoint, Some(tmodel))
                };
                assert!(key.is_some());
            }
            reg
        };
        let (replaced, rebuilt) = (run(true), run(false));
        assert_eq!(replaced.stats(), rebuilt.stats());
        assert_eq!(replaced.service_count(), 3);
        let finds = |reg: &UddiRegistry| {
            let gw_b = [KeyedReference::new("uddi:gateway", "gw-b")];
            let gw_c = [KeyedReference::new("uddi:gateway", "gw-c")];
            [
                reg.find_service("%", &[]),
                reg.find_service("hall-lamp", &[]),
                reg.find_service("%", &gw_b),
                reg.find_service("%", &gw_c),
            ]
            .map(|hits| hits.into_iter().cloned().collect::<Vec<_>>())
        };
        assert_eq!(finds(&replaced), finds(&rebuilt));
        let tmodels = |reg: &UddiRegistry| -> Vec<TModel> {
            reg.find_tmodel("%").into_iter().cloned().collect()
        };
        assert_eq!(tmodels(&replaced), tmodels(&rebuilt));
        assert_eq!(tmodels(&replaced).len(), 3, "each old record's tModel went");
        assert!(replaced
            .find_service("%", &[KeyedReference::new("uddi:gateway", "gw-a")])
            .iter()
            .all(|s| s.name == "Hall-Lamp"));
    }

    #[test]
    fn finds_keep_publication_order_past_the_millionth_key() {
        let mut reg = UddiRegistry::new();
        let biz = reg.save_business("home", "");
        reg.next_id = 999_990;
        let names: Vec<String> = (0..6).map(|i| format!("s{i}")).collect();
        for name in &names {
            let categories = vec![KeyedReference::new("uddi:middleware", "x10")];
            reg.save_service(&biz, name, categories, "vsg://gw/x", None)
                .unwrap();
        }
        assert!(reg.next_id > 1_000_000, "the keys cross the boundary");
        let x10 = [KeyedReference::new("uddi:middleware", "x10")];
        for indexing in [true, false] {
            reg.set_indexing(indexing);
            for categories in [&[][..], &x10[..]] {
                let found: Vec<&str> = reg
                    .find_service("%", categories)
                    .iter()
                    .map(|s| s.name.as_str())
                    .collect();
                assert_eq!(found, names, "indexing {indexing}, {categories:?}");
            }
        }
    }

    #[test]
    fn keys_display_as_the_formatted_strings_they_replaced() {
        let kinds = [
            (KeyKind::Business, "biz"),
            (KeyKind::TModel, "tm"),
            (KeyKind::Service, "svc"),
            (KeyKind::Binding, "bind"),
        ];
        let ids = (0..20)
            .chain(999_980..1_000_020)
            .chain(9_999_995..10_000_005)
            .chain([123_456, 4_000_000_000, u64::MAX]);
        for id in ids {
            for (kind, label) in kinds {
                let key = Key { id, kind };
                let formatted = format!("uuid:{label}:{id:06}");
                assert_eq!(key.to_string(), formatted);
                assert_eq!(format!("{key:?}"), format!("Key({formatted:?})"));
            }
        }
        // Below a million, sequence order is the strings' order.
        let key = |id| Key {
            id,
            kind: KeyKind::Service,
        };
        for id in (1..2_000).chain(999_000..999_999) {
            assert!(key(id) < key(id + 1));
            assert!(key(id).to_string() < key(id + 1).to_string());
        }
        assert!(key(999_999) < key(1_000_000));
        assert!(key(100_001) < key(1_000_000));
    }

    #[test]
    fn churn_keeps_indexes_consistent() {
        let mut reg = UddiRegistry::new();
        let biz = reg.save_business("home", "");
        for round in 0..5 {
            for i in 0..20 {
                reg.save_service(
                    &biz,
                    &format!("svc-{i}"),
                    vec![KeyedReference::new("uddi:gen", format!("g{}", i % 3))],
                    "vsg://gw/x",
                    None,
                )
                .unwrap();
            }
            for i in (0..20).step_by(2) {
                let removed = reg.delete_services_by_name(&format!("svc-{i}"));
                assert_eq!(removed.len(), 1, "round {round} svc-{i}");
            }
        }
        // 5 rounds x (20 added - 10 removed).
        assert_eq!(reg.service_count(), 50);
        assert_eq!(reg.find_service("svc-3", &[]).len(), 5);
        assert_eq!(
            reg.find_service("%", &[KeyedReference::new("uddi:gen", "g1")])
                .len(),
            20
        );
    }
}
