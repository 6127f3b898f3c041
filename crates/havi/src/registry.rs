//! The HAVi Registry.
//!
//! A well-known software element where DCMs/FCMs advertise themselves
//! with attribute lists, and controllers query by attribute match — the
//! HAVi-side analogue of Jini's lookup service, and the place the HAVi
//! PCM harvests services from.

use crate::hvalue::HValue;
use crate::messaging::{HaviError, MessagingSystem, OpCode};
use crate::seid::{HaviStatus, Seid};
use parking_lot::Mutex;
use simnet::NodeId;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Registry API class.
const API_REGISTRY: u16 = 0x0001;
/// `Registry::RegisterElement`.
const OPER_REGISTER: u16 = 1;
/// `Registry::UnregisterElement`.
const OPER_UNREGISTER: u16 = 2;
/// `Registry::GetElement` (attribute query).
const OPER_QUERY: u16 = 3;

/// Standard attribute names.
pub mod attr {
    /// Software element type (`"fcm"`, `"dcm"`, `"application"`).
    pub const SE_TYPE: &str = "ATT_SE_TYPE";
    /// Device class (`"vcr"`, `"dv-camera"`, `"tuner"`, …).
    pub const DEVICE_CLASS: &str = "ATT_DEVICE_CLASS";
    /// Human-readable name.
    pub const NAME: &str = "ATT_NAME";
    /// Owning device GUID.
    pub const GUID: &str = "ATT_GUID";
}

/// A registry record: the element and its attributes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegistryEntry {
    /// The advertised element.
    pub seid: Seid,
    /// Attribute list (sorted by name).
    pub attributes: BTreeMap<String, String>,
}

impl RegistryEntry {
    /// True if every `(name, value)` in `filter` is present.
    pub fn matches(&self, filter: &[(String, String)]) -> bool {
        filter
            .iter()
            .all(|(k, v)| self.attributes.get(k) == Some(v))
    }
}

/// The registry service (runs as a software element on one node).
#[derive(Clone)]
pub struct Registry {
    seid: Seid,
    entries: Arc<Mutex<Vec<RegistryEntry>>>,
}

impl Registry {
    /// Starts the registry on `ms`'s node.
    pub fn start(ms: &MessagingSystem) -> Registry {
        let entries: Arc<Mutex<Vec<RegistryEntry>>> = Arc::new(Mutex::new(Vec::new()));
        let entries2 = entries.clone();
        let seid = ms.register_element(move |_sim, msg| {
            if msg.opcode.api != API_REGISTRY {
                return (HaviStatus::EUnsupported, vec![]);
            }
            match msg.opcode.oper {
                OPER_REGISTER => match decode_entry(&msg.params) {
                    Some(entry) => {
                        let mut entries = entries2.lock();
                        entries.retain(|e| e.seid != entry.seid);
                        entries.push(entry);
                        (HaviStatus::Success, vec![])
                    }
                    None => (HaviStatus::EParameter, vec![]),
                },
                OPER_UNREGISTER => match decode_seid(&msg.params) {
                    Some(seid) => {
                        let mut entries = entries2.lock();
                        let before = entries.len();
                        entries.retain(|e| e.seid != seid);
                        if entries.len() < before {
                            (HaviStatus::Success, vec![])
                        } else {
                            (HaviStatus::EUnknownSeid, vec![])
                        }
                    }
                    None => (HaviStatus::EParameter, vec![]),
                },
                OPER_QUERY => match decode_filter(&msg.params) {
                    Some(filter) => {
                        let entries = entries2.lock();
                        let matches: Vec<&RegistryEntry> =
                            entries.iter().filter(|e| e.matches(&filter)).collect();
                        (HaviStatus::Success, encode_entries(&matches))
                    }
                    None => (HaviStatus::EParameter, vec![]),
                },
                _ => (HaviStatus::EUnsupported, vec![]),
            }
        });
        Registry { seid, entries }
    }

    /// The registry's SEID (the well-known address clients message).
    pub fn seid(&self) -> Seid {
        self.seid
    }

    /// Number of advertised elements.
    pub fn entry_count(&self) -> usize {
        self.entries.lock().len()
    }
}

/// Client-side access to a (possibly remote) registry.
#[derive(Debug, Clone)]
pub struct RegistryClient {
    ms: MessagingSystem,
    src_handle: u32,
    registry: Seid,
}

impl RegistryClient {
    /// Creates a client sending from local element `src_handle`.
    pub fn new(ms: &MessagingSystem, src_handle: u32, registry: Seid) -> RegistryClient {
        RegistryClient {
            ms: ms.clone(),
            src_handle,
            registry,
        }
    }

    /// Advertises `seid` with `attributes`.
    pub fn register(&self, seid: Seid, attributes: &[(&str, &str)]) -> Result<(), HaviError> {
        let mut params = vec![
            HValue::U32(seid.node.0),
            HValue::U32(seid.handle),
            HValue::U8(attributes.len() as u8),
        ];
        for (k, v) in attributes {
            params.push(HValue::Str((*k).to_owned()));
            params.push(HValue::Str((*v).to_owned()));
        }
        self.ms
            .send_ok(
                self.src_handle,
                self.registry,
                OpCode::new(API_REGISTRY, OPER_REGISTER),
                params,
            )
            .map(|_| ())
    }

    /// Withdraws `seid`.
    pub fn unregister(&self, seid: Seid) -> Result<(), HaviError> {
        let params = vec![HValue::U32(seid.node.0), HValue::U32(seid.handle)];
        self.ms
            .send_ok(
                self.src_handle,
                self.registry,
                OpCode::new(API_REGISTRY, OPER_UNREGISTER),
                params,
            )
            .map(|_| ())
    }

    /// Queries for elements whose attributes contain every `(name, value)`
    /// pair in `filter`.
    pub fn query(&self, filter: &[(&str, &str)]) -> Result<Vec<RegistryEntry>, HaviError> {
        let mut params = vec![HValue::U8(filter.len() as u8)];
        for (k, v) in filter {
            params.push(HValue::Str((*k).to_owned()));
            params.push(HValue::Str((*v).to_owned()));
        }
        let reply = self.ms.send_ok(
            self.src_handle,
            self.registry,
            OpCode::new(API_REGISTRY, OPER_QUERY),
            params,
        )?;
        decode_entry_list(&reply).ok_or(HaviError::Status(HaviStatus::EParameter))
    }
}

// ---- wire helpers ---------------------------------------------------------

fn decode_seid(params: &[HValue]) -> Option<Seid> {
    Some(Seid::new(
        NodeId(params.first()?.as_u32()?),
        params.get(1)?.as_u32()?,
    ))
}

fn decode_entry(params: &[HValue]) -> Option<RegistryEntry> {
    let seid = decode_seid(params)?;
    let nattrs = params.get(2)?.as_u32()? as usize;
    let mut attributes = BTreeMap::new();
    for i in 0..nattrs {
        let k = params.get(3 + i * 2)?.as_str()?.to_owned();
        let v = params.get(4 + i * 2)?.as_str()?.to_owned();
        attributes.insert(k, v);
    }
    Some(RegistryEntry { seid, attributes })
}

fn decode_filter(params: &[HValue]) -> Option<Vec<(String, String)>> {
    let n = params.first()?.as_u32()? as usize;
    let mut filter = Vec::with_capacity(n);
    for i in 0..n {
        filter.push((
            params.get(1 + i * 2)?.as_str()?.to_owned(),
            params.get(2 + i * 2)?.as_str()?.to_owned(),
        ));
    }
    Some(filter)
}

fn encode_entries(entries: &[&RegistryEntry]) -> Vec<HValue> {
    let mut out = vec![HValue::U16(entries.len() as u16)];
    for e in entries {
        out.push(HValue::U32(e.seid.node.0));
        out.push(HValue::U32(e.seid.handle));
        out.push(HValue::U8(e.attributes.len() as u8));
        for (k, v) in &e.attributes {
            out.push(HValue::Str(k.clone()));
            out.push(HValue::Str(v.clone()));
        }
    }
    out
}

fn decode_entry_list(params: &[HValue]) -> Option<Vec<RegistryEntry>> {
    let n = params.first()?.as_u32()? as usize;
    let mut pos = 1;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let node = params.get(pos)?.as_u32()?;
        let handle = params.get(pos + 1)?.as_u32()?;
        let nattrs = params.get(pos + 2)?.as_u32()? as usize;
        pos += 3;
        let mut attributes = BTreeMap::new();
        for _ in 0..nattrs {
            let k = params.get(pos)?.as_str()?.to_owned();
            let v = params.get(pos + 1)?.as_str()?.to_owned();
            attributes.insert(k, v);
            pos += 2;
        }
        out.push(RegistryEntry {
            seid: Seid::new(NodeId(node), handle),
            attributes,
        });
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{Network, Sim};

    fn world() -> (Sim, Network, MessagingSystem, Registry) {
        let sim = Sim::new(1);
        let net = Network::ieee1394(&sim);
        let fav = MessagingSystem::attach(&net, "fav-controller");
        let registry = Registry::start(&fav);
        (sim, net, fav, registry)
    }

    #[test]
    fn register_query_unregister() {
        let (_sim, net, _fav, registry) = world();
        let vcr_node = MessagingSystem::attach(&net, "vcr");
        let vcr_fcm = vcr_node.register_element(|_, _| (HaviStatus::Success, vec![]));
        let client = RegistryClient::new(&vcr_node, vcr_fcm.handle, registry.seid());

        client
            .register(
                vcr_fcm,
                &[
                    (attr::SE_TYPE, "fcm"),
                    (attr::DEVICE_CLASS, "vcr"),
                    (attr::NAME, "living-room-vcr"),
                ],
            )
            .unwrap();
        assert_eq!(registry.entry_count(), 1);

        let vcrs = client.query(&[(attr::DEVICE_CLASS, "vcr")]).unwrap();
        assert_eq!(vcrs.len(), 1);
        assert_eq!(vcrs[0].seid, vcr_fcm);
        assert_eq!(
            vcrs[0].attributes.get(attr::NAME).unwrap(),
            "living-room-vcr"
        );

        assert!(client
            .query(&[(attr::DEVICE_CLASS, "tuner")])
            .unwrap()
            .is_empty());

        client.unregister(vcr_fcm).unwrap();
        assert_eq!(registry.entry_count(), 0);
        assert!(client.unregister(vcr_fcm).is_err());
    }

    #[test]
    fn reregistration_replaces() {
        let (_sim, net, _fav, registry) = world();
        let node = MessagingSystem::attach(&net, "cam");
        let fcm = node.register_element(|_, _| (HaviStatus::Success, vec![]));
        let client = RegistryClient::new(&node, fcm.handle, registry.seid());
        client.register(fcm, &[(attr::NAME, "old")]).unwrap();
        client.register(fcm, &[(attr::NAME, "new")]).unwrap();
        assert_eq!(registry.entry_count(), 1);
        let found = client.query(&[]).unwrap();
        assert_eq!(found[0].attributes.get(attr::NAME).unwrap(), "new");
    }

    #[test]
    fn multi_attribute_filter_requires_all() {
        let (_sim, net, _fav, registry) = world();
        let node = MessagingSystem::attach(&net, "devs");
        let a = node.register_element(|_, _| (HaviStatus::Success, vec![]));
        let b = node.register_element(|_, _| (HaviStatus::Success, vec![]));
        let client = RegistryClient::new(&node, a.handle, registry.seid());
        client
            .register(a, &[(attr::DEVICE_CLASS, "vcr"), (attr::GUID, "g1")])
            .unwrap();
        client
            .register(b, &[(attr::DEVICE_CLASS, "vcr"), (attr::GUID, "g2")])
            .unwrap();
        assert_eq!(
            client.query(&[(attr::DEVICE_CLASS, "vcr")]).unwrap().len(),
            2
        );
        let one = client
            .query(&[(attr::DEVICE_CLASS, "vcr"), (attr::GUID, "g2")])
            .unwrap();
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].seid, b);
    }

    #[test]
    fn empty_filter_returns_everything() {
        let (_sim, net, _fav, registry) = world();
        let node = MessagingSystem::attach(&net, "devs");
        let client_seid = node.register_element(|_, _| (HaviStatus::Success, vec![]));
        let client = RegistryClient::new(&node, client_seid.handle, registry.seid());
        for i in 0..4 {
            let e = node.register_element(|_, _| (HaviStatus::Success, vec![]));
            client
                .register(e, &[(attr::NAME, &format!("dev{i}"))])
                .unwrap();
        }
        assert_eq!(client.query(&[]).unwrap().len(), 4);
    }
}
