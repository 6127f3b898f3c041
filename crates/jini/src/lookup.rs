//! The lookup service (the `reggie` registrar) and its client protocol.
//!
//! Jini's rendezvous point: services register [`ServiceItem`]s under
//! leases; clients match them with [`ServiceTemplate`]s and receive the
//! marshalled proxies.

use crate::discovery::{DISCOVERY_REQ_PREFIX, DISCOVERY_RESP_PREFIX};
use crate::entry::{Entry, ServiceTemplate};
use crate::id::ServiceId;
use crate::jvalue::{JValue, MarshalError};
use crate::lease::{Lease, LeaseId, LeasePolicy, LeaseTable};
use crate::rmi::{JiniError, ProxyStub};
use parking_lot::Mutex;
use simnet::{Frame, Network, NodeId, Protocol, SimDuration, SimTime};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A registered service: identity, interfaces, attributes and the
/// marshalled proxy clients download.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceItem {
    /// The service id (zero until first registration assigns one).
    pub service_id: ServiceId,
    /// Remote interfaces the proxy implements.
    pub interfaces: Vec<String>,
    /// Attribute entries.
    pub entries: Vec<Entry>,
    /// The marshalled proxy.
    pub proxy: ProxyStub,
}

impl ServiceItem {
    /// Creates an unregistered item (id zero).
    pub fn new(proxy: ProxyStub, interfaces: Vec<String>, entries: Vec<Entry>) -> ServiceItem {
        ServiceItem {
            service_id: ServiceId(0),
            interfaces,
            entries,
            proxy,
        }
    }

    /// True if this item matches `template`.
    pub fn matches(&self, template: &ServiceTemplate) -> bool {
        if let Some(id) = template.service_id {
            if id != self.service_id {
                return false;
            }
        }
        template
            .interfaces
            .iter()
            .all(|i| self.interfaces.contains(i))
            && template
                .entries
                .iter()
                .all(|t| self.entries.iter().any(|e| e.matches(t)))
    }

    /// Encodes for marshalling.
    pub fn to_jvalue(&self) -> JValue {
        JValue::object(
            "net.jini.core.lookup.ServiceItem",
            vec![
                (
                    "serviceID".into(),
                    JValue::Bytes(self.service_id.to_bytes().to_vec()),
                ),
                (
                    "interfaces".into(),
                    JValue::List(self.interfaces.iter().cloned().map(JValue::Str).collect()),
                ),
                (
                    "attributeSets".into(),
                    JValue::List(self.entries.iter().map(Entry::to_jvalue).collect()),
                ),
                ("service".into(), self.proxy.to_jvalue()),
            ],
        )
    }

    /// Inverse of [`ServiceItem::to_jvalue`].
    pub fn from_jvalue(v: &JValue) -> Option<ServiceItem> {
        let service_id = match v.field("serviceID")? {
            JValue::Bytes(b) => ServiceId::from_bytes(b.as_slice().try_into().ok()?),
            _ => return None,
        };
        let interfaces = match v.field("interfaces")? {
            JValue::List(items) => items
                .iter()
                .map(|i| i.as_str().map(str::to_owned))
                .collect::<Option<Vec<_>>>()?,
            _ => return None,
        };
        let entries = match v.field("attributeSets")? {
            JValue::List(items) => items
                .iter()
                .map(Entry::from_jvalue)
                .collect::<Option<Vec<_>>>()?,
            _ => return None,
        };
        let proxy = ProxyStub::from_jvalue(v.field("service")?)?;
        Some(ServiceItem {
            service_id,
            interfaces,
            entries,
            proxy,
        })
    }
}

/// A successful registration: the assigned id and the granted lease.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceRegistration {
    /// The assigned service id.
    pub service_id: ServiceId,
    /// The granted lease.
    pub lease: Lease,
}

struct RegistrarState {
    items: HashMap<ServiceId, (ServiceItem, LeaseId)>,
    by_lease: HashMap<LeaseId, ServiceId>,
    leases: LeaseTable,
    next_counter: u64,
}

/// A running lookup service.
#[derive(Clone)]
pub struct LookupService {
    node: NodeId,
    groups: Vec<String>,
    state: Arc<Mutex<RegistrarState>>,
}

impl LookupService {
    /// Starts a registrar on a fresh node of `net`, serving `groups`
    /// (e.g. `["public"]`), with an expiry sweep every `sweep` of virtual
    /// time.
    pub fn start(net: &Network, label: &str, groups: &[&str], sweep: SimDuration) -> LookupService {
        let node = net.attach(label);
        let registrar_id = u64::from(node.0) + 1;
        let state = Arc::new(Mutex::new(RegistrarState {
            items: HashMap::new(),
            by_lease: HashMap::new(),
            leases: LeaseTable::new(LeasePolicy::default()),
            next_counter: 0,
        }));
        let svc = LookupService {
            node,
            groups: groups.iter().map(|s| (*s).to_owned()).collect(),
            state,
        };

        // Unicast protocol: register / lookup / renew / cancel.
        let state2 = svc.state.clone();
        let registrar_id2 = registrar_id;
        net.set_request_handler(node, move |sim, frame| {
            sim.advance(SimDuration::from_micros(100)); // registrar CPU
                                                        // A reply that does not fit its stream goes back as the
                                                        // error saying so, which does.
            let reply = handle_request(&state2, registrar_id2, sim.now(), &frame.payload)
                .or_else(|e| reggie_err(&format!("reply refused: {e}")))
                .expect("a short error marshals");
            Ok(reply)
        })
        .expect("registrar node exists");

        // Multicast discovery: answer group-matching broadcasts.
        let groups2 = svc.groups.clone();
        let net2 = net.clone();
        net.set_frame_handler(node, move |_sim, frame| {
            let payload = &frame.payload;
            if let Some(group) = payload
                .strip_prefix(DISCOVERY_REQ_PREFIX)
                .and_then(|g| std::str::from_utf8(g).ok())
            {
                if groups2.iter().any(|g| g == group) {
                    let mut resp = DISCOVERY_RESP_PREFIX.to_vec();
                    resp.extend_from_slice(&node.0.to_be_bytes());
                    let _ = net2.send(Frame::new(node, frame.src, Protocol::Jini, resp));
                }
            }
        })
        .expect("registrar node exists");

        // Lease expiry sweep.
        let state3 = svc.state.clone();
        net.sim().every(sweep, move |sim| {
            let mut st = state3.lock();
            let now = sim.now();
            for lease_id in st.leases.collect_expired(now) {
                if let Some(id) = st.by_lease.remove(&lease_id) {
                    st.items.remove(&id);
                }
            }
        });

        svc
    }

    /// The registrar's node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The groups this registrar serves.
    pub fn groups(&self) -> &[String] {
        &self.groups
    }

    /// Number of currently registered services (unexpired, pre-sweep).
    pub fn registered_count(&self) -> usize {
        self.state.lock().items.len()
    }
}

impl fmt::Debug for LookupService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LookupService")
            .field("node", &self.node)
            .field("groups", &self.groups)
            .field("registered", &self.registered_count())
            .finish()
    }
}

fn handle_request(
    state: &Mutex<RegistrarState>,
    registrar_id: u64,
    now: SimTime,
    payload: &[u8],
) -> Result<Vec<u8>, MarshalError> {
    let req = match JValue::unmarshal(payload) {
        Ok(v) => v,
        Err(e) => return reggie_err(&format!("bad request: {e}")),
    };
    let class = match &req {
        JValue::Object { class, .. } => class.as_str(),
        _ => return reggie_err("request must be an object"),
    };
    let mut st = state.lock();
    match class {
        "ReggieRegister" => {
            let item = match req.field("item").and_then(ServiceItem::from_jvalue) {
                Some(i) => i,
                None => return reggie_err("malformed item"),
            };
            let requested = SimDuration::from_micros(
                req.field("durationUs")
                    .and_then(JValue::as_int)
                    .unwrap_or(0)
                    .max(0) as u64,
            );
            let mut item = item;
            if item.service_id == ServiceId(0) {
                st.next_counter += 1;
                item.service_id = ServiceId::derive(registrar_id, st.next_counter);
            }
            // Re-registration of the same id replaces the old item.
            if let Some((_, old_lease)) = st.items.remove(&item.service_id) {
                st.by_lease.remove(&old_lease);
                let _ = st.leases.cancel(old_lease);
            }
            let lease = st.leases.grant(requested, now);
            st.by_lease.insert(lease.id, item.service_id);
            let id = item.service_id;
            st.items.insert(id, (item, lease.id));
            JValue::object(
                "ReggieRegistered",
                vec![
                    ("serviceID".into(), JValue::Bytes(id.to_bytes().to_vec())),
                    ("leaseId".into(), JValue::Int(lease.id.0 as i64)),
                    (
                        "expirationUs".into(),
                        JValue::Int(lease.expiration.as_micros() as i64),
                    ),
                ],
            )
            .marshal()
        }
        "ReggieLookup" => {
            let template = match req.field("template").and_then(ServiceTemplate::from_jvalue) {
                Some(t) => t,
                None => return reggie_err("malformed template"),
            };
            let max = req
                .field("max")
                .and_then(JValue::as_int)
                .unwrap_or(i64::MAX);
            let mut matches: Vec<&ServiceItem> = st
                .items
                .values()
                .filter(|(_, lease)| st.leases.is_live(*lease, now))
                .map(|(item, _)| item)
                .filter(|item| item.matches(&template))
                .collect();
            matches.sort_by_key(|i| i.service_id);
            matches.truncate(usize::try_from(max).unwrap_or(usize::MAX));
            JValue::object(
                "ReggieMatches",
                vec![(
                    "items".into(),
                    JValue::List(matches.iter().map(|i| i.to_jvalue()).collect()),
                )],
            )
            .marshal()
        }
        "ReggieRenew" => {
            let lease_id = LeaseId(
                req.field("leaseId")
                    .and_then(JValue::as_int)
                    .unwrap_or(-1)
                    .max(0) as u64,
            );
            let requested = SimDuration::from_micros(
                req.field("durationUs")
                    .and_then(JValue::as_int)
                    .unwrap_or(0)
                    .max(0) as u64,
            );
            match st.leases.renew(lease_id, requested, now) {
                Ok(lease) => JValue::object(
                    "ReggieRenewed",
                    vec![(
                        "expirationUs".into(),
                        JValue::Int(lease.expiration.as_micros() as i64),
                    )],
                )
                .marshal(),
                Err(e) => reggie_err(&e.to_string()),
            }
        }
        "ReggieCancel" => {
            let lease_id = LeaseId(
                req.field("leaseId")
                    .and_then(JValue::as_int)
                    .unwrap_or(-1)
                    .max(0) as u64,
            );
            if let Some(id) = st.by_lease.remove(&lease_id) {
                st.items.remove(&id);
            }
            match st.leases.cancel(lease_id) {
                Ok(()) => JValue::object("ReggieCancelled", vec![]).marshal(),
                Err(e) => reggie_err(&e.to_string()),
            }
        }
        other => reggie_err(&format!("unknown request {other}")),
    }
}

fn reggie_err(m: &str) -> Result<Vec<u8>, MarshalError> {
    JValue::object(
        "ReggieError",
        vec![("message".into(), JValue::Str(m.to_owned()))],
    )
    .marshal()
}

/// The client side of the registrar protocol.
#[derive(Debug, Clone)]
pub struct RegistrarClient {
    net: Network,
    node: NodeId,
    registrar: NodeId,
}

impl RegistrarClient {
    /// Binds a client on `node` to the registrar at `registrar`.
    pub fn new(net: &Network, node: NodeId, registrar: NodeId) -> RegistrarClient {
        RegistrarClient {
            net: net.clone(),
            node,
            registrar,
        }
    }

    fn call(&self, req: JValue) -> Result<JValue, JiniError> {
        let reply = self
            .net
            .request(self.node, self.registrar, Protocol::Jini, req.marshal()?)
            .map_err(|e| JiniError::Network(e.to_string()))?;
        let v = JValue::unmarshal(&reply)?;
        if let JValue::Object { class, .. } = &v {
            if class == "ReggieError" {
                return Err(JiniError::Lease(
                    v.field("message")
                        .and_then(JValue::as_str)
                        .unwrap_or("")
                        .to_owned(),
                ));
            }
        }
        Ok(v)
    }

    /// Registers `item`, requesting a lease of `duration` (zero = any).
    pub fn register(
        &self,
        item: &ServiceItem,
        duration: SimDuration,
    ) -> Result<ServiceRegistration, JiniError> {
        let req = JValue::object(
            "ReggieRegister",
            vec![
                ("item".into(), item.to_jvalue()),
                (
                    "durationUs".into(),
                    JValue::Int(duration.as_micros() as i64),
                ),
            ],
        );
        let v = self.call(req)?;
        let service_id = match v.field("serviceID") {
            Some(JValue::Bytes(b)) => ServiceId::from_bytes(
                b.as_slice()
                    .try_into()
                    .map_err(|_| JiniError::Protocol("bad serviceID".into()))?,
            ),
            _ => return Err(JiniError::Protocol("registration reply missing id".into())),
        };
        let lease = Lease {
            id: LeaseId(
                v.field("leaseId")
                    .and_then(JValue::as_int)
                    .unwrap_or(0)
                    .max(0) as u64,
            ),
            expiration: SimTime::from_micros(
                v.field("expirationUs")
                    .and_then(JValue::as_int)
                    .unwrap_or(0)
                    .max(0) as u64,
            ),
        };
        Ok(ServiceRegistration { service_id, lease })
    }

    /// Finds up to `max` services matching `template`.
    pub fn lookup(
        &self,
        template: &ServiceTemplate,
        max: usize,
    ) -> Result<Vec<ServiceItem>, JiniError> {
        let req = JValue::object(
            "ReggieLookup",
            vec![
                ("template".into(), template.to_jvalue()),
                ("max".into(), JValue::Int(max as i64)),
            ],
        );
        let v = self.call(req)?;
        match v.field("items") {
            Some(JValue::List(items)) => items
                .iter()
                .map(|i| {
                    ServiceItem::from_jvalue(i)
                        .ok_or_else(|| JiniError::Protocol("bad item in reply".into()))
                })
                .collect(),
            _ => Err(JiniError::Protocol("lookup reply missing items".into())),
        }
    }

    /// Finds exactly one match, erroring on zero.
    pub fn lookup_one(&self, template: &ServiceTemplate) -> Result<ServiceItem, JiniError> {
        self.lookup(template, 1)?
            .into_iter()
            .next()
            .ok_or_else(|| JiniError::NotFound(format!("{template:?}")))
    }

    /// Renews a lease.
    pub fn renew(&self, lease: LeaseId, duration: SimDuration) -> Result<Lease, JiniError> {
        let req = JValue::object(
            "ReggieRenew",
            vec![
                ("leaseId".into(), JValue::Int(lease.0 as i64)),
                (
                    "durationUs".into(),
                    JValue::Int(duration.as_micros() as i64),
                ),
            ],
        );
        let v = self.call(req)?;
        Ok(Lease {
            id: lease,
            expiration: SimTime::from_micros(
                v.field("expirationUs")
                    .and_then(JValue::as_int)
                    .unwrap_or(0)
                    .max(0) as u64,
            ),
        })
    }

    /// Cancels a lease (withdrawing the service).
    pub fn cancel(&self, lease: LeaseId) -> Result<(), JiniError> {
        let req = JValue::object(
            "ReggieCancel",
            vec![("leaseId".into(), JValue::Int(lease.0 as i64))],
        );
        self.call(req).map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rmi::RmiExporter;
    use simnet::Sim;

    fn world() -> (Sim, Network, LookupService) {
        let sim = Sim::new(1);
        let net = Network::ethernet(&sim);
        let reggie = LookupService::start(&net, "reggie", &["public"], SimDuration::from_secs(5));
        (sim, net, reggie)
    }

    fn export_dummy(net: &Network, label: &str, iface: &str) -> ServiceItem {
        let exporter = RmiExporter::attach(net, label);
        let stub = exporter.export(iface, |_, _, _| Ok(JValue::Null));
        ServiceItem::new(stub, vec![iface.to_owned()], vec![Entry::name(label)])
    }

    #[test]
    fn register_assigns_id_and_lease() {
        let (_sim, net, reggie) = world();
        let item = export_dummy(&net, "vcr", "VcrControl");
        let client = RegistrarClient::new(&net, net.attach("pc"), reggie.node());
        let reg = client.register(&item, SimDuration::from_secs(30)).unwrap();
        assert_ne!(reg.service_id, ServiceId(0));
        assert!(reg.lease.expiration > SimTime::ZERO);
        assert_eq!(reggie.registered_count(), 1);
    }

    #[test]
    fn lookup_by_interface_and_entry() {
        let (_sim, net, reggie) = world();
        let client = RegistrarClient::new(&net, net.attach("pc"), reggie.node());
        client
            .register(
                &export_dummy(&net, "vcr", "VcrControl"),
                SimDuration::from_secs(30),
            )
            .unwrap();
        client
            .register(
                &export_dummy(&net, "ld", "LaserdiscPlayer"),
                SimDuration::from_secs(30),
            )
            .unwrap();

        let all = client.lookup(&ServiceTemplate::any(), 10).unwrap();
        assert_eq!(all.len(), 2);

        let lds = client
            .lookup(&ServiceTemplate::by_interface("LaserdiscPlayer"), 10)
            .unwrap();
        assert_eq!(lds.len(), 1);
        assert_eq!(lds[0].entries[0].get("name"), Some("ld"));

        let by_name = client
            .lookup(&ServiceTemplate::any().entry(Entry::name("vcr")), 10)
            .unwrap();
        assert_eq!(by_name.len(), 1);

        let one = client
            .lookup_one(&ServiceTemplate::by_id(lds[0].service_id))
            .unwrap();
        assert_eq!(one.service_id, lds[0].service_id);

        assert!(client
            .lookup_one(&ServiceTemplate::by_interface("Toaster"))
            .is_err());
    }

    #[test]
    fn expired_services_disappear() {
        let (sim, net, reggie) = world();
        let client = RegistrarClient::new(&net, net.attach("pc"), reggie.node());
        client
            .register(
                &export_dummy(&net, "vcr", "Vcr"),
                SimDuration::from_millis(500),
            )
            .unwrap();
        // Before expiry the lookup finds it.
        assert_eq!(client.lookup(&ServiceTemplate::any(), 10).unwrap().len(), 1);
        // After expiry (sweep at 5s) it is gone.
        sim.run_for(SimDuration::from_secs(6));
        assert_eq!(reggie.registered_count(), 0);
        assert!(client
            .lookup(&ServiceTemplate::any(), 10)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn renewal_keeps_service_alive() {
        let (sim, net, reggie) = world();
        let client = RegistrarClient::new(&net, net.attach("pc"), reggie.node());
        let reg = client
            .register(&export_dummy(&net, "vcr", "Vcr"), SimDuration::from_secs(2))
            .unwrap();
        sim.run_for(SimDuration::from_secs(1));
        client
            .renew(reg.lease.id, SimDuration::from_secs(2))
            .unwrap();
        sim.run_for(SimDuration::from_millis(1_500));
        // Original lease would have expired at 2s; renewal carried it to 3s.
        assert_eq!(client.lookup(&ServiceTemplate::any(), 10).unwrap().len(), 1);
        sim.run_for(SimDuration::from_secs(6));
        assert_eq!(reggie.registered_count(), 0);
    }

    #[test]
    fn cancel_withdraws_immediately() {
        let (_sim, net, reggie) = world();
        let client = RegistrarClient::new(&net, net.attach("pc"), reggie.node());
        let reg = client
            .register(
                &export_dummy(&net, "vcr", "Vcr"),
                SimDuration::from_secs(30),
            )
            .unwrap();
        client.cancel(reg.lease.id).unwrap();
        assert!(client
            .lookup(&ServiceTemplate::any(), 10)
            .unwrap()
            .is_empty());
        assert!(client.cancel(reg.lease.id).is_err());
    }

    #[test]
    fn reregistration_with_same_id_replaces() {
        let (_sim, net, reggie) = world();
        let client = RegistrarClient::new(&net, net.attach("pc"), reggie.node());
        let item = export_dummy(&net, "vcr", "Vcr");
        let reg = client.register(&item, SimDuration::from_secs(30)).unwrap();
        let mut item2 = export_dummy(&net, "vcr2", "Vcr");
        item2.service_id = reg.service_id;
        client.register(&item2, SimDuration::from_secs(30)).unwrap();
        assert_eq!(reggie.registered_count(), 1);
        let found = client.lookup(&ServiceTemplate::any(), 10).unwrap();
        assert_eq!(found[0].entries[0].get("name"), Some("vcr2"));
    }

    #[test]
    fn lookup_max_truncates() {
        let (_sim, net, reggie) = world();
        let client = RegistrarClient::new(&net, net.attach("pc"), reggie.node());
        for i in 0..5 {
            client
                .register(
                    &export_dummy(&net, &format!("svc{i}"), "Iface"),
                    SimDuration::from_secs(30),
                )
                .unwrap();
        }
        assert_eq!(client.lookup(&ServiceTemplate::any(), 3).unwrap().len(), 3);
    }

    #[test]
    fn item_matching_rules() {
        let stub = ProxyStub {
            host: NodeId(1),
            object_id: 1,
            interface: "A".into(),
        };
        let mut item = ServiceItem::new(
            stub,
            vec!["A".into(), "B".into()],
            vec![Entry::name("x"), Entry::location("den")],
        );
        item.service_id = ServiceId(99);
        assert!(item.matches(&ServiceTemplate::any()));
        assert!(item.matches(&ServiceTemplate::by_interface("A").interface("B")));
        assert!(!item.matches(&ServiceTemplate::by_interface("C")));
        assert!(item.matches(&ServiceTemplate::by_id(ServiceId(99))));
        assert!(!item.matches(&ServiceTemplate::by_id(ServiceId(1))));
        assert!(item.matches(&ServiceTemplate::any().entry(Entry::location("den"))));
        assert!(!item.matches(&ServiceTemplate::any().entry(Entry::location("attic"))));
    }

    #[test]
    fn garbage_request_gets_error_reply() {
        let (_sim, net, reggie) = world();
        let pc = net.attach("pc");
        let reply = net
            .request(pc, reggie.node(), Protocol::Jini, &b"nonsense"[..])
            .unwrap();
        let v = JValue::unmarshal(&reply).unwrap();
        assert!(matches!(&v, JValue::Object { class, .. } if class == "ReggieError"));
    }
}
