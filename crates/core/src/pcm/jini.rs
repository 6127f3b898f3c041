//! The Jini PCM.
//!
//! Client Proxy: harvests every service item from the island's lookup
//! service and exports each to the VSG behind a generated proxy that
//! converts canonical values to marshalled Java arguments and drives the
//! service's mobile proxy over RMI.
//!
//! Server Proxy: for each remote VSG service, exports a real RMI object
//! implementing the service's interface and registers it in the lookup
//! service — so an unmodified Jini client discovers and calls, say, an
//! X10 lamp exactly as it would any Jini service ("it is not necessary
//! to change legacy clients and services", §3).

use crate::error::MetaError;
use crate::iface::{InterfaceCatalog, ServiceInterface};
use crate::intern::Name;
use crate::pcm::ProtocolConversionManager;
use crate::proxygen::{self, ProxyGenCost, ProxyTarget};
use crate::service::{Middleware, VirtualService};
use crate::trace::HopKind;
use crate::vsg::Vsg;
use crate::vsr::ServiceRecord;
use jini::{
    discover, Entry, JValue, JiniError, JoinManager, RegistrarClient, RemoteProxy, RmiExporter,
    ServiceItem, ServiceTemplate,
};
use parking_lot::Mutex;
use simnet::{Network, NodeId, SimDuration};
use soap::Value;
use std::fmt;
use std::sync::Arc;

/// Entry class marking a service item the PCM itself bridged in, so the
/// Client Proxy never re-imports its own Server Proxy exports.
const BRIDGED_ENTRY_CLASS: &str = "vsg.Bridged";

/// Converts a canonical value to the Jini representation.
fn value_to_jvalue(v: &Value) -> JValue {
    match v {
        Value::Null => JValue::Null,
        Value::Bool(b) => JValue::Bool(*b),
        Value::Int(i) => JValue::Int(*i),
        Value::Float(f) => JValue::Double(*f),
        Value::Str(s) => JValue::Str(s.clone()),
        Value::Bytes(b) => JValue::Bytes(b.clone()),
        Value::List(items) => JValue::List(items.iter().map(value_to_jvalue).collect()),
        Value::Record(fields) => JValue::object(
            "java.util.LinkedHashMap",
            fields
                .iter()
                .map(|(k, v)| (k.clone(), value_to_jvalue(v)))
                .collect(),
        ),
    }
}

/// Converts a Jini value to the canonical representation, moving its
/// strings, byte runs and field names instead of copying them.
fn jvalue_to_value(j: JValue) -> Value {
    match j {
        JValue::Null => Value::Null,
        JValue::Bool(b) => Value::Bool(b),
        JValue::Int(i) => Value::Int(i),
        JValue::Double(d) => Value::Float(d),
        JValue::Str(s) => Value::Str(s),
        JValue::Bytes(b) => Value::Bytes(b),
        JValue::List(items) => Value::List(items.into_iter().map(jvalue_to_value).collect()),
        JValue::Object { fields, .. } => Value::Record(
            fields
                .into_iter()
                .map(|(k, v)| (k, jvalue_to_value(v)))
                .collect(),
        ),
    }
}

/// The Jini Protocol Conversion Manager.
pub struct JiniPcm {
    vsg: Vsg,
    net: Network,
    node: NodeId,
    exporter: RmiExporter,
    registrar: RegistrarClient,
    catalog: InterfaceCatalog,
    imported: Arc<Mutex<Vec<String>>>,
    exported: Arc<Mutex<Vec<Name>>>,
}

impl JiniPcm {
    /// Starts the PCM on the Jini island: attaches a node, discovers a
    /// lookup service for `group`, and stands ready to convert.
    pub fn start(
        vsg: &Vsg,
        jini_net: &Network,
        group: &str,
        catalog: InterfaceCatalog,
    ) -> Result<JiniPcm, MetaError> {
        let exporter = RmiExporter::attach(jini_net, "jini-pcm");
        let node = exporter.node();
        let registrars = discover(jini_net, node, group);
        let registrar_node = registrars.first().copied().ok_or_else(|| {
            MetaError::native("jini", format!("no lookup service in group '{group}'"))
        })?;
        Ok(JiniPcm {
            vsg: vsg.clone(),
            net: jini_net.clone(),
            node,
            exporter,
            registrar: RegistrarClient::new(jini_net, node, registrar_node),
            catalog,
            imported: Arc::new(Mutex::new(Vec::new())),
            exported: Arc::new(Mutex::new(Vec::new())),
        })
    }

    /// The PCM's node on the Jini network.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// This island's registrar client (for tests and examples).
    pub fn registrar(&self) -> &RegistrarClient {
        &self.registrar
    }

    // ---- Client Proxy: Jini services -> VSG --------------------------------

    /// Harvests the lookup service and exports every recognised item to
    /// the VSG. Returns the names imported. Items whose interface is not
    /// in the catalog are skipped (and traced); bridged items are skipped
    /// to avoid echo.
    pub fn import_services(&self) -> Result<Vec<String>, MetaError> {
        let sim = self.net.sim().clone();
        let items = self
            .registrar
            .lookup(&ServiceTemplate::any(), 1 << 16)
            .map_err(|e| MetaError::native("jini", e))?;
        let mut names = Vec::new();
        for item in items {
            if item.entries.iter().any(|e| e.class == BRIDGED_ENTRY_CLASS) {
                continue;
            }
            let Some(iface_name) = item.interfaces.first() else {
                continue;
            };
            let Some(iface) = self.catalog.get(iface_name).cloned() else {
                continue;
            };
            let name = item
                .entries
                .iter()
                .find(|e| e.local_name_is_name())
                .and_then(|e| e.get("name"))
                .map(str::to_owned)
                .unwrap_or_else(|| format!("jini-{:08x}", item.service_id.0 as u32));

            let target = self.native_target(&iface, &item);
            let proxy = proxygen::generate(&sim, ProxyGenCost::default(), &iface, target);
            let mut service = VirtualService::new(&name, iface, Middleware::Jini, self.vsg.name());
            // A Jini `Location` entry becomes the service's room context
            // (§3.3: the VSR records "service locations and service
            // contexts").
            if let Some(room) = item
                .entries
                .iter()
                .find(|e| e.class == "net.jini.lookup.entry.Location")
                .and_then(|e| e.get("room"))
            {
                service = service.context("room", room);
            }
            self.vsg.export(service, proxy)?;
            self.imported.lock().push(name.clone());
            names.push(name);
        }
        Ok(names)
    }

    /// Builds the forwarding target for one native item: named canonical
    /// args become positional marshalled Java args, per the interface's
    /// declared parameter order.
    fn native_target(&self, iface: &ServiceInterface, item: &ServiceItem) -> ProxyTarget {
        let proxy = RemoteProxy::new(&self.net, self.node, item.proxy.clone());
        let iface = iface.clone();
        let vsg = self.vsg.clone();
        Arc::new(move |sim, op, args| {
            let sig = iface.find(op).ok_or_else(|| MetaError::UnknownOperation {
                service: iface.name.to_string(),
                operation: op.to_owned(),
            })?;
            let jargs: Vec<JValue> = sig
                .params
                .iter()
                .map(|(name, _)| {
                    args.iter()
                        .find(|(k, _)| name == k)
                        .map(|(_, v)| value_to_jvalue(v))
                        .unwrap_or(JValue::Null)
                })
                .collect();
            let scope = vsg.scope(sim, HopKind::PcmConvert, || format!("jini rmi {op}"));
            let result = proxy
                .invoke(op, &jargs)
                .map(jvalue_to_value)
                .map_err(|e: JiniError| MetaError::native("jini", e));
            scope.finish(&result);
            result
        })
    }

    // ---- Server Proxy: VSG services -> Jini --------------------------------

    /// Exports one remote VSG service into the lookup service as a live
    /// RMI object. Unmodified Jini clients can now discover and call it.
    pub fn export_remote(&self, record: &ServiceRecord) -> Result<(), MetaError> {
        let vsg = self.vsg.clone();
        let iface = record.interface.clone();
        let iface_name = iface.name.clone();
        let service_name = record.name.clone();
        let stub = self
            .exporter
            .export(&iface_name, move |sim, method, jargs| {
                let sig = iface
                    .find(method)
                    .ok_or_else(|| format!("no operation {method}"))?;
                let args: Vec<(String, Value)> = sig
                    .params
                    .iter()
                    .zip(jargs)
                    .map(|((name, _), j)| (name.as_str().to_owned(), jvalue_to_value(j.clone())))
                    .collect();
                // An RMI call from a native Jini client starts a fresh
                // trace — it arrives from outside any framework call.
                let scope = vsg.root_scope(sim, HopKind::PcmConvert, || {
                    format!("jini-bridge {service_name}.{method}")
                });
                let result = vsg.invoke(sim, &service_name, method, &args);
                scope.finish(&result);
                result
                    .map(|v| value_to_jvalue(&v))
                    .map_err(|e| e.to_string())
            });
        let item = ServiceItem::new(
            stub,
            vec![record.interface.name.as_str().to_owned()],
            vec![
                Entry::name(&record.name),
                Entry::new(BRIDGED_ENTRY_CLASS).field("origin", record.middleware.label()),
            ],
        );
        // The join manager renews the lease at half its term and
        // re-registers a lost item, so the bridged service stays in
        // lookup for as long as the home runs.
        JoinManager::start(
            &self.net,
            self.registrar.clone(),
            item,
            SimDuration::from_secs(120),
        )
        .map_err(|e| MetaError::native("jini", e))?;
        self.exported.lock().push(record.name.clone());
        Ok(())
    }

    /// Exports every non-Jini service currently in the VSR.
    pub fn export_all_remote(&self) -> Result<Vec<Name>, MetaError> {
        let mut done = Vec::new();
        for record in self.vsg.vsr().find("%", None)? {
            if record.middleware == Middleware::Jini {
                continue;
            }
            if self.exported.lock().contains(&record.name) {
                continue;
            }
            self.export_remote(&record)?;
            done.push(record.name);
        }
        Ok(done)
    }
}

impl ProtocolConversionManager for JiniPcm {
    fn middleware(&self) -> Middleware {
        Middleware::Jini
    }

    fn imported(&self) -> Vec<String> {
        self.imported.lock().clone()
    }

    fn exported(&self) -> Vec<Name> {
        self.exported.lock().clone()
    }
}

impl fmt::Debug for JiniPcm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JiniPcm")
            .field("node", &self.node)
            .field("imported", &self.imported.lock().len())
            .field("exported", &self.exported.lock().len())
            .finish()
    }
}

trait EntryExt {
    fn local_name_is_name(&self) -> bool;
}

impl EntryExt for Entry {
    fn local_name_is_name(&self) -> bool {
        self.class == "net.jini.lookup.entry.Name"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iface::catalog;
    use crate::protocol::Soap11;
    use crate::vsr::Vsr;
    use jini::{LookupService, ServiceTemplate};
    use simnet::Sim;

    fn jini_island(sim: &Sim) -> (Network, LookupService) {
        let net = Network::ethernet(sim);
        let reggie = LookupService::start(&net, "reggie", &["public"], SimDuration::from_secs(30));
        (net, reggie)
    }

    fn install_laserdisc(net: &Network) -> RegistrarClient {
        let exporter = RmiExporter::attach(net, "laserdisc");
        let playing = Arc::new(Mutex::new(false));
        let stub = exporter.export("LaserdiscPlayer", move |_, method, args| match method {
            "play" => {
                let chapter = args.first().and_then(JValue::as_int).unwrap_or(0);
                *playing.lock() = true;
                Ok(JValue::Str(format!("chapter {chapter}")))
            }
            "stop" => {
                *playing.lock() = false;
                Ok(JValue::Null)
            }
            "status" => Ok(JValue::Str(
                if *playing.lock() {
                    "playing"
                } else {
                    "stopped"
                }
                .into(),
            )),
            other => Err(format!("no method {other}")),
        });
        let node = net.attach("ld-join");
        let registrars = discover(net, node, "public");
        let client = RegistrarClient::new(net, node, registrars[0]);
        client
            .register(
                &ServiceItem::new(
                    stub,
                    vec!["LaserdiscPlayer".into()],
                    vec![Entry::name("laserdisc")],
                ),
                SimDuration::from_secs(300),
            )
            .unwrap();
        client
    }

    fn world() -> (Sim, Network, Vsg, JiniPcm) {
        let sim = Sim::new(1);
        let backbone = Network::ethernet(&sim);
        let vsr = Vsr::start(&backbone);
        let vsg = Vsg::start(&backbone, "jini-gw", Arc::new(Soap11::new()), vsr.node()).unwrap();
        let (jini_net, _reggie) = jini_island(&sim);
        install_laserdisc(&jini_net);
        let pcm = JiniPcm::start(&vsg, &jini_net, "public", InterfaceCatalog::standard()).unwrap();
        (sim, jini_net, vsg, pcm)
    }

    #[test]
    fn a_string_too_long_for_its_stream_is_refused_before_it_is_sent() {
        let (sim, jini_net, vsg, pcm) = world();
        let exporter = RmiExporter::attach(&jini_net, "display");
        let stub = exporter.export("Display", |_, _, args| {
            Ok(JValue::Int(
                args.first()
                    .and_then(JValue::as_str)
                    .map_or(0, |s| s.len() as i64),
            ))
        });
        let node = jini_net.attach("display-join");
        let registrar = discover(&jini_net, node, "public")[0];
        RegistrarClient::new(&jini_net, node, registrar)
            .register(
                &ServiceItem::new(stub, vec!["Display".into()], vec![Entry::name("wall")]),
                SimDuration::from_secs(300),
            )
            .unwrap();
        pcm.import_services().unwrap();
        let show = |len: usize| {
            vsg.invoke(
                &sim,
                "wall",
                "show",
                &[("text".into(), Value::Str("x".repeat(len)))],
            )
        };
        assert_eq!(show(65_535), Ok(Value::Int(65_535)));
        let frames = jini_net.with_stats(|s| s.protocol(simnet::Protocol::Jini).frames);
        let err = show(70_000).unwrap_err();
        assert!(
            err.to_string()
                .contains("a string of 70000 bytes is over the 65535 its length holds"),
            "{err}"
        );
        assert_eq!(
            jini_net.with_stats(|s| s.protocol(simnet::Protocol::Jini).frames),
            frames,
            "no frame was sent"
        );
    }

    #[test]
    fn client_proxy_imports_jini_service() {
        let (sim, _jini_net, vsg, pcm) = world();
        let names = pcm.import_services().unwrap();
        assert_eq!(names, vec!["laserdisc".to_owned()]);
        assert_eq!(pcm.imported(), names);

        // Invoke through the framework: canonical -> RMI conversion.
        let got = vsg
            .invoke(
                &sim,
                "laserdisc",
                "play",
                &[("chapter".into(), Value::Int(3))],
            )
            .unwrap();
        assert_eq!(got, Value::Str("chapter 3".into()));
        let got = vsg.invoke(&sim, "laserdisc", "status", &[]).unwrap();
        assert_eq!(got, Value::Str("playing".into()));
    }

    #[test]
    fn server_proxy_exposes_remote_service_to_jini_clients() {
        let (sim, jini_net, vsg, pcm) = world();
        // A "remote" service fronted by this same gateway (stands in for
        // an X10 lamp on another island).
        let switched = Arc::new(Mutex::new(false));
        let switched2 = switched.clone();
        vsg.export(
            VirtualService::new("hall-lamp", catalog::lamp(), Middleware::X10, vsg.name()),
            move |_: &Sim, op: &str, args: &[(String, Value)]| match op {
                "switch" => {
                    *switched2.lock() = args
                        .iter()
                        .find(|(k, _)| k == "on")
                        .and_then(|(_, v)| v.as_bool())
                        .unwrap_or(false);
                    Ok(Value::Null)
                }
                "status" => Ok(Value::Bool(*switched2.lock())),
                _ => Ok(Value::Null),
            },
        )
        .unwrap();

        let record = vsg.resolve("hall-lamp").unwrap();
        pcm.export_remote(&record).unwrap();
        assert_eq!(pcm.exported(), vec!["hall-lamp".to_owned()]);

        // An unmodified Jini client finds a Lamp and switches it.
        let client_node = jini_net.attach("legacy-client");
        let registrars = discover(&jini_net, client_node, "public");
        let client = RegistrarClient::new(&jini_net, client_node, registrars[0]);
        let found = client
            .lookup_one(&ServiceTemplate::by_interface("Lamp"))
            .unwrap();
        let proxy = RemoteProxy::new(&jini_net, client_node, found.proxy);
        proxy.invoke("switch", &[JValue::Bool(true)]).unwrap();
        assert!(*switched.lock());
        let status = proxy.invoke("status", &[]).unwrap();
        assert_eq!(status, JValue::Bool(true));
        let _ = sim;
    }

    #[test]
    fn import_skips_bridged_and_unknown_items() {
        let (_sim, jini_net, vsg, pcm) = world();
        // Export a remote into Jini, then re-import: the bridged item
        // must not echo back.
        vsg.export(
            VirtualService::new("hall-lamp", catalog::lamp(), Middleware::X10, vsg.name()),
            |_: &Sim, _: &str, _: &[(String, Value)]| Ok(Value::Null),
        )
        .unwrap();
        let record = vsg.resolve("hall-lamp").unwrap();
        pcm.export_remote(&record).unwrap();

        // An item with an unknown interface is skipped too.
        let exporter = RmiExporter::attach(&jini_net, "mystery");
        let stub = exporter.export("FluxCapacitor", |_, _, _| Ok(JValue::Null));
        pcm.registrar()
            .register(
                &ServiceItem::new(stub, vec!["FluxCapacitor".into()], vec![]),
                SimDuration::from_secs(300),
            )
            .unwrap();

        let names = pcm.import_services().unwrap();
        assert_eq!(names, vec!["laserdisc".to_owned()]);
    }

    #[test]
    fn value_conversion_round_trips() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Int(-3),
            Value::Float(2.5),
            Value::Str("x".into()),
            Value::Bytes(vec![1, 2]),
            Value::List(vec![Value::Int(1), Value::Str("a".into())]),
            Value::Record(vec![("k".into(), Value::Int(9))]),
        ] {
            assert_eq!(jvalue_to_value(value_to_jvalue(&v)), v);
        }
    }
}
