//! The UPnP PCM — the "new middleware joins effortlessly" proof (§5/§6).
//!
//! UPnP postdates the framework in the paper's narrative; connecting it
//! required only this file. Client Proxy: SSDP-discovered devices whose
//! service types are in the mapping table become VSG services. Server
//! Proxy: remote VSG services are hosted as real UPnP devices that any
//! unmodified control point can discover and drive.

use crate::error::MetaError;
use crate::iface::{OpSig, ServiceInterface, TypeTag};
use crate::intern::Name;
use crate::pcm::ProtocolConversionManager;
use crate::proxygen::{self, ProxyGenCost, ProxyTarget};
use crate::service::{Middleware, VirtualService};
use crate::trace::HopKind;
use crate::vsg::Vsg;
use crate::vsr::ServiceRecord;
use parking_lot::Mutex;
use simnet::{Network, Sim};
use soap::Value;
use std::fmt;
use std::sync::Arc;
use upnp::{ControlPoint, DeviceDescription, UpnpDevice, SSDP_ALL};

/// The standard `SwitchPower` service, as a canonical interface.
const SWITCH_POWER: &str = "urn:schemas-upnp-org:service:SwitchPower:1";
/// The standard `Dimming` service.
const DIMMING: &str = "urn:schemas-upnp-org:service:Dimming:1";

fn switch_power_interface() -> ServiceInterface {
    ServiceInterface::new("UpnpSwitchPower")
        .op(OpSig::new("switch").param("on", TypeTag::Bool))
        .op(OpSig::new("status").returns(TypeTag::Bool))
}

fn dimmable_light_interface() -> ServiceInterface {
    ServiceInterface::new("UpnpDimmableLight")
        .op(OpSig::new("switch").param("on", TypeTag::Bool))
        .op(OpSig::new("status").returns(TypeTag::Bool))
        .op(OpSig::new("set_level").param("level", TypeTag::Int))
        .op(OpSig::new("level").returns(TypeTag::Int))
}

/// A mapped UPnP invocation: the target service type, the action name,
/// and the action's named arguments.
type UpnpAction = (&'static str, String, Vec<(String, Value)>);

/// Maps a canonical op to `(service-type, action, action-args)`.
fn op_to_action(op: &str, args: &[(String, Value)]) -> Option<UpnpAction> {
    match op {
        "switch" => {
            let on = args.iter().find(|(k, _)| k == "on")?.1.clone();
            Some((
                SWITCH_POWER,
                "SetTarget".into(),
                vec![("NewTargetValue".into(), on)],
            ))
        }
        "status" => Some((SWITCH_POWER, "GetStatus".into(), vec![])),
        "set_level" => {
            let level = args.iter().find(|(k, _)| k == "level")?.1.clone();
            Some((
                DIMMING,
                "SetLoadLevelTarget".into(),
                vec![("NewLoadLevelTarget".into(), level)],
            ))
        }
        "level" => Some((DIMMING, "GetLoadLevelStatus".into(), vec![])),
        _ => None,
    }
}

/// The UPnP Protocol Conversion Manager.
pub struct UpnpPcm {
    vsg: Vsg,
    net: Network,
    cp: ControlPoint,
    imported: Arc<Mutex<Vec<String>>>,
    exported: Arc<Mutex<Vec<Name>>>,
    hosted: Arc<Mutex<Vec<UpnpDevice>>>,
}

impl UpnpPcm {
    /// Starts the PCM with a control point on the UPnP network.
    pub fn start(vsg: &Vsg, upnp_net: &Network) -> UpnpPcm {
        UpnpPcm {
            vsg: vsg.clone(),
            net: upnp_net.clone(),
            cp: ControlPoint::new(upnp_net, "upnp-pcm"),
            imported: Arc::new(Mutex::new(Vec::new())),
            exported: Arc::new(Mutex::new(Vec::new())),
            hosted: Arc::new(Mutex::new(Vec::new())),
        }
    }

    // ---- Client Proxy: UPnP devices -> VSG ----------------------------------

    /// Discovers devices and exports every `SwitchPower`-capable one.
    pub fn import_services(&self) -> Result<Vec<String>, MetaError> {
        let sim = self.net.sim().clone();
        let mut names = Vec::new();
        for hit in self.cp.discover(SSDP_ALL) {
            // Skip devices we host ourselves (bridge echo).
            if hit.usn.starts_with("uuid:vsg-bridge-") {
                continue;
            }
            let desc = self
                .cp
                .describe(&hit)
                .map_err(|e| MetaError::native("upnp", e))?;
            let Some(svc) = desc.find_service(SWITCH_POWER) else {
                continue;
            };
            let name = desc
                .friendly_name
                .to_lowercase()
                .replace(char::is_whitespace, "-");
            let dimming_url = desc.find_service(DIMMING).map(|d| d.control_url.clone());
            let iface = if dimming_url.is_some() {
                dimmable_light_interface()
            } else {
                switch_power_interface()
            };
            let target = self.action_target(hit.node, svc.control_url.clone(), dimming_url);
            let proxy = proxygen::generate(&sim, ProxyGenCost::default(), &iface, target);
            self.vsg.export(
                VirtualService::new(&name, iface, Middleware::Upnp, self.vsg.name()),
                proxy,
            )?;
            self.imported.lock().push(name.clone());
            names.push(name);
        }
        Ok(names)
    }

    fn action_target(
        &self,
        device: simnet::NodeId,
        switch_url: String,
        dimming_url: Option<String>,
    ) -> ProxyTarget {
        let cp = self.cp.clone();
        let vsg = self.vsg.clone();
        Arc::new(move |sim, op, args| {
            let (service_type, action, action_args) =
                op_to_action(op, args).ok_or_else(|| MetaError::UnknownOperation {
                    service: "upnp-device".into(),
                    operation: op.to_owned(),
                })?;
            let url = if service_type == DIMMING {
                dimming_url
                    .as_deref()
                    .ok_or_else(|| MetaError::native("upnp", "device has no Dimming service"))?
            } else {
                &switch_url
            };
            let refs: Vec<(&str, Value)> = action_args
                .iter()
                .map(|(k, v)| (k.as_str(), v.clone()))
                .collect();
            let scope = vsg.scope(sim, HopKind::PcmConvert, || format!("upnp {action}"));
            let result = cp
                .invoke(device, url, service_type, &action, &refs)
                .map_err(|e| MetaError::native("upnp", e));
            scope.finish(&result);
            result
        })
    }

    // ---- Server Proxy: VSG services -> UPnP ---------------------------------

    /// Hosts one remote VSG service as a UPnP device. Its single service
    /// type is `urn:vsg-bridge:service:<Interface>:1`, with one SOAP
    /// action per canonical operation (named arguments preserved).
    pub fn export_remote(&self, record: &ServiceRecord) -> Result<(), MetaError> {
        let service_type = format!("urn:vsg-bridge:service:{}:1", record.interface.name);
        let desc = DeviceDescription::new(
            format!("urn:vsg-bridge:device:{}:1", record.interface.name),
            record.name.clone(),
            format!("uuid:vsg-bridge-{}", record.name),
        )
        .service(
            &service_type,
            &format!("urn:vsg-bridge:serviceId:{}", record.interface.name),
        );
        let device = UpnpDevice::install(&self.net, desc);
        let vsg = self.vsg.clone();
        let service_name = record.name.clone();
        device.implement(&service_type, move |sim: &Sim, action: &str, args| {
            let named: Vec<(String, Value)> =
                args.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
            // A control-point action arrives from outside any framework
            // call: each starts a fresh trace.
            let scope = vsg.root_scope(sim, HopKind::PcmConvert, || {
                format!("upnp-bridge {service_name}.{action}")
            });
            let result = vsg.invoke(sim, &service_name, action, &named);
            scope.finish(&result);
            result.map_err(|e| e.to_string())
        });
        self.hosted.lock().push(device);
        self.exported.lock().push(record.name.clone());
        Ok(())
    }
}

impl ProtocolConversionManager for UpnpPcm {
    fn middleware(&self) -> Middleware {
        Middleware::Upnp
    }

    fn imported(&self) -> Vec<String> {
        self.imported.lock().clone()
    }

    fn exported(&self) -> Vec<Name> {
        self.exported.lock().clone()
    }
}

impl fmt::Debug for UpnpPcm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("UpnpPcm")
            .field("imported", &self.imported.lock().len())
            .field("exported", &self.exported.lock().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iface::catalog;
    use crate::protocol::Soap11;
    use crate::vsr::Vsr;

    fn world() -> (Sim, Network, Vsg, UpnpPcm) {
        let sim = Sim::new(1);
        let backbone = Network::ethernet(&sim);
        let vsr = Vsr::start(&backbone);
        let vsg = Vsg::start(&backbone, "upnp-gw", Arc::new(Soap11::new()), vsr.node()).unwrap();
        let upnp_net = Network::ethernet(&sim);
        let pcm = UpnpPcm::start(&vsg, &upnp_net);
        (sim, upnp_net, vsg, pcm)
    }

    fn install_light(net: &Network, name: &str) -> Arc<Mutex<bool>> {
        let desc = DeviceDescription::new(
            "urn:schemas-upnp-org:device:BinaryLight:1",
            name,
            format!("uuid:{name}"),
        )
        .service(SWITCH_POWER, "urn:upnp-org:serviceId:SwitchPower");
        let dev = UpnpDevice::install(net, desc);
        let on = Arc::new(Mutex::new(false));
        let on2 = on.clone();
        dev.implement(SWITCH_POWER, move |_, action, args| match action {
            "SetTarget" => {
                *on2.lock() = args
                    .iter()
                    .find(|(k, _)| k == "NewTargetValue")
                    .and_then(|(_, v)| v.as_bool())
                    .ok_or("missing NewTargetValue")?;
                Ok(Value::Null)
            }
            "GetStatus" => Ok(Value::Bool(*on2.lock())),
            other => Err(format!("no action {other}")),
        });
        on
    }

    #[test]
    fn client_proxy_imports_upnp_light() {
        let (sim, net, vsg, pcm) = world();
        let on = install_light(&net, "Porch Light");
        let names = pcm.import_services().unwrap();
        assert_eq!(names, vec!["porch-light".to_owned()]);

        vsg.invoke(
            &sim,
            "porch-light",
            "switch",
            &[("on".into(), Value::Bool(true))],
        )
        .unwrap();
        assert!(*on.lock());
        assert_eq!(
            vsg.invoke(&sim, "porch-light", "status", &[]).unwrap(),
            Value::Bool(true)
        );
    }

    #[test]
    fn server_proxy_hosts_bridge_device() {
        let (sim, net, vsg, pcm) = world();
        // A fridge from the Jini island, as seen in the VSR.
        vsg.export(
            VirtualService::new("fridge", catalog::fridge(), Middleware::Jini, vsg.name()),
            move |_: &Sim, op: &str, _: &[(String, Value)]| match op {
                "temperature" => Ok(Value::Float(4.5)),
                _ => Ok(Value::Null),
            },
        )
        .unwrap();
        pcm.export_remote(&vsg.resolve("fridge").unwrap()).unwrap();

        // An unmodified UPnP control point discovers and calls it.
        let cp = ControlPoint::new(&net, "legacy-cp");
        let hits = cp.discover("urn:vsg-bridge:device:Fridge:1");
        assert_eq!(hits.len(), 1);
        let desc = cp.describe(&hits[0]).unwrap();
        let svc = &desc.services[0];
        let t = cp
            .invoke(
                hits[0].node,
                &svc.control_url,
                &svc.service_type,
                "temperature",
                &[],
            )
            .unwrap();
        assert_eq!(t, Value::Float(4.5));
        let _ = sim;
    }

    #[test]
    fn bridge_devices_are_not_reimported() {
        let (_sim, _net, vsg, pcm) = world();
        vsg.export(
            VirtualService::new("fridge", catalog::fridge(), Middleware::Jini, vsg.name()),
            |_: &Sim, _: &str, _: &[(String, Value)]| Ok(Value::Null),
        )
        .unwrap();
        pcm.export_remote(&vsg.resolve("fridge").unwrap()).unwrap();
        assert!(pcm.import_services().unwrap().is_empty());
    }

    #[test]
    fn devices_without_known_services_are_skipped() {
        let (_sim, net, _vsg, pcm) = world();
        let desc = DeviceDescription::new(
            "urn:schemas-upnp-org:device:Exotic:1",
            "Mystery Box",
            "uuid:mystery",
        )
        .service(
            "urn:vendor:service:Strange:1",
            "urn:vendor:serviceId:Strange",
        );
        UpnpDevice::install(&net, desc);
        assert!(pcm.import_services().unwrap().is_empty());
    }
}

#[cfg(test)]
mod dimming_tests {
    use super::*;
    use upnp::DeviceDescription;

    const LIGHT_DEV: &str = "urn:schemas-upnp-org:device:DimmableLight:1";

    fn world() -> (Sim, Network, Vsg, UpnpPcm) {
        let sim = Sim::new(1);
        let backbone = Network::ethernet(&sim);
        let vsr = crate::vsr::Vsr::start(&backbone);
        let vsg = Vsg::start(
            &backbone,
            "upnp-gw",
            Arc::new(crate::protocol::Soap11::new()),
            vsr.node(),
        )
        .unwrap();
        let upnp_net = Network::ethernet(&sim);
        let pcm = UpnpPcm::start(&vsg, &upnp_net);
        (sim, upnp_net, vsg, pcm)
    }

    fn install_dimmable(net: &Network) -> Arc<Mutex<(bool, i64)>> {
        let desc = DeviceDescription::new(LIGHT_DEV, "Bedroom Light", "uuid:bedroom")
            .service(SWITCH_POWER, "urn:upnp-org:serviceId:SwitchPower")
            .service(DIMMING, "urn:upnp-org:serviceId:Dimming");
        let dev = UpnpDevice::install(net, desc);
        let state = Arc::new(Mutex::new((false, 100i64)));
        let s1 = state.clone();
        dev.implement(SWITCH_POWER, move |_, action, args| match action {
            "SetTarget" => {
                s1.lock().0 = args
                    .iter()
                    .find(|(k, _)| k == "NewTargetValue")
                    .and_then(|(_, v)| v.as_bool())
                    .ok_or("missing NewTargetValue")?;
                Ok(Value::Null)
            }
            "GetStatus" => Ok(Value::Bool(s1.lock().0)),
            other => Err(format!("no action {other}")),
        });
        let s2 = state.clone();
        dev.implement(DIMMING, move |_, action, args| match action {
            "SetLoadLevelTarget" => {
                s2.lock().1 = args
                    .iter()
                    .find(|(k, _)| k == "NewLoadLevelTarget")
                    .and_then(|(_, v)| v.as_int())
                    .ok_or("missing NewLoadLevelTarget")?;
                Ok(Value::Null)
            }
            "GetLoadLevelStatus" => Ok(Value::Int(s2.lock().1)),
            other => Err(format!("no action {other}")),
        });
        state
    }

    #[test]
    fn dimmable_devices_get_the_richer_interface() {
        let (sim, net, vsg, pcm) = world();
        let state = install_dimmable(&net);
        let names = pcm.import_services().unwrap();
        assert_eq!(names, vec!["bedroom-light".to_owned()]);

        // The record carries the dimmable interface.
        let rec = vsg.resolve("bedroom-light").unwrap();
        assert_eq!(rec.interface.name, "UpnpDimmableLight");
        assert!(rec.interface.find("set_level").is_some());

        vsg.invoke(
            &sim,
            "bedroom-light",
            "switch",
            &[("on".into(), Value::Bool(true))],
        )
        .unwrap();
        vsg.invoke(
            &sim,
            "bedroom-light",
            "set_level",
            &[("level".into(), Value::Int(40))],
        )
        .unwrap();
        assert_eq!(*state.lock(), (true, 40));
        assert_eq!(
            vsg.invoke(&sim, "bedroom-light", "level", &[]).unwrap(),
            Value::Int(40)
        );
    }

    #[test]
    fn plain_switches_reject_dimming_ops() {
        let (sim, net, vsg, pcm) = world();
        let desc = DeviceDescription::new(
            "urn:schemas-upnp-org:device:BinaryLight:1",
            "Plain Light",
            "uuid:plain",
        )
        .service(SWITCH_POWER, "urn:upnp-org:serviceId:SwitchPower");
        let dev = UpnpDevice::install(&net, desc);
        dev.implement(SWITCH_POWER, |_, action, _| match action {
            "GetStatus" => Ok(Value::Bool(false)),
            _ => Ok(Value::Null),
        });
        pcm.import_services().unwrap();
        // The plain light's interface has no set_level, so the gateway's
        // type layer rejects it before any UPnP traffic.
        let err = vsg
            .invoke(
                &sim,
                "plain-light",
                "set_level",
                &[("level".into(), Value::Int(10))],
            )
            .unwrap_err();
        assert!(matches!(err, MetaError::UnknownOperation { .. }), "{err}");
    }
}
