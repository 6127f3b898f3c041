//! The HAVi PCM.
//!
//! Client Proxy: harvests FCMs from the HAVi Registry and exports each
//! to the VSG; canonical invocations become HAVi messages with compact
//! binary parameters.
//!
//! Server Proxy: registers a *bridge software element* per remote VSG
//! service. HAVi controllers message it with the bridge API (operation
//! index + positional parameters) exactly like any other software
//! element; the element converts and forwards over the VSG.

use crate::error::MetaError;
use crate::iface::{OpSig, ServiceInterface, TypeTag};
use crate::intern::Name;
use crate::pcm::ProtocolConversionManager;
use crate::proxygen::{self, ProxyGenCost, ProxyTarget};
use crate::service::{Middleware, VirtualService};
use crate::trace::HopKind;
use crate::vsg::Vsg;
use crate::vsr::ServiceRecord;
use havi::{
    attr, oper, DdiElement, DdiPanel, FcmKind, HValue, HaviError, HaviStatus, MessagingSystem,
    OpCode, RegistryClient, Seid,
};
use parking_lot::Mutex;
use simnet::Network;
use soap::Value;
use std::fmt;
use std::sync::Arc;

/// The bridge software element's API class (outside HAVi's reserved
/// range; carried by Server Proxy elements).
const API_VSG_BRIDGE: u16 = 0x0200;

/// The canonical interface of each FCM device class, mirroring the
/// operations `havi::fcm` actually implements.
fn fcm_interface(kind: FcmKind) -> ServiceInterface {
    match kind {
        FcmKind::Vcr => ServiceInterface::new("HaviVcr")
            .op(OpSig::new("play"))
            .op(OpSig::new("stop"))
            .op(OpSig::new("record"))
            .op(OpSig::new("wind"))
            .op(OpSig::new("rewind"))
            .op(OpSig::new("status").returns(TypeTag::Str))
            .op(OpSig::new("position").returns(TypeTag::Int)),
        FcmKind::DvCamera => ServiceInterface::new("HaviDvCamera")
            .op(OpSig::new("play"))
            .op(OpSig::new("stop"))
            .op(OpSig::new("record"))
            .op(OpSig::new("status").returns(TypeTag::Str))
            .op(OpSig::new("capture").returns(TypeTag::Int)),
        FcmKind::Tuner => ServiceInterface::new("HaviTuner")
            .op(OpSig::new("set_channel").param("channel", TypeTag::Int))
            .op(OpSig::new("channel").returns(TypeTag::Int)),
        FcmKind::Display => {
            ServiceInterface::new("HaviDisplay").op(OpSig::new("show").param("text", TypeTag::Str))
        }
        FcmKind::Amplifier => ServiceInterface::new("HaviAmplifier")
            .op(OpSig::new("set_volume").param("volume", TypeTag::Int))
            .op(OpSig::new("volume").returns(TypeTag::Int)),
    }
}

fn kind_from_class(class: &str) -> Option<FcmKind> {
    match class {
        "vcr" => Some(FcmKind::Vcr),
        "dv-camera" => Some(FcmKind::DvCamera),
        "tuner" => Some(FcmKind::Tuner),
        "display" => Some(FcmKind::Display),
        "amplifier" => Some(FcmKind::Amplifier),
        _ => None,
    }
}

/// Maps one canonical operation to the FCM wire call.
fn op_to_fcm(kind: FcmKind, op: &str, args: &[(String, Value)]) -> Option<(OpCode, Vec<HValue>)> {
    let api = kind.api_code();
    let arg_int = |name: &str| -> Option<u32> {
        args.iter()
            .find(|(k, _)| k == name)
            .and_then(|(_, v)| v.as_int())
            .and_then(|i| u32::try_from(i).ok())
    };
    let code = match op {
        "play" => (OpCode::new(api, oper::PLAY), vec![]),
        "stop" => (OpCode::new(api, oper::STOP), vec![]),
        "record" => (OpCode::new(api, oper::RECORD), vec![]),
        "wind" => (OpCode::new(api, oper::WIND), vec![]),
        "rewind" => (OpCode::new(api, oper::REWIND), vec![]),
        "status" | "position" => (OpCode::new(api, oper::STATUS), vec![]),
        "set_channel" => (
            OpCode::new(api, oper::SET_CHANNEL),
            vec![HValue::U16(arg_int("channel")? as u16)],
        ),
        "channel" => (OpCode::new(api, oper::GET_CHANNEL), vec![]),
        "show" => (
            OpCode::new(api, oper::SHOW_OSD),
            vec![HValue::Str(
                args.iter()
                    .find(|(k, _)| k == "text")?
                    .1
                    .as_str()?
                    .to_owned(),
            )],
        ),
        "set_volume" => (
            OpCode::new(api, oper::SET_VOLUME),
            vec![HValue::U8(arg_int("volume")? as u8)],
        ),
        "volume" => (OpCode::new(api, oper::GET_VOLUME), vec![]),
        "capture" => (OpCode::new(api, oper::CAPTURE), vec![]),
        _ => return None,
    };
    Some(code)
}

/// Reads an FCM's reply parameters as the operation's canonical result,
/// moving a status string out of the reply instead of copying it.
fn fcm_reply_to_value(op: &str, params: Vec<HValue>) -> Value {
    match op {
        "status" => match params.into_iter().next() {
            Some(HValue::Str(s)) => Value::Str(s),
            _ => Value::Null,
        },
        "position" => params
            .get(1)
            .and_then(HValue::as_u32)
            .map(|p| Value::Int(i64::from(p)))
            .unwrap_or(Value::Null),
        "channel" | "volume" | "capture" => params
            .first()
            .and_then(HValue::as_u32)
            .map(|p| Value::Int(i64::from(p)))
            .unwrap_or(Value::Null),
        _ => Value::Null,
    }
}

/// Converts canonical values to positional HAVi parameters (Server Proxy
/// inbound direction).
fn value_to_hvalue(v: &Value) -> HValue {
    match v {
        Value::Bool(b) => HValue::Bool(*b),
        Value::Int(i) => HValue::U32(*i as u32),
        Value::Str(s) => HValue::Str(s.clone()),
        Value::Bytes(b) => HValue::Bytes(b.clone()),
        other => HValue::Str(other.to_string()),
    }
}

/// Converts a HAVi parameter to a canonical value under a declared type.
fn hvalue_to_value(h: &HValue, ty: TypeTag) -> Value {
    match (ty, h) {
        (TypeTag::Bool, HValue::Bool(b)) => Value::Bool(*b),
        // HAVi's parameter encoding has no float type; floats travel as
        // decimal strings and are re-typed here.
        (TypeTag::Float, HValue::Str(s)) => {
            s.parse::<f64>().map(Value::Float).unwrap_or(Value::Null)
        }
        (TypeTag::Float, other) => other
            .as_u32()
            .map(|u| Value::Float(f64::from(u)))
            .unwrap_or(Value::Null),
        (TypeTag::Int, _) => h
            .as_u32()
            .map(|u| Value::Int(i64::from(u)))
            .unwrap_or(Value::Null),
        (TypeTag::Str, HValue::Str(s)) => Value::Str(s.clone()),
        (TypeTag::Bytes, HValue::Bytes(b)) => Value::Bytes(b.clone()),
        (_, HValue::Bool(b)) => Value::Bool(*b),
        (_, HValue::Str(s)) => Value::Str(s.clone()),
        (_, HValue::Bytes(b)) => Value::Bytes(b.clone()),
        (_, other) => other
            .as_u32()
            .map(|u| Value::Int(i64::from(u)))
            .unwrap_or(Value::Null),
    }
}

/// The HAVi Protocol Conversion Manager.
pub struct HaviPcm {
    vsg: Vsg,
    net: Network,
    ms: MessagingSystem,
    control: Seid,
    registry: RegistryClient,
    imported: Arc<Mutex<Vec<String>>>,
    imported_fcms: Arc<Mutex<std::collections::HashMap<String, (FcmKind, Seid)>>>,
    exported: Arc<Mutex<Vec<Name>>>,
}

impl HaviPcm {
    /// Starts the PCM on the HAVi island, attaching its own node to the
    /// 1394 bus and locating the registry at `registry_seid`.
    pub fn start(vsg: &Vsg, havi_net: &Network, registry_seid: Seid) -> HaviPcm {
        let ms = MessagingSystem::attach(havi_net, "havi-pcm");
        let control = ms.register_element(|_, _| (HaviStatus::Success, vec![]));
        let registry = RegistryClient::new(&ms, control.handle, registry_seid);
        HaviPcm {
            vsg: vsg.clone(),
            net: havi_net.clone(),
            ms,
            control,
            registry,
            imported: Arc::new(Mutex::new(Vec::new())),
            imported_fcms: Arc::new(Mutex::new(std::collections::HashMap::new())),
            exported: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// The native FCM behind an imported service (kind and SEID) — used
    /// by the AV meta-middleware to set up native data paths (§6).
    pub fn fcm_of(&self, service: &str) -> Option<(FcmKind, Seid)> {
        self.imported_fcms.lock().get(service).copied()
    }

    /// The PCM's messaging system (for tests and examples).
    pub fn messaging(&self) -> &MessagingSystem {
        &self.ms
    }

    // ---- Client Proxy: HAVi FCMs -> VSG -------------------------------------

    /// Harvests FCMs from the registry and exports each to the VSG.
    pub fn import_services(&self) -> Result<Vec<String>, MetaError> {
        let sim = self.net.sim().clone();
        let entries = self
            .registry
            .query(&[(attr::SE_TYPE, "fcm")])
            .map_err(|e| MetaError::native("havi", e))?;
        let mut names = Vec::new();
        for entry in entries {
            // Skip our own bridge elements.
            if entry.attributes.contains_key("ATT_VSG_BRIDGE") {
                continue;
            }
            let Some(kind) = entry
                .attributes
                .get(attr::DEVICE_CLASS)
                .and_then(|c| kind_from_class(c))
            else {
                continue;
            };
            let name = entry
                .attributes
                .get(attr::NAME)
                .cloned()
                .unwrap_or_else(|| format!("havi-{}", entry.seid));
            let iface = fcm_interface(kind);
            let target = self.fcm_target(kind, entry.seid);
            let proxy = proxygen::generate(&sim, ProxyGenCost::default(), &iface, target);
            self.vsg.export(
                VirtualService::new(&name, iface, Middleware::Havi, self.vsg.name()),
                proxy,
            )?;
            self.imported.lock().push(name.clone());
            self.imported_fcms
                .lock()
                .insert(name.clone(), (kind, entry.seid));
            names.push(name);
        }
        Ok(names)
    }

    fn fcm_target(&self, kind: FcmKind, fcm: Seid) -> ProxyTarget {
        let ms = self.ms.clone();
        let control = self.control;
        let vsg = self.vsg.clone();
        Arc::new(move |sim, op, args| {
            let (opcode, params) =
                op_to_fcm(kind, op, args).ok_or_else(|| MetaError::UnknownOperation {
                    service: kind.device_class().to_owned(),
                    operation: op.to_owned(),
                })?;
            let scope = vsg.scope(sim, HopKind::PcmConvert, || format!("havi {op}"));
            let result = ms
                .send_ok(control.handle, fcm, opcode, params)
                .map_err(|e: HaviError| MetaError::native("havi", e))
                .map(|reply| fcm_reply_to_value(op, reply));
            scope.finish(&result);
            result
        })
    }

    // ---- Server Proxy: VSG services -> HAVi ---------------------------------

    /// Exports one remote VSG service as a bridge software element,
    /// advertised in the HAVi registry. Returns its SEID.
    pub fn export_remote(&self, record: &ServiceRecord) -> Result<Seid, MetaError> {
        let vsg = self.vsg.clone();
        let iface = record.interface.clone();
        let service_name = record.name.clone();
        let seid = self.ms.register_element(move |sim, msg| {
            if msg.opcode.api != API_VSG_BRIDGE {
                return (HaviStatus::EUnsupported, vec![]);
            }
            let Some(sig) = iface.operations.get(msg.opcode.oper as usize) else {
                return (HaviStatus::EUnsupported, vec![]);
            };
            let args: Vec<(String, Value)> = sig
                .params
                .iter()
                .zip(&msg.params)
                .map(|((name, ty), h)| (name.as_str().to_owned(), hvalue_to_value(h, *ty)))
                .collect();
            if args.len() != sig.params.len() {
                return (HaviStatus::EParameter, vec![]);
            }
            // Messages from native HAVi controllers arrive from outside
            // any framework call: each starts a fresh trace.
            let scope = vsg.root_scope(sim, HopKind::PcmConvert, || {
                format!("havi-bridge {service_name}.{}", sig.name)
            });
            let result = vsg.invoke(sim, &service_name, &sig.name, &args);
            scope.finish(&result);
            match result {
                Ok(Value::Null) => (HaviStatus::Success, vec![]),
                Ok(v) => (HaviStatus::Success, vec![value_to_hvalue(&v)]),
                Err(_) => (HaviStatus::ENetwork, vec![]),
            }
        });
        self.registry
            .register(
                seid,
                &[
                    (attr::SE_TYPE, "fcm"),
                    (attr::NAME, &record.name),
                    ("ATT_VSG_BRIDGE", record.middleware.label()),
                    (attr::DEVICE_CLASS, &record.interface.name.to_lowercase()),
                ],
            )
            .map_err(|e| MetaError::native("havi", e))?;
        self.exported.lock().push(record.name.clone());
        Ok(seid)
    }

    /// Exports a remote service *and* serves a DDI panel for it, so the
    /// TV GUI can render and drive it with zero device-specific code
    /// (§1: "we want to control these appliances from the GUI of the
    /// digital TV"). Buttons are generated for every zero-argument
    /// operation, and an on/off button pair for every operation taking a
    /// single boolean.
    pub fn export_remote_with_panel(
        &self,
        record: &ServiceRecord,
    ) -> Result<(Seid, DdiPanel), MetaError> {
        let bridge = self.export_remote(record)?;

        // Build the action table and the UI tree together.
        let mut actions: Vec<(String, Vec<(String, Value)>)> = Vec::new();
        let mut children = vec![DdiElement::Text {
            label: "origin".into(),
            value: format!("{} via {}", record.middleware, record.gateway),
        }];
        for op in &record.interface.operations {
            match op.params.as_slice() {
                [] => {
                    children.push(DdiElement::Button {
                        id: actions.len() as u16,
                        label: op.name.as_str().to_owned(),
                    });
                    actions.push((op.name.as_str().to_owned(), vec![]));
                }
                [(pname, crate::iface::TypeTag::Bool)] => {
                    for (suffix, v) in [("on", true), ("off", false)] {
                        children.push(DdiElement::Button {
                            id: actions.len() as u16,
                            label: format!("{} {}", op.name, suffix),
                        });
                        actions.push((
                            op.name.as_str().to_owned(),
                            vec![(pname.as_str().to_owned(), Value::Bool(v))],
                        ));
                    }
                }
                _ => {} // parameterised ops need a richer UI than DDI buttons
            }
        }
        let tree = DdiElement::Panel {
            title: record.name.to_string(),
            children,
        };

        let vsg = self.vsg.clone();
        let service = record.name.clone();
        let panel = DdiPanel::install(&self.ms, tree, move |sim, id| {
            if let Some((op, args)) = actions.get(id as usize) {
                // A TV-GUI button press starts a fresh trace.
                let scope = vsg.root_scope(sim, HopKind::PcmConvert, || {
                    format!("ddi-press {service}.{op}")
                });
                let result = vsg.invoke(sim, &service, op, args);
                scope.finish(&result);
            }
        });
        self.registry
            .register(
                panel.seid(),
                &[
                    (attr::SE_TYPE, "ddi-panel"),
                    (attr::NAME, &record.name),
                    ("ATT_VSG_BRIDGE", record.middleware.label()),
                ],
            )
            .map_err(|e| MetaError::native("havi", e))?;
        Ok((bridge, panel))
    }

    /// Exports every non-HAVi service currently in the VSR.
    pub fn export_all_remote(&self) -> Result<Vec<Name>, MetaError> {
        let mut done = Vec::new();
        for record in self.vsg.vsr().find("%", None)? {
            if record.middleware == Middleware::Havi || self.exported.lock().contains(&record.name)
            {
                continue;
            }
            self.export_remote(&record)?;
            done.push(record.name);
        }
        Ok(done)
    }
}

/// A helper for *native* HAVi controllers calling a bridged service: the
/// Server Proxy's wire contract, packaged.
#[derive(Debug, Clone)]
pub struct HaviBridgeClient {
    ms: MessagingSystem,
    src_handle: u32,
    bridge: Seid,
    interface: Arc<ServiceInterface>,
}

impl HaviBridgeClient {
    /// Wraps a bridge element found in the registry. The interface is
    /// shared (`Arc`) so wrapping a resolved [`ServiceRecord`]'s
    /// interface costs no clone of the operation table.
    pub fn new(
        ms: &MessagingSystem,
        src_handle: u32,
        bridge: Seid,
        interface: Arc<ServiceInterface>,
    ) -> HaviBridgeClient {
        HaviBridgeClient {
            ms: ms.clone(),
            src_handle,
            bridge,
            interface,
        }
    }

    /// Calls `op` with positional canonical args.
    pub fn call(&self, op: &str, args: &[Value]) -> Result<Value, MetaError> {
        let idx = self
            .interface
            .operations
            .iter()
            .position(|o| o.name == op)
            .ok_or_else(|| MetaError::UnknownOperation {
                service: self.interface.name.to_string(),
                operation: op.to_owned(),
            })?;
        let sig = &self.interface.operations[idx];
        let params: Vec<HValue> = args.iter().map(value_to_hvalue).collect();
        let reply = self
            .ms
            .send_ok(
                self.src_handle,
                self.bridge,
                OpCode::new(API_VSG_BRIDGE, idx as u16),
                params,
            )
            .map_err(|e| MetaError::native("havi", e))?;
        Ok(match (sig.returns, reply.first()) {
            (Some(ty), Some(h)) => hvalue_to_value(h, ty),
            _ => Value::Null,
        })
    }
}

impl ProtocolConversionManager for HaviPcm {
    fn middleware(&self) -> Middleware {
        Middleware::Havi
    }

    fn imported(&self) -> Vec<String> {
        self.imported.lock().clone()
    }

    fn exported(&self) -> Vec<Name> {
        self.exported.lock().clone()
    }
}

impl fmt::Debug for HaviPcm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HaviPcm")
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
    use havi::{Dcm, Registry};
    use simnet::Sim;

    fn world() -> (Sim, Network, Vsg, HaviPcm, Registry) {
        let sim = Sim::new(1);
        let backbone = Network::ethernet(&sim);
        let vsr = Vsr::start(&backbone);
        let vsg = Vsg::start(&backbone, "havi-gw", Arc::new(Soap11::new()), vsr.node()).unwrap();
        let bus = Network::ieee1394(&sim);
        let fav = MessagingSystem::attach(&bus, "fav");
        let registry = Registry::start(&fav);
        let pcm = HaviPcm::start(&vsg, &bus, registry.seid());
        (sim, bus, vsg, pcm, registry)
    }

    #[test]
    fn client_proxy_imports_fcms() {
        let (sim, bus, vsg, pcm, registry) = world();
        let mut camcorder = Dcm::install(
            &bus,
            "camcorder",
            7,
            &[(FcmKind::DvCamera, "dv-camera"), (FcmKind::Vcr, "dv-tape")],
            None,
        );
        camcorder.announce(registry.seid()).unwrap();

        let mut names = pcm.import_services().unwrap();
        names.sort();
        assert_eq!(names, vec!["dv-camera".to_owned(), "dv-tape".to_owned()]);

        // Drive the camera through the framework.
        vsg.invoke(&sim, "dv-camera", "record", &[]).unwrap();
        assert_eq!(
            camcorder.fcm(FcmKind::DvCamera).unwrap().state().transport,
            havi::TransportState::Recording
        );
        let shot = vsg.invoke(&sim, "dv-camera", "capture", &[]).unwrap();
        assert_eq!(shot, Value::Int(1));
        let status = vsg.invoke(&sim, "dv-camera", "status", &[]).unwrap();
        assert_eq!(status, Value::Str("recording".into()));
    }

    #[test]
    fn tuner_arguments_convert() {
        let (sim, bus, vsg, pcm, registry) = world();
        let mut tv = Dcm::install(&bus, "tv", 9, &[(FcmKind::Tuner, "tv-tuner")], None);
        tv.announce(registry.seid()).unwrap();
        pcm.import_services().unwrap();

        vsg.invoke(
            &sim,
            "tv-tuner",
            "set_channel",
            &[("channel".into(), Value::Int(42))],
        )
        .unwrap();
        let ch = vsg.invoke(&sim, "tv-tuner", "channel", &[]).unwrap();
        assert_eq!(ch, Value::Int(42));
    }

    #[test]
    fn server_proxy_makes_remote_service_native() {
        let (_sim, _bus, vsg, pcm, _registry) = world();
        // Stand-in for a Jini fridge on another island.
        let temp = Arc::new(Mutex::new(4.0f64));
        let temp2 = temp.clone();
        vsg.export(
            VirtualService::new("fridge", catalog::fridge(), Middleware::Jini, vsg.name()),
            move |_: &Sim, op: &str, args: &[(String, Value)]| match op {
                "temperature" => Ok(Value::Float(*temp2.lock())),
                "set_target" => {
                    if let Some((_, Value::Float(c))) = args.first() {
                        *temp2.lock() = *c;
                    }
                    Ok(Value::Null)
                }
                _ => Ok(Value::Null),
            },
        )
        .unwrap();

        let record = vsg.resolve("fridge").unwrap();
        let bridge_seid = pcm.export_remote(&record).unwrap();

        // A native HAVi controller (the TV GUI of §1) calls the fridge.
        let tv = &pcm.ms; // reuse the bus
        let me = tv.register_element(|_, _| (HaviStatus::Success, vec![]));
        let client = HaviBridgeClient::new(tv, me.handle, bridge_seid, record.interface.clone());
        let t = client.call("temperature", &[]).unwrap();
        assert_eq!(t, Value::Float(4.0));
        assert!(matches!(
            client.call("defrost", &[]),
            Err(MetaError::UnknownOperation { .. })
        ));
    }

    #[test]
    fn bridge_elements_are_not_reimported() {
        let (_sim, _bus, vsg, pcm, _registry) = world();
        vsg.export(
            VirtualService::new("fridge", catalog::fridge(), Middleware::Jini, vsg.name()),
            |_: &Sim, _: &str, _: &[(String, Value)]| Ok(Value::Null),
        )
        .unwrap();
        pcm.export_remote(&vsg.resolve("fridge").unwrap()).unwrap();
        // The bridge element is an FCM in the registry, but import must
        // not echo it back as a HAVi service.
        let names = pcm.import_services().unwrap();
        assert!(names.is_empty(), "echoed: {names:?}");
    }

    #[test]
    fn fcm_interfaces_cover_all_kinds() {
        for kind in [
            FcmKind::Vcr,
            FcmKind::DvCamera,
            FcmKind::Tuner,
            FcmKind::Display,
            FcmKind::Amplifier,
        ] {
            let iface = fcm_interface(kind);
            assert!(!iface.operations.is_empty());
            // Every declared op maps to a wire call with well-typed args.
            for op in &iface.operations {
                let args: Vec<(String, Value)> = op
                    .params
                    .iter()
                    .map(|(n, t)| {
                        let v = match t {
                            TypeTag::Int => Value::Int(1),
                            TypeTag::Str => Value::Str("x".into()),
                            TypeTag::Bool => Value::Bool(true),
                            _ => Value::Null,
                        };
                        (n.to_string(), v)
                    })
                    .collect();
                assert!(
                    op_to_fcm(kind, &op.name, &args).is_some(),
                    "{kind}: {} unmapped",
                    op.name
                );
            }
        }
    }
}

#[cfg(test)]
mod ddi_tests {
    use super::*;
    use crate::home::SmartHome;
    use havi::DdiController;

    #[test]
    fn tv_gui_controls_an_x10_lamp_through_a_generated_panel() {
        let home = SmartHome::builder().build().unwrap();
        let havi = home.havi.as_ref().unwrap();

        // Bridge the X10 lamp into HAVi with an auto-generated panel.
        let record = havi.vsg.resolve("hall-lamp").unwrap();
        let (_bridge, panel) = havi.pcm.export_remote_with_panel(&record).unwrap();

        // The TV GUI fetches and renders it, knowing nothing about X10.
        let tv = havi.tv.messaging();
        let gui = tv.register_element(|_, _| (HaviStatus::Success, vec![]));
        let controller = DdiController::new(tv, gui.handle);
        let ui = controller.fetch(panel.seid()).unwrap();
        let buttons = ui.buttons();
        // lamp: switch on/off pair + status + (dim is parameterised, skipped)
        let labels: Vec<&str> = buttons.iter().map(|(_, l)| *l).collect();
        assert!(labels.contains(&"switch on"), "{labels:?}");
        assert!(labels.contains(&"switch off"), "{labels:?}");
        assert!(labels.contains(&"status"), "{labels:?}");

        // Pressing "switch on" physically switches the powerline lamp.
        let (on_id, _) = buttons.iter().find(|(_, l)| *l == "switch on").unwrap();
        controller.press(panel.seid(), *on_id).unwrap();
        assert!(home.x10.as_ref().unwrap().hall_lamp.is_on());

        let (off_id, _) = buttons.iter().find(|(_, l)| *l == "switch off").unwrap();
        controller.press(panel.seid(), *off_id).unwrap();
        assert!(!home.x10.as_ref().unwrap().hall_lamp.is_on());
    }

    #[test]
    fn generated_panels_list_origin_and_register_in_havi() {
        let home = SmartHome::builder().build().unwrap();
        let havi = home.havi.as_ref().unwrap();
        let record = havi.vsg.resolve("laserdisc").unwrap();
        let (_bridge, panel) = havi.pcm.export_remote_with_panel(&record).unwrap();

        let tv = havi.tv.messaging();
        let gui = tv.register_element(|_, _| (HaviStatus::Success, vec![]));
        let ui = DdiController::new(tv, gui.handle)
            .fetch(panel.seid())
            .unwrap();
        assert!(ui.to_string().contains("jini via jini-gw"), "{ui}");

        // Discoverable in the HAVi registry as a ddi-panel element.
        let probe = tv.register_element(|_, _| (HaviStatus::Success, vec![]));
        let client = RegistryClient::new(tv, probe.handle, havi.registry.seid());
        let panels = client.query(&[(attr::SE_TYPE, "ddi-panel")]).unwrap();
        assert_eq!(panels.len(), 1);
        assert_eq!(panels[0].attributes.get(attr::NAME).unwrap(), "laserdisc");
    }

    #[test]
    fn panel_failures_are_traced_not_fatal() {
        let home = SmartHome::builder().build().unwrap();
        home.set_tracing(true);
        let havi = home.havi.as_ref().unwrap();
        let record = havi.vsg.resolve("hall-lamp").unwrap();
        let (_bridge, panel) = havi.pcm.export_remote_with_panel(&record).unwrap();
        // Withdraw the lamp, then press: the press succeeds at the DDI
        // layer; the failure lands in the trace.
        home.x10
            .as_ref()
            .unwrap()
            .vsg
            .withdraw("hall-lamp")
            .unwrap();
        let tv = havi.tv.messaging();
        let gui = tv.register_element(|_, _| (HaviStatus::Success, vec![]));
        let controller = DdiController::new(tv, gui.handle);
        let ui = controller.fetch(panel.seid()).unwrap();
        let (id, _) = ui.buttons()[0];
        controller.press(panel.seid(), id).unwrap();
        let spans = havi.vsg.tracer().spans();
        let press = spans
            .iter()
            .find(|s| s.parent.is_none() && s.name.starts_with("ddi-press hall-lamp."))
            .expect("the press opens a root span");
        let error = press.error.as_deref().expect("the failure is on the span");
        assert!(error.contains("hall-lamp"), "{error}");
    }
}
