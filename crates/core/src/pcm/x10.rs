//! The X10 PCM.
//!
//! The PCM drives the powerline through a CM11A serial interface, like
//! the prototype (ref. \[15\]).
//!
//! Client Proxy: X10 has no discovery protocol, so modules and sensors
//! are *configured* ([`X10Pcm::import_module_with`], [`X10Pcm::import_sensor`])
//! — exactly how real X10 controllers work. Because modules are one-way
//! receivers, `status` answers from the PCM's shadow state, refreshed by
//! overhearing powerline traffic.
//!
//! Server Proxy: button presses on the powerline (from the handheld
//! remote of Fig. 5) are routed to remote VSG services via a mapping
//! table ([`X10Pcm::add_route`]) — this is the Universal Remote
//! Controller mechanism: "controlling a Jini Laserdisc with an X10
//! remote controller" (§4.2).

use crate::error::MetaError;
use crate::iface::catalog;
use crate::intern::Name;
use crate::pcm::ProtocolConversionManager;
use crate::service::{Middleware, VirtualService};
use crate::trace::HopKind;
use crate::vsg::Vsg;
use parking_lot::Mutex;
use simnet::{RepeatHandle, Sim, SimDuration};
use soap::Value;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use x10::{Cm11aDriver, Function, HouseCode, UnitCode, X10Frame};

/// Shadow state of one configured module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModuleShadow {
    /// Believed power state.
    pub on: bool,
    /// Believed dim level.
    pub level: u8,
}

#[derive(Debug, Default)]
struct SensorState {
    name: String,
    active: bool,
    events: Vec<Value>,
}

/// Called the instant the PCM learns of a sensor event — the hook that
/// push-capable VSG protocols (SIP) attach to. `(service-name, event)`.
type SensorHook = Box<dyn Fn(&Sim, &str, &Value) + Send>;

/// A Server Proxy route: an observed powerline command triggers a VSG
/// invocation.
#[derive(Debug, Clone)]
pub struct Route {
    /// House code to match.
    pub house: HouseCode,
    /// Unit to match.
    pub unit: UnitCode,
    /// Function to match (usually `On` or `Off`).
    pub function: Function,
    /// Target service.
    pub service: String,
    /// Target operation.
    pub operation: String,
    /// Arguments passed along.
    pub args: Vec<(String, Value)>,
}

struct X10Inner {
    vsg: Vsg,
    driver: Cm11aDriver,
    sim: Sim,
    modules: Mutex<HashMap<(HouseCode, UnitCode), ModuleShadow>>,
    sensors: Mutex<HashMap<(HouseCode, UnitCode), SensorState>>,
    routes: Mutex<Vec<Route>>,
    sensor_hook: Mutex<Option<SensorHook>>,
    latch: Mutex<HashMap<HouseCode, Vec<UnitCode>>>,
    imported: Mutex<Vec<String>>,
    exported: Mutex<Vec<Name>>,
    repeats: u32,
}

/// The X10 Protocol Conversion Manager.
#[derive(Clone)]
pub struct X10Pcm {
    inner: Arc<X10Inner>,
}

impl X10Pcm {
    /// Starts the PCM, driving the CM11A through `driver`.
    pub fn start(vsg: &Vsg, sim: &Sim, driver: Cm11aDriver) -> X10Pcm {
        X10Pcm {
            inner: Arc::new(X10Inner {
                vsg: vsg.clone(),
                driver,
                sim: sim.clone(),
                modules: Mutex::new(HashMap::new()),
                sensors: Mutex::new(HashMap::new()),
                routes: Mutex::new(Vec::new()),
                sensor_hook: Mutex::new(None),
                latch: Mutex::new(HashMap::new()),
                imported: Mutex::new(Vec::new()),
                exported: Mutex::new(Vec::new()),
                repeats: 2,
            }),
        }
    }

    // ---- Client Proxy: configured X10 devices -> VSG ------------------------

    /// Exports a configured module as a `Lamp` service.
    #[cfg(test)]
    fn import_module(&self, name: &str, house: HouseCode, unit: UnitCode) -> Result<(), MetaError> {
        self.import_module_with(name, house, unit, &[])
    }

    /// Exports a configured module as a `Lamp` service, with service
    /// contexts (§3.3), e.g. `&[("room", "hall")]`.
    pub fn import_module_with(
        &self,
        name: &str,
        house: HouseCode,
        unit: UnitCode,
        contexts: &[(&str, &str)],
    ) -> Result<(), MetaError> {
        self.inner.modules.lock().insert(
            (house, unit),
            ModuleShadow {
                on: false,
                level: x10::MAX_DIM_STEPS,
            },
        );
        let inner = self.inner.clone();
        let mut service = VirtualService::new(
            name,
            catalog::lamp(),
            Middleware::X10,
            self.inner.vsg.name(),
        );
        for (k, v) in contexts {
            service = service.context(*k, *v);
        }
        self.inner.vsg.export(
            service,
            move |sim: &Sim, op: &str, args: &[(String, Value)]| {
                let scope = inner
                    .vsg
                    .scope(sim, HopKind::PcmConvert, || format!("x10 {op}"));
                let result = inner.module_invoke(house, unit, op, args);
                scope.finish(&result);
                result
            },
        )?;
        self.inner.imported.lock().push(name.to_owned());
        Ok(())
    }

    /// Exports a configured motion sensor as a `MotionSensor` service.
    pub fn import_sensor(
        &self,
        name: &str,
        house: HouseCode,
        unit: UnitCode,
    ) -> Result<(), MetaError> {
        self.import_sensor_with(name, house, unit, &[])
    }

    /// Like [`X10Pcm::import_sensor`], with service contexts (§3.3).
    pub fn import_sensor_with(
        &self,
        name: &str,
        house: HouseCode,
        unit: UnitCode,
        contexts: &[(&str, &str)],
    ) -> Result<(), MetaError> {
        self.inner.sensors.lock().insert(
            (house, unit),
            SensorState {
                name: name.to_owned(),
                ..SensorState::default()
            },
        );
        let inner = self.inner.clone();
        let mut svc = VirtualService::new(
            name,
            catalog::motion_sensor(),
            Middleware::X10,
            self.inner.vsg.name(),
        );
        for (k, v) in contexts {
            svc = svc.context(*k, *v);
        }
        self.inner.vsg.export(
            svc,
            move |sim: &Sim, op: &str, _args: &[(String, Value)]| {
                let scope = inner
                    .vsg
                    .scope(sim, HopKind::PcmConvert, || format!("x10 sensor {op}"));
                // Refresh from the interface buffer before answering —
                // this *is* polling; X10 cannot push to us through the
                // CM11A's request/response serial protocol.
                inner.pump();
                let result = (|| {
                    let mut sensors = inner.sensors.lock();
                    let st = sensors
                        .get_mut(&(house, unit))
                        .ok_or_else(|| MetaError::UnknownService("sensor".into()))?;
                    match op {
                        "state" => Ok(Value::Bool(st.active)),
                        "drain_events" => Ok(Value::List(std::mem::take(&mut st.events))),
                        other => Err(MetaError::UnknownOperation {
                            service: "motion-sensor".into(),
                            operation: other.to_owned(),
                        }),
                    }
                })();
                scope.finish(&result);
                result
            },
        )?;
        self.inner.imported.lock().push(name.to_owned());
        Ok(())
    }

    // ---- Server Proxy: powerline commands -> VSG ----------------------------

    /// Routes an observed `(house, unit, function)` command to a remote
    /// service invocation.
    pub fn add_route(&self, route: Route) {
        self.inner.exported.lock().push(Name::new(&route.service));
        self.inner.routes.lock().push(route);
    }

    /// Polls the CM11A once, updating shadows/sensors and firing routes.
    /// Returns how many frames were processed.
    pub fn pump(&self) -> usize {
        self.inner.pump()
    }

    /// Polls every `period` of virtual time.
    pub fn start_polling(&self, period: SimDuration) -> RepeatHandle {
        let inner = self.inner.clone();
        self.inner.sim.every(period, move |_| {
            inner.pump();
        })
    }

    /// Current shadow state of a module.
    pub fn module_shadow(&self, house: HouseCode, unit: UnitCode) -> Option<ModuleShadow> {
        self.inner.modules.lock().get(&(house, unit)).copied()
    }

    /// Installs the immediate sensor-event hook (used by push-capable
    /// event bridges; see [`crate::events::SipPublisher`]).
    pub fn set_sensor_hook(&self, hook: impl Fn(&Sim, &str, &Value) + Send + 'static) {
        *self.inner.sensor_hook.lock() = Some(Box::new(hook));
    }
}

impl X10Inner {
    fn module_invoke(
        &self,
        house: HouseCode,
        unit: UnitCode,
        op: &str,
        args: &[(String, Value)],
    ) -> Result<Value, MetaError> {
        let arg = |name: &str| args.iter().find(|(k, _)| k == name).map(|(_, v)| v);
        match op {
            "switch" => {
                let on = arg("on").and_then(Value::as_bool).unwrap_or(false);
                let function = if on { Function::On } else { Function::Off };
                self.send_reliably(house, unit, function, 0)?;
                if let Some(shadow) = self.modules.lock().get_mut(&(house, unit)) {
                    shadow.on = on;
                }
                Ok(Value::Null)
            }
            "dim" => {
                let steps = arg("steps")
                    .and_then(Value::as_int)
                    .unwrap_or(1)
                    .clamp(1, 22) as u8;
                self.send_reliably(house, unit, Function::Dim, steps)?;
                if let Some(shadow) = self.modules.lock().get_mut(&(house, unit)) {
                    shadow.level = shadow.level.saturating_sub(steps);
                    shadow.on = true;
                }
                Ok(Value::Null)
            }
            "status" => {
                let shadow =
                    self.modules
                        .lock()
                        .get(&(house, unit))
                        .copied()
                        .unwrap_or(ModuleShadow {
                            on: false,
                            level: 0,
                        });
                Ok(Value::Bool(shadow.on))
            }
            other => Err(MetaError::UnknownOperation {
                service: "lamp".into(),
                operation: other.to_owned(),
            }),
        }
    }

    /// X10 is unacknowledged; the PCM repeats *idempotent* commands
    /// blindly (On/Off), but never incremental ones (Dim/Bright), which
    /// would compound.
    fn send_reliably(
        &self,
        house: HouseCode,
        unit: UnitCode,
        function: Function,
        dims: u8,
    ) -> Result<(), MetaError> {
        let repeats = if matches!(function, Function::Dim | Function::Bright) {
            1
        } else {
            self.repeats.max(1)
        };
        let mut last_err = None;
        for _ in 0..repeats {
            match self.driver.send_command_dims(house, unit, function, dims) {
                Ok(()) => last_err = None,
                Err(e) => last_err = Some(e),
            }
        }
        match last_err {
            None => Ok(()),
            Some(e) => Err(MetaError::native("x10", e)),
        }
    }

    fn pump(&self) -> usize {
        let frames = match self.driver.poll() {
            Ok(f) => f,
            Err(_) => return 0,
        };
        let n = frames.len();
        for frame in frames {
            self.apply_frame(frame);
        }
        n
    }

    fn apply_frame(&self, frame: X10Frame) {
        match frame {
            X10Frame::Address { house, unit } => {
                let mut latch = self.latch.lock();
                let units = latch.entry(house).or_default();
                if !units.contains(&unit) {
                    units.push(unit);
                }
            }
            X10Frame::Function {
                house,
                function,
                dims,
            } => {
                let latched = {
                    let mut latch = self.latch.lock();
                    if matches!(function, Function::Dim | Function::Bright) {
                        latch.get(&house).cloned().unwrap_or_default()
                    } else {
                        latch.remove(&house).unwrap_or_default()
                    }
                };
                for unit in latched {
                    self.apply_command(house, unit, function, dims);
                }
            }
        }
    }

    fn apply_command(&self, house: HouseCode, unit: UnitCode, function: Function, dims: u8) {
        // Shadow maintenance for modules we front.
        if let Some(shadow) = self.modules.lock().get_mut(&(house, unit)) {
            match function {
                Function::On => shadow.on = true,
                Function::Off => shadow.on = false,
                Function::Dim => {
                    shadow.level = shadow.level.saturating_sub(dims.max(1));
                    shadow.on = true;
                }
                Function::Bright => {
                    shadow.level = (shadow.level + dims.max(1)).min(x10::MAX_DIM_STEPS);
                }
                _ => {}
            }
        }
        // Sensor events.
        let hook_event = {
            let mut sensors = self.sensors.lock();
            if let Some(sensor) = sensors.get_mut(&(house, unit)) {
                let active = function == Function::On;
                if matches!(function, Function::On | Function::Off) {
                    sensor.active = active;
                    let event = Value::Record(vec![
                        (
                            "at_us".into(),
                            Value::Int(self.sim.now().as_micros() as i64),
                        ),
                        ("active".into(), Value::Bool(active)),
                    ]);
                    sensor.events.push(event.clone());
                    Some((sensor.name.clone(), event))
                } else {
                    None
                }
            } else {
                None
            }
        };
        if let Some((name, event)) = hook_event {
            if let Some(hook) = self.sensor_hook.lock().as_ref() {
                hook(&self.sim, &name, &event);
            }
        }
        // Server Proxy routes.
        let routes: Vec<Route> = self
            .routes
            .lock()
            .iter()
            .filter(|r| r.house == house && r.unit == unit && r.function == function)
            .cloned()
            .collect();
        for route in routes {
            // Route firings originate on the powerline, not inside any
            // in-flight framework call, so each starts a fresh trace.
            let scope = self.vsg.root_scope(&self.sim, HopKind::PcmConvert, || {
                format!("x10-route {}.{}", route.service, route.operation)
            });
            let result = self
                .vsg
                .invoke(&self.sim, &route.service, &route.operation, &route.args);
            scope.finish(&result);
        }
    }
}

impl ProtocolConversionManager for X10Pcm {
    fn middleware(&self) -> Middleware {
        Middleware::X10
    }

    fn imported(&self) -> Vec<String> {
        self.inner.imported.lock().clone()
    }

    fn exported(&self) -> Vec<Name> {
        self.inner.exported.lock().clone()
    }
}

impl fmt::Debug for X10Pcm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("X10Pcm")
            .field("modules", &self.inner.modules.lock().len())
            .field("sensors", &self.inner.sensors.lock().len())
            .field("routes", &self.inner.routes.lock().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Soap11;
    use crate::vsr::Vsr;
    use simnet::Network;
    use x10::{Cm11a, Module, ModuleKind, MotionSensor, Remote};

    fn h(c: char) -> HouseCode {
        HouseCode::new(c).unwrap()
    }
    fn u(n: u8) -> UnitCode {
        UnitCode::new(n).unwrap()
    }

    struct World {
        sim: Sim,
        powerline: Network,
        vsg: Vsg,
        pcm: X10Pcm,
    }

    fn world() -> World {
        let sim = Sim::new(1);
        let backbone = Network::ethernet(&sim);
        let vsr = Vsr::start(&backbone);
        let vsg = Vsg::start(&backbone, "x10-gw", Arc::new(Soap11::new()), vsr.node()).unwrap();
        let serial = Network::serial(&sim);
        let mut link = simnet::netkind::powerline();
        link.loss_prob = 0.0; // deterministic tests; loss covered elsewhere
        let powerline = Network::new(&sim, "powerline", link);
        let cm11a = Cm11a::install(&serial, &powerline);
        let driver = Cm11aDriver::new(&serial, cm11a.serial_node());
        let pcm = X10Pcm::start(&vsg, &sim, driver);
        World {
            sim,
            powerline,
            vsg,
            pcm,
        }
    }

    #[test]
    fn imported_module_switches_real_lamp() {
        let w = world();
        let lamp = Module::plug_in(&w.powerline, "lamp", ModuleKind::Lamp, h('A'), u(1));
        w.pcm.import_module("hall-lamp", h('A'), u(1)).unwrap();

        w.vsg
            .invoke(
                &w.sim,
                "hall-lamp",
                "switch",
                &[("on".into(), Value::Bool(true))],
            )
            .unwrap();
        assert!(lamp.is_on());
        assert_eq!(
            w.vsg.invoke(&w.sim, "hall-lamp", "status", &[]).unwrap(),
            Value::Bool(true)
        );
        w.vsg
            .invoke(
                &w.sim,
                "hall-lamp",
                "dim",
                &[("steps".into(), Value::Int(4))],
            )
            .unwrap();
        assert_eq!(lamp.state().level, x10::MAX_DIM_STEPS - 4);
        assert_eq!(
            w.pcm.module_shadow(h('A'), u(1)).unwrap().level,
            x10::MAX_DIM_STEPS - 4
        );
    }

    #[test]
    fn sensor_events_arrive_by_polling() {
        let w = world();
        let mut sensor = MotionSensor::install(&w.powerline, "hall-sensor", h('C'), u(9));
        sensor.set_auto_clear(None);
        w.pcm.import_sensor("hall-motion", h('C'), u(9)).unwrap();

        assert_eq!(
            w.vsg.invoke(&w.sim, "hall-motion", "state", &[]).unwrap(),
            Value::Bool(false)
        );
        sensor.trigger();
        assert_eq!(
            w.vsg.invoke(&w.sim, "hall-motion", "state", &[]).unwrap(),
            Value::Bool(true)
        );
        let events = w
            .vsg
            .invoke(&w.sim, "hall-motion", "drain_events", &[])
            .unwrap();
        match events {
            Value::List(items) => {
                assert_eq!(items.len(), 1);
                assert_eq!(items[0].field("active"), Some(&Value::Bool(true)));
            }
            other => panic!("expected list, got {other}"),
        }
        // Drained: second read is empty.
        assert_eq!(
            w.vsg
                .invoke(&w.sim, "hall-motion", "drain_events", &[])
                .unwrap(),
            Value::List(vec![])
        );
    }

    #[test]
    fn remote_button_routes_to_vsg_service() {
        let w = world();
        // The "laserdisc" stand-in service records invocations.
        let plays = Arc::new(Mutex::new(0u32));
        let plays2 = plays.clone();
        w.vsg
            .export(
                VirtualService::new(
                    "laserdisc",
                    catalog::laserdisc(),
                    Middleware::Jini,
                    w.vsg.name(),
                ),
                move |_: &Sim, op: &str, _: &[(String, Value)]| {
                    if op == "play" {
                        *plays2.lock() += 1;
                    }
                    Ok(Value::Null)
                },
            )
            .unwrap();
        w.pcm.add_route(Route {
            house: h('A'),
            unit: u(5),
            function: Function::On,
            service: "laserdisc".into(),
            operation: "play".into(),
            args: vec![("chapter".into(), Value::Int(1))],
        });

        let mut remote = Remote::new(&w.powerline, "remote", h('A'));
        remote.press(x10::Button::On(5));
        assert_eq!(*plays.lock(), 0, "not routed until the PCM polls");
        w.pcm.pump();
        assert_eq!(*plays.lock(), 1);
        // A non-matching button does nothing.
        remote.press(x10::Button::On(6));
        w.pcm.pump();
        assert_eq!(*plays.lock(), 1);
    }

    #[test]
    fn periodic_polling_drives_routes() {
        let w = world();
        let count = Arc::new(Mutex::new(0u32));
        let count2 = count.clone();
        w.vsg
            .export(
                VirtualService::new("counter", catalog::display(), Middleware::Web, w.vsg.name()),
                move |_: &Sim, _: &str, _: &[(String, Value)]| {
                    *count2.lock() += 1;
                    Ok(Value::Null)
                },
            )
            .unwrap();
        w.pcm.add_route(Route {
            house: h('A'),
            unit: u(1),
            function: Function::On,
            service: "counter".into(),
            operation: "show".into(),
            args: vec![("text".into(), Value::Str("hi".into()))],
        });
        let handle = w.pcm.start_polling(SimDuration::from_millis(500));

        let mut remote = Remote::new(&w.powerline, "remote", h('A'));
        remote.press(x10::Button::On(1));
        w.sim.run_for(SimDuration::from_secs(2));
        assert_eq!(*count.lock(), 1);
        handle.cancel();
    }

    #[test]
    fn shadow_tracks_foreign_commands() {
        let w = world();
        let _lamp = Module::plug_in(&w.powerline, "lamp", ModuleKind::Lamp, h('A'), u(1));
        w.pcm.import_module("hall-lamp", h('A'), u(1)).unwrap();
        // Somebody uses the wall remote, bypassing the framework.
        let mut remote = Remote::new(&w.powerline, "remote", h('A'));
        remote.press(x10::Button::On(1));
        w.pcm.pump();
        assert_eq!(
            w.vsg.invoke(&w.sim, "hall-lamp", "status", &[]).unwrap(),
            Value::Bool(true),
            "shadow updated from overheard traffic"
        );
    }
}
