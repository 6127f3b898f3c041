//! Dynamic service activation — the first §6 future-work item.
//!
//! "We are working on the deployment of novel … middleware which applies
//! dynamic service activation" (§6). The prototype couldn't start a
//! service on demand: if a VCR's control service wasn't running, a call
//! failed. This module adds the missing piece to the framework proper:
//! an [`Activator`] registered with a gateway lazily *activates*
//! (exports) a service the first time somebody asks for it, and can
//! deactivate idle services to reclaim appliance resources.

use crate::error::MetaError;
use crate::service::{ServiceInvoker, VirtualService};
use crate::vsg::Vsg;
use parking_lot::Mutex;
use simnet::{Sim, SimDuration, SimTime};
use soap::Value;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Builds the live invoker for a service when it is first needed.
///
/// In a real appliance this is "power up the device / launch the control
/// servlet"; the returned invoker is then exported as usual.
type ActivationFactory = Box<dyn FnMut(&Sim) -> Result<Box<dyn ServiceInvoker>, MetaError> + Send>;

struct Registration {
    service: VirtualService,
    factory: ActivationFactory,
    /// Virtual time the activation itself costs (device spin-up).
    spin_up: SimDuration,
}

struct ActiveInfo {
    last_used: SimTime,
}

struct ActivatorState {
    registered: HashMap<String, Registration>,
    active: HashMap<String, ActiveInfo>,
    activations: u64,
    deactivations: u64,
}

/// Lazily activates services on a gateway.
#[derive(Clone)]
pub struct Activator {
    vsg: Vsg,
    state: Arc<Mutex<ActivatorState>>,
}

/// Counters for tests and the ablation bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActivationStats {
    /// Services activated so far.
    pub activations: u64,
    /// Services deactivated (idle-reaped) so far.
    pub deactivations: u64,
    /// Currently active services.
    pub currently_active: usize,
}

impl Activator {
    /// Creates an activator for `vsg`.
    pub fn new(vsg: &Vsg) -> Activator {
        Activator {
            vsg: vsg.clone(),
            state: Arc::new(Mutex::new(ActivatorState {
                registered: HashMap::new(),
                active: HashMap::new(),
                activations: 0,
                deactivations: 0,
            })),
        }
    }

    /// Registers an *activatable* service: it is published in the VSR
    /// immediately (so it is discoverable) but its invoker is not built
    /// until first use. The interim invoker activates on demand.
    pub fn register(
        &self,
        service: VirtualService,
        spin_up: SimDuration,
        factory: impl FnMut(&Sim) -> Result<Box<dyn ServiceInvoker>, MetaError> + Send + 'static,
    ) -> Result<(), MetaError> {
        let name = service.name.clone();
        self.state.lock().registered.insert(
            name.clone(),
            Registration {
                service: service.clone(),
                factory: Box::new(factory),
                spin_up,
            },
        );
        // Export a trampoline: on first call it activates the real
        // service (replacing itself), then re-dispatches.
        let activator = self.clone();
        self.vsg.export(
            service,
            move |sim: &Sim, op: &str, args: &[(String, Value)]| {
                activator.activate(sim, &name)?;
                // Re-enter through the gateway: the real invoker is now
                // installed under the same name.
                activator.vsg.invoke(sim, &name, op, args)
            },
        )
    }

    /// Activates `name` now (idempotent). Charges the spin-up time.
    fn activate(&self, sim: &Sim, name: &str) -> Result<(), MetaError> {
        let mut st = self.state.lock();
        if st.active.contains_key(name) {
            st.active.get_mut(name).expect("checked").last_used = sim.now();
            return Ok(());
        }
        let reg = st
            .registered
            .get_mut(name)
            .ok_or_else(|| MetaError::UnknownService(name.to_owned()))?;
        sim.advance(reg.spin_up);
        let invoker = (reg.factory)(sim)?;
        let service = reg.service.clone();
        st.activations += 1;
        st.active.insert(
            name.to_owned(),
            ActiveInfo {
                last_used: sim.now(),
            },
        );
        drop(st);

        // Wrap the invoker so usage refreshes the idle clock.
        let activator = self.clone();
        let name2 = name.to_owned();
        let invoker = Arc::new(Mutex::new(invoker));
        self.vsg.export(
            service,
            move |sim: &Sim, op: &str, args: &[(String, Value)]| {
                if let Some(info) = activator.state.lock().active.get_mut(&name2) {
                    info.last_used = sim.now();
                }
                invoker.lock().invoke(sim, op, args)
            },
        )
    }

    /// Deactivates `name`: swaps the trampoline back in so a later call
    /// re-activates. Returns `false` if it was not active.
    fn deactivate(&self, name: &str) -> Result<bool, MetaError> {
        let (was_active, service, spin_up_known) = {
            let mut st = self.state.lock();
            let was = st.active.remove(name).is_some();
            if was {
                st.deactivations += 1;
            }
            let reg = st.registered.get(name);
            (was, reg.map(|r| r.service.clone()), reg.is_some())
        };
        if !was_active || !spin_up_known {
            return Ok(false);
        }
        let service = service.expect("registered");
        let activator = self.clone();
        let name2 = name.to_owned();
        self.vsg.export(
            service,
            move |sim: &Sim, op: &str, args: &[(String, Value)]| {
                activator.activate(sim, &name2)?;
                activator.vsg.invoke(sim, &name2, op, args)
            },
        )?;
        Ok(true)
    }

    /// Deactivates every service idle for at least `max_idle` at `now`.
    /// Returns the names reaped.
    fn reap_idle(&self, now: SimTime, max_idle: SimDuration) -> Vec<String> {
        let victims: Vec<String> = self
            .state
            .lock()
            .active
            .iter()
            .filter(|(_, info)| now - info.last_used >= max_idle)
            .map(|(n, _)| n.clone())
            .collect();
        let mut reaped = Vec::new();
        for name in victims {
            if self.deactivate(&name).unwrap_or(false) {
                reaped.push(name);
            }
        }
        reaped
    }

    /// Starts a periodic idle reaper.
    pub fn start_reaper(&self, period: SimDuration, max_idle: SimDuration) -> simnet::RepeatHandle {
        let activator = self.clone();
        self.vsg.backbone().sim().every(period, move |sim| {
            let _ = activator.reap_idle(sim.now(), max_idle);
        })
    }

    /// Current counters.
    pub fn stats(&self) -> ActivationStats {
        let st = self.state.lock();
        ActivationStats {
            activations: st.activations,
            deactivations: st.deactivations,
            currently_active: st.active.len(),
        }
    }
}

impl fmt::Debug for Activator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.stats();
        f.debug_struct("Activator")
            .field("active", &s.currently_active)
            .field("activations", &s.activations)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iface::catalog;
    use crate::protocol::Soap11;
    use crate::service::Middleware;
    use crate::vsr::Vsr;
    use simnet::Network;

    fn world() -> (Sim, Vsg, Activator) {
        let sim = Sim::new(1);
        let net = Network::ethernet(&sim);
        let vsr = Vsr::start(&net);
        let vsg = Vsg::start(&net, "gw", Arc::new(Soap11::new()), vsr.node()).unwrap();
        let activator = Activator::new(&vsg);
        (sim, vsg, activator)
    }

    fn register_counter_lamp(activator: &Activator, vsg: &Vsg, built: Arc<Mutex<u32>>) {
        let built2 = built;
        activator
            .register(
                VirtualService::new("lazy-lamp", catalog::lamp(), Middleware::X10, vsg.name()),
                SimDuration::from_millis(500),
                move |_| {
                    *built2.lock() += 1;
                    let on = Arc::new(Mutex::new(false));
                    Ok(Box::new(
                        move |_: &Sim, op: &str, args: &[(String, Value)]| match op {
                            "switch" => {
                                *on.lock() = args
                                    .iter()
                                    .find(|(k, _)| k == "on")
                                    .and_then(|(_, v)| v.as_bool())
                                    .unwrap_or(false);
                                Ok(Value::Null)
                            }
                            "status" => Ok(Value::Bool(*on.lock())),
                            _ => Ok(Value::Null),
                        },
                    ))
                },
            )
            .unwrap();
    }

    #[test]
    fn first_call_activates_and_pays_spin_up() {
        let (sim, vsg, activator) = world();
        let built = Arc::new(Mutex::new(0u32));
        register_counter_lamp(&activator, &vsg, built.clone());

        // Discoverable before activation.
        assert!(vsg.vsr().resolve("lazy-lamp").is_ok());
        assert_eq!(*built.lock(), 0);

        let t0 = sim.now();
        let got = vsg.invoke(&sim, "lazy-lamp", "status", &[]).unwrap();
        assert_eq!(got, Value::Bool(false));
        assert_eq!(*built.lock(), 1);
        assert!(
            sim.now() - t0 >= SimDuration::from_millis(500),
            "spin-up charged"
        );
        assert_eq!(activator.stats().activations, 1);

        // Second call: already active, no new build, no spin-up.
        let t0 = sim.now();
        vsg.invoke(&sim, "lazy-lamp", "status", &[]).unwrap();
        assert_eq!(*built.lock(), 1);
        assert!(sim.now() - t0 < SimDuration::from_millis(500));
    }

    #[test]
    fn deactivation_and_reactivation_preserve_discoverability() {
        let (sim, vsg, activator) = world();
        let built = Arc::new(Mutex::new(0u32));
        register_counter_lamp(&activator, &vsg, built.clone());

        vsg.invoke(
            &sim,
            "lazy-lamp",
            "switch",
            &[("on".into(), Value::Bool(true))],
        )
        .unwrap();
        assert!(activator.deactivate("lazy-lamp").unwrap());
        assert!(!activator.deactivate("lazy-lamp").unwrap(), "idempotent");
        assert_eq!(activator.stats().currently_active, 0);

        // Still in the VSR; next call transparently re-activates (state
        // resets — the appliance power-cycled, honestly).
        let got = vsg.invoke(&sim, "lazy-lamp", "status", &[]).unwrap();
        assert_eq!(got, Value::Bool(false));
        assert_eq!(*built.lock(), 2);
        assert_eq!(activator.stats().activations, 2);
        assert_eq!(activator.stats().deactivations, 1);
    }

    #[test]
    fn idle_reaper_deactivates_unused_services() {
        let (sim, vsg, activator) = world();
        let built = Arc::new(Mutex::new(0u32));
        register_counter_lamp(&activator, &vsg, built);
        let _reaper =
            activator.start_reaper(SimDuration::from_secs(10), SimDuration::from_secs(60));

        vsg.invoke(&sim, "lazy-lamp", "status", &[]).unwrap();
        assert_eq!(activator.stats().currently_active, 1);

        // Keep using it: survives.
        for _ in 0..5 {
            sim.run_for(SimDuration::from_secs(30));
            vsg.invoke(&sim, "lazy-lamp", "status", &[]).unwrap();
        }
        assert_eq!(activator.stats().currently_active, 1);

        // Go idle: reaped.
        sim.run_for(SimDuration::from_secs(120));
        assert_eq!(activator.stats().currently_active, 0);
        assert!(activator.stats().deactivations >= 1);
    }

    #[test]
    fn factory_failure_surfaces_and_allows_retry() {
        let (sim, vsg, activator) = world();
        let attempts = Arc::new(Mutex::new(0u32));
        let attempts2 = attempts.clone();
        activator
            .register(
                VirtualService::new("flaky", catalog::lamp(), Middleware::X10, vsg.name()),
                SimDuration::ZERO,
                move |_| {
                    *attempts2.lock() += 1;
                    if *attempts2.lock() == 1 {
                        Err(MetaError::native("x10", "device did not answer"))
                    } else {
                        Ok(Box::new(|_: &Sim, _: &str, _: &[(String, Value)]| {
                            Ok(Value::Bool(true))
                        }))
                    }
                },
            )
            .unwrap();

        assert!(vsg.invoke(&sim, "flaky", "status", &[]).is_err());
        assert_eq!(
            activator.stats().activations,
            0,
            "failed activation not counted"
        );
        // Retry succeeds.
        assert_eq!(
            vsg.invoke(&sim, "flaky", "status", &[]).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(*attempts.lock(), 2);
    }

    #[test]
    fn unknown_service_activation_errors() {
        let (sim, _vsg, activator) = world();
        assert!(matches!(
            activator.activate(&sim, "ghost"),
            Err(MetaError::UnknownService(_))
        ));
        assert!(!activator.deactivate("ghost").unwrap());
    }
}
