//! IEEE1394 bus lifecycle.
//!
//! Plugging or unplugging any FireWire device triggers a *bus reset*:
//! the bus goes silent for a short period, nodes re-enumerate, and HAVi
//! software re-advertises itself. Failure-injection tests use this to
//! check the framework's behaviour when a whole middleware island blinks.

use simnet::{Network, Sim, SimDuration};

/// How long a 1394 bus reset keeps the bus unusable (generous, covering
/// re-enumeration and self-ID).
pub const RESET_OUTAGE: SimDuration = SimDuration::from_millis(2);

/// Performs a bus reset on `net`: the bus drops, time passes, the bus
/// returns. Callers re-announce their DCMs afterwards (see
/// [`crate::dcm::Dcm::announce`]).
pub fn bus_reset(sim: &Sim, net: &Network) {
    net.set_down(true);
    sim.advance(RESET_OUTAGE);
    net.set_down(false);
}

/// Schedules a bus reset `delay` from now (for failure injection during a
/// running scenario).
pub fn schedule_bus_reset(sim: &Sim, net: &Network, delay: SimDuration) {
    let net = net.clone();
    sim.schedule_in(delay, move |sim| bus_reset(sim, &net));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messaging::{HaviError, MessagingSystem, OpCode};
    use crate::seid::HaviStatus;

    #[test]
    fn reset_blocks_then_restores_messaging() {
        let sim = Sim::new(1);
        let net = Network::ieee1394(&sim);
        let a = MessagingSystem::attach(&net, "a");
        let b = MessagingSystem::attach(&net, "b");
        let target = b.register_element(|_, _| (HaviStatus::Success, vec![]));
        let src = a.register_element(|_, _| (HaviStatus::Success, vec![]));

        net.set_down(true);
        assert!(matches!(
            a.send(src.handle, target, OpCode::new(1, 1), vec![]),
            Err(HaviError::Network(_))
        ));
        net.set_down(false);
        assert!(a
            .send(src.handle, target, OpCode::new(1, 1), vec![])
            .is_ok());
    }

    #[test]
    fn bus_reset_costs_outage_time() {
        let sim = Sim::new(1);
        let net = Network::ieee1394(&sim);
        let before = sim.now();
        bus_reset(&sim, &net);
        assert_eq!(sim.now() - before, RESET_OUTAGE);
        assert!(!net.is_down());
    }

    #[test]
    fn scheduled_reset_fires_on_pump() {
        let sim = Sim::new(1);
        let net = Network::ieee1394(&sim);
        schedule_bus_reset(&sim, &net, SimDuration::from_millis(10));
        assert!(!net.is_down());
        sim.run_for(SimDuration::from_millis(20));
        // Reset has come and gone.
        assert!(!net.is_down());
        assert!(sim.now().as_millis() >= 12);
    }
}
