//! X10 motion sensors.
//!
//! The paper's event-based multimedia experiment (§4.2) uses "X10 motion
//! sensors". A sensor is a battery transmitter: on motion it sends `On`
//! for its unit, and (after a quiet interval) `Off`. It never listens.

use crate::codec::{Function, HouseCode, UnitCode};
use crate::powerline::Transmitter;
use simnet::{Network, SimDuration};

/// A motion sensor on the powerline.
#[derive(Debug, Clone)]
pub struct MotionSensor {
    tx: Transmitter,
    house: HouseCode,
    unit: UnitCode,
    auto_clear: Option<SimDuration>,
}

impl MotionSensor {
    /// Installs a sensor transmitting as `house`/`unit`.
    pub fn install(net: &Network, label: &str, house: HouseCode, unit: UnitCode) -> MotionSensor {
        MotionSensor {
            tx: Transmitter::attach(net, label),
            house,
            unit,
            auto_clear: Some(SimDuration::from_secs(60)),
        }
    }

    /// Sets (or disables) the automatic `Off` after motion stops.
    pub fn set_auto_clear(&mut self, after: Option<SimDuration>) {
        self.auto_clear = after;
    }

    /// Motion detected: transmits `On` now and schedules the `Off`
    /// transmission if auto-clear is enabled. Returns whether the `On`
    /// command survived the powerline.
    pub fn trigger(&self) -> bool {
        let delivered = self
            .tx
            .send_command(self.house, self.unit, Function::On)
            .delivered();
        if let Some(after) = self.auto_clear {
            let tx = self.tx.clone();
            let (house, unit) = (self.house, self.unit);
            let net_sim = tx_sim(&self.tx);
            net_sim.schedule_in(after, move |_| {
                let _ = tx.send_command(house, unit, Function::Off);
            });
        }
        delivered
    }

    /// Motion ended: transmits `Off` immediately.
    pub fn clear(&self) -> bool {
        self.tx
            .send_command(self.house, self.unit, Function::Off)
            .delivered()
    }
}

fn tx_sim(tx: &Transmitter) -> simnet::Sim {
    tx.network().sim().clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::powerline::install_receiver;
    use parking_lot::Mutex;
    use simnet::Sim;
    use std::sync::Arc;

    fn world() -> (Sim, Network) {
        let sim = Sim::new(1);
        let mut link = simnet::netkind::powerline();
        link.loss_prob = 0.0;
        (sim.clone(), Network::new(&sim, "powerline", link))
    }

    fn h(c: char) -> HouseCode {
        HouseCode::new(c).unwrap()
    }
    fn u(n: u8) -> UnitCode {
        UnitCode::new(n).unwrap()
    }

    #[test]
    fn trigger_sends_on_then_scheduled_off() {
        let (sim, net) = world();
        let mut sensor = MotionSensor::install(&net, "hall-sensor", h('C'), u(9));
        sensor.set_auto_clear(Some(SimDuration::from_secs(30)));

        let watcher = net.attach("watcher");
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = seen.clone();
        install_receiver(&net, watcher, h('C'), move |_, f, _, units| {
            seen2.lock().push((f, units.to_vec()));
        });

        assert!(sensor.trigger());
        assert_eq!(seen.lock().len(), 1);
        assert_eq!(seen.lock()[0].0, Function::On);

        // The Off arrives only after the quiet interval elapses.
        sim.run_for(SimDuration::from_secs(29));
        assert_eq!(seen.lock().len(), 1);
        sim.run_for(SimDuration::from_secs(5));
        assert_eq!(seen.lock().len(), 2);
        assert_eq!(seen.lock()[1].0, Function::Off);
    }

    #[test]
    fn manual_clear_and_disabled_auto_clear() {
        let (sim, net) = world();
        let mut sensor = MotionSensor::install(&net, "sensor", h('C'), u(1));
        sensor.set_auto_clear(None);

        let watcher = net.attach("watcher");
        let count = Arc::new(Mutex::new(0u32));
        let count2 = count.clone();
        install_receiver(&net, watcher, h('C'), move |_, _, _, _| *count2.lock() += 1);

        sensor.trigger();
        sim.run_for(SimDuration::from_secs(120));
        assert_eq!(*count.lock(), 1, "no auto-off scheduled");
        sensor.clear();
        assert_eq!(*count.lock(), 2);
    }
}
