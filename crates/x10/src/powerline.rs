//! The powerline medium and X10 transmitters.
//!
//! X10 signalling is broadcast, slow (~1 bit per AC zero-crossing) and
//! **unacknowledged**: a transmitter fires its frames into the mains and
//! hopes. Receivers latch address frames and apply the next function
//! frame for their house code. Noise loses frames; nobody is told.

use crate::codec::{Function, HouseCode, UnitCode, X10Frame};
use simnet::{Addr, Frame, Network, NodeId, Protocol, Sim, SimDuration};
use std::fmt;

/// A transmitter attached to the powerline.
#[derive(Debug, Clone)]
pub struct Transmitter {
    net: Network,
    node: NodeId,
}

impl Transmitter {
    /// Attaches a transmitter-only device (e.g. a remote, a motion
    /// sensor, the CM11A). It never listens, so broadcast frames
    /// reaching its node are discarded rather than queued forever in an
    /// inbox nobody reads; a device that does listen installs its own
    /// frame handler over this one.
    pub fn attach(net: &Network, label: &str) -> Transmitter {
        let node = net.attach(label);
        net.set_frame_handler(node, |_, _| {})
            .expect("node was just attached");
        Transmitter {
            net: net.clone(),
            node,
        }
    }

    /// Wraps an existing powerline node.
    pub fn on_node(net: &Network, node: NodeId) -> Transmitter {
        Transmitter {
            net: net.clone(),
            node,
        }
    }

    /// The transmitter's powerline node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The powerline this transmitter is attached to.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Puts one raw frame on the powerline. Returns `false` if the frame
    /// was lost to noise (the transmitter itself never knows; the return
    /// value is for tests and statistics).
    pub fn transmit_frame(&self, frame: X10Frame) -> bool {
        let mut payload = self.net.buffer();
        payload.extend_from_slice(&frame.encode());
        let wire = Frame::new(self.node, Addr::Broadcast, Protocol::X10, payload);
        self.net.send(wire).is_ok()
    }

    /// Sends a complete command: the address frame, the mandated
    /// 3-cycle gap, then the function frame. Either frame can be lost
    /// independently. Returns which frames made it.
    pub fn send_command(
        &self,
        house: HouseCode,
        unit: UnitCode,
        function: Function,
    ) -> SendOutcome {
        self.send_command_dims(house, unit, function, 0)
    }

    /// Like [`Transmitter::send_command`] with a dim/bright step count.
    pub fn send_command_dims(
        &self,
        house: HouseCode,
        unit: UnitCode,
        function: Function,
        dims: u8,
    ) -> SendOutcome {
        let sim = self.net.sim().clone();
        let address_ok = self.transmit_frame(X10Frame::Address { house, unit });
        // Three silent power-line cycles between address and function.
        sim.advance(SimDuration::from_millis(50));
        let function_ok = self.transmit_frame(X10Frame::Function {
            house,
            function,
            dims,
        });
        SendOutcome {
            address_ok,
            function_ok,
        }
    }

    /// Sends a house-wide function (no address frame needed).
    pub fn send_house_function(&self, house: HouseCode, function: Function) -> bool {
        self.transmit_frame(X10Frame::Function {
            house,
            function,
            dims: 0,
        })
    }
}

/// Which halves of a two-frame command survived the powerline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendOutcome {
    /// The address frame was delivered.
    pub address_ok: bool,
    /// The function frame was delivered.
    pub function_ok: bool,
}

impl SendOutcome {
    /// True if the command as a whole took effect.
    pub fn delivered(self) -> bool {
        self.address_ok && self.function_ok
    }
}

impl fmt::Display for SendOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.address_ok, self.function_ok) {
            (true, true) => write!(f, "delivered"),
            (false, _) => write!(f, "lost address frame"),
            (true, false) => write!(f, "lost function frame"),
        }
    }
}

/// A retrying sender: X10 has no acknowledgements, so reliability-minded
/// controllers (like the paper's X10 PCM) blindly repeat commands.
pub fn send_with_repeats(
    tx: &Transmitter,
    house: HouseCode,
    unit: UnitCode,
    function: Function,
    repeats: u32,
) -> bool {
    let mut any = false;
    for _ in 0..repeats.max(1) {
        if tx.send_command(house, unit, function).delivered() {
            any = true;
        }
    }
    any
}

/// Installs an X10 receiver on `node`: decodes broadcast frames for
/// `house`, maintains the address latch, and calls `on_function` with the
/// latched units each time a function frame arrives.
pub fn install_receiver(
    net: &Network,
    node: NodeId,
    house: HouseCode,
    mut on_function: impl FnMut(&Sim, Function, u8, &[UnitCode]) + Send + 'static,
) {
    let mut latched: Vec<UnitCode> = Vec::new();
    net.set_frame_handler(node, move |sim, frame| {
        let Some(decoded) = X10Frame::decode(&frame.payload) else {
            return;
        };
        if decoded.house() != house {
            return;
        }
        match decoded {
            X10Frame::Address { unit, .. } => {
                if !latched.contains(&unit) {
                    latched.push(unit);
                }
            }
            X10Frame::Function { function, dims, .. } => {
                on_function(sim, function, dims, &latched);
                // The latch clears after a non-dim function completes.
                if !matches!(function, Function::Dim | Function::Bright) {
                    latched.clear();
                }
            }
        }
    })
    .expect("receiver node exists");
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use simnet::{LinkModel, Sim};
    use std::sync::Arc;

    fn lossless_powerline(sim: &Sim) -> Network {
        let mut link = simnet::netkind::powerline();
        link.loss_prob = 0.0;
        Network::new(sim, "powerline", link)
    }

    fn h(c: char) -> HouseCode {
        HouseCode::new(c).unwrap()
    }
    fn u(n: u8) -> UnitCode {
        UnitCode::new(n).unwrap()
    }

    #[test]
    fn command_reaches_receiver_with_latched_unit() {
        let sim = Sim::new(1);
        let net = lossless_powerline(&sim);
        let tx = Transmitter::attach(&net, "remote");
        let rx_node = net.attach("lamp");
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = seen.clone();
        install_receiver(&net, rx_node, h('A'), move |_, f, _, units| {
            seen2.lock().push((f, units.to_vec()));
        });
        let outcome = tx.send_command(h('A'), u(3), Function::On);
        assert!(outcome.delivered());
        let seen = seen.lock();
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].0, Function::On);
        assert_eq!(seen[0].1, vec![u(3)]);
    }

    #[test]
    fn other_house_codes_are_ignored() {
        let sim = Sim::new(1);
        let net = lossless_powerline(&sim);
        let tx = Transmitter::attach(&net, "remote");
        let rx_node = net.attach("lamp");
        let count = Arc::new(Mutex::new(0u32));
        let count2 = count.clone();
        install_receiver(&net, rx_node, h('B'), move |_, _, _, _| *count2.lock() += 1);
        tx.send_command(h('A'), u(1), Function::On);
        assert_eq!(*count.lock(), 0);
    }

    #[test]
    fn multi_unit_latching() {
        let sim = Sim::new(1);
        let net = lossless_powerline(&sim);
        let tx = Transmitter::attach(&net, "ctl");
        let rx_node = net.attach("watcher");
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = seen.clone();
        install_receiver(&net, rx_node, h('A'), move |_, f, _, units| {
            seen2.lock().push((f, units.to_vec()));
        });
        // Address two units, then one function: both switch.
        tx.transmit_frame(X10Frame::Address {
            house: h('A'),
            unit: u(1),
        });
        tx.transmit_frame(X10Frame::Address {
            house: h('A'),
            unit: u(2),
        });
        tx.transmit_frame(X10Frame::Function {
            house: h('A'),
            function: Function::Off,
            dims: 0,
        });
        let seen = seen.lock();
        assert_eq!(seen[0].1, vec![u(1), u(2)]);
    }

    #[test]
    fn latch_persists_through_dim_clears_after_off() {
        let sim = Sim::new(1);
        let net = lossless_powerline(&sim);
        let tx = Transmitter::attach(&net, "ctl");
        let rx_node = net.attach("watcher");
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = seen.clone();
        install_receiver(&net, rx_node, h('A'), move |_, f, _, units| {
            seen2.lock().push((f, units.len()));
        });
        tx.transmit_frame(X10Frame::Address {
            house: h('A'),
            unit: u(5),
        });
        tx.transmit_frame(X10Frame::Function {
            house: h('A'),
            function: Function::Dim,
            dims: 3,
        });
        tx.transmit_frame(X10Frame::Function {
            house: h('A'),
            function: Function::Dim,
            dims: 3,
        });
        tx.transmit_frame(X10Frame::Function {
            house: h('A'),
            function: Function::Off,
            dims: 0,
        });
        tx.transmit_frame(X10Frame::Function {
            house: h('A'),
            function: Function::On,
            dims: 0,
        });
        let seen = seen.lock();
        assert_eq!(
            *seen,
            vec![
                (Function::Dim, 1),
                (Function::Dim, 1),
                (Function::Off, 1),
                (Function::On, 0), // latch cleared by Off
            ]
        );
    }

    #[test]
    fn transmitter_only_nodes_never_queue_broadcasts() {
        let sim = Sim::new(1);
        let net = lossless_powerline(&sim);
        let remote = Transmitter::attach(&net, "remote");
        let sensor = Transmitter::attach(&net, "sensor");
        for _ in 0..8 {
            assert!(remote.send_command(h('A'), u(1), Function::On).delivered());
        }
        assert!(net.recv(sensor.node()).is_none());
    }

    #[test]
    fn x10_commands_are_slow() {
        let sim = Sim::new(1);
        let net = lossless_powerline(&sim);
        let tx = Transmitter::attach(&net, "remote");
        let _rx = net.attach("lamp");
        let before = sim.now();
        tx.send_command(h('A'), u(1), Function::On);
        let elapsed = sim.now() - before;
        // Two ~13-bit frames at ~60 bps plus the inter-frame gap: hundreds
        // of milliseconds — the latency floor E1/E3 observe for X10.
        assert!(elapsed.as_millis() >= 300, "took {elapsed}");
    }

    #[test]
    fn lossy_powerline_drops_commands_sometimes() {
        let sim = Sim::new(123);
        let net = Network::new(
            &sim,
            "noisy-powerline",
            LinkModel {
                loss_prob: 0.3,
                ..simnet::netkind::powerline()
            },
        );
        let tx = Transmitter::attach(&net, "remote");
        let _rx = net.attach("lamp");
        let mut delivered = 0;
        for _ in 0..60 {
            if tx.send_command(h('A'), u(1), Function::On).delivered() {
                delivered += 1;
            }
        }
        // ~0.7^2 = 49% expected delivery.
        assert!((15..45).contains(&delivered), "delivered {delivered}/60");
        // Blind repetition helps (the PCM's mitigation).
        let ok = send_with_repeats(&tx, h('A'), u(1), Function::On, 3);
        let _ = ok; // probabilistic; just exercising the path
    }
}
