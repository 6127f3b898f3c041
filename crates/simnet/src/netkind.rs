//! Preset link models for the network technologies the paper names.
//!
//! §1 of the paper: "there will be various types of networks such as
//! Ethernet, Bluetooth and IEEE1394" — plus the X10 powerline, the CM11A
//! RS-232 attachment, and the Internet uplink used by the mail/web
//! services. The numbers below are period-accurate order-of-magnitude
//! figures (2002-era home equipment); experiments depend on their ratios,
//! not their absolute values.

use crate::link::LinkModel;
use crate::net::Network;
use crate::sim::Sim;
use crate::time::SimDuration;

/// 100BASE-T home Ethernet segment (Jini's habitat in the prototype).
pub fn ethernet() -> LinkModel {
    LinkModel {
        latency: SimDuration::from_micros(200),
        bandwidth_bps: 100_000_000,
        per_frame_overhead: 38, // header + preamble + inter-frame gap
        mtu: 1500,
        loss_prob: 0.0,
    }
}

/// IEEE1394 (FireWire) S400 bus — HAVi's required transport.
pub fn ieee1394() -> LinkModel {
    LinkModel {
        latency: SimDuration::from_micros(20),
        bandwidth_bps: 393_216_000,
        per_frame_overhead: 24,
        mtu: 2048,
        loss_prob: 0.0,
    }
}

/// X10 powerline signalling: one bit per AC zero-crossing (~60 Hz mains,
/// so ~120 crossings/s => 120 bit/s raw, and every frame is sent twice).
/// Powerline noise makes loss a fact of life.
pub fn powerline() -> LinkModel {
    LinkModel {
        latency: SimDuration::from_millis(10),
        bandwidth_bps: 60, // effective rate after mandatory retransmission
        per_frame_overhead: 1,
        mtu: 4,
        loss_prob: 0.02,
    }
}

/// RS-232 serial line at 9600 baud (the CM11A computer interface).
pub fn serial() -> LinkModel {
    LinkModel {
        latency: SimDuration::from_millis(1),
        bandwidth_bps: 9_600,
        per_frame_overhead: 2, // start/stop bits amortised
        mtu: 255,
        loss_prob: 0.0,
    }
}

/// The home's Internet uplink (DSL-class, 2002): reaches the TV-program
/// service, mail service, and remote SOAP services.
pub fn internet() -> LinkModel {
    LinkModel {
        latency: SimDuration::from_millis(25),
        bandwidth_bps: 1_500_000,
        per_frame_overhead: 40, // IP + TCP headers
        mtu: 1500,
        loss_prob: 0.001,
    }
}

/// Convenience constructors pairing each preset with a named [`Network`].
impl Network {
    /// A home Ethernet segment.
    pub fn ethernet(sim: &Sim) -> Network {
        Network::new(sim, "ethernet", ethernet())
    }

    /// An IEEE1394 bus.
    pub fn ieee1394(sim: &Sim) -> Network {
        Network::new(sim, "ieee1394", ieee1394())
    }

    /// The house powerline.
    pub fn powerline(sim: &Sim) -> Network {
        Network::new(sim, "powerline", powerline())
    }

    /// A point-to-point serial cable.
    pub fn serial(sim: &Sim) -> Network {
        Network::new(sim, "serial", serial())
    }

    /// The Internet uplink.
    pub fn internet(sim: &Sim) -> Network {
        Network::new(sim, "internet", internet())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn technology_speed_ordering_holds() {
        // The experiments rely on these qualitative relations.
        let small = 16; // a small control frame
        let t_1394 = ieee1394().transfer_time(small);
        let t_eth = ethernet().transfer_time(small);
        let t_inet = internet().transfer_time(small);
        assert!(t_1394 < t_eth, "1394 beats Ethernet on latency");
        assert!(t_eth < t_inet, "LAN beats WAN");
    }

    #[test]
    fn x10_commands_take_the_better_part_of_a_second() {
        // A 2-byte X10 command (sent twice at ~120 crossings/s) should
        // land in the 100ms..1s band the real protocol exhibits.
        let t = powerline().transfer_time(2);
        let ms = t.as_millis();
        assert!((100..=1_000).contains(&ms), "got {ms}ms");
    }

    #[test]
    fn presets_attach_named_networks() {
        let sim = Sim::new(1);
        assert_eq!(Network::ethernet(&sim).name(), "ethernet");
        assert_eq!(Network::ieee1394(&sim).name(), "ieee1394");
        assert_eq!(Network::powerline(&sim).name(), "powerline");
        assert_eq!(Network::serial(&sim).name(), "serial");
        assert_eq!(Network::internet(&sim).name(), "internet");
    }

    #[test]
    fn wired_lans_are_lossless() {
        assert_eq!(ethernet().loss_prob, 0.0);
        assert_eq!(ieee1394().loss_prob, 0.0);
        assert_eq!(serial().loss_prob, 0.0);
        assert!(powerline().loss_prob > 0.0);
    }
}
