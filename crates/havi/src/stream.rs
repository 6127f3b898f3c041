//! The Stream Manager: isochronous AV connections.
//!
//! "The focus of HAVi is on the control and content of digital AV
//! streams" (§2.1). IEEE1394 reserves 64 isochronous channels with
//! guaranteed bandwidth in 125 µs cycles; the Stream Manager allocates
//! channels and connects FCM plugs. Experiment E10 uses this to show why
//! the SOAP-based VSG cannot carry streams (§4.2, §6).

use crate::seid::Seid;
use parking_lot::Mutex;
use simnet::{Network, Protocol, Sim, SimDuration};
use std::fmt;
use std::sync::Arc;

/// IEEE1394 isochronous cycle period.
pub const CYCLE: SimDuration = SimDuration::from_micros(125);

/// Number of isochronous channels on a bus.
pub const CHANNELS: u8 = 64;

/// Total allocatable isochronous payload per cycle, in bytes
/// (~80% of an S400 cycle, as the 1394 bandwidth manager enforces).
pub const CYCLE_BUDGET_BYTES: u32 = 4_915;

/// DV standard-definition stream rate: ~25 Mbit/s ≈ 480 bytes/cycle.
pub const DV_BYTES_PER_CYCLE: u32 = 480;

/// One end-to-end isochronous connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamConnection {
    /// Allocated channel number.
    pub channel: u8,
    /// Source FCM plug.
    pub source: Seid,
    /// Sink FCM plug.
    pub sink: Seid,
    /// Reserved payload per 125 µs cycle.
    pub bytes_per_cycle: u32,
}

/// A measured stretch of stream flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamReport {
    /// Isochronous packets delivered.
    pub packets: u64,
    /// Payload bytes delivered.
    pub bytes: u64,
    /// Packets that missed their 125 µs cycle deadline.
    pub late_packets: u64,
    /// Worst observed per-packet jitter, in microseconds.
    pub max_jitter_us: u64,
}

/// Why an allocation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamError {
    /// All 64 channels are taken.
    NoChannel,
    /// The per-cycle bandwidth budget is exhausted.
    NoBandwidth {
        /// Bytes requested per cycle.
        requested: u32,
        /// Bytes still available per cycle.
        available: u32,
    },
    /// The connection id is unknown.
    UnknownChannel(u8),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::NoChannel => write!(f, "no isochronous channel free"),
            StreamError::NoBandwidth {
                requested,
                available,
            } => write!(
                f,
                "isochronous bandwidth exhausted: requested {requested} B/cycle, {available} left"
            ),
            StreamError::UnknownChannel(c) => write!(f, "unknown channel {c}"),
        }
    }
}

impl std::error::Error for StreamError {}

struct StreamState {
    connections: Vec<StreamConnection>,
    used_channels: [bool; CHANNELS as usize],
    used_bytes_per_cycle: u32,
}

/// The per-bus stream manager.
#[derive(Clone)]
pub struct StreamManager {
    net: Network,
    state: Arc<Mutex<StreamState>>,
}

impl StreamManager {
    /// Creates the stream manager for `net` (one per 1394 bus).
    pub fn new(net: &Network) -> StreamManager {
        StreamManager {
            net: net.clone(),
            state: Arc::new(Mutex::new(StreamState {
                connections: Vec::new(),
                used_channels: [false; CHANNELS as usize],
                used_bytes_per_cycle: 0,
            })),
        }
    }

    /// Connects `source` to `sink`, reserving `bytes_per_cycle` of
    /// isochronous bandwidth.
    pub fn connect(
        &self,
        source: Seid,
        sink: Seid,
        bytes_per_cycle: u32,
    ) -> Result<StreamConnection, StreamError> {
        let mut st = self.state.lock();
        let available = CYCLE_BUDGET_BYTES - st.used_bytes_per_cycle;
        if bytes_per_cycle > available {
            return Err(StreamError::NoBandwidth {
                requested: bytes_per_cycle,
                available,
            });
        }
        let channel = st
            .used_channels
            .iter()
            .position(|used| !used)
            .ok_or(StreamError::NoChannel)? as u8;
        st.used_channels[channel as usize] = true;
        st.used_bytes_per_cycle += bytes_per_cycle;
        let conn = StreamConnection {
            channel,
            source,
            sink,
            bytes_per_cycle,
        };
        st.connections.push(conn.clone());
        Ok(conn)
    }

    /// Tears down a connection, releasing its channel and bandwidth.
    pub fn disconnect(&self, channel: u8) -> Result<(), StreamError> {
        let mut st = self.state.lock();
        let idx = st
            .connections
            .iter()
            .position(|c| c.channel == channel)
            .ok_or(StreamError::UnknownChannel(channel))?;
        let conn = st.connections.remove(idx);
        st.used_channels[channel as usize] = false;
        st.used_bytes_per_cycle -= conn.bytes_per_cycle;
        Ok(())
    }

    /// Currently open connections.
    #[cfg(test)]
    fn connections(&self) -> Vec<StreamConnection> {
        self.state.lock().connections.clone()
    }

    /// Unreserved bytes per cycle.
    pub fn available_bytes_per_cycle(&self) -> u32 {
        CYCLE_BUDGET_BYTES - self.state.lock().used_bytes_per_cycle
    }

    /// Flows `duration` of stream over `connection`, advancing virtual
    /// time and accounting the traffic. Isochronous delivery is
    /// cycle-accurate: jitter stays within one cycle, and no packets are
    /// late (this is the property the SOAP bridge in E10 cannot match).
    pub fn pump(
        &self,
        sim: &Sim,
        connection: &StreamConnection,
        duration: SimDuration,
    ) -> StreamReport {
        let cycles = duration.as_micros() / CYCLE.as_micros();
        let bytes = cycles * u64::from(connection.bytes_per_cycle);
        // Account the aggregate traffic without materialising one frame
        // per cycle (a minute of DV is ~half a million packets).
        self.net
            .with_stats(|s| s.record_bulk(Protocol::Isochronous, cycles, bytes));
        sim.advance(duration);
        // Hardware-timed delivery: jitter bounded by cycle start phase.
        let max_jitter_us = if cycles > 0 { CYCLE.as_micros() / 2 } else { 0 };
        StreamReport {
            packets: cycles,
            bytes,
            late_packets: 0,
            max_jitter_us,
        }
    }
}

impl fmt::Debug for StreamManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let st = self.state.lock();
        f.debug_struct("StreamManager")
            .field("connections", &st.connections.len())
            .field("used_bytes_per_cycle", &st.used_bytes_per_cycle)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{NodeId, Sim};

    fn seid(n: u32, h: u32) -> Seid {
        Seid::new(NodeId(n), h)
    }

    fn manager() -> (Sim, Network, StreamManager) {
        let sim = Sim::new(1);
        let net = Network::ieee1394(&sim);
        let smgr = StreamManager::new(&net);
        (sim, net, smgr)
    }

    #[test]
    fn connect_allocates_distinct_channels() {
        let (_sim, _net, smgr) = manager();
        let a = smgr
            .connect(seid(1, 1), seid(2, 1), DV_BYTES_PER_CYCLE)
            .unwrap();
        let b = smgr
            .connect(seid(3, 1), seid(2, 1), DV_BYTES_PER_CYCLE)
            .unwrap();
        assert_ne!(a.channel, b.channel);
        assert_eq!(smgr.connections().len(), 2);
    }

    #[test]
    fn bandwidth_budget_enforced() {
        let (_sim, _net, smgr) = manager();
        // 10 DV streams fit in the S400 budget; the 11th does not.
        for _ in 0..10 {
            smgr.connect(seid(1, 1), seid(2, 1), DV_BYTES_PER_CYCLE)
                .unwrap();
        }
        match smgr.connect(seid(1, 1), seid(2, 1), DV_BYTES_PER_CYCLE) {
            Err(StreamError::NoBandwidth { available, .. }) => {
                assert!(available < DV_BYTES_PER_CYCLE);
            }
            other => panic!("expected NoBandwidth, got {other:?}"),
        }
    }

    #[test]
    fn disconnect_releases_resources() {
        let (_sim, _net, smgr) = manager();
        let c = smgr.connect(seid(1, 1), seid(2, 1), 1000).unwrap();
        let before = smgr.available_bytes_per_cycle();
        smgr.disconnect(c.channel).unwrap();
        assert_eq!(smgr.available_bytes_per_cycle(), before + 1000);
        assert!(smgr.disconnect(c.channel).is_err());
        assert!(smgr.connections().is_empty());
    }

    #[test]
    fn pump_delivers_cycle_accurate_dv() {
        let (sim, net, smgr) = manager();
        let c = smgr
            .connect(seid(1, 1), seid(2, 1), DV_BYTES_PER_CYCLE)
            .unwrap();
        let report = smgr.pump(&sim, &c, SimDuration::from_secs(1));
        assert_eq!(report.packets, 8_000); // 1s / 125us
        assert_eq!(report.bytes, 8_000 * u64::from(DV_BYTES_PER_CYCLE));
        assert_eq!(report.late_packets, 0);
        assert!(report.max_jitter_us <= CYCLE.as_micros());
        assert_eq!(sim.now().as_micros(), 1_000_000);
        // ~3.84 MB/s ≈ 30.7 Mbit/s gross for DV.
        let delivered = net.with_stats(|s| s.protocol(Protocol::Isochronous));
        assert_eq!(delivered.bytes, report.bytes);
    }

    #[test]
    fn channel_exhaustion() {
        let (_sim, _net, smgr) = manager();
        for _ in 0..CHANNELS {
            smgr.connect(seid(1, 1), seid(2, 1), 1).unwrap();
        }
        assert_eq!(
            smgr.connect(seid(1, 1), seid(2, 1), 1),
            Err(StreamError::NoChannel)
        );
    }
}
