//! Traffic statistics.
//!
//! Benches and EXPERIMENTS.md report message counts and byte volumes per
//! protocol family; every [`crate::net::Network`] feeds a [`NetStats`].

use crate::frame::Protocol;
use std::collections::BTreeMap;

/// Counters for one protocol family on one network.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter {
    /// Frames successfully delivered.
    pub frames: u64,
    /// Payload bytes successfully delivered.
    pub bytes: u64,
    /// Frames lost to noise/collision.
    pub lost: u64,
}

/// Per-protocol traffic counters for one network.
#[derive(Debug, Clone, Default)]
pub struct NetStats {
    by_protocol: BTreeMap<&'static str, Counter>,
    conns_opened: u64,
}

impl NetStats {
    /// Creates an empty statistics table.
    pub fn new() -> Self {
        Self::default()
    }

    fn key(p: Protocol) -> &'static str {
        match p {
            Protocol::Raw => "raw",
            Protocol::Http => "http",
            Protocol::Jini => "jini",
            Protocol::Havi => "havi",
            Protocol::Isochronous => "iso",
            Protocol::X10 => "x10",
            Protocol::Mail => "mail",
            Protocol::Upnp => "upnp",
            Protocol::Sip => "sip",
        }
    }

    /// Records a successful delivery.
    pub fn record_delivered(&mut self, protocol: Protocol, bytes: usize) {
        let c = self.by_protocol.entry(Self::key(protocol)).or_default();
        c.frames += 1;
        c.bytes += bytes as u64;
    }

    /// Records `frames` deliveries totalling `bytes` in one call (used by
    /// stream simulation, where per-packet accounting would be wasteful).
    pub fn record_bulk(&mut self, protocol: Protocol, frames: u64, bytes: u64) {
        let c = self.by_protocol.entry(Self::key(protocol)).or_default();
        c.frames += frames;
        c.bytes += bytes;
    }

    /// Records a lost frame.
    pub fn record_lost(&mut self, protocol: Protocol) {
        self.by_protocol
            .entry(Self::key(protocol))
            .or_default()
            .lost += 1;
    }

    /// Records one transport connection establishment (a TCP-style
    /// handshake). Persistent-connection clients call this once per
    /// peer; connect-per-call clients once per exchange, which is what
    /// makes the saving visible in bench output.
    pub fn record_conn_open(&mut self) {
        self.conns_opened += 1;
    }

    /// Transport connections opened so far.
    pub fn conns_opened(&self) -> u64 {
        self.conns_opened
    }

    /// The counter for one protocol family (zeroes if never seen).
    pub fn protocol(&self, protocol: Protocol) -> Counter {
        self.by_protocol
            .get(Self::key(protocol))
            .copied()
            .unwrap_or_default()
    }

    /// Sums over all protocol families.
    pub fn total(&self) -> Counter {
        let mut t = Counter::default();
        for c in self.by_protocol.values() {
            t.frames += c.frames;
            t.bytes += c.bytes;
            t.lost += c.lost;
        }
        t
    }

    /// Iterates `(protocol-label, counter)` pairs in stable order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, Counter)> + '_ {
        self.by_protocol.iter().map(|(k, v)| (*k, *v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate_per_protocol() {
        let mut s = NetStats::new();
        s.record_delivered(Protocol::Http, 100);
        s.record_delivered(Protocol::Http, 50);
        s.record_delivered(Protocol::X10, 2);
        s.record_lost(Protocol::X10);
        assert_eq!(
            s.protocol(Protocol::Http),
            Counter {
                frames: 2,
                bytes: 150,
                lost: 0
            }
        );
        assert_eq!(
            s.protocol(Protocol::X10),
            Counter {
                frames: 1,
                bytes: 2,
                lost: 1
            }
        );
        assert_eq!(s.protocol(Protocol::Jini), Counter::default());
    }

    #[test]
    fn totals_sum_everything() {
        let mut s = NetStats::new();
        s.record_delivered(Protocol::Jini, 10);
        s.record_delivered(Protocol::Havi, 20);
        s.record_lost(Protocol::Havi);
        let t = s.total();
        assert_eq!(
            t,
            Counter {
                frames: 2,
                bytes: 30,
                lost: 1
            }
        );
    }

    #[test]
    fn iter_is_stably_ordered() {
        let mut s = NetStats::new();
        s.record_delivered(Protocol::X10, 1);
        s.record_delivered(Protocol::Http, 1);
        s.record_delivered(Protocol::Jini, 1);
        let keys: Vec<_> = s.iter().map(|(k, _)| k).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }
}
