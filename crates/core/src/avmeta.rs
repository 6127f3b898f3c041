//! The AV meta-middleware — the second §6 future-work item.
//!
//! "Another Meta middleware should be developed for some critical
//! applications such as multimedia services … \[with\] conversion of
//! multimedia streams … And the middleware would be able to coexist with
//! our framework described in this paper, at the same area."
//!
//! [`AvBroker`] is that coexisting meta-middleware: its **control plane**
//! rides the framework (services are found in the VSR; endpoints are the
//! PCM's imported FCMs), but its **data plane** never touches the VSG —
//! streams flow on native IEEE1394 isochronous channels, because E10
//! shows the VSG cannot carry them. Asking for a stream whose endpoints
//! have no shared native medium is refused honestly.

use crate::error::MetaError;
use crate::pcm::havi::HaviPcm;
use crate::service::Middleware;
use crate::vsg::Vsg;
use havi::{Seid, StreamConnection, StreamManager, StreamReport, DV_BYTES_PER_CYCLE};
use parking_lot::Mutex;
use simnet::{Sim, SimDuration};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Stream formats the broker understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AvFormat {
    /// DV standard definition (~30.7 Mbit/s gross).
    Dv,
    /// MPEG-2 at half the DV cycle budget (the broker's transcode target).
    Mpeg2,
}

impl AvFormat {
    /// Reserved isochronous payload per 125 µs cycle.
    pub fn bytes_per_cycle(self) -> u32 {
        match self {
            AvFormat::Dv => DV_BYTES_PER_CYCLE,
            AvFormat::Mpeg2 => DV_BYTES_PER_CYCLE / 2,
        }
    }

    /// Label for traces and reports.
    pub fn label(self) -> &'static str {
        match self {
            AvFormat::Dv => "dv",
            AvFormat::Mpeg2 => "mpeg2",
        }
    }
}

/// An open AV session.
#[derive(Debug, Clone)]
pub struct AvSession {
    /// Session id.
    pub id: u64,
    /// Source service name (as in the VSR).
    pub source: String,
    /// Sink service name.
    pub sink: String,
    /// Format produced by the source.
    pub source_format: AvFormat,
    /// Format delivered to the sink (transcoded if different).
    pub sink_format: AvFormat,
    /// The reserved native connection.
    pub connection: StreamConnection,
}

impl AvSession {
    /// True if the broker inserted a format converter.
    pub fn converted(&self) -> bool {
        self.source_format != self.sink_format
    }
}

/// Statistics from pumping a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AvReport {
    /// The underlying isochronous transfer.
    pub stream: StreamReport,
    /// Bytes saved by transcoding (0 if formats match).
    pub bytes_saved: u64,
}

struct BrokerState {
    next_id: u64,
    sessions: HashMap<u64, AvSession>,
}

/// The AV session broker for one HAVi island.
#[derive(Clone)]
pub struct AvBroker {
    vsg: Vsg,
    pcm: Arc<HaviPcm>,
    streams: StreamManager,
    state: Arc<Mutex<BrokerState>>,
}

impl AvBroker {
    /// Creates a broker over the HAVi island's gateway, PCM and stream
    /// manager.
    pub fn new(vsg: &Vsg, pcm: Arc<HaviPcm>, streams: &StreamManager) -> AvBroker {
        AvBroker {
            vsg: vsg.clone(),
            pcm,
            streams: streams.clone(),
            state: Arc::new(Mutex::new(BrokerState {
                next_id: 0,
                sessions: HashMap::new(),
            })),
        }
    }

    /// Resolves a service to its native FCM endpoint, refusing services
    /// that have no native path on this island.
    fn native_endpoint(&self, service: &str) -> Result<Seid, MetaError> {
        let record = self.vsg.resolve(service)?;
        if record.middleware != Middleware::Havi {
            return Err(MetaError::Native {
                middleware: "avmeta".into(),
                detail: format!(
                    "'{service}' lives on {}: streams cannot ride the VSG (E10); \
                     no native isochronous path exists",
                    record.middleware
                ),
            });
        }
        self.pcm
            .fcm_of(service)
            .map(|(_, seid)| seid)
            .ok_or_else(|| MetaError::native("avmeta", format!("'{service}' has no local FCM")))
    }

    /// Opens a session from `source` to `sink`. The control plane (both
    /// resolutions) crosses the framework; the data plane reserves a
    /// native channel at the *sink's* format (the broker transcodes when
    /// the formats differ).
    pub fn open_session(
        &self,
        sim: &Sim,
        source: &str,
        source_format: AvFormat,
        sink: &str,
        sink_format: AvFormat,
    ) -> Result<AvSession, MetaError> {
        let src_seid = self.native_endpoint(source)?;
        let sink_seid = self.native_endpoint(sink)?;
        // Session setup signalling: one control round trip per endpoint
        // (the CORBA-ish call of §6, carried over the framework).
        sim.advance(SimDuration::from_millis(2));
        let connection = self
            .streams
            .connect(src_seid, sink_seid, sink_format.bytes_per_cycle())
            .map_err(|e| MetaError::native("avmeta", e))?;
        let mut st = self.state.lock();
        st.next_id += 1;
        let session = AvSession {
            id: st.next_id,
            source: source.to_owned(),
            sink: sink.to_owned(),
            source_format,
            sink_format,
            connection,
        };
        st.sessions.insert(session.id, session.clone());
        Ok(session)
    }

    /// Flows `duration` of media over the session.
    pub fn pump(&self, sim: &Sim, session: &AvSession, duration: SimDuration) -> AvReport {
        let stream = self.streams.pump(sim, &session.connection, duration);
        let bytes_saved = if session.converted() {
            let cycles = stream.packets;
            let source_bytes = cycles * u64::from(session.source_format.bytes_per_cycle());
            source_bytes.saturating_sub(stream.bytes)
        } else {
            0
        };
        AvReport {
            stream,
            bytes_saved,
        }
    }

    /// Closes a session, releasing the channel and bandwidth.
    pub fn close_session(&self, session_id: u64) -> Result<(), MetaError> {
        let session = self
            .state
            .lock()
            .sessions
            .remove(&session_id)
            .ok_or_else(|| MetaError::native("avmeta", format!("no session {session_id}")))?;
        self.streams
            .disconnect(session.connection.channel)
            .map_err(|e| MetaError::native("avmeta", e))
    }

    /// The HAVi PCM whose FCM map provides the native endpoints.
    pub fn pcm(&self) -> &Arc<HaviPcm> {
        &self.pcm
    }

    /// Currently open sessions.
    fn session_count(&self) -> usize {
        self.state.lock().sessions.len()
    }
}

impl fmt::Debug for AvBroker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AvBroker")
            .field("sessions", &self.session_count())
            .field(
                "free_bytes_per_cycle",
                &self.streams.available_bytes_per_cycle(),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::home::SmartHome;

    fn broker_home() -> (SmartHome, AvBroker) {
        let home = SmartHome::builder().build().unwrap();
        let havi = home.havi.as_ref().unwrap();
        let broker = AvBroker::new(
            &havi.vsg,
            Arc::new(HaviPcm::start(&havi.vsg, &havi.bus, havi.registry.seid())),
            &havi.streams,
        );
        // The fresh PCM needs its own import pass to learn the FCM map.
        broker.pcm.import_services().unwrap();
        (home, broker)
    }

    #[test]
    fn dv_session_flows_natively() {
        let (home, broker) = broker_home();
        let session = broker
            .open_session(
                &home.sim,
                "dv-camera",
                AvFormat::Dv,
                "living-room-vcr",
                AvFormat::Dv,
            )
            .unwrap();
        assert!(!session.converted());
        assert_eq!(broker.session_count(), 1);

        let report = broker.pump(&home.sim, &session, SimDuration::from_secs(2));
        assert_eq!(report.stream.packets, 16_000);
        assert_eq!(report.stream.late_packets, 0);
        assert_eq!(report.bytes_saved, 0);

        broker.close_session(session.id).unwrap();
        assert_eq!(broker.session_count(), 0);
        assert!(broker.close_session(session.id).is_err());
    }

    #[test]
    fn transcoding_halves_reserved_bandwidth() {
        let (home, broker) = broker_home();
        let before = broker.streams.available_bytes_per_cycle();
        let session = broker
            .open_session(
                &home.sim,
                "dv-camera",
                AvFormat::Dv,
                "tv-display",
                AvFormat::Mpeg2,
            )
            .unwrap();
        assert!(session.converted());
        assert_eq!(
            before - broker.streams.available_bytes_per_cycle(),
            AvFormat::Mpeg2.bytes_per_cycle()
        );
        let report = broker.pump(&home.sim, &session, SimDuration::from_secs(1));
        assert!(report.bytes_saved > 0);
        assert_eq!(
            report.bytes_saved,
            u64::from(AvFormat::Dv.bytes_per_cycle() - AvFormat::Mpeg2.bytes_per_cycle()) * 8_000
        );
    }

    #[test]
    fn cross_island_streams_are_refused_with_the_e10_reason() {
        let (home, broker) = broker_home();
        let err = broker
            .open_session(
                &home.sim,
                "dv-camera",
                AvFormat::Dv,
                "hall-lamp",
                AvFormat::Dv,
            )
            .unwrap_err();
        assert!(err.to_string().contains("cannot ride the VSG"), "{err}");
        let err = broker
            .open_session(
                &home.sim,
                "laserdisc",
                AvFormat::Dv,
                "tv-display",
                AvFormat::Dv,
            )
            .unwrap_err();
        assert!(err.to_string().contains("jini"), "{err}");
        assert_eq!(broker.session_count(), 0);
    }

    #[test]
    fn bandwidth_exhaustion_is_a_clean_error() {
        let (home, broker) = broker_home();
        // 10 DV sessions fill the S400 budget.
        let mut opened = 0;
        loop {
            match broker.open_session(
                &home.sim,
                "dv-camera",
                AvFormat::Dv,
                "living-room-vcr",
                AvFormat::Dv,
            ) {
                Ok(_) => opened += 1,
                Err(e) => {
                    assert!(e.to_string().contains("bandwidth"), "{e}");
                    break;
                }
            }
            assert!(opened < 64, "budget never enforced");
        }
        assert_eq!(opened, 10);
    }

    #[test]
    fn sessions_coexist_with_control_traffic() {
        // §6: the AV meta-middleware coexists with the framework "at the
        // same area" — control calls keep working while a stream flows.
        let (home, broker) = broker_home();
        let session = broker
            .open_session(
                &home.sim,
                "dv-camera",
                AvFormat::Dv,
                "living-room-vcr",
                AvFormat::Dv,
            )
            .unwrap();
        broker.pump(&home.sim, &session, SimDuration::from_secs(1));
        home.invoke_from(Middleware::Jini, "dv-camera", "record", &[])
            .unwrap();
        broker.pump(&home.sim, &session, SimDuration::from_secs(1));
        home.invoke_from(Middleware::X10, "living-room-vcr", "status", &[])
            .unwrap();
    }
}
