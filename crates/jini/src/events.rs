//! Remote events (`net.jini.core.event`).
//!
//! Jini's **push** notification model: a listener is itself a remote
//! object whose `notify(RemoteEvent)` the event source invokes over RMI.
//! Experiment E6 contrasts this native push path with the HTTP-polling
//! bridge the paper's SOAP-based VSG is limited to (§4.2).

use crate::jvalue::JValue;
use crate::rmi::{JiniError, ProxyStub, RemoteProxy, RmiExporter};
use parking_lot::Mutex;
use simnet::{Network, Sim};
use std::sync::Arc;

/// A remote event: source-scoped id, monotonically increasing sequence
/// number, and an opaque payload.
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteEvent {
    /// The event stream id within the source.
    pub event_id: u64,
    /// Sequence number within the stream.
    pub seq: u64,
    /// Event payload.
    pub payload: JValue,
}

impl RemoteEvent {
    /// Encodes for marshalling.
    pub fn to_jvalue(&self) -> JValue {
        JValue::object(
            "net.jini.core.event.RemoteEvent",
            vec![
                ("eventID".into(), JValue::Int(self.event_id as i64)),
                ("seqNum".into(), JValue::Int(self.seq as i64)),
                ("payload".into(), self.payload.clone()),
            ],
        )
    }

    /// Inverse of [`RemoteEvent::to_jvalue`].
    pub fn from_jvalue(v: &JValue) -> Option<RemoteEvent> {
        Some(RemoteEvent {
            event_id: v.field("eventID")?.as_int()? as u64,
            seq: v.field("seqNum")?.as_int()? as u64,
            payload: v.field("payload")?.clone(),
        })
    }
}

/// Exports a listener callback as a remote object and returns the stub an
/// event source needs.
pub fn export_listener(
    exporter: &RmiExporter,
    mut on_event: impl FnMut(&Sim, RemoteEvent) + Send + 'static,
) -> ProxyStub {
    exporter.export(
        "net.jini.core.event.RemoteEventListener",
        move |sim, method, args| {
            if method != "notify" {
                return Err(format!("listener has no method {method}"));
            }
            let event = args
                .first()
                .and_then(RemoteEvent::from_jvalue)
                .ok_or("notify expects a RemoteEvent")?;
            on_event(sim, event);
            Ok(JValue::Null)
        },
    )
}

/// The source side: tracks registered listeners and pushes events to them
/// over RMI.
#[derive(Clone)]
pub struct EventSource {
    net: Network,
    host: simnet::NodeId,
    event_id: u64,
    listeners: Arc<Mutex<Vec<ProxyStub>>>,
    seq: Arc<Mutex<u64>>,
}

impl EventSource {
    /// Creates an event stream `event_id` fired from `host`.
    pub fn new(net: &Network, host: simnet::NodeId, event_id: u64) -> EventSource {
        EventSource {
            net: net.clone(),
            host,
            event_id,
            listeners: Arc::new(Mutex::new(Vec::new())),
            seq: Arc::new(Mutex::new(0)),
        }
    }

    /// Registers a listener stub.
    pub fn register(&self, listener: ProxyStub) {
        self.listeners.lock().push(listener);
    }

    /// Removes a listener stub.
    pub fn unregister(&self, listener: &ProxyStub) {
        self.listeners.lock().retain(|l| l != listener);
    }

    /// Number of registered listeners.
    #[cfg(test)]
    fn listener_count(&self) -> usize {
        self.listeners.lock().len()
    }

    /// Fires an event to every listener, returning per-listener delivery
    /// results (a dead listener does not prevent delivery to the rest).
    pub fn fire(&self, payload: JValue) -> Vec<Result<(), JiniError>> {
        let seq = {
            let mut s = self.seq.lock();
            *s += 1;
            *s
        };
        let event = RemoteEvent {
            event_id: self.event_id,
            seq,
            payload,
        };
        let listeners = self.listeners.lock().clone();
        listeners
            .into_iter()
            .map(|stub| {
                RemoteProxy::new(&self.net, self.host, stub)
                    .invoke("notify", &[event.to_jvalue()])
                    .map(|_| ())
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::Sim;

    #[test]
    fn events_push_to_listeners() {
        let sim = Sim::new(1);
        let net = Network::ethernet(&sim);
        let sensor = net.attach("sensor");
        let source = EventSource::new(&net, sensor, 7);

        let exporter = RmiExporter::attach(&net, "pc");
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = seen.clone();
        let stub = export_listener(&exporter, move |_, e| seen2.lock().push(e));
        source.register(stub);
        assert_eq!(source.listener_count(), 1);

        let results = source.fire(JValue::Str("motion".into()));
        assert!(results.iter().all(Result::is_ok));
        let results = source.fire(JValue::Str("motion2".into()));
        assert!(results.iter().all(Result::is_ok));

        let seen = seen.lock();
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[0].seq, 1);
        assert_eq!(seen[1].seq, 2);
        assert_eq!(seen[0].event_id, 7);
        assert_eq!(seen[0].payload, JValue::Str("motion".into()));
    }

    #[test]
    fn dead_listener_does_not_block_others() {
        let sim = Sim::new(1);
        let net = Network::ethernet(&sim);
        let sensor = net.attach("sensor");
        let source = EventSource::new(&net, sensor, 1);

        let exporter = RmiExporter::attach(&net, "alive");
        let seen = Arc::new(Mutex::new(0u32));
        let seen2 = seen.clone();
        let alive = export_listener(&exporter, move |_, _| *seen2.lock() += 1);
        let dead = ProxyStub {
            host: simnet::NodeId(999),
            object_id: 1,
            interface: "L".into(),
        };
        source.register(dead);
        source.register(alive);

        let results = source.fire(JValue::Null);
        assert!(results[0].is_err());
        assert!(results[1].is_ok());
        assert_eq!(*seen.lock(), 1);
    }

    #[test]
    fn unregister_stops_delivery() {
        let sim = Sim::new(1);
        let net = Network::ethernet(&sim);
        let sensor = net.attach("sensor");
        let source = EventSource::new(&net, sensor, 1);
        let exporter = RmiExporter::attach(&net, "pc");
        let seen = Arc::new(Mutex::new(0u32));
        let seen2 = seen.clone();
        let stub = export_listener(&exporter, move |_, _| *seen2.lock() += 1);
        source.register(stub.clone());
        source.fire(JValue::Null);
        source.unregister(&stub);
        assert_eq!(source.listener_count(), 0);
        source.fire(JValue::Null);
        assert_eq!(*seen.lock(), 1);
    }

    #[test]
    fn event_jvalue_round_trip() {
        let e = RemoteEvent {
            event_id: 3,
            seq: 14,
            payload: JValue::Int(9),
        };
        assert_eq!(RemoteEvent::from_jvalue(&e.to_jvalue()).unwrap(), e);
        assert!(RemoteEvent::from_jvalue(&JValue::Null).is_none());
    }
}
