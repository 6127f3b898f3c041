//! The HAVi Event Manager.
//!
//! Software elements subscribe to typed events; posters send one message
//! to the event manager, which fans out a `ForwardEvent` message to every
//! subscriber. Like Jini's remote events this is a **push** path — the
//! thing the paper's HTTP-based VSG cannot express (§4.2).

use crate::hvalue::HValue;
use crate::messaging::{HaviError, HaviMessage, MessagingSystem, OpCode};
use crate::seid::{HaviStatus, Seid};
use parking_lot::Mutex;
use simnet::NodeId;
use std::collections::HashMap;
use std::sync::Arc;

/// Event Manager API class.
const API_EVENT_MANAGER: u16 = 0x0002;
/// `EventManager::Subscribe`.
const OPER_SUBSCRIBE: u16 = 1;
/// `EventManager::Unsubscribe`.
const OPER_UNSUBSCRIBE: u16 = 2;
/// `EventManager::PostEvent`.
const OPER_POST: u16 = 3;
/// Delivered to subscribers: `ForwardEvent`.
const OPER_FORWARD: u16 = 4;

/// Well-known event types.
pub mod event_type {
    /// The 1394 bus reset and re-enumerated.
    #[cfg(test)]
    pub(super) const BUS_RESET: u16 = 1;
    /// An FCM's transport state changed.
    pub const TRANSPORT_CHANGED: u16 = 2;
    /// A new device joined the network.
    #[cfg(test)]
    pub(super) const DEVICE_ADDED: u16 = 3;
    /// A device left the network.
    #[cfg(test)]
    pub(super) const DEVICE_GONE: u16 = 4;
}

/// The event manager service.
#[derive(Clone)]
pub struct EventManager {
    seid: Seid,
}

impl EventManager {
    /// Starts the event manager on `ms`'s node.
    pub fn start(ms: &MessagingSystem) -> EventManager {
        let subscriptions: Mutex<HashMap<u16, Vec<Seid>>> = Mutex::new(HashMap::new());
        let ms2 = ms.clone();
        let seid_cell: Arc<Mutex<Option<Seid>>> = Arc::new(Mutex::new(None));
        let seid_cell2 = seid_cell.clone();
        let seid = ms.register_element(move |_sim, msg| {
            if msg.opcode.api != API_EVENT_MANAGER {
                return (HaviStatus::EUnsupported, vec![]);
            }
            match msg.opcode.oper {
                OPER_SUBSCRIBE => match msg.params.first().and_then(HValue::as_u32) {
                    Some(ty) => {
                        let mut subs = subscriptions.lock();
                        let list = subs.entry(ty as u16).or_default();
                        if !list.contains(&msg.src) {
                            list.push(msg.src);
                        }
                        (HaviStatus::Success, vec![])
                    }
                    None => (HaviStatus::EParameter, vec![]),
                },
                OPER_UNSUBSCRIBE => match msg.params.first().and_then(HValue::as_u32) {
                    Some(ty) => {
                        let mut subs = subscriptions.lock();
                        if let Some(list) = subs.get_mut(&(ty as u16)) {
                            list.retain(|s| *s != msg.src);
                        }
                        (HaviStatus::Success, vec![])
                    }
                    None => (HaviStatus::EParameter, vec![]),
                },
                OPER_POST => match msg.params.first().and_then(HValue::as_u32) {
                    Some(ty) => {
                        let targets = subscriptions
                            .lock()
                            .get(&(ty as u16))
                            .cloned()
                            .unwrap_or_default();
                        let my_seid = seid_cell2.lock().expect("set after registration");
                        let mut forwarded =
                            vec![HValue::U32(msg.src.node.0), HValue::U32(msg.src.handle)];
                        forwarded.extend_from_slice(&msg.params);
                        for target in targets {
                            // Losing one subscriber must not fail the post.
                            let _ = ms2.send(
                                my_seid.handle,
                                target,
                                OpCode::new(API_EVENT_MANAGER, OPER_FORWARD),
                                forwarded.clone(),
                            );
                        }
                        (HaviStatus::Success, vec![])
                    }
                    None => (HaviStatus::EParameter, vec![]),
                },
                _ => (HaviStatus::EUnsupported, vec![]),
            }
        });
        *seid_cell.lock() = Some(seid);
        EventManager { seid }
    }

    /// The event manager's SEID.
    pub fn seid(&self) -> Seid {
        self.seid
    }
}

/// A received event: who posted it, its type, and its payload.
#[derive(Debug, Clone, PartialEq)]
pub struct HaviEvent {
    /// The posting element.
    pub poster: Seid,
    /// Event type (see [`event_type`]).
    pub event_type: u16,
    /// Payload parameters.
    pub payload: Vec<HValue>,
}

/// Decodes a `ForwardEvent` message received by a subscriber element.
pub fn decode_forwarded(msg: &HaviMessage) -> Option<HaviEvent> {
    if msg.opcode != OpCode::new(API_EVENT_MANAGER, OPER_FORWARD) {
        return None;
    }
    let poster = Seid::new(
        NodeId(msg.params.first()?.as_u32()?),
        msg.params.get(1)?.as_u32()?,
    );
    let event_type = msg.params.get(2)?.as_u32()? as u16;
    Some(HaviEvent {
        poster,
        event_type,
        payload: msg.params[3..].to_vec(),
    })
}

/// Subscribes local element `src_handle` on `ms` to `event_type` at the
/// event manager `em`.
pub fn subscribe(
    ms: &MessagingSystem,
    src_handle: u32,
    em: Seid,
    event_type: u16,
) -> Result<(), HaviError> {
    ms.send_ok(
        src_handle,
        em,
        OpCode::new(API_EVENT_MANAGER, OPER_SUBSCRIBE),
        vec![HValue::U16(event_type)],
    )
    .map(|_| ())
}

/// Unsubscribes.
pub fn unsubscribe(
    ms: &MessagingSystem,
    src_handle: u32,
    em: Seid,
    event_type: u16,
) -> Result<(), HaviError> {
    ms.send_ok(
        src_handle,
        em,
        OpCode::new(API_EVENT_MANAGER, OPER_UNSUBSCRIBE),
        vec![HValue::U16(event_type)],
    )
    .map(|_| ())
}

/// Posts an event of `event_type` with `payload` from local element
/// `src_handle`.
pub fn post(
    ms: &MessagingSystem,
    src_handle: u32,
    em: Seid,
    event_type: u16,
    payload: Vec<HValue>,
) -> Result<(), HaviError> {
    let mut params = vec![HValue::U16(event_type)];
    params.extend(payload);
    ms.send_ok(
        src_handle,
        em,
        OpCode::new(API_EVENT_MANAGER, OPER_POST),
        params,
    )
    .map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{Network, Sim};

    fn world() -> (Sim, Network, MessagingSystem, EventManager) {
        let sim = Sim::new(1);
        let net = Network::ieee1394(&sim);
        let fav = MessagingSystem::attach(&net, "fav");
        let em = EventManager::start(&fav);
        (sim, net, fav, em)
    }

    #[test]
    fn subscribe_post_receive() {
        let (_sim, net, _fav, em) = world();
        let tv = MessagingSystem::attach(&net, "tv");
        let seen: Arc<Mutex<Vec<HaviEvent>>> = Arc::new(Mutex::new(Vec::new()));
        let seen2 = seen.clone();
        let listener = tv.register_element(move |_, msg| {
            if let Some(ev) = decode_forwarded(msg) {
                seen2.lock().push(ev);
            }
            (HaviStatus::Success, vec![])
        });
        subscribe(
            &tv,
            listener.handle,
            em.seid(),
            event_type::TRANSPORT_CHANGED,
        )
        .unwrap();

        let vcr = MessagingSystem::attach(&net, "vcr");
        let poster = vcr.register_element(|_, _| (HaviStatus::Success, vec![]));
        post(
            &vcr,
            poster.handle,
            em.seid(),
            event_type::TRANSPORT_CHANGED,
            vec![HValue::Str("recording".into())],
        )
        .unwrap();

        let seen = seen.lock();
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].poster, poster);
        assert_eq!(seen[0].event_type, event_type::TRANSPORT_CHANGED);
        assert_eq!(seen[0].payload[0].as_str(), Some("recording"));
    }

    #[test]
    fn unsubscribe_stops_delivery() {
        let (_sim, net, _fav, em) = world();
        let tv = MessagingSystem::attach(&net, "tv");
        let count = Arc::new(Mutex::new(0u32));
        let count2 = count.clone();
        let listener = tv.register_element(move |_, msg| {
            if decode_forwarded(msg).is_some() {
                *count2.lock() += 1;
            }
            (HaviStatus::Success, vec![])
        });
        subscribe(&tv, listener.handle, em.seid(), event_type::BUS_RESET).unwrap();
        post(
            &tv,
            listener.handle,
            em.seid(),
            event_type::BUS_RESET,
            vec![],
        )
        .unwrap();
        unsubscribe(&tv, listener.handle, em.seid(), event_type::BUS_RESET).unwrap();
        post(
            &tv,
            listener.handle,
            em.seid(),
            event_type::BUS_RESET,
            vec![],
        )
        .unwrap();
        assert_eq!(*count.lock(), 1);
    }

    #[test]
    fn events_are_type_scoped() {
        let (_sim, net, _fav, em) = world();
        let tv = MessagingSystem::attach(&net, "tv");
        let count = Arc::new(Mutex::new(0u32));
        let count2 = count.clone();
        let listener = tv.register_element(move |_, msg| {
            if decode_forwarded(msg).is_some() {
                *count2.lock() += 1;
            }
            (HaviStatus::Success, vec![])
        });
        subscribe(&tv, listener.handle, em.seid(), event_type::DEVICE_ADDED).unwrap();
        post(
            &tv,
            listener.handle,
            em.seid(),
            event_type::DEVICE_GONE,
            vec![],
        )
        .unwrap();
        assert_eq!(*count.lock(), 0);
    }

    #[test]
    fn duplicate_subscription_is_idempotent() {
        let (_sim, net, _fav, em) = world();
        let tv = MessagingSystem::attach(&net, "tv");
        let count = Arc::new(Mutex::new(0u32));
        let count2 = count.clone();
        let listener = tv.register_element(move |_, msg| {
            if decode_forwarded(msg).is_some() {
                *count2.lock() += 1;
            }
            (HaviStatus::Success, vec![])
        });
        subscribe(&tv, listener.handle, em.seid(), event_type::BUS_RESET).unwrap();
        subscribe(&tv, listener.handle, em.seid(), event_type::BUS_RESET).unwrap();
        post(
            &tv,
            listener.handle,
            em.seid(),
            event_type::BUS_RESET,
            vec![],
        )
        .unwrap();
        assert_eq!(*count.lock(), 1);
    }

    #[test]
    fn dead_subscriber_does_not_fail_post() {
        let (_sim, net, _fav, em) = world();
        let tv = MessagingSystem::attach(&net, "tv");
        let listener = tv.register_element(|_, _| (HaviStatus::Success, vec![]));
        subscribe(&tv, listener.handle, em.seid(), event_type::BUS_RESET).unwrap();
        tv.unregister_element(listener);
        // The poster still succeeds even though forwarding fails.
        let vcr = MessagingSystem::attach(&net, "vcr");
        let poster = vcr.register_element(|_, _| (HaviStatus::Success, vec![]));
        post(
            &vcr,
            poster.handle,
            em.seid(),
            event_type::BUS_RESET,
            vec![],
        )
        .unwrap();
    }
}
