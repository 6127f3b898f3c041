//! # havi — a HAVi middleware simulation
//!
//! "HAVi is a digital AV networking middleware that provides a home
//! networking software specification for providing seamless
//! interoperability among home entertainment products … IEEE1394 has
//! been chosen to connect home appliances" (§2.1). This crate reproduces
//! the HAVi 1.1 architecture elements the paper's prototype bridges:
//!
//! * [`MessagingSystem`] — SEID-addressed request/response messages over
//!   1394 asynchronous transactions, with HAVi's compact parameter
//!   encoding ([`HValue`]).
//! * [`Registry`] — attribute-based advertisement and discovery of
//!   software elements.
//! * [`EventManager`] — typed publish/subscribe (a native *push* path).
//! * [`Fcm`] / [`Dcm`] — functional and device control modules with real
//!   transport state machines (VCR, DV camera, tuner, display, amp).
//! * [`StreamManager`] — isochronous channel/bandwidth allocation and
//!   cycle-accurate stream flow.
//! * [`bus_reset`] — 1394 bus resets for failure injection.
//!
//! Note on delivery: event forwarding is synchronous in the simulation;
//! a subscriber must not live on the same node as a poster that posts
//! from inside its own message handler (the simulation would re-enter
//! that node's transaction handler).
//!
//! ```
//! use simnet::{Sim, Network};
//! use havi::{MessagingSystem, Registry, RegistryClient, Dcm, FcmKind,
//!            OpCode, oper, attr, HaviStatus};
//!
//! let sim = Sim::new(7);
//! let bus = Network::ieee1394(&sim);
//! let fav = MessagingSystem::attach(&bus, "fav-controller");
//! let registry = Registry::start(&fav);
//!
//! let mut camcorder = Dcm::install(&bus, "camcorder", 0xCAFE,
//!     &[(FcmKind::DvCamera, "dv-camera")], None);
//! camcorder.announce(registry.seid()).unwrap();
//!
//! // A controller finds the camera and starts it playing.
//! let me = fav.register_element(|_, _| (HaviStatus::Success, vec![]));
//! let client = RegistryClient::new(&fav, me.handle, registry.seid());
//! let cams = client.query(&[(attr::DEVICE_CLASS, "dv-camera")]).unwrap();
//! let (status, _) = fav.send(me.handle, cams[0].seid,
//!     OpCode::new(FcmKind::DvCamera.api_code(), oper::PLAY), vec![]).unwrap();
//! assert!(status.is_ok());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bus;
pub mod dcm;
pub mod ddi;
pub mod events;
pub mod fcm;
pub mod hvalue;
pub mod messaging;
pub mod registry;
pub mod seid;
pub mod stream;

pub use bus::{bus_reset, schedule_bus_reset, RESET_OUTAGE};
pub use dcm::Dcm;
pub use ddi::{DdiController, DdiElement, DdiPanel, API_DDI};
pub use events::{
    decode_forwarded, event_type, post, subscribe, unsubscribe, EventManager, HaviEvent,
};
pub use fcm::{oper, Fcm, FcmKind, FcmStateSnapshot, TransportState};
pub use hvalue::{decode_params, encode_params, CodecError, HValue, MAX_PARAMS, MAX_RUN};
pub use messaging::{ElementHandler, HaviError, HaviMessage, MessagingSystem, OpCode};
pub use registry::{attr, Registry, RegistryClient, RegistryEntry};
pub use seid::{HaviStatus, Seid};
pub use stream::{
    StreamConnection, StreamError, StreamManager, StreamReport, CHANNELS, CYCLE,
    CYCLE_BUDGET_BYTES, DV_BYTES_PER_CYCLE,
};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_hvalue() -> impl Strategy<Value = HValue> {
        prop_oneof![
            any::<bool>().prop_map(HValue::Bool),
            any::<u8>().prop_map(HValue::U8),
            any::<u16>().prop_map(HValue::U16),
            any::<u32>().prop_map(HValue::U32),
            "[ -~]{0,32}".prop_map(HValue::Str),
            prop::collection::vec(any::<u8>(), 0..48).prop_map(HValue::Bytes),
        ]
    }

    proptest! {
        #[test]
        fn params_round_trip(params in prop::collection::vec(arb_hvalue(), 0..12)) {
            let enc = encode_params(&params).unwrap();
            prop_assert_eq!(decode_params(&enc).unwrap(), params);
        }

        #[test]
        fn decoder_never_panics(data in prop::collection::vec(any::<u8>(), 0..120)) {
            let _ = decode_params(&data);
        }

        #[test]
        fn truncated_params_always_error(params in prop::collection::vec(arb_hvalue(), 1..8)) {
            let enc = encode_params(&params).unwrap();
            prop_assert!(decode_params(&enc[..enc.len() - 1]).is_err());
        }

        #[test]
        fn stream_budget_is_conserved(
            sizes in prop::collection::vec(1u32..1_000, 1..20),
        ) {
            let sim = simnet::Sim::new(1);
            let net = simnet::Network::ieee1394(&sim);
            let smgr = StreamManager::new(&net);
            let mut reserved = 0u32;
            let mut channels = Vec::new();
            for s in &sizes {
                match smgr.connect(Seid::new(simnet::NodeId(1), 1), Seid::new(simnet::NodeId(2), 1), *s) {
                    Ok(c) => {
                        reserved += s;
                        channels.push(c.channel);
                    }
                    Err(_) => break,
                }
            }
            prop_assert!(reserved <= CYCLE_BUDGET_BYTES);
            prop_assert_eq!(smgr.available_bytes_per_cycle(), CYCLE_BUDGET_BYTES - reserved);
            // Releasing everything restores the full budget.
            for c in channels {
                smgr.disconnect(c).unwrap();
            }
            prop_assert_eq!(smgr.available_bytes_per_cycle(), CYCLE_BUDGET_BYTES);
        }
    }
}
