//! # metaware — a framework for connecting home computing middleware
//!
//! A faithful reproduction of Tokunaga, Ishikawa, Kurahashi, Morimoto &
//! Nakajima, *"A Framework for Connecting Home Computing Middleware"*,
//! Proc. 22nd ICDCS Workshops, 2002 — as a Rust library over simulated
//! middleware stacks ([`jini`], [`havi`], [`x10`], [`mailsvc`],
//! [`upnp`]) on a deterministic virtual-time network substrate
//! ([`simnet`]).
//!
//! ## The architecture (paper §3)
//!
//! ```text
//!   Jini island          HAVi island          X10 island
//!  (Ethernet/RMI)       (IEEE1394 msgs)      (powerline/CM11A)
//!        │                    │                    │
//!     [ PCM ]              [ PCM ]              [ PCM ]      ← one per middleware
//!        │                    │                    │
//!     [ VSG ]═══════════ [ VSG ] ═══════════ [ VSG ]         ← SOAP (pluggable)
//!                   ╲         │        ╱
//!                      [ VSR: WSDL + UDDI ]                  ← discovery
//! ```
//!
//! * [`Vsg`] — the **Virtual Service Gateway**: one per middleware
//!   island; gateways speak a pluggable [`VsgProtocol`] to each other
//!   ([`Soap11`] as the prototype, [`CompactBinary`] and [`SipLike`] as
//!   the paper's discussed alternatives).
//! * [`pcm`] — **Protocol Conversion Managers** with Server Proxy /
//!   Client Proxy module pairs, one per middleware.
//! * [`Vsr`] — the **Virtual Service Repository**: a SOAP service over a
//!   UDDI registry holding WSDL service descriptions.
//! * [`proxygen`] — automatic proxy generation from interfaces (the
//!   prototype's Javassist role).
//! * [`events`] — the §4.2 event problem: HTTP polling vs SIP push.
//! * [`SmartHome`] — the paper's §1 scenario, ready-made for examples,
//!   tests and benchmarks.
//!
//! ## Quick start
//!
//! ```
//! use metaware::{SmartHome, Middleware};
//! use soap::Value;
//!
//! // The full §1 home: Jini + HAVi + X10 + mail, bridged over SOAP.
//! let home = SmartHome::builder().build().unwrap();
//!
//! // From the Jini island's PC, switch an X10 lamp — transparently.
//! home.invoke_from(Middleware::Jini, "hall-lamp", "switch",
//!                  &[("on".into(), Value::Bool(true))]).unwrap();
//! assert!(home.x10.as_ref().unwrap().hall_lamp.is_on());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod activation;
pub mod avmeta;
pub mod batch;
pub mod compose;
pub mod error;
pub mod events;
pub mod federation;
pub mod fleet;
pub mod home;
pub mod iface;
pub mod intern;
pub mod metrics;
pub mod obs;
pub mod pcm;
pub mod protocol;
pub mod proxygen;
pub mod rescache;
pub mod resilience;
pub mod service;
pub mod trace;
pub mod vsg;
pub mod vsr;

pub use activation::{ActivationStats, Activator};
pub use avmeta::{AvBroker, AvFormat, AvReport, AvSession};
pub use batch::{BatchCall, BatchItem, BatchPolicy};
pub use compose::{
    Binding, CompensationSpec, ComposeOutcome, CompositeSpec, StepSpec, COMPOSITE_SPEC_CONTEXT,
};
pub use error::MetaError;
pub use events::{BridgeStats, PollingBridge, SipPublisher, SipSubscriber};
pub use federation::{FederationConfig, ShardMap, Version};
pub use fleet::{env_threads, HomeFleet};
pub use home::{house, unit, SmartHome, SmartHomeBuilder};
pub use iface::{catalog, InterfaceCatalog, OpSig, ServiceInterface, TypeTag};
pub use intern::Name;
pub use metrics::{footprint, CacheStats, MetricsRegistry, MetricsSnapshot, RegistrySnapshot};
pub use obs::{
    FlightRecorder, HistSketch, KeepReason, KeptTrace, Layer, RecorderStats, SamplePolicy,
};
pub use pcm::cloud::{
    CloudBackbone, CloudBridgePcm, CloudBridgeStats, CloudCell, CloudCellStats, CloudCommand,
    CloudConfig, CloudFleetSummary, CloudIsland,
};
pub use pcm::ProtocolConversionManager;
pub use protocol::{CompactBinary, SipLike, Soap11, VsgProtocol, VsgRequest};
pub use proxygen::{generate, GeneratedProxy, ProxyGenCost, ProxyTarget};
pub use rescache::{ResolutionCache, ShardMapCache};
pub use resilience::{BreakerBank, BreakerState, CircuitBreaker, ResiliencePolicy};
pub use service::{Middleware, ServiceInvoker, VirtualService};
pub use trace::{HopKind, Span, SpanId, TraceContext, TraceId, Tracer};
pub use vsg::Vsg;
pub use vsr::{ServiceRecord, Vsr, VsrClient};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use soap::Value;

    fn arb_value() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            any::<i64>().prop_map(Value::Int),
            (-1.0e9f64..1.0e9).prop_map(Value::Float),
            "[ -~]{0,24}".prop_map(Value::Str),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Every VSG protocol must deliver arbitrary argument records
        /// between gateways unchanged — the core transparency property.
        #[test]
        fn protocols_preserve_arbitrary_args(
            args in prop::collection::vec(("[a-z][a-z0-9]{0,6}", arb_value()), 0..5),
            which in 0usize..3,
        ) {
            // Unique argument names (duplicates are ill-formed calls).
            let mut seen = std::collections::HashSet::new();
            let args: Vec<(String, Value)> = args
                .into_iter()
                .filter(|(k, _)| seen.insert(k.clone()))
                .collect();

            let protocol: std::sync::Arc<dyn VsgProtocol> = match which {
                0 => std::sync::Arc::new(Soap11::new()),
                1 => std::sync::Arc::new(CompactBinary::new()),
                _ => std::sync::Arc::new(SipLike::new()),
            };
            let sim = simnet::Sim::new(1);
            let net = simnet::Network::ethernet(&sim);
            let server = protocol.bind(
                &net,
                "gw",
                std::sync::Arc::new(|_, req: &VsgRequest| Ok(Value::Record(req.args.clone()))),
            );
            let client = net.attach("c");
            let mut req = VsgRequest::new("svc", "echo");
            req.args = args.clone();
            let got = protocol.call(&net, client, server, &req).unwrap();
            prop_assert_eq!(got, Value::Record(args));
        }

        /// Type checking accepts exactly the well-typed argument lists.
        #[test]
        fn type_checking_is_sound(n in 0usize..4, swap in any::<bool>()) {
            let mut sig = OpSig::new("op");
            let mut good: Vec<(String, Value)> = Vec::new();
            for i in 0..n {
                sig = sig.param(format!("p{i}"), TypeTag::Int);
                good.push((format!("p{i}"), Value::Int(i as i64)));
            }
            prop_assert!(sig.check_args(&good).is_ok());
            if swap && n > 0 {
                let mut bad = good.clone();
                bad[0].1 = Value::Str("nope".into());
                prop_assert!(sig.check_args(&bad).is_err());
            }
        }
    }
}
