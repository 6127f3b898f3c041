//! # simnet — deterministic home-network simulation
//!
//! The substrate for the ICDCSW 2002 meta-middleware reproduction. Every
//! network technology the paper's smart home contains — Ethernet,
//! IEEE1394, the X10 powerline, serial lines, Bluetooth, and the Internet
//! uplink — is modelled as a [`Network`] with a per-technology
//! [`LinkModel`], sharing one [`Sim`] world that provides a virtual clock,
//! a discrete-event timer queue and a seeded RNG.
//!
//! Results are **exactly reproducible**: all latency comes from integer
//! microsecond arithmetic over link models, and all randomness (powerline
//! loss, workload generation) flows from the world seed.
//!
//! ## Quick example
//!
//! ```
//! use simnet::{Sim, Network, Frame, Protocol};
//!
//! let sim = Sim::new(7);
//! let eth = Network::ethernet(&sim);
//! let pc = eth.attach("pc");
//! let fridge = eth.attach("fridge");
//! // The handler reads the request in place and writes its answer
//! // into the empty buffer the network lends it.
//! eth.set_request_handler(fridge, |_, req, reply| {
//!     reply.extend_from_slice(format!("echo:{}", req.len()).as_bytes());
//!     Ok(())
//! }).unwrap();
//! // The writer takes its buffer from the network, and the reply
//! // gives the handler's buffer back when it is dropped.
//! let mut ask = eth.buffer();
//! ask.extend_from_slice(b"temp?");
//! let resp = eth.request(pc, fridge, Protocol::Raw, ask).unwrap();
//! assert_eq!(&resp[..], b"echo:5");
//! assert!(sim.now().as_micros() > 0, "virtual time advanced");
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod chaos;
pub mod error;
pub mod frame;
pub mod link;
pub mod net;
pub mod netkind;
pub mod node;
pub mod par;
pub mod rng;
pub mod sched;
pub mod sim;
pub mod stats;
pub mod time;

pub use chaos::{FaultKind, FaultPlan, FaultWindow};
pub use error::{SimError, SimResult};
pub use frame::{Frame, Protocol};
pub use link::LinkModel;
pub use net::{Network, Reply};
pub use node::{Addr, NodeId};
pub use par::{Courier, IslandProfile, ParRunStats, ParSim};
pub use rng::SimRng;
pub use sched::TimerId;
pub use sim::{RepeatHandle, Sim};
pub use stats::{Counter, NetStats};
pub use time::{SimDuration, SimTime};
