//! hmbench: the end-to-end wall-clock benchmark of the home
//! meta-middleware. See the crate README for the workloads, the
//! metrics, and how to run and compare them.

pub mod agree;
pub mod alloc;
pub mod fleet;
pub mod json;
pub mod ledger;
pub mod mix;
pub mod probes;
pub mod report;
pub mod rng;
pub mod single;
pub mod stats;
pub mod workload;
pub mod world;
