//! The performance ledger: four workloads through the real front door,
//! six end-to-end metrics, and a per-layer replay. README.md has the
//! definitions; `main.rs` the command line.

pub mod drive;
pub mod host;
pub mod json;
pub mod metrics;
pub mod replay;
pub mod rng;
pub mod run;
pub mod spans;
pub mod workloads;
pub mod yardstick;
