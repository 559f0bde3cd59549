//! Closed-loop end-to-end benchmark of the Red-QAOA engine.
//!
//! One command runs one named workload through the public
//! `red_qaoa::engine` API from a seed, checks every output, and prints every
//! end-to-end metric with its unit. A separate traced run (`--trace 1`)
//! rebuilds each request from the public layer functions — same RNG
//! substreams, reductions from an identically configured engine, evaluators
//! wrapped in a timing decorator — and reports where the time went, layer
//! by layer. See `README.md` in this directory.

pub mod calibrate;
pub mod digest;
pub mod layers;
pub mod metrics;
pub mod stats;
pub mod workloads;
