//! Eternal-RS benchmark: three fault-shaped workloads driven from
//! outside through public APIs, end-to-end metrics in wall-clock and
//! simulated time, isolated per-layer replays, and a traced run.
//!
//! See `README.md` in this directory for every metric, the layer to
//! end-to-end map, and how to run it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counts;
pub mod driver;
pub mod host;
pub mod layers;
pub mod report;
pub mod spans;
pub mod workload;
