//! # chainbench
//!
//! The repository benchmark: the paper's firewall → NAT → LB chain on the
//! real-thread engine over three seeded workloads, with end-to-end metrics
//! measured with tracing off, per-layer metrics from a separate traced run,
//! and every run checked against the ideal chain (chain output
//! equivalence). See `README.md` in this directory for the load model and
//! the layer → end-to-end map.

pub mod bench;
pub mod layers;
pub mod metrics;
pub mod referee;
pub mod sys;
pub mod workload;
