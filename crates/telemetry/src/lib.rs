//! `chc-telemetry` — lock-free live metrics for the CHC runtime.
//!
//! The paper's evaluation hinges on per-stage latency decomposition (where
//! time goes between root stamping, NF processing, store round trips, and
//! the sink) and on live visibility into the state-access hot path. This
//! crate provides the measurement substrate for that, deliberately
//! dependency-free so every other CHC crate can sit above it:
//!
//! * [`Counter`], [`Gauge`], [`StreamingHistogram`] — wait-free,
//!   zero-allocation recording through `&self`; summaries readable while
//!   writers are live (unlike the exact sort-on-read `chc_sim::Histogram`).
//! * [`MetricsRegistry`] — name → handle registration at wiring time.
//! * [`GaugeSeries`] / [`TelemetrySeries`] — time series appended by a
//!   monitor thread sampling ring depths, shard op rates and log levels.
//! * [`EventJournal`] — append-only structured journal of control-plane
//!   events (spawns, kills, failover phases, commit-frontier advances),
//!   renderable as JSONL for post-hoc debugging of failover runs.
//! * [`Json`] — the one JSON value type: every document the workspace
//!   writes is built as one, and every document it reads is parsed by it.
//! * [`trace`] — flow-sampled causal tracing: per-hop [`SpanEvent`]s in a
//!   bounded [`TraceCollector`], exported as Chrome trace-event JSON
//!   (Perfetto-loadable) with a shape validator for CI.
//! * [`sentinel`] — online invariant checking: streaming checkers for
//!   commit-frontier monotonicity, per-flow delivery order, packet
//!   conservation, root-log bounds and failover phase order, reported as
//!   [`Violation`]s.

#![warn(missing_docs)]

mod journal;
mod json;
mod metrics;
mod registry;
pub mod sentinel;
mod series;
pub mod trace;

pub use journal::{Event, EventJournal, EventKind};
pub use json::Json;
pub use metrics::{Counter, Gauge, HistSummary, StreamingHistogram};
pub use registry::MetricsRegistry;
pub use sentinel::{
    ConservationLedger, FlowOrderChecker, InvariantKind, Sentinel, SentinelReport, Violation,
};
pub use series::{GaugeSample, GaugeSeries, TelemetrySeries};
pub use trace::{
    chrome_trace_json, validate_chrome_trace, SpanEvent, SpanKind, TraceCollector, TraceLane,
    TraceShape,
};
