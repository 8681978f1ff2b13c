//! The three named workloads: which trace each generates from the seed, which
//! store backend and fault plan it runs with, and the engine configurations
//! of its measured and traced runs. Every knob the engine would otherwise
//! read from the environment is pinned here.

use chc_packet::{Trace, TraceConfig, TraceGenerator};
use chc_runtime::{FaultPlan, RuntimeConfig, TelemetryConfig};
use chc_store::{BackendKind, VertexId};
use std::time::Duration;

/// Cadence of the gauge monitor in traced runs.
pub const GAUGE_SAMPLE: Duration = Duration::from_millis(2);

/// One named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Healthy run, memory backend, connections averaging ~24 packets.
    LongFlows,
    /// Healthy run, memory backend, connections averaging ~3 packets.
    ShortFlows,
    /// Long-flow shape on the append-only backend, every shard restarted
    /// once and the NAT instance killed mid-trace.
    DurableFailover,
}

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 3] = [
        Workload::LongFlows,
        Workload::ShortFlows,
        Workload::DurableFailover,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LongFlows => "long-flows",
            Workload::ShortFlows => "short-flows",
            Workload::DurableFailover => "durable-failover",
        }
    }

    /// Look a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Connections and mean data packets per connection of the generated
    /// trace, and the packet count it is cut to. Short flows stay below the
    /// NAT's 4096-port pool (ports are never returned), so no connection is
    /// refused for want of a port.
    pub fn trace_shape(self) -> (usize, usize, usize) {
        match self {
            Workload::LongFlows => (2_000, 24, 48_000),
            Workload::ShortFlows => (3_600, 3, 24_000),
            Workload::DurableFailover => (500, 24, 12_000),
        }
    }

    /// The seeded trace, cut to the workload's packet count so every seed
    /// does the same amount of work. The same seed always yields the same
    /// packets.
    pub fn trace(self, seed: u64) -> Trace {
        let (connections, mean, packets) = self.trace_shape();
        let mut trace = TraceGenerator::new(TraceConfig {
            seed,
            connections,
            mean_packets_per_connection: mean,
            ..TraceConfig::default()
        })
        .generate();
        trace.packets.truncate(packets);
        trace
    }

    /// The store backend, set explicitly so `CHC_STORE_BACKEND` cannot leak
    /// into a measurement.
    pub fn backend(self) -> BackendKind {
        match self {
            Workload::LongFlows | Workload::ShortFlows => BackendKind::Memory,
            Workload::DurableFailover => BackendKind::AppendOnly,
        }
    }

    /// The clock-keyed fault plan: empty for the healthy workloads. The
    /// durable workload restarts each shard once, at 10, 20, 80 and 90% of
    /// the trace, and kills the NAT instance at its midpoint, so no restart
    /// overlaps the failover. The points are fixed fractions rather than
    /// seeded draws: where a kill lands moves recovery time several-fold,
    /// and a seed should vary the traffic, not the experiment.
    pub fn fault_plan(self, trace_len: usize, shards: usize) -> FaultPlan {
        if self != Workload::DurableFailover {
            return FaultPlan::new();
        }
        let len = trace_len as u64;
        let mut plan = FaultPlan::new().kill(VertexId(2), 0, (len / 2).max(1));
        for (shard, tenths) in (0..shards).zip([1, 2, 8, 9].into_iter().cycle()) {
            plan = plan.restart_shard(shard, (len * tenths / 10).max(1), None);
        }
        plan
    }

    /// Configuration of the end-to-end runs: engine defaults with the
    /// backend pinned, the fault plan attached, and spans, causal tracing
    /// and the gauge monitor off. The journal and sentinel stay on; the
    /// sentinel is part of the correctness check.
    pub fn e2e_config(self, trace_len: usize) -> RuntimeConfig {
        let base = RuntimeConfig::default().with_store_backend(self.backend());
        let fault = self.fault_plan(trace_len, base.store_shards);
        base.with_fault(fault).with_telemetry(TelemetryConfig {
            spans: false,
            journal: true,
            sample_interval: None,
            trace_sample_ppm: 0,
            sentinel: true,
        })
    }

    /// Configuration of the instrumented run of the traced mode: the same
    /// run with stage spans, the journal and gauge sampling on.
    pub fn traced_config(self, trace_len: usize) -> RuntimeConfig {
        let mut cfg = self.e2e_config(trace_len);
        cfg.telemetry.spans = true;
        cfg.telemetry.sample_interval = Some(GAUGE_SAMPLE);
        cfg
    }
}

/// One line describing the effective engine configuration of a run, so a
/// result can be traced back to every knob that produced it.
pub fn describe_config(cfg: &RuntimeConfig) -> String {
    let fault = &cfg.fault;
    format!(
        "batch_size={} queue_depth={} store_shards={} store_backend={} write_behind={} \
         store_batch={} ring_wait={:?} clock_tag_updates={} record_recovery_logs={} \
         spans={} journal={} sample_ms={} trace_ppm={} sentinel={} kills={:?} \
         shard_restarts={:?}",
        cfg.batch_size,
        cfg.queue_depth,
        cfg.store_shards,
        cfg.store_backend.label(),
        cfg.write_behind,
        cfg.effective_store_batch(),
        cfg.ring_wait,
        cfg.clock_tag_updates,
        cfg.record_recovery_logs,
        cfg.telemetry.spans,
        cfg.telemetry.journal,
        cfg.telemetry
            .sample_interval
            .map_or(0, |d| d.as_millis() as u64),
        cfg.telemetry.trace_sample_ppm,
        cfg.telemetry.sentinel,
        fault
            .kills
            .iter()
            .map(|k| (k.vertex.0, k.index, k.at_counter))
            .collect::<Vec<_>>(),
        fault
            .shard_faults
            .iter()
            .map(|f| (f.shard, f.at_counter))
            .collect::<Vec<_>>(),
    )
}
