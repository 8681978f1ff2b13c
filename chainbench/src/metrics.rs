//! Metric names and units (the ones `BENCHMARK.json` declares), medians,
//! and the result line the benchmark prints last.

use std::collections::BTreeMap;

/// End-to-end metrics, reported by every run with tracing off.
pub const END_TO_END: [(&str, &str); 6] = [
    ("pps", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("cpu_us_per_pkt", "us"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, reported by every traced run. A layer that does no
/// work on a workload (the backend and replay on the healthy ones) reads 0.
pub const PER_LAYER: [(&str, &str); 44] = [
    // runtime.spsc
    ("spsc.hop_ns_per_pkt", "ns"),
    ("spsc.queue_wait_us.firewall", "us"),
    ("spsc.queue_wait_us.nat", "us"),
    ("spsc.queue_wait_us.lb", "us"),
    ("spsc.batch_fill.firewall", "pkt/batch"),
    ("spsc.batch_fill.nat", "pkt/batch"),
    ("spsc.batch_fill.lb", "pkt/batch"),
    ("spsc.root_ring_depth", "pkt"),
    // nf
    ("nf.self_ns.firewall", "ns"),
    ("nf.self_ns.nat", "ns"),
    ("nf.self_ns.lb", "ns"),
    ("nf.service_us.firewall", "us"),
    ("nf.service_us.nat", "us"),
    ("nf.service_us.lb", "us"),
    // core.state
    ("state.cache_hit_ratio.nat", "ratio"),
    ("state.cache_hit_ratio.lb", "ratio"),
    ("state.blocking_per_pkt.nat", "op/pkt"),
    ("state.blocking_per_pkt.lb", "op/pkt"),
    ("state.store_rtt_us.nat", "us"),
    ("state.store_rtt_us.lb", "us"),
    ("state.flush_depth.nat", "op"),
    ("state.flush_depth.lb", "op"),
    // store
    ("store.ops_per_pkt", "op/pkt"),
    ("store.apply_ns_per_op", "ns"),
    ("store.shard_skew", "ratio"),
    ("store.dedup_entries", "count"),
    ("store.state_bytes", "B"),
    // store.backend
    ("backend.bytes_per_op", "B/op"),
    ("backend.segments", "count"),
    ("backend.restart_ms", "ms"),
    ("backend.restart_replayed_ops", "op"),
    // runtime.replay
    ("replay.detect_ms", "ms"),
    ("replay.spawn_ms", "ms"),
    ("replay.replay_ms", "ms"),
    ("replay.drain_ms", "ms"),
    ("replay.packets_replayed", "pkt"),
    ("replay.suppressed_dups", "pkt"),
    ("replay.log_high_water", "pkt"),
    // runtime.sink
    ("sink.wait_us", "us"),
    // checks on the traced run
    ("telemetry.overhead_pct", "%"),
    ("telemetry.ledger_gap_pct", "%"),
    // end-to-end figures that exist on one workload only, or are always 0
    // on a correct run, so they cannot be bounded end-to-end metrics
    ("recovery_ms", "ms"),
    ("store_restart_ms", "ms"),
    ("error_rate", "ratio"),
];

/// Unit of a declared metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// Median of the samples (mean of the middle two for an even count; 0 for
/// none). Non-finite samples are ignored.
pub fn median(samples: &[f64]) -> f64 {
    let mut v: Vec<f64> = samples.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Samples collected per metric over the runs of one benchmark invocation.
#[derive(Debug, Default, Clone)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    /// Record one sample of a declared metric. Panics on an undeclared name,
    /// so a misspelt metric cannot reach the output.
    pub fn push(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "undeclared metric {name}");
        self.0.entry(name).or_default().push(value);
    }

    /// The samples of one metric.
    fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    /// Median of one metric (0 when it was never sampled).
    pub fn median(&self, name: &str) -> f64 {
        median(self.get(name))
    }
}

/// The aggregate outcome of one benchmark invocation.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Packets (and layer-drive decisions) checked by the referee.
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
    /// Metric name → reported value, in output order.
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value)| {
                let unit = unit_of(name).expect("declared metric");
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// Human-readable lines, one metric per line with its unit.
    pub fn table(&self) -> String {
        self.metrics
            .iter()
            .map(|(name, value)| {
                format!("{name:<32} {value:>16.4} {}\n", unit_of(name).unwrap_or(""))
            })
            .collect()
    }
}
