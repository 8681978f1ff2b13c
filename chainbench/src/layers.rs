//! Per-layer measurements taken from outside the program:
//!
//! * [`chain_layers`] reads an instrumented chain run's stage spans, gauges,
//!   journal and counters (traced part a);
//! * [`layer_drive`] runs the trace through `NetworkFunction::process` →
//!   `StateClient` → a benchmark-owned `StateHandle` around the store on one
//!   thread, recording spans around each layer call (part b);
//! * [`spsc_hop_ns`] pushes the trace's packets through one SPSC ring
//!   between two threads (part c).

use crate::metrics::Samples;
use crate::referee::{judge, Expected, Verdict};
use crate::workload::Workload;
use chc_core::{Action, ChainConfig, LogicalDag, NfContext, StateClient, StateHandle};
use chc_packet::{Packet, PacketId, Trace};
use chc_runtime::spsc::ring;
use chc_runtime::RuntimeReport;
use chc_sim::VirtualTime;
use chc_store::store::ApplyResult;
use chc_store::{
    Clock, InstanceId, Operation, StateKey, StoreError, StoreServer, TsSnapshot, Value,
};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Vertex names of the bench chain, in chain order (vertex ids 1, 2, 3).
const VERTICES: [&str; 3] = ["firewall", "nat", "lb"];

fn vertex_name(id: u32) -> Option<&'static str> {
    VERTICES.get((id as usize).wrapping_sub(1)).copied()
}

/// Record the per-layer figures of one instrumented chain run (traced part
/// a).
pub fn chain_layers(report: &RuntimeReport, out: &mut Samples) {
    let telemetry = report.telemetry.as_ref().expect("traced run has telemetry");
    for stage in &telemetry.stages {
        let Some(name) = vertex_name(stage.vertex.0) else {
            continue;
        };
        let (queue, service, rtt, flush) = match name {
            "firewall" => (
                "spsc.queue_wait_us.firewall",
                "nf.service_us.firewall",
                None,
                None,
            ),
            "nat" => (
                "spsc.queue_wait_us.nat",
                "nf.service_us.nat",
                Some("state.store_rtt_us.nat"),
                Some("state.flush_depth.nat"),
            ),
            _ => (
                "spsc.queue_wait_us.lb",
                "nf.service_us.lb",
                Some("state.store_rtt_us.lb"),
                Some("state.flush_depth.lb"),
            ),
        };
        out.push(queue, stage.queue.mean_ns / 1e3);
        out.push(service, stage.service.mean_ns / 1e3);
        if let (Some(rtt), Some(flush)) = (rtt, flush) {
            out.push(rtt, stage.store.mean_ns / 1e3);
            out.push(flush, stage.flush_depth.mean_ns);
        }
    }
    for (i, metric) in [
        "spsc.batch_fill.firewall",
        "spsc.batch_fill.nat",
        "spsc.batch_fill.lb",
    ]
    .into_iter()
    .enumerate()
    {
        let vertex = i as u32 + 1;
        let (processed, batches) = report
            .instances
            .iter()
            .chain(&report.failed_instances)
            .filter(|r| r.vertex.0 == vertex)
            .fold((0u64, 0u64), |(p, b), r| {
                (p + r.processed, b + r.batches_in)
            });
        out.push(metric, processed as f64 / batches.max(1) as f64);
    }
    let root_depth = telemetry
        .series
        .with_prefix("ring.root->")
        .flat_map(|s| s.points.iter().map(|p| p.value))
        .collect::<Vec<_>>();
    out.push(
        "spsc.root_ring_depth",
        root_depth.iter().sum::<f64>() / root_depth.len().max(1) as f64,
    );
    out.push("sink.wait_us", telemetry.sink_wait.mean_ns / 1e3);
    let e2e_mean = report.latency.mean();
    out.push(
        "telemetry.ledger_gap_pct",
        (telemetry.decomposed_mean_ns() - e2e_mean) / e2e_mean.max(1.0) * 100.0,
    );

    out.push(
        "store.ops_per_pkt",
        report.store_ops as f64 / report.injected.max(1) as f64,
    );
    let shard_ops = &report.store_ops_per_shard;
    let mean = shard_ops.iter().sum::<u64>() as f64 / shard_ops.len().max(1) as f64;
    let max = shard_ops.iter().copied().max().unwrap_or(0) as f64;
    out.push(
        "store.shard_skew",
        if mean > 0.0 { max / mean } else { 0.0 },
    );

    replay_layers(report, out);
}

/// Failover phases from the journal, plus replay volume (zeros on a run
/// without a kill).
fn replay_layers(report: &RuntimeReport, out: &mut Samples) {
    let telemetry = report.telemetry.as_ref().expect("traced run has telemetry");
    let first = |name: &str| telemetry.events_named(name).first().map(|e| e.t_ns);
    let phases = [
        ("replay.detect_ms", "instance_killed", "failover_begin"),
        ("replay.spawn_ms", "failover_begin", "replacement_spawn"),
        ("replay.replay_ms", "replacement_spawn", "replay_complete"),
        ("replay.drain_ms", "replay_complete", "failover_end"),
    ];
    for (metric, from, to) in phases {
        let gap = match (first(from), first(to)) {
            (Some(a), Some(b)) => b.saturating_sub(a) as f64 / 1e6,
            _ => 0.0,
        };
        out.push(metric, gap);
    }
    let fault = report.fault.clone().unwrap_or_default();
    out.push("replay.packets_replayed", fault.packets_replayed() as f64);
    out.push(
        "replay.suppressed_dups",
        report
            .instances
            .iter()
            .chain(&report.failed_instances)
            .map(|i| i.suppressed_duplicates)
            .sum::<u64>() as f64,
    );
    out.push("replay.log_high_water", fault.log_high_water as f64);
}

/// Time spent in, and ops passed to, the store by one `StateClient`,
/// accumulated by [`SpanHandle`].
#[derive(Debug, Default)]
struct StoreSpans {
    ns: u64,
    ops: u64,
}

/// The benchmark's `StateHandle`: forwards to the store server and records
/// a span around every `apply` and `apply_batch`.
struct SpanHandle {
    server: Arc<StoreServer>,
    spans: Rc<RefCell<StoreSpans>>,
}

impl SpanHandle {
    fn timed<R>(&self, ops: usize, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        let mut spans = self.spans.borrow_mut();
        spans.ns += start.elapsed().as_nanos() as u64;
        spans.ops += ops as u64;
        r
    }
}

impl StateHandle for SpanHandle {
    fn apply(
        &self,
        requester: InstanceId,
        key: &StateKey,
        op: &Operation,
        clock: Option<Clock>,
    ) -> Result<ApplyResult, StoreError> {
        self.timed(1, || self.server.apply(requester, key, op, clock))
    }
    fn apply_batch(
        &self,
        requester: InstanceId,
        ops: &[(StateKey, Operation, Option<Clock>)],
    ) -> Vec<Result<ApplyResult, StoreError>> {
        self.timed(ops.len(), || self.server.apply_batch(requester, ops))
    }
    fn register_callback(&self, key: &StateKey, instance: InstanceId) {
        StateHandle::register_callback(&self.server, key, instance)
    }
    fn release_ownership(&self, key: &StateKey, instance: InstanceId) -> Result<(), StoreError> {
        StateHandle::release_ownership(&self.server, key, instance)
    }
    fn acquire_ownership(&self, key: &StateKey, instance: InstanceId) -> Result<(), StoreError> {
        StateHandle::acquire_ownership(&self.server, key, instance)
    }
    fn owner_of(&self, key: &StateKey) -> Option<InstanceId> {
        StateHandle::owner_of(&self.server, key)
    }
    fn nondet(&self, clock: Clock, slot: u32, candidate: Value) -> Value {
        StateHandle::nondet(&self.server, clock, slot, candidate)
    }
    fn ts_snapshot(&self) -> TsSnapshot {
        StateHandle::ts_snapshot(&self.server)
    }
    fn is_failed(&self) -> bool {
        StateHandle::is_failed(&self.server)
    }
}

/// One NF of the drive with its client and span accumulators.
struct DriveStage {
    nf: Box<dyn chc_core::NetworkFunction>,
    client: StateClient,
    processed: u64,
    self_ns: u64,
}

/// Run the trace through the chain's layers on one thread (traced part b):
/// each packet in clock order through firewall, NAT and LB, each NF's
/// `StateClient` buffering writes behind (cap = batch) and drained every
/// `batch` packets, on the workload's backend and shard restarts. Checks
/// that the forward/drop decisions and alerts equal the ideal chain's.
pub fn layer_drive(
    workload: Workload,
    dag: &LogicalDag,
    trace: &Trace,
    expected: &Expected,
    out: &mut Samples,
) -> Verdict {
    let cfg = workload.e2e_config(trace.len());
    let batch = cfg.batch_size;
    let server = StoreServer::with_backend(cfg.store_shards, cfg.store_backend);
    for fault in &cfg.fault.shard_faults {
        server.set_shard_journaling(fault.shard, true);
    }
    let spans = Rc::new(RefCell::new(StoreSpans::default()));
    let chain = ChainConfig::default();
    let mut stages: Vec<DriveStage> = dag
        .vertices()
        .iter()
        .enumerate()
        .map(|(i, v)| {
            let nf = v.build_nf();
            let handle = SpanHandle {
                server: Arc::clone(&server),
                spans: Rc::clone(&spans),
            };
            let mut client = StateClient::new(
                v.id,
                InstanceId(i as u32),
                Box::new(handle),
                chain.mode,
                chain.costs,
                &nf.state_objects(),
            );
            client.set_recovery_logging(cfg.record_recovery_logs);
            client.set_clock_tagging(cfg.clock_tag_updates);
            client.set_write_behind(true, cfg.effective_store_batch());
            DriveStage {
                nf,
                client,
                processed: 0,
                self_ns: 0,
            }
        })
        .collect();

    let mut restarts: Vec<(u64, usize)> = cfg
        .fault
        .shard_faults
        .iter()
        .map(|f| (f.at_counter, f.shard))
        .collect();
    restarts.sort_unstable();
    let mut restart_ms = Vec::new();
    let mut restart_replayed = Vec::new();

    let store_ns = |spans: &Rc<RefCell<StoreSpans>>| spans.borrow().ns;
    let mut delivered: Vec<PacketId> = Vec::new();
    let mut alerts: Vec<(Clock, String)> = Vec::new();
    let drain = |stages: &mut [DriveStage]| {
        for stage in stages.iter_mut() {
            stage.client.drain_write_behind();
        }
    };
    for (i, pkt) in trace.iter().enumerate() {
        let counter = i as u64 + 1;
        while restarts.first().is_some_and(|(at, _)| *at <= counter) {
            let (_, shard) = restarts.remove(0);
            let start = Instant::now();
            let stats = server.restart_shard(shard);
            restart_ms.push(start.elapsed().as_secs_f64() * 1e3);
            restart_replayed.push(stats.replayed_ops as f64);
        }
        let clock = Clock::with_root(0, counter);
        let now = VirtualTime::from_nanos(pkt.arrival_ns);
        let mut packet = pkt.clone();
        let mut forwarded = true;
        for stage in stages.iter_mut() {
            let before = store_ns(&spans);
            let start = Instant::now();
            let mut ctx = NfContext::new(&mut stage.client, clock, now);
            let action = stage.nf.process(&packet, &mut ctx);
            alerts.extend(ctx.take_alerts().into_iter().map(|a| (clock, a)));
            let span = start.elapsed().as_nanos() as u64;
            stage.self_ns += span.saturating_sub(store_ns(&spans) - before);
            stage.processed += 1;
            stage.client.take_charge();
            stage.client.take_packet_tokens();
            // One instance per vertex: there is no other instance to notify.
            stage.client.take_pending_callbacks();
            match action {
                Action::Forward(next) => packet = next,
                Action::Drop => {
                    forwarded = false;
                    break;
                }
            }
        }
        if forwarded {
            delivered.push(packet.id);
        }
        if counter.is_multiple_of(batch as u64) {
            drain(&mut stages);
        }
    }
    drain(&mut stages);

    let mut extra = Vec::new();
    if delivered != expected.delivered() {
        extra.push("layer drive: forward/drop decisions differ from the ideal chain".into());
    }
    let verdict = judge(expected, &delivered, 0, &alerts, extra);

    for (stage, name) in stages.iter().zip(VERTICES) {
        let per_pkt = stage.self_ns as f64 / stage.processed.max(1) as f64;
        let stats = stage.client.stats();
        let ops = stats.cache_hits + stats.blocking_ops + stats.non_blocking_ops;
        let hit_ratio = stats.cache_hits as f64 / ops.max(1) as f64;
        let blocking = stats.blocking_ops as f64 / stage.processed.max(1) as f64;
        match name {
            "firewall" => out.push("nf.self_ns.firewall", per_pkt),
            "nat" => {
                out.push("nf.self_ns.nat", per_pkt);
                out.push("state.cache_hit_ratio.nat", hit_ratio);
                out.push("state.blocking_per_pkt.nat", blocking);
            }
            _ => {
                out.push("nf.self_ns.lb", per_pkt);
                out.push("state.cache_hit_ratio.lb", hit_ratio);
                out.push("state.blocking_per_pkt.lb", blocking);
            }
        }
    }
    let spans = spans.borrow();
    out.push(
        "store.apply_ns_per_op",
        spans.ns as f64 / spans.ops.max(1) as f64,
    );
    let dedup: usize = (0..server.shard_count())
        .map(|s| server.with_shard(s, |shard| shard.update_log_len()))
        .sum();
    out.push("store.dedup_entries", dedup as f64);
    out.push("store.state_bytes", server.state_bytes() as f64);
    out.push(
        "backend.bytes_per_op",
        server.durable_bytes() as f64 / spans.ops.max(1) as f64,
    );
    out.push("backend.segments", server.durable_segments() as f64);
    out.push("backend.restart_ms", crate::metrics::median(&restart_ms));
    out.push(
        "backend.restart_replayed_ops",
        crate::metrics::median(&restart_replayed),
    );
    verdict
}

/// Push `rounds` passes of the trace's packets from one thread to another
/// through an SPSC ring of `capacity`, `batch` packets per `push_batch` /
/// `pop_batch` (traced part c). Returns ns per packet hop, and whether every
/// packet arrived once and in order.
pub fn spsc_hop_ns(trace: &Trace, batch: usize, capacity: usize, rounds: usize) -> (f64, bool) {
    let packets: Vec<Packet> = (0..rounds).flat_map(|_| trace.packets.clone()).collect();
    let expected: Vec<PacketId> = packets.iter().map(|p| p.id).collect();
    let (mut tx, mut rx) = ring::<Packet>(capacity);
    let start = Instant::now();
    let producer = thread::spawn(move || {
        let mut buf = Vec::with_capacity(batch);
        let mut it = packets.into_iter();
        loop {
            buf.extend(it.by_ref().take(batch));
            if buf.is_empty() {
                break;
            }
            while !buf.is_empty() {
                if tx.push_batch(&mut buf) == 0 {
                    thread::yield_now();
                }
            }
        }
        tx.close();
    });
    let mut got = Vec::with_capacity(expected.len());
    let mut popped = Vec::with_capacity(batch);
    loop {
        if rx.pop_batch(&mut popped, batch) > 0 {
            got.extend(popped.drain(..).map(|p| p.id));
        } else if rx.is_exhausted() {
            break;
        } else {
            rx.park_if_empty(Duration::from_micros(200));
        }
    }
    let elapsed = start.elapsed();
    producer.join().expect("spsc producer thread");
    (
        elapsed.as_nanos() as f64 / expected.len().max(1) as f64,
        got == expected,
    )
}
