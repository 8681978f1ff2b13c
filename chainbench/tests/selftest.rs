//! Self-tests of the benchmark: its metric names match `BENCHMARK.json`,
//! its referee is not vacuous, its inputs are a pure function of the seed,
//! and every workload runs correctly end to end on a shortened trace.

use chainbench::bench::{run_engine, ChildRun};
use chainbench::layers::{layer_drive, spsc_hop_ns};
use chainbench::metrics::{Outcome, Samples, END_TO_END, PER_LAYER};
use chainbench::referee::{judge, judge_run, Expected};
use chainbench::workload::Workload;
use chc_bench::runtime_bench::bench_chain;
use chc_packet::{PacketId, Trace};
use chc_store::Clock;
use std::collections::BTreeSet;

/// `(name, unit)` of every entry of one metric list of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = doc
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} list"));
    let body = &doc[start..];
    let body = &body[..body.find(']').expect("list closes")];
    let string_after = |s: &str, key: &str| -> Vec<String> {
        s.split(&format!("\"{key}\""))
            .skip(1)
            .map(|rest| {
                let rest = rest.trim_start().trim_start_matches(':').trim_start();
                let rest = rest.strip_prefix('"').expect("string value");
                rest[..rest.find('"').expect("string closes")].to_string()
            })
            .collect()
    };
    let names = string_after(body, "name");
    let units = string_after(body, "unit");
    assert_eq!(names.len(), units.len(), "{section}: a unit per metric");
    names.into_iter().zip(units).collect()
}

fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn printed_metrics_are_declared_in_benchmark_json() {
    assert_eq!(owned(&END_TO_END), declared("end_to_end"));
    assert_eq!(owned(&PER_LAYER), declared("per_layer"));
    let all: BTreeSet<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
    assert_eq!(
        all.len(),
        END_TO_END.len() + PER_LAYER.len(),
        "names unique"
    );
    // What a result line and a table actually print.
    let outcome = Outcome {
        attempted: 1,
        failed: 0,
        metrics: PER_LAYER.iter().map(|(n, _)| (*n, 1.5)).collect(),
    };
    let json = outcome.to_json();
    for chunk in json.split("\": {\"value\"").take(PER_LAYER.len()) {
        let name = &chunk[chunk.rfind('"').expect("quoted name") + 1..];
        assert!(all.contains(name), "undeclared metric {name} printed");
    }
    for line in outcome.table().lines() {
        let name = line.split_whitespace().next().expect("name column");
        assert!(all.contains(name), "undeclared metric {name} printed");
    }
}

#[test]
#[should_panic(expected = "undeclared metric")]
fn undeclared_metric_names_are_refused() {
    Samples::default().push("pps_typo", 1.0);
}

fn small(workload: Workload, seed: u64, packets: usize) -> Trace {
    let mut trace = workload.trace(seed);
    trace.packets.truncate(packets);
    trace
}

#[test]
fn referee_counts_doctored_deliveries_as_failures() {
    let dag = bench_chain();
    let trace = small(Workload::LongFlows, 3, 2_000);
    let expected = Expected::ideal(&dag, &trace);
    let ideal: Vec<PacketId> = expected.delivered().to_vec();
    assert!(ideal.len() > 100, "the ideal chain delivers most packets");
    let clean = judge(&expected, &ideal, 0, &expected.ideal.alerts, Vec::new());
    assert_eq!((clean.failed, clean.error_rate()), (0, 0.0));

    let mut missing = ideal.clone();
    missing.remove(7);
    let mut repeated = ideal.clone();
    repeated.push(ideal[3]);
    let mut spurious = ideal.clone();
    spurious.push(PacketId(u64::MAX));
    for (what, delivered) in [
        ("missing", missing),
        ("repeated", repeated),
        ("spurious", spurious),
    ] {
        let v = judge(&expected, &delivered, 0, &expected.ideal.alerts, Vec::new());
        assert_eq!(v.failed, 1, "{what}: {:?}", v.detail);
        assert!(v.error_rate() > 0.0 && !v.detail.is_empty(), "{what}");
    }
    let mut alerts = expected.ideal.alerts.clone();
    alerts.push((Clock::with_root(0, 1), "phantom alert".into()));
    assert!(judge(&expected, &ideal, 0, &alerts, Vec::new()).failed > 0);
    let sentinel = judge(
        &expected,
        &ideal,
        0,
        &expected.ideal.alerts,
        vec!["sentinel: violation".into()],
    );
    assert_eq!(sentinel.failed, 1);
    assert!(judge(&expected, &[], 0, &[], Vec::new()).failed >= ideal.len() as u64);
}

#[test]
fn inputs_are_a_function_of_the_seed() {
    let dag = bench_chain();
    for workload in Workload::ALL {
        let a = small(workload, 5, 3_000);
        let b = small(workload, 5, 3_000);
        let c = small(workload, 6, 3_000);
        assert_eq!(a.packets, b.packets, "{}", workload.name());
        assert_ne!(a.packets, c.packets, "{}", workload.name());
        let (ea, eb) = (Expected::ideal(&dag, &a), Expected::ideal(&dag, &b));
        assert_eq!(ea.delivered(), eb.delivered());
        assert_eq!(ea.ideal.alerts, eb.ideal.alerts);
        assert_eq!(workload.e2e_config(a.len()), workload.e2e_config(b.len()));
    }
}

#[test]
fn child_output_round_trips() {
    let run = ChildRun {
        values: [
            ("delivered".to_string(), 1234.0),
            ("setup_s".to_string(), 0.01),
        ]
        .into_iter()
        .collect(),
        latency: vec![(1_000, 3), (2_048, 1)],
        duplicates: 2,
        delivered: vec![PacketId(3), PacketId(1), PacketId(3)],
        alerts: vec![(Clock::with_root(0, 9), "port scan from 10.0.0.1".into())],
        failures: vec!["sentinel: something".into()],
    };
    assert_eq!(ChildRun::parse(&run.to_text()), Some(run));
    assert_eq!(ChildRun::parse("garbage"), None);
}

#[test]
fn every_workload_runs_correctly_on_a_short_trace() {
    let dag = bench_chain();
    for workload in Workload::ALL {
        let trace = small(workload, 1, 4_000);
        let expected = Expected::ideal(&dag, &trace);
        let cfg = workload.e2e_config(trace.len());
        assert_eq!(cfg.store_backend, workload.backend());
        let report = run_engine(&dag, &trace, &cfg).expect("engine run");
        let verdict = judge_run(&expected, &report);
        assert_eq!(
            verdict.error_rate(),
            0.0,
            "{}: {:?}",
            workload.name(),
            verdict.detail
        );
        if workload == Workload::DurableFailover {
            let fault = report.fault.as_ref().expect("fault report");
            assert_eq!(fault.recoveries.len(), 1, "the NAT failover ran");
            assert_eq!(fault.shard_recoveries.len(), cfg.store_shards);
        }

        let mut samples = Samples::default();
        let drive = layer_drive(workload, &dag, &trace, &expected, &mut samples);
        assert_eq!(drive.failed, 0, "{}: {:?}", workload.name(), drive.detail);
        assert!(samples.median("nf.self_ns.nat") > 0.0);
        let restarts = samples.median("backend.restart_ms");
        assert_eq!(restarts > 0.0, workload == Workload::DurableFailover);
    }
    let (hop_ns, intact) = spsc_hop_ns(&small(Workload::LongFlows, 1, 2_000), 32, 1024, 2);
    assert!(intact && hop_ns > 0.0);
}
