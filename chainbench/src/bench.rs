//! The two benchmark modes.
//!
//! * End-to-end (`--trace 0`): each chain run happens in a fresh child
//!   process, so peak RSS is one run's; the parent repeats runs until the
//!   measuring time is spent and reports medians.
//! * Traced (`--trace 1`): in one process, rounds of an untraced run, an
//!   instrumented run, the single-threaded layer drive and the SPSC hop
//!   drive, until the measuring time is spent; medians per metric.
//!
//! Every chain run, and the layer drive, is judged by the referee.

use crate::layers::{chain_layers, layer_drive, spsc_hop_ns};
use crate::metrics::{median, Outcome, Samples, END_TO_END};
use crate::referee::{engine_failures, judge, judge_run, Expected, Verdict};
use crate::sys::{peak_rss_bytes, process_cpu_ns, reset_peak_rss};
use crate::workload::Workload;
use chc_bench::runtime_bench::bench_chain;
use chc_core::{ChainConfig, LogicalDag};
use chc_packet::{PacketId, Trace};
use chc_runtime::{run_chain_realtime, RuntimeConfig, RuntimeReport};
use chc_store::Clock;
use chc_telemetry::StreamingHistogram;
use std::collections::BTreeMap;
use std::io::Read;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Fewest end-to-end runs one invocation makes, however short its time.
const MIN_RUNS: usize = 5;
/// A child run that takes longer than this is killed and counted as failed.
const CHILD_TIMEOUT: Duration = Duration::from_secs(60);
/// Prefix of the line a child run prints its measurements on.
const SAMPLE_PREFIX: &str = "SAMPLE";

/// Everything one run needs, built before any timing starts.
pub struct Prepared {
    /// The bench chain.
    pub dag: LogicalDag,
    /// The seeded trace.
    pub trace: Trace,
    /// The ideal chain's output for the trace.
    pub expected: Expected,
}

impl Prepared {
    /// Generate the trace and run the ideal chain over it.
    pub fn new(workload: Workload, seed: u64) -> Prepared {
        let dag = bench_chain();
        let trace = workload.trace(seed);
        let expected = Expected::ideal(&dag, &trace);
        Prepared {
            dag,
            trace,
            expected,
        }
    }
}

/// Run the engine once, turning an `Err` or a panic into its reason.
pub fn run_engine(
    dag: &LogicalDag,
    trace: &Trace,
    cfg: &RuntimeConfig,
) -> Result<RuntimeReport, String> {
    match catch_unwind(AssertUnwindSafe(|| {
        run_chain_realtime(dag, ChainConfig::default(), cfg, trace)
    })) {
        Ok(Ok(report)) => Ok(report),
        Ok(Err(e)) => Err(format!("engine error: {e:?}")),
        Err(_) => Err("engine panicked".into()),
    }
}

/// Recovery wall times of a faulted run: the instance failover, and the
/// median shard restart (both `None` on a healthy run).
fn recovery_ms(report: &RuntimeReport) -> (Option<f64>, Option<f64>) {
    let Some(fault) = &report.fault else {
        return (None, None);
    };
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let failover = fault.recoveries.first().map(|r| ms(r.recovery_wall));
    let restarts: Vec<f64> = fault
        .shard_recoveries
        .iter()
        .map(|r| ms(r.recovery_wall))
        .collect();
    (failover, (!restarts.is_empty()).then(|| median(&restarts)))
}

/// What one end-to-end child run reports: its measurements and its raw
/// output, which the parent judges against the ideal chain it built once.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChildRun {
    /// Measured values by name (empty after a crash): the run's packets
    /// `delivered`, engine `elapsed_s` and `cpu_s`, `peak_rss_mb`,
    /// `setup_s`, and on a faulted run `recovery_ms` and `store_restart_ms`.
    pub values: BTreeMap<String, f64>,
    /// Root → sink latency histogram as `(bucket lower bound ns, count)`.
    pub latency: Vec<(u64, u64)>,
    /// Sink arrivals of an already-delivered clock.
    pub duplicates: u64,
    /// Packet ids delivered, in sink arrival order.
    pub delivered: Vec<PacketId>,
    /// Alerts raised, by clock counter.
    pub alerts: Vec<(Clock, String)>,
    /// Failures the engine reported (or the crash that ended the run).
    pub failures: Vec<String>,
}

impl ChildRun {
    /// The child's standard output: one `SAMPLE key=value ...` line, one
    /// `LATENCY bound:count ...` line, one `DELIVERED id ...` line, and one
    /// line per alert and per failure.
    pub fn to_text(&self) -> String {
        let mut out = format!("{SAMPLE_PREFIX} duplicates={}", self.duplicates);
        for (k, v) in &self.values {
            out.push_str(&format!(" {k}={v:?}"));
        }
        out.push_str("\nLATENCY");
        for (bound, count) in &self.latency {
            out.push_str(&format!(" {bound}:{count}"));
        }
        out.push_str("\nDELIVERED");
        for id in &self.delivered {
            out.push_str(&format!(" {}", id.0));
        }
        out.push('\n');
        for (clock, msg) in &self.alerts {
            out.push_str(&format!(
                "ALERT {} {}\n",
                clock.counter(),
                msg.replace('\n', " ")
            ));
        }
        for f in &self.failures {
            out.push_str(&format!("FAILURE {}\n", f.replace('\n', " ")));
        }
        out
    }

    /// Parse a child's output; `None` unless it holds a sample line and a
    /// delivered line.
    pub fn parse(output: &str) -> Option<ChildRun> {
        let mut run = ChildRun::default();
        let (mut sampled, mut listed) = (false, false);
        for line in output.lines() {
            let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
            match tag {
                SAMPLE_PREFIX => {
                    sampled = true;
                    for field in rest.split_whitespace() {
                        let (k, v) = field.split_once('=')?;
                        if k == "duplicates" {
                            run.duplicates = v.parse().ok()?;
                        } else {
                            run.values.insert(k.to_string(), v.parse().ok()?);
                        }
                    }
                }
                "LATENCY" => {
                    for bucket in rest.split_whitespace() {
                        let (bound, count) = bucket.split_once(':')?;
                        run.latency.push((bound.parse().ok()?, count.parse().ok()?));
                    }
                }
                "DELIVERED" => {
                    listed = true;
                    for id in rest.split_whitespace() {
                        run.delivered.push(PacketId(id.parse().ok()?));
                    }
                }
                "ALERT" => {
                    let (counter, msg) = rest.split_once(' ').unwrap_or((rest, ""));
                    run.alerts
                        .push((Clock::with_root(0, counter.parse().ok()?), msg.to_string()));
                }
                "FAILURE" => run.failures.push(rest.to_string()),
                _ => {}
            }
        }
        (sampled && listed).then_some(run)
    }
}

/// One end-to-end run of the workload's trace (the body of a child
/// process): peak RSS is reset after the trace is built, CPU time and wall
/// time bracket the engine call only.
pub fn measure_run(workload: Workload, seed: u64) -> ChildRun {
    let dag = bench_chain();
    let trace = workload.trace(seed);
    let cfg = workload.e2e_config(trace.len());
    reset_peak_rss();
    let cpu0 = process_cpu_ns();
    let start = Instant::now();
    let result = run_engine(&dag, &trace, &cfg);
    let wall = start.elapsed();
    let cpu_ns = process_cpu_ns() - cpu0;
    let rss = peak_rss_bytes();
    let report = match result {
        Ok(report) => report,
        Err(why) => {
            return ChildRun {
                failures: vec![why],
                ..ChildRun::default()
            }
        }
    };
    let mut values = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        values.insert(k.to_string(), v);
    };
    put("delivered", report.delivered as f64);
    put("elapsed_s", report.elapsed.as_secs_f64());
    put("cpu_s", cpu_ns as f64 / 1e9);
    put("peak_rss_mb", rss as f64 / (1024.0 * 1024.0));
    put("setup_s", wall.saturating_sub(report.elapsed).as_secs_f64());
    let (failover, restart) = recovery_ms(&report);
    if let Some(ms) = failover {
        put("recovery_ms", ms);
    }
    if let Some(ms) = restart {
        put("store_restart_ms", ms);
    }
    ChildRun {
        values,
        latency: report.latency.nonzero_buckets(),
        duplicates: report.duplicates,
        alerts: report.alerts(),
        failures: engine_failures(&report, trace.len() as u64),
        delivered: report.delivered_ids,
    }
}

/// Run one child process (`--child`), killing it after [`CHILD_TIMEOUT`].
/// A child that crashes, hangs or prints no result delivers nothing, so
/// every packet of the trace counts as failed.
fn child_run(workload: Workload, seed: u64) -> ChildRun {
    let crashed = |why: String| ChildRun {
        failures: vec![format!("child run: {why}")],
        ..ChildRun::default()
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return crashed(format!("no executable path: {e}")),
    };
    let mut child = match Command::new(exe)
        .args([
            "--child",
            "--workload",
            workload.name(),
            "--seed",
            &seed.to_string(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
    {
        Ok(child) => child,
        Err(e) => return crashed(format!("spawn: {e}")),
    };
    let mut stdout = child.stdout.take().expect("piped stdout");
    let reader = std::thread::spawn(move || {
        let mut s = String::new();
        let _ = stdout.read_to_string(&mut s);
        s
    });
    let start = Instant::now();
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Some(status),
            Ok(None) if start.elapsed() < CHILD_TIMEOUT => {
                std::thread::sleep(Duration::from_millis(5))
            }
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                break None;
            }
        }
    };
    let output = reader.join().unwrap_or_default();
    match (status, ChildRun::parse(&output)) {
        (Some(s), Some(run)) if s.success() => run,
        (None, _) => crashed("timed out".into()),
        (Some(s), _) => crashed(format!("exit status {s}, no result")),
    }
}

/// The end-to-end mode: fresh-process runs until `seconds` are spent (at
/// least [`MIN_RUNS`]), each judged against the ideal chain. Throughput,
/// CPU per packet and latency percentiles pool every packet of every run
/// (total delivered over total engine time, total CPU over total delivered,
/// percentiles of the merged latency histogram), so a host that changes
/// speed during the window moves them in proportion to the time it spent
/// at each speed; per-run figures (peak RSS, set-up, recovery) are medians.
pub fn run_e2e(workload: Workload, seed: u64, seconds: f64, p: &Prepared) -> Outcome {
    let start = Instant::now();
    let mut runs: Vec<ChildRun> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    while runs.len() < MIN_RUNS || start.elapsed().as_secs_f64() < seconds {
        let run = child_run(workload, seed);
        let verdict = judge(
            &p.expected,
            &run.delivered,
            run.duplicates,
            &run.alerts,
            run.failures.clone(),
        );
        log_verdict(&verdict);
        attempted += verdict.attempted;
        failed += verdict.failed;
        runs.push(run);
    }
    let values = |k: &str| -> Vec<f64> {
        runs.iter()
            .filter_map(|r| r.values.get(k).copied())
            .collect()
    };
    let total = |k: &str| values(k).iter().sum::<f64>();
    let latency = StreamingHistogram::new();
    for (bound, count) in runs.iter().flat_map(|r| &r.latency) {
        latency.record_n(*bound, *count);
    }
    println!("# runs={} (a fresh process each)", runs.len());
    // Shown in the table, kept out of the result line, which carries
    // exactly the end-to-end metrics.
    let mut shown = vec![("error_rate", failed as f64 / attempted.max(1) as f64)];
    if workload == Workload::DurableFailover {
        shown.push(("recovery_ms", median(&values("recovery_ms"))));
        shown.push(("store_restart_ms", median(&values("store_restart_ms"))));
    }
    print!(
        "{}",
        Outcome {
            attempted,
            failed,
            metrics: shown,
        }
        .table()
    );
    let delivered = total("delivered");
    let metrics = vec![
        ("pps", delivered / total("elapsed_s").max(f64::MIN_POSITIVE)),
        ("latency_p50_us", latency.percentile(50.0) as f64 / 1e3),
        ("latency_p99_us", latency.percentile(99.0) as f64 / 1e3),
        ("cpu_us_per_pkt", total("cpu_s") * 1e6 / delivered.max(1.0)),
        ("peak_rss_mb", median(&values("peak_rss_mb"))),
        ("setup_s", median(&values("setup_s"))),
    ];
    assert!(
        metrics
            .iter()
            .map(|m| m.0)
            .eq(END_TO_END.iter().map(|m| m.0)),
        "the result line carries exactly the end-to-end metrics, in order"
    );
    Outcome {
        attempted,
        failed,
        metrics,
    }
}

/// Print the first few reasons of a failed verdict to standard error.
fn log_verdict(verdict: &Verdict) {
    for reason in verdict.detail.iter().take(5) {
        eprintln!("referee: {reason}");
    }
}

/// The traced mode: rounds of (untraced run, instrumented run, layer drive,
/// SPSC drive) until `seconds` are spent (at least one round).
pub fn run_traced(workload: Workload, seconds: f64, p: &Prepared) -> Outcome {
    let start = Instant::now();
    let e2e_cfg = workload.e2e_config(p.trace.len());
    let traced_cfg = workload.traced_config(p.trace.len());
    let mut samples = Samples::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut tally = |v: &Verdict| {
        log_verdict(v);
        attempted += v.attempted;
        failed += v.failed;
    };
    let (mut pps_plain, mut pps_traced) = (Vec::new(), Vec::new());
    let (mut failovers, mut restarts) = (Vec::new(), Vec::new());
    let mut rounds = 0;
    while rounds == 0 || start.elapsed().as_secs_f64() < seconds {
        rounds += 1;
        match run_engine(&p.dag, &p.trace, &e2e_cfg) {
            Ok(report) => {
                tally(&judge_run(&p.expected, &report));
                pps_plain.push(report.pps());
                let (failover, restart) = recovery_ms(&report);
                failovers.extend(failover);
                restarts.extend(restart);
            }
            Err(why) => tally(&judge(&p.expected, &[], 0, &[], vec![why])),
        }
        match run_engine(&p.dag, &p.trace, &traced_cfg) {
            Ok(report) => {
                tally(&judge_run(&p.expected, &report));
                pps_traced.push(report.pps());
                chain_layers(&report, &mut samples);
            }
            Err(why) => tally(&judge(&p.expected, &[], 0, &[], vec![why])),
        }
        tally(&layer_drive(
            workload,
            &p.dag,
            &p.trace,
            &p.expected,
            &mut samples,
        ));
        let (hop_ns, intact) = spsc_hop_ns(&p.trace, e2e_cfg.batch_size, e2e_cfg.queue_depth, 4);
        samples.push("spsc.hop_ns_per_pkt", hop_ns);
        tally(&Verdict {
            attempted: 1,
            failed: u64::from(!intact),
            detail: (!intact)
                .then(|| "spsc drive lost, duplicated or reordered packets".to_string())
                .into_iter()
                .collect(),
        });
    }
    println!("# rounds={rounds}");
    let plain = median(&pps_plain);
    samples.push(
        "telemetry.overhead_pct",
        (plain - median(&pps_traced)) / plain.max(1.0) * 100.0,
    );
    samples.push("recovery_ms", median(&failovers));
    samples.push("store_restart_ms", median(&restarts));
    samples.push("error_rate", failed as f64 / attempted.max(1) as f64);
    Outcome {
        attempted,
        failed,
        metrics: crate::metrics::PER_LAYER
            .iter()
            .map(|(name, _)| (*name, samples.median(name)))
            .collect(),
    }
}
