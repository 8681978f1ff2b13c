//! Reading `BENCH_*.json` documents back: the baseline regression gate
//! (diff a fresh `paper_eval` run against a committed document, fail when
//! throughput regressed beyond budget or the telemetry stack got more
//! expensive than the budget allows) and the schema check `paper_eval
//! --json` runs on the document it just wrote. Both address the document
//! by path through [`Json`]; the schema is in DESIGN.md, "BENCH documents".

use crate::runtime_bench::{
    RecoveryRecord, RuntimeBenchRecord, TelemetryBenchRecord, KILL_POSITIONS,
};
use chc_telemetry::Json;
use std::fmt::Write as _;

/// Fail the gate when a realtime row's throughput drops more than this many
/// percent below the baseline row.
pub const PPS_REGRESSION_BUDGET_PCT: f64 = 10.0;

/// Fail the gate when the telemetry experiment prices the full
/// instrumentation stack (spans + journal + gauges + sentinel + sampled
/// tracing) above this throughput cost, in percent.
pub const TELEMETRY_OVERHEAD_BUDGET_PCT: f64 = 5.0;

/// One throughput row recovered from a baseline document.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineRow {
    /// `"realtime"` or `"simulator"`.
    pub substrate: String,
    /// Ring batch size (0 for the simulator).
    pub batch_size: usize,
    /// Recorded packets/s.
    pub pps: f64,
}

/// What a `BENCH_*.json` document pins: the scale it ran at, its throughput
/// rows, and (when the telemetry experiment ran) the instrumentation
/// overhead it measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    /// Trace scale factor of the baseline run.
    pub scale: f64,
    /// Throughput rows in document order.
    pub rows: Vec<BaselineRow>,
    /// `overhead_pct` of the baseline's telemetry experiment, if present.
    pub overhead_pct: Option<f64>,
    /// Recovery time per kill position (`entry`/`mid`/`tail`/`root`), in
    /// microseconds, when the baseline ran the recovery-vs-position sweep.
    pub recovery_positions: Vec<(String, f64)>,
}

/// Parse a `BENCH_*.json` document written by
/// [`crate::runtime_bench::records_to_json`]: `scale`, the
/// `runtime_chain[*]` rows, `telemetry.overhead.overhead_pct` and the
/// `recovery_by_position[*]` rows. Rows in any other section are never
/// read, so they are never gated.
///
/// Returns an error when the document does not parse or carries no
/// throughput rows — a truncated or foreign file must fail loudly, not gate
/// nothing.
pub fn parse_baseline(json: &str) -> Result<Baseline, String> {
    let doc = Json::parse(json)?;
    let scale = doc
        .path("scale")
        .and_then(Json::as_f64)
        .ok_or("baseline has no \"scale\" field")?;
    let rows: Vec<BaselineRow> = section(&doc, "runtime_chain")
        .iter()
        .filter_map(|r| {
            Some(BaselineRow {
                substrate: r.get("substrate")?.as_str()?.to_string(),
                batch_size: r.get("batch_size")?.as_u64()? as usize,
                pps: r.get("pps")?.as_f64()?,
            })
        })
        .collect();
    if rows.is_empty() {
        return Err("baseline has no runtime_chain rows (not a paper_eval document?)".to_string());
    }
    let recovery_positions = section(&doc, "recovery_by_position")
        .iter()
        .filter_map(|r| {
            let position = r.get("position")?.as_str()?.to_string();
            Some((position, r.get("recovery_us")?.as_f64()?))
        })
        .collect();
    Ok(Baseline {
        scale,
        rows,
        overhead_pct: doc
            .path("telemetry.overhead.overhead_pct")
            .and_then(Json::as_f64),
        recovery_positions,
    })
}

/// The rows of an array section, or none when the section is absent.
fn section<'a>(doc: &'a Json, name: &str) -> &'a [Json] {
    doc.get(name).and_then(Json::as_array).unwrap_or_default()
}

/// What every `paper_eval --json` document carries, by path.
const REQUIRED_PATHS: [&str; 11] = [
    "scale",
    "runtime_chain.0.pps",
    "recovery.recovery_us",
    "recovery_by_position",
    "telemetry.stages.0.flush_depth",
    "telemetry.gauges",
    "telemetry.overhead.overhead_pct",
    "telemetry.trace_spans",
    "telemetry.invariant_violations",
    "store_batch.0.flush_depth_mean",
    "store_backend.0.replayed_ops",
];

/// The schema check `paper_eval --json` runs on the document it just wrote
/// (and on its `--telemetry-jsonl` companion, when one was written). It
/// requires every section, a `recovery_by_position` row for each of the
/// four kill positions, at least 6 `store_batch` and 4 `store_backend` rows
/// with zero `invariant_violations`, `store_backend` rows for both engines,
/// and a JSONL whose lines parse, strictly increase in `(run, seq)`, and
/// hold a `replay_complete` and a `failover_end` event. Returns every
/// problem found; empty means the documents pass.
pub fn check_bench_document(json: &str, jsonl: Option<&str>) -> Vec<String> {
    let doc = match Json::parse(json) {
        Ok(doc) => doc,
        Err(e) => return vec![format!("bench document does not parse: {e}")],
    };
    let mut problems: Vec<String> = REQUIRED_PATHS
        .iter()
        .filter(|p| doc.path(p).is_none())
        .map(|p| format!("bench document has no {p}"))
        .collect();
    let has = |name: &str, key: &str, value: &str| {
        section(&doc, name)
            .iter()
            .any(|r| r.get(key).and_then(Json::as_str) == Some(value))
    };
    for position in KILL_POSITIONS {
        if !has("recovery_by_position", "position", position) {
            problems.push(format!("recovery_by_position has no '{position}' kill"));
        }
    }
    for (name, min) in [("store_batch", 6), ("store_backend", 4)] {
        let rows = section(&doc, name);
        if rows.len() < min {
            problems.push(format!(
                "{name} has {} rows, want at least {min}",
                rows.len()
            ));
        }
        for (i, r) in rows.iter().enumerate() {
            if r.get("invariant_violations").and_then(Json::as_u64) != Some(0) {
                problems.push(format!("{name}[{i}] recorded invariant violations"));
            }
        }
    }
    for backend in ["memory", "append_only"] {
        if !has("store_backend", "backend", backend) {
            problems.push(format!("store_backend has no '{backend}' rows"));
        }
    }
    problems.extend(jsonl.map(check_jsonl).unwrap_or_default());
    problems
}

fn check_jsonl(jsonl: &str) -> Vec<String> {
    let lines = match jsonl
        .lines()
        .map(Json::parse)
        .collect::<Result<Vec<_>, _>>()
    {
        Ok(lines) => lines,
        Err(e) => return vec![format!("telemetry JSONL does not parse: {e}")],
    };
    let keys: Vec<Option<(&str, u64)>> = lines
        .iter()
        .map(|v| Some((v.get("run")?.as_str()?, v.get("seq")?.as_u64()?)))
        .collect();
    let mut problems = Vec::new();
    if let Some(n) = keys.iter().position(Option::is_none) {
        problems.push(format!("telemetry JSONL line {} has no run and seq", n + 1));
    }
    if let Some(n) = keys.windows(2).position(|w| w[0] >= w[1]) {
        problems.push(format!(
            "telemetry JSONL line {}: (run, seq) does not increase",
            n + 2
        ));
    }
    for event in ["replay_complete", "failover_end"] {
        if !lines
            .iter()
            .any(|v| v.get("event").and_then(Json::as_str) == Some(event))
        {
            problems.push(format!("telemetry JSONL holds no {event} event"));
        }
    }
    problems
}

/// Outcome of diffing a fresh run against a baseline: the rendered
/// comparison plus every budget breach. An empty `failures` list means the
/// gate passes.
#[derive(Debug, Clone, Default)]
pub struct BaselineDiff {
    /// Human-readable comparison, one line per row plus the overhead line.
    pub lines: Vec<String>,
    /// Budget breaches; empty when the gate passes.
    pub failures: Vec<String>,
}

impl BaselineDiff {
    /// True when no budget was breached.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// The full report: comparison lines, then failures (if any).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for l in &self.lines {
            let _ = writeln!(out, "  {l}");
        }
        for f in &self.failures {
            let _ = writeln!(out, "  FAIL: {f}");
        }
        if self.failures.is_empty() {
            let _ = writeln!(
                out,
                "  baseline gate: PASS (pps within -{PPS_REGRESSION_BUDGET_PCT:.0}%, \
                 telemetry overhead within {TELEMETRY_OVERHEAD_BUDGET_PCT:.0}%)"
            );
        }
        out
    }
}

/// Diff fresh records against a parsed baseline.
///
/// Gated: realtime rows regressing more than
/// [`PPS_REGRESSION_BUDGET_PCT`] below the matching baseline row
/// (matched on substrate + batch size), and the current telemetry
/// experiment's `overhead_pct` exceeding
/// [`TELEMETRY_OVERHEAD_BUDGET_PCT`]. Reported but not gated: simulator
/// rows (virtual-time throughput measures simulation cost, not the engine)
/// and rows without a baseline counterpart (a new batch size is growth,
/// not regression). A scale mismatch fails outright — throughput at
/// different trace scales is not comparable.
pub fn compare_with_baseline(
    baseline: &Baseline,
    current_scale: f64,
    current: &[RuntimeBenchRecord],
    recovery: Option<&[RecoveryRecord]>,
    telemetry: Option<&TelemetryBenchRecord>,
) -> BaselineDiff {
    let mut diff = BaselineDiff::default();

    if (baseline.scale - current_scale).abs() > 1e-9 {
        diff.failures.push(format!(
            "scale mismatch: baseline ran at {}, this run at {} (throughput not comparable)",
            baseline.scale, current_scale
        ));
        return diff;
    }

    for r in current {
        let label = format!("{} batch {}", r.substrate, r.batch_size);
        let Some(base) = baseline
            .rows
            .iter()
            .find(|b| b.substrate == r.substrate && b.batch_size == r.batch_size)
        else {
            diff.lines
                .push(format!("{label:<22} {:>11.0} pps (no baseline row)", r.pps));
            continue;
        };
        let delta_pct = if base.pps > 0.0 {
            (r.pps - base.pps) / base.pps * 100.0
        } else {
            0.0
        };
        diff.lines.push(format!(
            "{label:<22} {:>11.0} pps vs {:>11.0} baseline ({delta_pct:+.1}%)",
            r.pps, base.pps
        ));
        if r.substrate == "realtime" && delta_pct < -PPS_REGRESSION_BUDGET_PCT {
            diff.failures.push(format!(
                "{label}: throughput regressed {delta_pct:.1}% \
                 (budget -{PPS_REGRESSION_BUDGET_PCT:.0}%)"
            ));
        }
    }

    // Recovery-time-vs-position rows. Wall-clock recovery time on a shared
    // host is far too noisy to gate on a percentage, so the times inform
    // only; what *is* gated is coverage — a kill position the baseline
    // recovered from must still be measured, recover, and stay correct.
    if let Some(recs) = recovery {
        for r in recs {
            let base = baseline
                .recovery_positions
                .iter()
                .find(|(p, _)| *p == r.position)
                .map(|(_, us)| format!("{us:>9.1} us baseline"))
                .unwrap_or_else(|| "no baseline".to_string());
            diff.lines.push(format!(
                "recovery {:<13} {:>9.1} us vs {base}",
                r.position, r.recovery_us
            ));
            if !r.matches_healthy || r.sink_duplicates > 0 || r.invariant_violations > 0 {
                diff.failures.push(format!(
                    "recovery at {}: incorrect failover (matches_healthy={}, \
                     sink_duplicates={}, invariant_violations={})",
                    r.position, r.matches_healthy, r.sink_duplicates, r.invariant_violations
                ));
            }
        }
        for (pos, _) in &baseline.recovery_positions {
            if !recs.iter().any(|r| r.position == *pos) {
                diff.failures.push(format!(
                    "recovery coverage regressed: baseline measured a '{pos}' kill, \
                     this run did not"
                ));
            }
        }
    }

    if let Some(t) = telemetry {
        let cur = t.overhead_pct();
        let base = baseline
            .overhead_pct
            .map(|b| format!("{b:+.2}% baseline"))
            .unwrap_or_else(|| "no baseline".to_string());
        diff.lines
            .push(format!("telemetry overhead     {cur:+.2}% vs {base}"));
        if cur > TELEMETRY_OVERHEAD_BUDGET_PCT {
            diff.failures.push(format!(
                "telemetry overhead {cur:+.2}% exceeds the \
                 {TELEMETRY_OVERHEAD_BUDGET_PCT:.0}% budget"
            ));
        }
    }

    diff
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime_bench::{
        records_to_json, telemetry_jsonl, StoreBackendRecord, StoreBatchRecord, BENCH_CHAIN,
    };
    use chc_telemetry::{EventJournal, EventKind};

    fn record(substrate: &str, batch: usize, pps: f64) -> RuntimeBenchRecord {
        RuntimeBenchRecord {
            chain: BENCH_CHAIN.to_string(),
            substrate: substrate.to_string(),
            batch_size: batch,
            packets: 1000,
            delivered: 1000,
            wall_s: 0.1,
            pps,
            gbps: 0.1,
            p50_us: 10.0,
            p99_us: 20.0,
            store_ops: 1,
        }
    }

    fn baseline_json(pps8: f64, pps64: f64) -> String {
        crate::runtime_bench::records_to_json(
            crate::Scale(0.05),
            &[
                record("realtime", 8, pps8),
                record("realtime", 64, pps64),
                record("simulator", 0, 9e5),
            ],
            None,
            None,
            None,
            None,
            None,
        )
    }

    #[test]
    fn parses_what_records_to_json_writes() {
        let b = parse_baseline(&baseline_json(50_000.0, 90_000.0)).unwrap();
        assert_eq!(b.scale, 0.05);
        assert_eq!(b.rows.len(), 3);
        assert_eq!(b.rows[0].substrate, "realtime");
        assert_eq!(b.rows[0].batch_size, 8);
        assert!((b.rows[0].pps - 50_000.0).abs() < 0.5);
        assert_eq!(b.rows[2].substrate, "simulator");
        assert!(b.overhead_pct.is_none());

        assert!(parse_baseline("{}").is_err());
        assert!(parse_baseline("{\n  \"scale\": 1\n}").is_err());
    }

    #[test]
    fn passes_within_budget_and_fails_beyond_it() {
        let base = parse_baseline(&baseline_json(50_000.0, 90_000.0)).unwrap();

        // 5% down: within the 10% budget.
        let ok = compare_with_baseline(
            &base,
            0.05,
            &[
                record("realtime", 8, 47_500.0),
                record("realtime", 64, 95_000.0),
            ],
            None,
            None,
        );
        assert!(ok.ok(), "unexpected failures: {:?}", ok.failures);
        assert!(ok.render().contains("PASS"));

        // 20% down on one row: gate fails and names the row.
        let bad = compare_with_baseline(
            &base,
            0.05,
            &[
                record("realtime", 8, 40_000.0),
                record("realtime", 64, 95_000.0),
            ],
            None,
            None,
        );
        assert!(!bad.ok());
        assert_eq!(bad.failures.len(), 1);
        assert!(bad.failures[0].contains("realtime batch 8"));
    }

    #[test]
    fn simulator_rows_and_new_rows_inform_but_never_gate() {
        let base = parse_baseline(&baseline_json(50_000.0, 90_000.0)).unwrap();
        let diff = compare_with_baseline(
            &base,
            0.05,
            &[
                record("simulator", 0, 1.0),  // collapsed, but not gated
                record("realtime", 256, 1.0), // no baseline row
            ],
            None,
            None,
        );
        assert!(diff.ok(), "unexpected failures: {:?}", diff.failures);
        assert!(diff.lines.iter().any(|l| l.contains("no baseline row")));
    }

    fn telem(pps_enabled: f64) -> TelemetryBenchRecord {
        TelemetryBenchRecord {
            batch_size: 8,
            sample_ms: 5,
            e2e_mean_ns: 1.0,
            e2e_p50_ns: 1,
            report: chc_runtime::TelemetryReport {
                stages: vec![chc_runtime::StageReport {
                    vertex: chc_store::VertexId(1),
                    queue: Default::default(),
                    service: Default::default(),
                    store: Default::default(),
                    flush_depth: Default::default(),
                }],
                ..Default::default()
            },
            pps_enabled,
            pps_disabled: 100_000.0,
            invariant_violations: 0,
        }
    }

    #[test]
    fn telemetry_overhead_budget_gates() {
        let base = parse_baseline(&baseline_json(50_000.0, 90_000.0)).unwrap();
        let within = compare_with_baseline(
            &base,
            0.05,
            &[record("realtime", 8, 50_000.0)],
            None,
            Some(&telem(97_000.0)), // 3% overhead
        );
        assert!(within.ok(), "unexpected failures: {:?}", within.failures);

        let breach = compare_with_baseline(
            &base,
            0.05,
            &[record("realtime", 8, 50_000.0)],
            None,
            Some(&telem(90_000.0)), // 10% overhead
        );
        assert!(!breach.ok());
        assert!(breach.failures[0].contains("telemetry overhead"));
    }

    fn recovery(position: &str, us: f64) -> RecoveryRecord {
        RecoveryRecord {
            position: position.to_string(),
            packets: 1000,
            kill_at: 500,
            packets_replayed: 10,
            log_high_water: 32,
            log_truncated: 100,
            recovery_us: us,
            suppressed_duplicates: 5,
            sink_duplicates: 0,
            matches_healthy: true,
            invariant_violations: 0,
            wall_s: 0.1,
            events: Vec::new(),
        }
    }

    #[test]
    fn recovery_positions_round_trip_and_gate_coverage() {
        let sweep: Vec<RecoveryRecord> = ["entry", "mid", "tail", "root"]
            .iter()
            .enumerate()
            .map(|(i, p)| recovery(p, 100.0 * (i + 1) as f64))
            .collect();
        let json = crate::runtime_bench::records_to_json(
            crate::Scale(0.05),
            &[record("realtime", 8, 50_000.0)],
            Some(&sweep[0]),
            Some(&sweep),
            None,
            None,
            None,
        );
        let base = parse_baseline(&json).unwrap();
        assert_eq!(base.recovery_positions.len(), 4, "one row per position");
        assert_eq!(base.recovery_positions[0].0, "entry");
        assert!((base.recovery_positions[3].1 - 400.0).abs() < 0.5);

        // All positions present and correct: times inform, gate passes.
        let ok = compare_with_baseline(
            &base,
            0.05,
            &[record("realtime", 8, 50_000.0)],
            Some(&sweep),
            None,
        );
        assert!(ok.ok(), "unexpected failures: {:?}", ok.failures);
        assert!(ok.lines.iter().any(|l| l.contains("recovery mid")));

        // A much slower recovery still passes (inform-only)...
        let slow: Vec<RecoveryRecord> = sweep
            .iter()
            .map(|r| recovery(&r.position, r.recovery_us * 50.0))
            .collect();
        let ok = compare_with_baseline(
            &base,
            0.05,
            &[record("realtime", 8, 50_000.0)],
            Some(&slow),
            None,
        );
        assert!(ok.ok(), "recovery times must not gate: {:?}", ok.failures);

        // ...but losing a position the baseline covered fails,
        let missing: Vec<RecoveryRecord> = sweep[..3].to_vec();
        let bad = compare_with_baseline(
            &base,
            0.05,
            &[record("realtime", 8, 50_000.0)],
            Some(&missing),
            None,
        );
        assert!(!bad.ok());
        assert!(bad.failures[0].contains("'root'"));

        // ...as does an incorrect failover at any position.
        let mut wrong = sweep.clone();
        wrong[1].matches_healthy = false;
        let bad = compare_with_baseline(
            &base,
            0.05,
            &[record("realtime", 8, 50_000.0)],
            Some(&wrong),
            None,
        );
        assert!(!bad.ok());
        assert!(bad.failures[0].contains("mid"));
    }

    /// What the line-grep reader of earlier revisions read from each
    /// committed snapshot: runtime_chain pps (batch 8, batch 64, simulator),
    /// telemetry overhead_pct, and recovery_us per kill position.
    const COMMITTED: [(&str, [f64; 3], f64, [f64; 4]); 3] = [
        (
            include_str!("../../../BENCH_2026-08-08.json"),
            [85542.8, 88355.6, 696271.2],
            -1.8,
            [16218.3, 8276.0, 2619.0, 222717.7],
        ),
        (
            include_str!("../../../BENCH_2026-08-08-store-backend.json"),
            [89079.0, 99996.9, 696271.2],
            -10.97,
            [13216.3, 2504.9, 1108.7, 499742.9],
        ),
        (
            include_str!("../../../BENCH_2026-08-08-store-fastpath.json"),
            [103933.1, 113287.0, 696271.2],
            -16.32,
            [13491.0, 3107.3, 180.7, 241146.6],
        ),
    ];

    #[test]
    fn committed_snapshots_read_as_before() {
        for (json, pps, overhead, recovery_us) in COMMITTED {
            let b = parse_baseline(json).unwrap();
            assert_eq!((b.scale, b.overhead_pct), (1.0, Some(overhead)));
            let rows: Vec<_> = b
                .rows
                .iter()
                .map(|r| (r.substrate.as_str(), r.batch_size, r.pps))
                .collect();
            assert_eq!(
                rows,
                [
                    ("realtime", 8, pps[0]),
                    ("realtime", 64, pps[1]),
                    ("simulator", 0, pps[2])
                ]
            );
            let positions: Vec<_> = b
                .recovery_positions
                .iter()
                .map(|(p, us)| (p.as_str(), *us))
                .collect();
            assert_eq!(
                positions,
                KILL_POSITIONS
                    .into_iter()
                    .zip(recovery_us)
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn only_runtime_chain_rows_are_gated() {
        // A store_batch row carrying the throughput-row keys is still not a
        // runtime_chain row.
        let row = Json::object([
            ("substrate", "realtime".into()),
            ("batch_size", 64u64.into()),
            ("pps", 1e9.into()),
        ]);
        let doc = Json::object([
            ("scale", 0.05.into()),
            (
                "runtime_chain",
                vec![record("realtime", 8, 5e4).to_json()].into(),
            ),
            ("store_batch", vec![row].into()),
        ]);
        let base = parse_baseline(&doc.render()).unwrap();
        assert_eq!(base.rows.len(), 1);
        assert!(
            compare_with_baseline(&base, 0.05, &[record("realtime", 64, 1.0)], None, None).ok()
        );
    }

    /// A complete document and its JSONL, with the given kill positions and
    /// one store_batch row per violation count.
    fn document(positions: &[&str], violations: &[usize]) -> (String, String) {
        let sweep: Vec<_> = positions.iter().map(|p| recovery(p, 1.0)).collect();
        let batch: Vec<_> = violations
            .iter()
            .map(|&invariant_violations| StoreBatchRecord {
                write_behind: true,
                store_batch: 64,
                ring_batch: 64,
                ring_wait: "park".into(),
                packets: 1,
                pps: 1.0,
                store_ops: 1,
                flush_depth_mean: 1.0,
                invariant_violations,
            })
            .collect();
        let backends =
            ["memory", "memory", "append_only", "append_only"].map(|b| StoreBackendRecord {
                backend: b.into(),
                mode: "ops".into(),
                shards: 1,
                threads: 1,
                ops: 1,
                wall_s: 1.0,
                ops_per_sec: 1.0,
                history: 0,
                journal_depth: 0,
                replayed_ops: 0,
                restart_micros: 0.0,
                invariant_violations: 0,
            });
        // Both runs' journals number from 0; the run tag keeps the JSONL
        // ordered.
        let journal = |kinds: &[EventKind]| {
            let j = EventJournal::new();
            for &k in kinds {
                j.record(0, k);
            }
            j.snapshot()
        };
        let (vertex, index, instance) = (1, 0, 7);
        let mut entry = recovery("entry", 1.0);
        entry.events = journal(&[
            EventKind::ReplayComplete {
                vertex,
                index,
                instance,
                packets_replayed: 3,
            },
            EventKind::FailoverEnd {
                vertex,
                index,
                instance,
                recovery_ns: 9,
            },
        ]);
        let mut telemetry = telem(1.0);
        telemetry.report.events = journal(&[EventKind::RootKilled { at_counter: 1 }]);
        let json = records_to_json(
            crate::Scale(0.05),
            &[record("realtime", 8, 5e4)],
            Some(&entry),
            Some(&sweep),
            Some(&telemetry),
            Some(&batch),
            Some(&backends),
        );
        (json, telemetry_jsonl(&entry, &telemetry))
    }

    #[test]
    fn schema_check_passes_a_full_document_and_flags_doctored_ones() {
        let (json, jsonl) = document(&KILL_POSITIONS, &[0; 6]);
        assert_eq!(
            check_bench_document(&json, Some(&jsonl)),
            Vec::<String>::new()
        );
        let check = |positions: &[&str], violations: &[usize]| {
            check_bench_document(&document(positions, violations).0, None)
        };
        assert_eq!(
            check(&KILL_POSITIONS[..3], &[0; 6]),
            ["recovery_by_position has no 'root' kill"]
        );
        assert_eq!(
            check(&KILL_POSITIONS, &[0, 0, 0, 0, 1, 0]),
            ["store_batch[4] recorded invariant violations"]
        );
        assert_eq!(
            check(&KILL_POSITIONS, &[0; 5]),
            ["store_batch has 5 rows, want at least 6"]
        );
        assert_eq!(check_bench_document("{", None).len(), 1, "unparseable");
        // The JSONL: out-of-order lines, or a missing replay phase, fail.
        let lines: Vec<&str> = jsonl.lines().collect();
        let swapped = [lines[1], lines[0], lines[2]].join("\n");
        let problems = check_bench_document(&json, Some(&swapped));
        assert_eq!(
            problems,
            ["telemetry JSONL line 2: (run, seq) does not increase"]
        );
        let problems = check_bench_document(&json, Some(&lines[1..].join("\n")));
        assert_eq!(problems, ["telemetry JSONL holds no replay_complete event"]);
    }

    #[test]
    fn scale_mismatch_fails_outright() {
        let base = parse_baseline(&baseline_json(50_000.0, 90_000.0)).unwrap();
        let diff =
            compare_with_baseline(&base, 1.0, &[record("realtime", 8, 50_000.0)], None, None);
        assert!(!diff.ok());
        assert!(diff.failures[0].contains("scale mismatch"));
        assert!(
            diff.lines.is_empty(),
            "no per-row diff on mismatched scales"
        );
    }
}
