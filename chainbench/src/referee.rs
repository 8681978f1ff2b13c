//! The correctness referee: the paper's chain output equivalence (COE)
//! against the ideal single-instance chain, plus the engine's own sentinel
//! and failover-abort records. Every measured run goes through it.

use chc_core::coe::{coe_violations, run_ideal_chain, IdealChainResult};
use chc_core::{LogicalDag, SharedStore};
use chc_packet::{PacketId, Trace};
use chc_runtime::RuntimeReport;
use chc_store::Clock;
use std::collections::{HashMap, HashSet};

/// What the ideal chain does with a trace: the packets it delivers, in
/// processing order, and the alerts it raises. Built once per workload and
/// seed, outside any timed section.
pub struct Expected {
    /// Packets injected (the trace length).
    pub injected: u64,
    /// The ideal chain's result, with its final store emptied: the referee
    /// compares delivered packets and alerts, and the store would only
    /// inflate the measured process's memory.
    pub ideal: IdealChainResult,
}

impl Expected {
    /// Run the ideal chain over `trace`.
    pub fn ideal(dag: &LogicalDag, trace: &Trace) -> Expected {
        let ideal = run_ideal_chain(dag, trace);
        Expected {
            injected: trace.len() as u64,
            ideal: IdealChainResult {
                store: SharedStore::new(),
                ..ideal
            },
        }
    }

    /// Packet ids the ideal chain delivers, in clock order.
    pub fn delivered(&self) -> &[PacketId] {
        &self.ideal.delivered
    }
}

/// The referee's judgement of one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Verdict {
    /// Packets injected.
    pub attempted: u64,
    /// Failed packets: missing versus the ideal chain, spurious, or
    /// duplicated, plus alert mismatches, sentinel violations and failover
    /// aborts.
    pub failed: u64,
    /// Human-readable reasons (COE violations first), for the log.
    pub detail: Vec<String>,
}

impl Verdict {
    /// `failed / attempted`.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Judge a delivered stream against the ideal chain. `duplicates` is the
/// sink's count of arrivals of an already-delivered clock (the engine also
/// lists those arrivals in `delivered`, so a repeat counts once);
/// `extra_failures` are failures the engine reported itself (sentinel
/// violations, aborts), with reasons.
pub fn judge(
    expected: &Expected,
    delivered: &[PacketId],
    duplicates: u64,
    alerts: &[(Clock, String)],
    extra_failures: Vec<String>,
) -> Verdict {
    let ideal: HashSet<PacketId> = expected.delivered().iter().copied().collect();
    let mut seen = HashSet::with_capacity(delivered.len());
    let mut spurious = 0u64;
    let mut repeated = 0u64;
    for id in delivered {
        if !seen.insert(*id) {
            repeated += 1;
        } else if !ideal.contains(id) {
            spurious += 1;
        }
    }
    let missing = ideal.iter().filter(|id| !seen.contains(id)).count() as u64;

    let mut alert_diff: HashMap<&str, i64> = HashMap::new();
    for (_, m) in &expected.ideal.alerts {
        *alert_diff.entry(m).or_default() += 1;
    }
    for (_, m) in alerts {
        *alert_diff.entry(m).or_default() -= 1;
    }
    let alert_mismatches: u64 = alert_diff.values().map(|d| d.unsigned_abs()).sum();

    // The library referee names the violations; the tally above counts
    // them per packet. A violation it finds that the tally missed still
    // counts.
    let duplicates = repeated.max(duplicates);
    let mut detail = coe_violations(&expected.ideal, delivered, duplicates, alerts, false);
    let tally = missing + spurious + duplicates + alert_mismatches;
    let failed = tally.max(detail.len() as u64) + extra_failures.len() as u64;
    detail.extend(extra_failures);
    Verdict {
        attempted: expected.injected,
        failed,
        detail,
    }
}

/// Failures the engine reports about itself: sentinel violations, failover
/// aborts, and a root that did not inject the whole trace.
pub fn engine_failures(report: &RuntimeReport, injected: u64) -> Vec<String> {
    let mut failures: Vec<String> = report
        .invariants
        .iter()
        .flat_map(|s| s.violations.iter().map(|v| format!("sentinel: {v:?}")))
        .collect();
    if let Some(fault) = &report.fault {
        failures.extend(
            fault
                .aborts
                .iter()
                .map(|a| format!("failover abort: {a:?}")),
        );
    }
    if report.injected != injected {
        failures.push(format!(
            "root injected {} of {injected} packets",
            report.injected
        ));
    }
    failures
}

/// Judge one engine run: COE with `allow_loss = false`, plus the engine's
/// own failure reports.
pub fn judge_run(expected: &Expected, report: &RuntimeReport) -> Verdict {
    judge(
        expected,
        &report.delivered_ids,
        report.duplicates,
        &report.alerts(),
        engine_failures(report, expected.injected),
    )
}
