//! Structured event journal: a bounded-cost, append-only record of the
//! control-plane moments of a run (spawns, kills, failover phases, commit
//! frontier advances), timestamped against the engine's run epoch.
//!
//! Events carry raw numeric ids (`u32` vertex ids, `u64` instance ids)
//! rather than runtime types so this crate stays dependency-free and below
//! every other CHC layer. Each event renders as one [`Json`] object, which
//! `paper_eval --telemetry-jsonl` writes as one JSONL line.

use crate::Json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// What happened. Field meanings:
/// `vertex` — `VertexId.0`; `index` — replica slot within the vertex;
/// `instance` — `InstanceId.0`; `clock` — root clock counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // field meanings documented on the enum and variants
pub enum EventKind {
    /// An NF instance thread started (initial wiring or replacement).
    InstanceSpawn {
        vertex: u32,
        index: u32,
        instance: u64,
    },
    /// A fault-injected instance stopped processing; `clock` is the last
    /// clock counter it observed before dying.
    InstanceKilled {
        vertex: u32,
        index: u32,
        instance: u64,
        clock: u64,
    },
    /// The supervisor accepted a death notice and began failover.
    FailoverBegin {
        vertex: u32,
        index: u32,
        instance: u64,
    },
    /// The replacement instance thread was spawned.
    ReplacementSpawn {
        vertex: u32,
        index: u32,
        instance: u64,
    },
    /// Replay of the root packet log into the replacement finished.
    ReplayComplete {
        vertex: u32,
        index: u32,
        instance: u64,
        packets_replayed: u64,
    },
    /// Failover completed end to end; `recovery_ns` is the supervisor-
    /// measured wall time from death notice to recovered.
    FailoverEnd {
        vertex: u32,
        index: u32,
        instance: u64,
        recovery_ns: u64,
    },
    /// The commit frontier advanced and the root log was truncated up to
    /// `frontier`, dropping `dropped` entries.
    CommitFrontier { frontier: u64, dropped: u64 },
    /// The root switched the vertex's replica set at `at_counter` (scale
    /// event cutover).
    ScaleCut { vertex: u32, at_counter: u64 },
    /// A store shard was restarted and replayed `ops_replayed` journal ops.
    ShardRestart { shard: u32, ops_replayed: u64 },
    /// The root stamping thread fail-stopped before injecting `at_counter`;
    /// its unflushed output buffers were dropped with it.
    RootKilled { at_counter: u64 },
    /// The warm standby took over injection: it replayed `packets_replayed`
    /// unconfirmed logged packets and resumed stamping at `resumed_at`.
    RootTakeover {
        resumed_at: u64,
        packets_replayed: u64,
    },
    /// A failover was abandoned mid-flight (replay ring stalled because the
    /// replacement stopped draining, or no replacement seed existed for the
    /// failed slot). The run continues degraded instead of hanging; the
    /// human-readable reason lives in `FaultReport::aborts`.
    FailoverAbort {
        vertex: u32,
        index: u32,
        instance: u64,
    },
    /// The invariant sentinel detected a violation. `code` is the stable
    /// [`crate::sentinel::InvariantKind`] code; `observed`/`expected` carry
    /// the offending value and the bound it broke (kept numeric so the
    /// event stays `Copy`; the full detail string lives in the run report).
    InvariantViolation {
        code: u32,
        observed: u64,
        expected: u64,
    },
}

impl EventKind {
    /// Stable snake_case name used in JSONL output.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::InstanceSpawn { .. } => "instance_spawn",
            EventKind::InstanceKilled { .. } => "instance_killed",
            EventKind::FailoverBegin { .. } => "failover_begin",
            EventKind::ReplacementSpawn { .. } => "replacement_spawn",
            EventKind::ReplayComplete { .. } => "replay_complete",
            EventKind::FailoverEnd { .. } => "failover_end",
            EventKind::CommitFrontier { .. } => "commit_frontier",
            EventKind::ScaleCut { .. } => "scale_cut",
            EventKind::ShardRestart { .. } => "shard_restart",
            EventKind::RootKilled { .. } => "root_killed",
            EventKind::RootTakeover { .. } => "root_takeover",
            EventKind::FailoverAbort { .. } => "failover_abort",
            EventKind::InvariantViolation { .. } => "invariant_violation",
        }
    }
}

/// One journal entry. `seq` is a global order assigned at record time, so
/// causality between threads is decidable even when coarse clocks tie.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Global record order (0-based).
    pub seq: u64,
    /// Nanoseconds since the run epoch.
    pub t_ns: u64,
    /// The event payload.
    pub kind: EventKind,
}

impl Event {
    /// This event as one JSON object (one JSONL line once rendered).
    pub fn to_json(&self) -> Json {
        let mut fields: Vec<(&str, Json)> = vec![
            ("seq", self.seq.into()),
            ("t_ns", self.t_ns.into()),
            ("event", self.kind.name().into()),
        ];
        let slot = |vertex: u32, index: u32, instance: u64| {
            [
                ("vertex", vertex.into()),
                ("index", index.into()),
                ("instance", instance.into()),
            ]
        };
        match self.kind {
            EventKind::InstanceSpawn {
                vertex,
                index,
                instance,
            }
            | EventKind::FailoverBegin {
                vertex,
                index,
                instance,
            }
            | EventKind::ReplacementSpawn {
                vertex,
                index,
                instance,
            }
            | EventKind::FailoverAbort {
                vertex,
                index,
                instance,
            } => fields.extend(slot(vertex, index, instance)),
            EventKind::InstanceKilled {
                vertex,
                index,
                instance,
                clock,
            } => {
                fields.extend(slot(vertex, index, instance));
                fields.push(("clock", clock.into()));
            }
            EventKind::ReplayComplete {
                vertex,
                index,
                instance,
                packets_replayed,
            } => {
                fields.extend(slot(vertex, index, instance));
                fields.push(("packets_replayed", packets_replayed.into()));
            }
            EventKind::FailoverEnd {
                vertex,
                index,
                instance,
                recovery_ns,
            } => {
                fields.extend(slot(vertex, index, instance));
                fields.push(("recovery_ns", recovery_ns.into()));
            }
            EventKind::CommitFrontier { frontier, dropped } => {
                fields.extend([("frontier", frontier.into()), ("dropped", dropped.into())]);
            }
            EventKind::ScaleCut { vertex, at_counter } => {
                fields.extend([("vertex", vertex.into()), ("at_counter", at_counter.into())]);
            }
            EventKind::ShardRestart {
                shard,
                ops_replayed,
            } => {
                fields.extend([
                    ("shard", shard.into()),
                    ("ops_replayed", ops_replayed.into()),
                ]);
            }
            EventKind::RootKilled { at_counter } => fields.push(("at_counter", at_counter.into())),
            EventKind::RootTakeover {
                resumed_at,
                packets_replayed,
            } => fields.extend([
                ("resumed_at", resumed_at.into()),
                ("packets_replayed", packets_replayed.into()),
            ]),
            EventKind::InvariantViolation {
                code,
                observed,
                expected,
            } => fields.extend([
                ("invariant", crate::sentinel::invariant_name(code).into()),
                ("code", code.into()),
                ("observed", observed.into()),
                ("expected", expected.into()),
            ]),
        }
        Json::object(fields)
    }
}

/// Thread-safe append-only journal. Recording takes a short mutex on the
/// event vector — events are control-plane-rate (spawns, failovers), never
/// per-packet, so contention is irrelevant.
#[derive(Debug, Default)]
pub struct EventJournal {
    seq: AtomicU64,
    events: Mutex<Vec<Event>>,
}

impl EventJournal {
    /// An empty journal.
    pub fn new() -> EventJournal {
        EventJournal::default()
    }

    /// Append an event observed `t_ns` nanoseconds after the run epoch.
    /// Returns the assigned global sequence number.
    pub fn record(&self, t_ns: u64, kind: EventKind) -> u64 {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        self.events
            .lock()
            .expect("journal poisoned")
            .push(Event { seq, t_ns, kind });
        seq
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().expect("journal poisoned").len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copy of all events, sorted by sequence number.
    pub fn snapshot(&self) -> Vec<Event> {
        let mut out = self.events.lock().expect("journal poisoned").clone();
        out.sort_by_key(|e| e.seq);
        out
    }

    /// Events with `seq >= from`, sorted by sequence number — the polling
    /// primitive of streaming consumers (the invariant sentinel): call with
    /// the last seen sequence + 1 to drain only what is new.
    pub fn events_since(&self, from: u64) -> Vec<Event> {
        let mut out: Vec<Event> = self
            .events
            .lock()
            .expect("journal poisoned")
            .iter()
            .filter(|e| e.seq >= from)
            .copied()
            .collect();
        out.sort_by_key(|e| e.seq);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_sequence_and_renders_jsonl() {
        let j = EventJournal::new();
        j.record(
            100,
            EventKind::InstanceKilled {
                vertex: 1,
                index: 0,
                instance: 7,
                clock: 42,
            },
        );
        j.record(
            200,
            EventKind::FailoverBegin {
                vertex: 1,
                index: 0,
                instance: 7,
            },
        );
        j.record(
            300,
            EventKind::CommitFrontier {
                frontier: 40,
                dropped: 40,
            },
        );
        let events = j.snapshot();
        assert_eq!(events.len(), 3);
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));

        let lines: Vec<Json> = events
            .iter()
            .map(|e| Json::parse(&e.to_json().render()).unwrap())
            .collect();
        assert_eq!(lines[0].get("event"), Some(&Json::from("instance_killed")));
        assert_eq!(lines[0].get("clock"), Some(&Json::from(42u64)));
        assert_eq!(lines[2].get("frontier"), Some(&Json::from(40u64)));
        assert_eq!(lines[2].get("seq"), Some(&Json::from(2u64)));
    }

    #[test]
    fn concurrent_records_get_unique_seqs() {
        let j = std::sync::Arc::new(EventJournal::new());
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let j = std::sync::Arc::clone(&j);
                s.spawn(move || {
                    for i in 0..100u64 {
                        j.record(
                            i,
                            EventKind::ScaleCut {
                                vertex: t,
                                at_counter: i,
                            },
                        );
                    }
                });
            }
        });
        let events = j.snapshot();
        assert_eq!(events.len(), 400);
        let mut seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        seqs.dedup();
        assert_eq!(seqs.len(), 400, "sequence numbers are unique and sorted");
    }
}
