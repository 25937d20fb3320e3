//! Deterministic trace replay: parse the JSONL sink format back into
//! [`TraceEvent`] streams and re-drive any [`TraceSink`] offline.
//!
//! A recorded trace (from a [`JsonlSink`](crate::sinks::JsonlSink)) is the
//! complete observable history of a query. Replaying it reproduces every
//! downstream aggregate without re-running the query: a fresh
//! [`MetricsSink`](crate::metrics_sink::MetricsSink) fed a replayed trace
//! reaches the same counters and histograms as the live run, a
//! [`ValidatorSink`](crate::sinks::ValidatorSink) re-checks the invariants
//! post-hoc, and the [`scoring`](crate::scoring) module computes quality
//! metrics from the embedded `progress_sampled` snapshots. Replay is
//! deterministic: events keep their recorded `seq`/`at_us` stamps and are
//! fed to sinks directly — **not** through an
//! [`EventBus`](qprog_exec::trace::EventBus), which would
//! re-stamp them with wall-clock values.
//!
//! Parsing is line-oriented over the flat one-line objects produced by
//! [`event_to_json`](crate::json::event_to_json); malformed or unknown
//! lines are collected, not fatal, so a truncated production trace (killed
//! writer, ring overflow) still replays its intact prefix.

use std::sync::Arc;

use qprog_exec::span::{SpanKind, NO_PARENT};
use qprog_exec::trace::{
    AbortKind, DegradeReason, EstimateSource, HealthReason, HealthState, Phase, RegressionKind,
    TraceEvent, TraceEventKind, TraceSink,
};

use qprog_types::json::{raw_field, unescape};

/// A parsed trace: the event stream plus whatever operator names the JSONL
/// carried.
#[derive(Debug, Clone, Default)]
pub struct ReplayedTrace {
    /// Events in file order (which is publication order for a
    /// single-writer JSONL sink).
    pub events: Vec<TraceEvent>,
    /// Operator names gleaned from `op_name` annotations, indexed by
    /// operator registry index (empty string = never named).
    pub op_names: Vec<String>,
    /// Lines that failed to parse, as `(line_number, reason)` (1-based).
    pub errors: Vec<(usize, String)>,
}

impl ReplayedTrace {
    /// Parse a whole JSONL document (one event object per line; blank
    /// lines are skipped).
    pub fn parse(jsonl: &str) -> ReplayedTrace {
        let mut trace = ReplayedTrace::default();
        for (i, line) in jsonl.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            match parse_event(line) {
                Ok(event) => {
                    if let (Some(op), Some(name)) =
                        (op_index(&event.kind), raw_field(line, "op_name"))
                    {
                        let idx = op as usize;
                        if trace.op_names.len() <= idx {
                            trace.op_names.resize(idx + 1, String::new());
                        }
                        if trace.op_names[idx].is_empty() {
                            trace.op_names[idx] = decode_or_raw(name);
                        }
                    }
                    trace.events.push(event);
                }
                Err(reason) => trace.errors.push((i + 1, reason)),
            }
        }
        trace
    }

    /// Feed every parsed event to `sink`, preserving recorded stamps.
    pub fn replay_into(&self, sink: &dyn TraceSink) {
        for event in &self.events {
            sink.publish(event);
        }
    }

    /// Feed every parsed event to each sink in turn (per-event fan-out,
    /// like a live bus).
    pub fn replay_into_all(&self, sinks: &[Arc<dyn TraceSink>]) {
        for event in &self.events {
            for sink in sinks {
                sink.publish(event);
            }
        }
    }
}

/// The operator index an event is about, if any.
fn op_index(kind: &TraceEventKind) -> Option<u32> {
    match kind {
        TraceEventKind::PhaseTransition { op, .. }
        | TraceEventKind::EstimateRefined { op, .. }
        | TraceEventKind::BoundsRefined { op, .. }
        | TraceEventKind::OperatorFinished { op, .. }
        | TraceEventKind::EstimatorDegraded { op, .. }
        | TraceEventKind::OperatorWallTime { op, .. }
        | TraceEventKind::WorkerWallTime { op, .. } => Some(*op),
        TraceEventKind::PipelineStarted { .. }
        | TraceEventKind::PipelineFinished { .. }
        | TraceEventKind::QueryFinished { .. }
        | TraceEventKind::QueryAborted { .. }
        | TraceEventKind::ProgressSampled { .. }
        | TraceEventKind::HealthTransition { .. }
        | TraceEventKind::RegressionDetected { .. }
        | TraceEventKind::SpanStart { .. }
        | TraceEventKind::SpanEnd { .. } => None,
    }
}

/// A string value's decoded text, or its raw text when it does not decode:
/// replay is tolerant of malformed escapes rather than dropping the name.
fn decode_or_raw(raw: &str) -> String {
    unescape(raw).unwrap_or_else(|| raw.to_string())
}

fn field<'a>(line: &'a str, key: &str) -> Result<&'a str, String> {
    raw_field(line, key).ok_or_else(|| format!("missing field \"{key}\""))
}

fn parse_u64(line: &str, key: &str) -> Result<u64, String> {
    field(line, key)?
        .parse::<u64>()
        .map_err(|e| format!("field \"{key}\": {e}"))
}

fn parse_u32(line: &str, key: &str) -> Result<u32, String> {
    field(line, key)?
        .parse::<u32>()
        .map_err(|e| format!("field \"{key}\": {e}"))
}

/// `null` (the encoding of NaN/inf, which JSON cannot represent) parses
/// back as NaN; finite values round-trip exactly through Rust's f64
/// shortest-repr `Display`.
fn parse_f64(line: &str, key: &str) -> Result<f64, String> {
    let raw = field(line, key)?;
    if raw == "null" {
        return Ok(f64::NAN);
    }
    raw.parse::<f64>()
        .map_err(|e| format!("field \"{key}\": {e}"))
}

fn parse_phase(line: &str, key: &str) -> Result<Phase, String> {
    let raw = field(line, key)?;
    Phase::from_name(raw).ok_or_else(|| format!("unknown phase \"{raw}\""))
}

/// Parse one event object produced by
/// [`event_to_json`](crate::json::event_to_json).
pub fn parse_event(line: &str) -> Result<TraceEvent, String> {
    let seq = parse_u64(line, "seq")?;
    let at_us = parse_u64(line, "at_us")?;
    let event = field(line, "event")?;
    let kind = match event {
        "pipeline_started" => TraceEventKind::PipelineStarted {
            pipeline: parse_u32(line, "pipeline")?,
        },
        "pipeline_finished" => TraceEventKind::PipelineFinished {
            pipeline: parse_u32(line, "pipeline")?,
        },
        "phase_transition" => TraceEventKind::PhaseTransition {
            op: parse_u32(line, "op")?,
            from: parse_phase(line, "from")?,
            to: parse_phase(line, "to")?,
        },
        "estimate_refined" => {
            let raw = field(line, "source")?;
            TraceEventKind::EstimateRefined {
                op: parse_u32(line, "op")?,
                old: parse_f64(line, "old")?,
                new: parse_f64(line, "new")?,
                source: EstimateSource::from_name(raw)
                    .ok_or_else(|| format!("unknown estimate source \"{raw}\""))?,
            }
        }
        "bounds_refined" => TraceEventKind::BoundsRefined {
            op: parse_u32(line, "op")?,
            lo: parse_f64(line, "lo")?,
            hi: parse_f64(line, "hi")?,
        },
        "operator_finished" => TraceEventKind::OperatorFinished {
            op: parse_u32(line, "op")?,
            emitted: parse_u64(line, "emitted")?,
        },
        "query_finished" => TraceEventKind::QueryFinished {
            rows: parse_u64(line, "rows")?,
        },
        "query_aborted" => {
            let raw = field(line, "reason")?;
            TraceEventKind::QueryAborted {
                reason: AbortKind::from_name(raw)
                    .ok_or_else(|| format!("unknown abort reason \"{raw}\""))?,
                rows: parse_u64(line, "rows")?,
            }
        }
        "estimator_degraded" => {
            let raw = field(line, "reason")?;
            TraceEventKind::EstimatorDegraded {
                op: parse_u32(line, "op")?,
                reason: DegradeReason::from_name(raw)
                    .ok_or_else(|| format!("unknown degrade reason \"{raw}\""))?,
            }
        }
        "progress_sampled" => TraceEventKind::ProgressSampled {
            current: parse_u64(line, "current")?,
            total: parse_f64(line, "total")?,
            fraction: parse_f64(line, "fraction")?,
            lo: parse_f64(line, "lo")?,
            hi: parse_f64(line, "hi")?,
        },
        "operator_wall_time" => TraceEventKind::OperatorWallTime {
            op: parse_u32(line, "op")?,
            wall_us: parse_u64(line, "wall_us")?,
        },
        "worker_wall_time" => TraceEventKind::WorkerWallTime {
            op: parse_u32(line, "op")?,
            worker: parse_u32(line, "worker")?,
            busy_us: parse_u64(line, "busy_us")?,
        },
        "health_transition" => {
            let from_raw = field(line, "from")?;
            let to_raw = field(line, "to")?;
            let reason_raw = field(line, "reason")?;
            TraceEventKind::HealthTransition {
                from: HealthState::from_name(from_raw)
                    .ok_or_else(|| format!("unknown health state \"{from_raw}\""))?,
                to: HealthState::from_name(to_raw)
                    .ok_or_else(|| format!("unknown health state \"{to_raw}\""))?,
                reason: HealthReason::from_name(reason_raw)
                    .ok_or_else(|| format!("unknown health reason \"{reason_raw}\""))?,
            }
        }
        "regression_detected" => {
            let raw = field(line, "kind")?;
            TraceEventKind::RegressionDetected {
                kind: RegressionKind::from_name(raw)
                    .ok_or_else(|| format!("unknown regression kind \"{raw}\""))?,
                observed: parse_f64(line, "observed")?,
                baseline: parse_f64(line, "baseline")?,
                threshold: parse_f64(line, "threshold")?,
            }
        }
        "span_start" => {
            let raw = field(line, "kind")?;
            TraceEventKind::SpanStart {
                span: parse_u32(line, "span")?,
                // Roots encode no parent field at all.
                parent: match raw_field(line, "parent") {
                    Some(p) => p
                        .parse::<u32>()
                        .map_err(|e| format!("field \"parent\": {e}"))?,
                    None => NO_PARENT,
                },
                kind: SpanKind::from_name(raw)
                    .ok_or_else(|| format!("unknown span kind \"{raw}\""))?,
                arg: parse_u32(line, "arg")?,
            }
        }
        "span_end" => TraceEventKind::SpanEnd {
            span: parse_u32(line, "span")?,
        },
        other => return Err(format!("unknown event kind \"{other}\"")),
    };
    Ok(TraceEvent { seq, at_us, kind })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::event_to_json;

    #[test]
    fn malformed_escapes_pass_through_verbatim() {
        assert_eq!(decode_or_raw("\\u12"), "\\u12");
        assert_eq!(decode_or_raw("\\q"), "\\q");
        assert_eq!(decode_or_raw("\\"), "\\");
        assert_eq!(decode_or_raw("a\\\"b"), "a\"b");
    }

    /// NaN-tolerant event equality (NaN == NaN for round-trip purposes).
    fn kinds_equal(a: &TraceEventKind, b: &TraceEventKind) -> bool {
        fn f(x: f64, y: f64) -> bool {
            (x.is_nan() && y.is_nan()) || x == y
        }
        use TraceEventKind::*;
        match (a, b) {
            (
                EstimateRefined {
                    op: o1,
                    old: a1,
                    new: n1,
                    source: s1,
                },
                EstimateRefined {
                    op: o2,
                    old: a2,
                    new: n2,
                    source: s2,
                },
            ) => o1 == o2 && f(*a1, *a2) && f(*n1, *n2) && s1 == s2,
            (
                BoundsRefined {
                    op: o1,
                    lo: l1,
                    hi: h1,
                },
                BoundsRefined {
                    op: o2,
                    lo: l2,
                    hi: h2,
                },
            ) => o1 == o2 && f(*l1, *l2) && f(*h1, *h2),
            (
                ProgressSampled {
                    current: c1,
                    total: t1,
                    fraction: fr1,
                    lo: l1,
                    hi: h1,
                },
                ProgressSampled {
                    current: c2,
                    total: t2,
                    fraction: fr2,
                    lo: l2,
                    hi: h2,
                },
            ) => c1 == c2 && f(*t1, *t2) && f(*fr1, *fr2) && f(*l1, *l2) && f(*h1, *h2),
            (
                RegressionDetected {
                    kind: k1,
                    observed: o1,
                    baseline: b1,
                    threshold: t1,
                },
                RegressionDetected {
                    kind: k2,
                    observed: o2,
                    baseline: b2,
                    threshold: t2,
                },
            ) => k1 == k2 && f(*o1, *o2) && f(*b1, *b2) && f(*t1, *t2),
            _ => a == b,
        }
    }

    #[test]
    fn every_event_kind_round_trips() {
        let kinds = [
            TraceEventKind::PipelineStarted { pipeline: 3 },
            TraceEventKind::PipelineFinished { pipeline: 3 },
            TraceEventKind::PhaseTransition {
                op: 1,
                from: Phase::Build,
                to: Phase::Probe,
            },
            TraceEventKind::EstimateRefined {
                op: 2,
                old: f64::NAN,
                new: 1234.5678901234,
                source: EstimateSource::Online,
            },
            TraceEventKind::BoundsRefined {
                op: 2,
                lo: 0.125,
                hi: 1e12,
            },
            TraceEventKind::OperatorFinished {
                op: 4,
                emitted: u64::MAX / 2,
            },
            TraceEventKind::QueryFinished { rows: 42 },
            TraceEventKind::QueryAborted {
                reason: AbortKind::DeadlineExceeded,
                rows: 7,
            },
            TraceEventKind::EstimatorDegraded {
                op: 0,
                reason: DegradeReason::HistogramMemory,
            },
            TraceEventKind::ProgressSampled {
                current: 999,
                total: 12345.5,
                fraction: 0.080923,
                lo: f64::NAN,
                hi: f64::NAN,
            },
            TraceEventKind::OperatorWallTime {
                op: 5,
                wall_us: 123_456,
            },
            TraceEventKind::WorkerWallTime {
                op: 5,
                worker: 3,
                busy_us: 9_876,
            },
            TraceEventKind::HealthTransition {
                from: HealthState::Healthy,
                to: HealthState::Stalled,
                reason: HealthReason::Stall,
            },
            TraceEventKind::HealthTransition {
                from: HealthState::Unstable,
                to: HealthState::Healthy,
                reason: HealthReason::Recovered,
            },
            TraceEventKind::RegressionDetected {
                kind: RegressionKind::MeanAbsErr,
                observed: 0.31,
                baseline: 0.04,
                threshold: 0.09,
            },
            TraceEventKind::RegressionDetected {
                kind: RegressionKind::WallTime,
                observed: 2_500_000.0,
                baseline: f64::NAN,
                threshold: f64::NAN,
            },
            TraceEventKind::SpanStart {
                span: 0,
                parent: NO_PARENT,
                kind: SpanKind::Query,
                arg: 0,
            },
            TraceEventKind::SpanStart {
                span: 3,
                parent: 0,
                kind: SpanKind::Dispatch,
                arg: 2,
            },
            TraceEventKind::SpanEnd { span: 3 },
        ];
        let names: Vec<String> = (0..6).map(|i| format!("op{i}")).collect();
        for (i, kind) in kinds.into_iter().enumerate() {
            let event = TraceEvent {
                seq: i as u64,
                at_us: 1000 + i as u64,
                kind,
            };
            let line = event_to_json(&event, &names);
            let back = parse_event(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(back.seq, event.seq);
            assert_eq!(back.at_us, event.at_us);
            assert!(
                kinds_equal(&back.kind, &event.kind),
                "{:?} != {:?} (line: {line})",
                back.kind,
                event.kind
            );
        }
    }

    #[test]
    fn parse_collects_op_names_and_errors() {
        let jsonl = "\
{\"seq\":0,\"at_us\":1,\"event\":\"operator_finished\",\"op\":1,\"op_name\":\"hash_join\",\"emitted\":5}\n\
\n\
not json at all\n\
{\"seq\":1,\"at_us\":2,\"event\":\"mystery\"}\n\
{\"seq\":2,\"at_us\":3,\"event\":\"query_finished\",\"rows\":5}\n";
        let trace = ReplayedTrace::parse(jsonl);
        assert_eq!(trace.events.len(), 2);
        assert_eq!(
            trace.op_names,
            vec!["".to_string(), "hash_join".to_string()]
        );
        assert_eq!(trace.errors.len(), 2);
        assert_eq!(trace.errors[0].0, 3);
        assert_eq!(trace.errors[1].0, 4);
    }

    #[test]
    fn every_span_kind_round_trips() {
        use qprog_exec::span::SpanKind::*;
        for (i, kind) in [
            Query,
            Submit,
            JournalAppend,
            QueueWait,
            BackoffPark,
            Dispatch,
            Finalize,
        ]
        .into_iter()
        .enumerate()
        {
            let event = TraceEvent {
                seq: i as u64,
                at_us: 10 * i as u64,
                kind: TraceEventKind::SpanStart {
                    span: i as u32 + 1,
                    parent: if kind == Query { NO_PARENT } else { 0 },
                    kind,
                    arg: i as u32,
                },
            };
            let line = event_to_json(&event, &[]);
            let back = parse_event(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(back, event, "line: {line}");
        }
    }

    #[test]
    fn op_names_with_escapes_parse_back_to_original_text() {
        // Control characters and non-ASCII in an operator name must survive
        // the encode → parse round trip byte-identically.
        let name = "scan \"α→β\"\t\\x\u{1}\n日本語";
        let event = TraceEvent {
            seq: 0,
            at_us: 0,
            kind: TraceEventKind::OperatorFinished { op: 0, emitted: 1 },
        };
        let jsonl = event_to_json(&event, &[name.to_string()]);
        let trace = ReplayedTrace::parse(&jsonl);
        assert!(trace.errors.is_empty(), "{:?}", trace.errors);
        assert_eq!(trace.events.len(), 1);
        assert_eq!(trace.op_names, vec![name.to_string()]);
        // Re-encoding with the recovered names reproduces the exact bytes.
        assert_eq!(event_to_json(&event, &trace.op_names), jsonl);
    }

    #[test]
    fn replay_preserves_recorded_stamps() {
        use qprog_exec::sync::Mutex;
        struct Collect(Mutex<Vec<TraceEvent>>);
        impl TraceSink for Collect {
            fn publish(&self, e: &TraceEvent) {
                self.0.lock().push(*e);
            }
        }
        let jsonl = "\
{\"seq\":10,\"at_us\":777,\"event\":\"query_finished\",\"rows\":1}\n";
        let trace = ReplayedTrace::parse(jsonl);
        let sink = Collect(Mutex::new(Vec::new()));
        trace.replay_into(&sink);
        let events = sink.0.lock();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].seq, 10);
        assert_eq!(events[0].at_us, 777);
    }
}
