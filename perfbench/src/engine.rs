//! Calls into the engine's layers, timed from outside: plan, compile,
//! collect, and a progress snapshot, as a client makes them. Also the
//! result checks and the traced layer probe shared by every workload.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use qprog::core::EstimationMode;
use qprog::exec::trace::{EventBus, TraceEvent, TraceEventKind, TraceSink};
use qprog::metrics::Registry;
use qprog::obs::{score_events, JsonlSink};
use qprog::plan::physical::{compile_traced, PhysicalOptions};
use qprog::plan::PlanBuilder;
use qprog::types::{QResult, Row, Value};

use crate::stats::median;
use crate::tracer::{LayerSink, Spans, ROOT};
use crate::workload::Statement;

/// One query's trip through the layers, with the instant each call ended.
pub struct Call {
    /// Before planning.
    pub start: Instant,
    /// After `plan` (SQL planning or the Q8 plan builder).
    pub planned: Instant,
    /// After `compile`.
    pub compiled: Instant,
    /// Before `collect` (after taking the progress tracker).
    pub collecting: Instant,
    /// After `collect`.
    pub collected: Instant,
    /// After the final `snapshot()`.
    pub snapshotted: Instant,
    /// Result rows.
    pub rows: Vec<Row>,
    /// Driver tuples `C(Q)` from the final snapshot.
    pub tuples: u64,
    /// Operator names in registry order.
    pub op_names: Vec<String>,
    /// Direct inputs of each operator (registry order).
    pub op_inputs: Vec<Vec<usize>>,
}

fn us(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e6
}

impl Call {
    /// `compile` + `collect`, in ms: the engine's time for the query.
    pub fn query_ms(&self) -> f64 {
        (us(self.planned, self.compiled) + us(self.collecting, self.collected)) / 1e3
    }

    /// `collect` alone, in ms.
    pub fn collect_ms(&self) -> f64 {
        us(self.collecting, self.collected) / 1e3
    }

    /// The whole call, plan to final snapshot, in ms: the client's
    /// latency for the query.
    pub fn total_ms(&self) -> f64 {
        us(self.start, self.snapshotted) / 1e3
    }

    /// Record this call as a `query` span with one child per layer call.
    pub fn record(&self, spans: &mut Spans, item: u64) {
        let root = spans.record("query", item, ROOT, self.start, self.snapshotted);
        spans.record("plan", item, root, self.start, self.planned);
        spans.record("compile", item, root, self.planned, self.compiled);
        spans.record("collect", item, root, self.collecting, self.collected);
        spans.record("snapshot", item, root, self.collected, self.snapshotted);
    }
}

/// Plan, compile, collect and snapshot `statement` once.
pub fn call(
    statement: Statement,
    builder: &PlanBuilder,
    opts: &PhysicalOptions,
    bus: Option<Arc<EventBus>>,
) -> QResult<Call> {
    let start = Instant::now();
    let plan = statement.plan(builder)?;
    let planned = Instant::now();
    let mut query = compile_traced(&plan, opts, bus)?;
    let compiled = Instant::now();
    let tracker = query.tracker();
    let op_names = query
        .registry()
        .iter()
        .map(|(name, _)| name.to_string())
        .collect();
    let op_inputs = query.op_inputs().to_vec();
    let collecting = Instant::now();
    let rows = query.collect()?;
    let collected = Instant::now();
    let tuples = tracker.snapshot().current();
    let snapshotted = Instant::now();
    Ok(Call {
        start,
        planned,
        compiled,
        collecting,
        collected,
        snapshotted,
        rows,
        tuples,
        op_names,
        op_inputs,
    })
}

/// The expected result of a statement, computed during set-up.
#[derive(Debug, Clone)]
pub enum Check {
    /// These rows, in any order, floating-point values up to rounding.
    Rows(Vec<Row>),
    /// One `(key, integer sum)` row per key of this map.
    Sums(HashMap<i64, i64>),
}

/// Relative tolerance of a floating-point value. A sum over the same rows
/// in another order can differ in its last bits: on `q8_skew` seed 154
/// one Q8 group sums to 3892786.9167884025 with estimation `once` and
/// to 3892786.916788402 with `Off`. Integer and string values, such as
/// Q8's per-group row count, must still match exactly.
const FLOAT_TOLERANCE: f64 = 1e-9;

/// `rows` in a canonical order: by their values with every
/// floating-point value left out (those may differ in rounding), then by
/// all their values.
fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort_by_cached_key(|r| {
        let exact: Vec<&Value> = r
            .values()
            .iter()
            .filter(|v| !matches!(v, Value::Float64(_)))
            .collect();
        (format!("{exact:?}"), format!("{r:?}"))
    });
    rows
}

/// Whether two values are equal, floating-point values up to
/// [`FLOAT_TOLERANCE`].
fn same_value(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float64(x), Value::Float64(y)) => {
            x == y || (x - y).abs() <= FLOAT_TOLERANCE * x.abs().max(y.abs())
        }
        _ => a == b,
    }
}

/// Whether two canonically ordered results hold the same rows.
fn same_rows(a: &[Row], b: &[Row]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.values().len() == y.values().len()
                && x.values()
                    .iter()
                    .zip(y.values())
                    .all(|(u, v)| same_value(u, v))
        })
}

impl Check {
    /// The reference for `statement`: its strict (`batch_rows = 1`)
    /// result, which must match its result with estimation `Off`.
    pub fn strict(
        statement: Statement,
        builder: &PlanBuilder,
        opts: &PhysicalOptions,
    ) -> Result<Check, String> {
        let run = |o: PhysicalOptions| {
            call(statement, builder, &o, None)
                .map(|c| sorted(c.rows))
                .map_err(|e| format!("{statement:?}: {e}"))
        };
        let strict = run(PhysicalOptions {
            batch_rows: 1,
            ..*opts
        })?;
        let off = run(PhysicalOptions {
            mode: EstimationMode::Off,
            ..*opts
        })?;
        if same_rows(&strict, &off) {
            Ok(Check::Rows(strict))
        } else {
            Err(format!(
                "{statement:?}: strict result ({} rows) differs from the Off result ({} rows)",
                strict.len(),
                off.len()
            ))
        }
    }

    /// Verify `rows` against the reference.
    pub fn verify(&self, rows: &[Row]) -> Result<(), String> {
        match self {
            Check::Rows(expected) => {
                if same_rows(&sorted(rows.to_vec()), expected) {
                    Ok(())
                } else {
                    Err(format!(
                        "result differs from the reference ({} rows)",
                        rows.len()
                    ))
                }
            }
            Check::Sums(sums) => {
                if rows.len() != sums.len() {
                    return Err(format!("{} groups, expected {}", rows.len(), sums.len()));
                }
                for row in rows {
                    let (key, sum) = match row.values() {
                        [Value::Int64(k), v] => (*k, v),
                        other => return Err(format!("unexpected row shape {other:?}")),
                    };
                    let got = match sum {
                        Value::Int64(s) => *s as f64,
                        Value::Float64(s) => *s,
                        other => return Err(format!("unexpected sum {other:?}")),
                    };
                    if sums.get(&key).map(|&s| s as f64) != Some(got) {
                        return Err(format!(
                            "group {key}: sum {got}, expected {:?}",
                            sums.get(&key)
                        ));
                    }
                }
                Ok(())
            }
        }
    }
}

/// What the traced layer probe measured.
#[derive(Debug)]
pub struct Probe {
    /// Spans of the span-recorded queries.
    pub spans: Spans,
    /// `compile` + `collect` (ms) of plain `once` queries.
    pub plain_ms: Vec<f64>,
    /// `collect` (ms) of plain `once` queries.
    pub plain_collect_ms: Vec<f64>,
    /// `compile` + `collect` (ms) of the span-recorded queries.
    pub spanned_ms: Vec<f64>,
    /// `collect` (ms) under estimation `Off`.
    pub off_collect_ms: Vec<f64>,
    /// `collect` (ms) under `dne`.
    pub dne_collect_ms: Vec<f64>,
    /// `compile` + `collect` (ms) with a JSONL sink into `io::sink`.
    pub jsonl_ms: Vec<f64>,
    /// Per query traced through [`LayerSink`]: self ms of scan, filter,
    /// hash join and hash aggregate operators.
    pub self_ms: [Vec<f64>; 4],
    /// `EstimateRefined` events per traced query.
    pub refinements: Vec<f64>,
    /// Worst final q-error per traced query.
    pub qerror_max: Vec<f64>,
    /// µs inside `MetricsSink` + `PhaseSink` per traced query.
    pub sink_us: Vec<f64>,
    /// Events per traced query.
    pub events: Vec<f64>,
    /// Driver tuples of the last query.
    pub tuples: u64,
    /// Queries run.
    pub attempted: u64,
    /// Failed queries and check misses.
    pub failures: Vec<String>,
}

/// Operator classes of `exec.self_ms.*`, by registry-name prefix.
const SELF_CLASSES: [&str; 4] = ["scan(", "filter", "hash_join", "hash_agg"];

/// Self time per operator class (ms): each operator's inclusive
/// `OperatorWallTime` minus its direct inputs' inclusive times.
pub fn self_ms(events: &[TraceEvent], names: &[String], inputs: &[Vec<usize>]) -> [f64; 4] {
    let mut inclusive = vec![0.0f64; names.len()];
    for e in events {
        if let TraceEventKind::OperatorWallTime { op, wall_us } = e.kind {
            if let Some(slot) = inclusive.get_mut(op as usize) {
                *slot = wall_us as f64;
            }
        }
    }
    let mut out = [0.0; 4];
    for (op, name) in names.iter().enumerate() {
        let children: f64 = inputs[op].iter().map(|&c| inclusive[c]).sum();
        let own = (inclusive[op] - children).max(0.0) / 1e3;
        if let Some(class) = SELF_CLASSES.iter().position(|p| name.starts_with(p)) {
            out[class] += own;
        }
    }
    out
}

/// Run rounds of six interleaved variants of each statement in `mix`
/// (round `r` runs `mix[r % mix.len()]`) for `duration`: plain `once`;
/// `once` with benchmark spans; `once` traced through a [`LayerSink`];
/// `Off`; `dne`; and `once` with a JSONL sink. Interleaving puts the
/// variants under the same machine conditions, so their medians compare.
pub fn probe(
    builder: &PlanBuilder,
    opts: &PhysicalOptions,
    mix: &[(Statement, &Check)],
    duration: Duration,
    epoch: Instant,
) -> Probe {
    let mut p = Probe {
        spans: Spans::new(epoch),
        plain_ms: Vec::new(),
        plain_collect_ms: Vec::new(),
        spanned_ms: Vec::new(),
        off_collect_ms: Vec::new(),
        dne_collect_ms: Vec::new(),
        jsonl_ms: Vec::new(),
        self_ms: Default::default(),
        refinements: Vec::new(),
        qerror_max: Vec::new(),
        sink_us: Vec::new(),
        events: Vec::new(),
        tuples: 0,
        attempted: 0,
        failures: Vec::new(),
    };
    let off = PhysicalOptions {
        mode: EstimationMode::Off,
        ..*opts
    };
    let dne = PhysicalOptions {
        mode: EstimationMode::Dne,
        ..*opts
    };
    let registry = Arc::new(Registry::new());
    let end = Instant::now() + duration;
    let mut round = 0usize;
    while Instant::now() < end || round < mix.len() {
        let (statement, check) = mix[round % mix.len()];
        round += 1;
        let layer = LayerSink::new(Arc::clone(&registry), opts.mode.label());
        let layer_bus = EventBus::with_sink(Arc::clone(&layer) as Arc<dyn TraceSink>);
        let jsonl_bus = EventBus::with_sink(Arc::new(JsonlSink::new(std::io::sink())));
        let variants: [(&PhysicalOptions, Option<Arc<EventBus>>); 6] = [
            (opts, None),
            (opts, None),
            (opts, Some(layer_bus)),
            (&off, None),
            (&dne, None),
            (opts, Some(jsonl_bus)),
        ];
        for (v, (o, bus)) in variants.into_iter().enumerate() {
            p.attempted += 1;
            let c = match call(statement, builder, o, bus) {
                Ok(c) => c,
                Err(e) => {
                    p.failures.push(format!("{statement:?}: {e}"));
                    continue;
                }
            };
            if let Err(e) = check.verify(&c.rows) {
                p.failures.push(format!("{statement:?}: {e}"));
                continue;
            }
            p.tuples = c.tuples;
            match v {
                0 => {
                    p.plain_ms.push(c.query_ms());
                    p.plain_collect_ms.push(c.collect_ms());
                }
                1 => {
                    p.spanned_ms.push(c.query_ms());
                    c.record(&mut p.spans, p.attempted);
                }
                2 => {
                    let events = layer.events();
                    let own = self_ms(&events, &c.op_names, &c.op_inputs);
                    for (k, v) in own.into_iter().enumerate() {
                        p.self_ms[k].push(v);
                    }
                    let refined = events
                        .iter()
                        .filter(|e| matches!(e.kind, TraceEventKind::EstimateRefined { .. }))
                        .count();
                    p.refinements.push(refined as f64);
                    p.qerror_max.push(score_events(&events).q_error.max);
                    p.sink_us.push(layer.sink_us());
                    p.events.push(events.len() as f64);
                }
                3 => p.off_collect_ms.push(c.collect_ms()),
                4 => p.dne_collect_ms.push(c.collect_ms()),
                _ => p.jsonl_ms.push(c.query_ms()),
            }
        }
    }
    p
}

/// `100 · (a − b) / b` of the medians.
pub fn pct_over(a: &[f64], b: &[f64]) -> f64 {
    let base = median(b);
    100.0 * (median(a) - base) / base
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_match_up_to_float_rounding_only() {
        let row = |year: i64, volume: f64, n: i64| {
            Row::new(vec![
                Value::Int64(year),
                Value::Float64(volume),
                Value::Int64(n),
            ])
        };
        let expected = sorted(vec![
            row(1993, 3892786.9167884025, 140),
            row(1992, 4350698.330262304, 163),
        ]);
        let check = Check::Rows(expected);
        let rounded = vec![
            row(1992, 4350698.330262304, 163),
            row(1993, 3892786.916788402, 140),
        ];
        assert!(check.verify(&rounded).is_ok());
        let short = vec![row(1992, 4350698.330262304, 163)];
        assert!(check.verify(&short).is_err());
        let miscounted = vec![
            row(1992, 4350698.330262304, 163),
            row(1993, 3892786.9167884025, 141),
        ];
        assert!(check.verify(&miscounted).is_err());
        let off_by_a_row = vec![
            row(1992, 4350698.330262304, 163),
            row(1993, 3892786.9167884025 - 810.0, 140),
        ];
        assert!(check.verify(&off_by_a_row).is_err());
    }

    #[test]
    fn self_time_subtracts_direct_inputs() {
        let wall = |op, wall_us| TraceEvent {
            seq: 0,
            at_us: 0,
            kind: TraceEventKind::OperatorWallTime { op, wall_us },
        };
        // hash_agg(0) <- hash_join(1) <- [scan(a)(2), filter(3) <- scan(b)(4)]
        let names: Vec<String> = ["hash_agg", "hash_join", "scan(a)", "filter", "scan(b)"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let inputs = vec![vec![1], vec![2, 3], vec![], vec![4], vec![]];
        let events = [
            wall(0, 10_000),
            wall(1, 9_000),
            wall(2, 2_000),
            wall(3, 5_000),
            wall(4, 4_500),
        ];
        let [scan, filter, join, agg] = self_ms(&events, &names, &inputs);
        assert_eq!(scan, 6.5);
        assert_eq!(filter, 0.5);
        assert_eq!(join, 2.0);
        assert_eq!(agg, 1.0);
    }
}
