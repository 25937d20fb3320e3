//! Closed-loop workloads: one client runs one statement back to back
//! through the layer APIs (`q8_skew`, `agg_groups`).

use std::collections::HashMap;
use std::time::{Duration, Instant};

use qprog::core::EstimationMode;
use qprog::plan::physical::PhysicalOptions;
use qprog::plan::PlanBuilder;
use qprog::types::{QError, Value};
use qprog::Session;

use crate::engine::{self, call, Check};
use crate::layers;
use crate::report::{peak_rss_mb, Report};
use crate::scorer;
use crate::stats::{describe, median, quantile};
use crate::workload::{options, DataSpec, Statement, BATCH_ROWS};
use crate::Args;

/// A closed-loop workload.
pub struct Closed {
    /// Workload name.
    pub name: &'static str,
    /// Its data set.
    pub data: DataSpec,
    /// The statement it repeats.
    pub statement: Statement,
}

/// TPC-H Q8-lite over Zipf-2 data: the paper's Fig. 8 query.
pub const Q8_SKEW: Closed = Closed {
    name: "q8_skew",
    data: crate::workload::Q8_DATA,
    statement: Statement::Q8,
};

/// A 75k-group aggregate over 300k lineitem rows, no joins.
pub const AGG_GROUPS: Closed = Closed {
    name: "agg_groups",
    data: crate::workload::AGG_DATA,
    statement: Statement::Sql(crate::workload::AGG_SQL),
};

/// Set-ups per run; the median is `setup_s`.
pub const SETUP_REPS: usize = 9;

/// Generate the data, open a session, and run one warm-up query. Returns
/// the session with the set-up and data-generation times (s).
fn setup(w: &Closed, seed: u64, opts: &PhysicalOptions) -> Result<(Session, f64, f64), QError> {
    let t0 = Instant::now();
    let catalog = w.data.generate(seed)?;
    let generated = t0.elapsed().as_secs_f64();
    let session = Session::new(catalog).with_options(*opts);
    call(w.statement, session.builder(), opts, None)?;
    Ok((session, t0.elapsed().as_secs_f64(), generated))
}

/// The reference result: `agg_groups` sums each order's quantities
/// straight from the table; other statements use the strict/Off
/// agreement of [`Check::strict`].
fn reference(w: &Closed, builder: &PlanBuilder, opts: &PhysicalOptions) -> Result<Check, String> {
    if w.statement != Statement::Sql(crate::workload::AGG_SQL) {
        return Check::strict(w.statement, builder, opts);
    }
    let catalog = builder.catalog();
    let lineitem = catalog.table("lineitem").map_err(|e| e.to_string())?;
    let mut sums: HashMap<i64, i64> = HashMap::new();
    for row in lineitem.iter() {
        match row.values() {
            [Value::Int64(order), _, _, Value::Int64(qty), _] => {
                *sums.entry(*order).or_default() += qty
            }
            other => return Err(format!("unexpected lineitem row {other:?}")),
        }
    }
    let orders = catalog
        .table("orders")
        .map_err(|e| e.to_string())?
        .num_rows();
    if sums.len() != orders {
        return Err(format!(
            "{} order keys in lineitem, {orders} orders",
            sums.len()
        ));
    }
    Ok(Check::Sums(sums))
}

/// Run closed-loop workload `w`.
pub fn run(w: &Closed, args: &Args) -> Result<Report, String> {
    let opts = options(args.seed, EstimationMode::Once, BATCH_ROWS);
    println!(
        "workload {} seed {} seconds {} trace {}",
        w.name, args.seed, args.seconds, args.trace
    );
    println!("data {:?}; statement {:?}", w.data, w.statement);
    println!("options {opts:?}");
    let mut report = Report::new();

    let mut setups = Vec::new();
    let mut gens = Vec::new();
    let mut session = None;
    for _ in 0..SETUP_REPS {
        drop(session.take());
        let (s, total, gen) = setup(w, args.seed, &opts).map_err(|e| format!("set-up: {e}"))?;
        setups.push(total);
        gens.push(gen);
        session = Some(s);
    }
    let session = session.expect("at least one set-up");
    println!("setup_s {}", describe(&setups));
    report.set("setup_s", median(&setups));
    report.set("datagen.gen_s", median(&gens));

    let builder = session.builder();
    let check = reference(w, builder, &opts).map_err(|e| format!("reference: {e}"))?;

    let plan = w.statement.plan(builder).map_err(|e| e.to_string())?;
    let once = scorer::measure(&plan, &opts).map_err(|e| format!("progress checkpoints: {e}"))?;
    let err = scorer::score(&once.points);
    report.set("progress_mae", err.mae);
    report.set("progress_max_err", err.max);
    report.set("exec.units", once.units as f64);
    println!("checkpoints {}", scorer::describe(&once.points));
    if args.trace {
        let dne_opts = PhysicalOptions {
            mode: EstimationMode::Dne,
            ..opts
        };
        let dne = scorer::measure(&plan, &dne_opts).map_err(|e| format!("dne checkpoints: {e}"))?;
        report.set("core.dne_progress_mae", scorer::score(&dne.points).mae);
    }

    let window = Duration::from_secs(args.seconds);
    if args.trace {
        let probe = engine::probe(
            builder,
            &opts,
            &[(w.statement, &check)],
            window,
            Instant::now(),
        );
        let spans = layers::report_probe(&mut report, probe);
        layers::idle_service(&mut report);
        let whole_ms: Vec<f64> = spans
            .durations_us("query")
            .iter()
            .map(|us| us / 1e3)
            .collect();
        report.set("latency_p99_ms", quantile(&whole_ms, 0.99));
        let path = layers::spans_path(w.name, args.seed);
        spans
            .write(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
    } else {
        measure(w, builder, &opts, &check, window, &mut report)?;
    }
    report.set("peak_rss_mb", peak_rss_mb());
    Ok(report)
}

/// The timed loop: back-to-back queries for `window`, every result
/// checked. A query's latency is the client's whole call, plan to final
/// snapshot.
fn measure(
    w: &Closed,
    builder: &PlanBuilder,
    opts: &PhysicalOptions,
    check: &Check,
    window: Duration,
    report: &mut Report,
) -> Result<(), String> {
    let mut query_ms = Vec::new();
    let mut latency_ms = Vec::new();
    let mut tuples = 0u64;
    let end = Instant::now() + window;
    while Instant::now() < end {
        report.attempted += 1;
        match call(w.statement, builder, opts, None) {
            Ok(c) => match check.verify(&c.rows) {
                Ok(()) => {
                    query_ms.push(c.query_ms());
                    latency_ms.push(c.total_ms());
                    tuples += c.tuples;
                }
                Err(e) => report.fail(&e),
            },
            Err(e) => report.fail(&e.to_string()),
        }
    }
    if query_ms.is_empty() {
        return Err("no query completed".to_string());
    }
    println!("query_ms {}", describe(&query_ms));
    println!("latency_ms {}", describe(&latency_ms));
    report.set("query_ms_p50", median(&query_ms));
    report.set("query_ms_p90", quantile(&query_ms, 0.90));
    report.set("latency_p50_ms", median(&latency_ms));
    report.set("latency_p99_ms", quantile(&latency_ms, 0.99));
    report.set(
        "rows_per_s",
        tuples as f64 / (query_ms.iter().sum::<f64>() / 1e3),
    );
    Ok(())
}
