//! Per-layer metrics of `--trace 1` runs, from the layer probe.

use std::path::PathBuf;

use crate::engine::{pct_over, Probe};
use crate::report::Report;
use crate::stats::{describe, median};
use crate::tracer::Spans;

/// Directory for run artefacts (spans, service journals), relative to the
/// repository root the benchmark runs from.
pub const OUT_DIR: &str = "perfbench/out";

/// Where a traced run writes its spans.
pub fn spans_path(workload: &str, seed: u64) -> PathBuf {
    PathBuf::from(OUT_DIR).join(format!("spans-{workload}-{seed}.jsonl"))
}

fn med(v: &[f64]) -> f64 {
    if v.is_empty() {
        f64::NAN
    } else {
        median(v)
    }
}

/// Record the engine-layer metrics the probe measured; returns its spans.
pub fn report_probe(report: &mut Report, p: Probe) -> Spans {
    report.attempted += p.attempted;
    for f in &p.failures {
        report.fail(f);
    }
    let ms = |name: &str| p.spans.durations_us(name);
    println!("plain query_ms {}", describe(&p.plain_ms));
    println!("spanned query_ms {}", describe(&p.spanned_ms));
    println!("off collect_ms {}", describe(&p.off_collect_ms));
    println!("dne collect_ms {}", describe(&p.dne_collect_ms));
    println!("jsonl query_ms {}", describe(&p.jsonl_ms));
    report.set("sql.plan_us_p50", med(&ms("plan")));
    report.set("plan.compile_us_p50", med(&ms("compile")));
    report.set("plan.snapshot_us_p50", med(&ms("snapshot")));
    report.set("exec.collect_ms_p50", med(&ms("collect")) / 1e3);
    for (name, v) in [
        "exec.self_ms.scan",
        "exec.self_ms.filter",
        "exec.self_ms.hash_join",
        "exec.self_ms.hash_agg",
    ]
    .into_iter()
    .zip(&p.self_ms)
    {
        report.set(name, med(v));
    }
    report.set("exec.tuples", p.tuples as f64);
    report.set(
        "core.est_ms",
        med(&p.plain_collect_ms) - med(&p.off_collect_ms),
    );
    report.set(
        "core.est_ratio_dne",
        med(&p.plain_collect_ms) / med(&p.dne_collect_ms),
    );
    report.set("core.refinements", med(&p.refinements));
    report.set("core.qerror_max", med(&p.qerror_max));
    report.set("obs.sink_us_per_query", med(&p.sink_us));
    report.set("obs.events_per_query", med(&p.events));
    report.set("obs.trace_overhead_pct", pct_over(&p.jsonl_ms, &p.plain_ms));
    report.set(
        "bench.trace_overhead_pct",
        pct_over(&p.spanned_ms, &p.plain_ms),
    );
    // Attribution: compile + collect medians against the client's whole
    // call, so plan, tracker set-up and the final snapshot show as the
    // unexplained rest.
    let parts = med(&ms("compile")) / 1e3 + med(&ms("collect")) / 1e3;
    let whole = med(&ms("query")) / 1e3;
    report.set("attr.unexplained_pct", 100.0 * (whole - parts) / whole);
    println!("attribution: compile + collect {parts:.4} ms vs whole call {whole:.4} ms");
    p.spans
}

/// The service, its monitor stream and the load generator do no work in a
/// closed-loop workload: report them as zero.
pub fn idle_service(report: &mut Report) {
    for name in [
        "monitor.terminal_lag_ms_p50",
        "monitor.terminal_lag_ms_p99",
        "monitor.poll_ms_p50",
        "monitor.frames_per_query",
        "service.submit_ms_p50",
        "service.submit_ms_p99",
        "service.queue_wait_ms_p99",
        "service.exec_ms_p50",
        "service.exec_ms_p99",
        "service.finalize_ms_p50",
        "service.journal_bytes_per_query",
        "service.shed",
        "gen.lateness_ms_p99",
        "gen.lateness_ms_max",
    ] {
        report.set(name, 0.0);
    }
}
