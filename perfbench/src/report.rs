//! The result line: the metric names and units `BENCHMARK.json` declares,
//! and the JSON object printed as the last line of standard output.

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("query_ms_p50", "ms"),
    ("query_ms_p90", "ms"),
    ("rows_per_s", "tuples/s"),
    ("progress_mae", "fraction"),
    ("progress_max_err", "fraction"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`): name and unit. `latency_p99_ms` is
/// an end-to-end tail reported here because a closed loop's tail is not
/// steady enough on a shared machine for the end-to-end bound.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("latency_p99_ms", "ms"),
    ("datagen.gen_s", "s"),
    ("sql.plan_us_p50", "us"),
    ("plan.compile_us_p50", "us"),
    ("plan.snapshot_us_p50", "us"),
    ("exec.collect_ms_p50", "ms"),
    ("exec.self_ms.scan", "ms"),
    ("exec.self_ms.filter", "ms"),
    ("exec.self_ms.hash_join", "ms"),
    ("exec.self_ms.hash_agg", "ms"),
    ("exec.tuples", "count"),
    ("exec.units", "count"),
    ("core.est_ms", "ms"),
    ("core.est_ratio_dne", "ratio"),
    ("core.refinements", "count"),
    ("core.qerror_max", "ratio"),
    ("core.dne_progress_mae", "fraction"),
    ("obs.sink_us_per_query", "us"),
    ("obs.events_per_query", "count"),
    ("obs.trace_overhead_pct", "%"),
    ("monitor.terminal_lag_ms_p50", "ms"),
    ("monitor.terminal_lag_ms_p99", "ms"),
    ("monitor.poll_ms_p50", "ms"),
    ("monitor.frames_per_query", "count"),
    ("service.submit_ms_p50", "ms"),
    ("service.submit_ms_p99", "ms"),
    ("service.queue_wait_ms_p99", "ms"),
    ("service.exec_ms_p50", "ms"),
    ("service.exec_ms_p99", "ms"),
    ("service.finalize_ms_p50", "ms"),
    ("service.journal_bytes_per_query", "bytes"),
    ("service.shed", "count"),
    ("gen.lateness_ms_p99", "ms"),
    ("gen.lateness_ms_max", "ms"),
    ("attr.unexplained_pct", "%"),
    ("bench.trace_overhead_pct", "%"),
];

/// One run's outcome.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Operations that failed, were refused, or returned a wrong result.
    pub failed: u64,
    /// Every output check passed.
    pub correct: bool,
    metrics: Vec<(&'static str, f64)>,
}

impl Report {
    /// An empty, so far correct report.
    pub fn new() -> Self {
        Report {
            correct: true,
            ..Report::default()
        }
    }

    /// Record metric `name` (declared in [`END_TO_END`] or [`PER_LAYER`]).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER)
                .any(|(known, _)| *known == name),
            "undeclared metric {name}"
        );
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    /// Count one failed operation and mark the run incorrect.
    pub fn fail(&mut self, what: &str) {
        self.failed += 1;
        self.correct = false;
        eprintln!("check failed: {what}");
    }

    /// Count one operation the program refused or could not be reached
    /// for (a shed submission, a transport error): it failed, but no
    /// output was wrong.
    pub fn refuse(&mut self, what: &str) {
        self.failed += 1;
        eprintln!("refused: {what}");
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Print every recorded metric for a reader, then the result line
    /// carrying the metric set of `trace` mode: end-to-end with tracing off,
    /// per-layer with it on. A declared metric left unset, or a value that
    /// is not a finite number, is a bug in the benchmark: it panics rather
    /// than print a result.
    pub fn print(&self, trace: bool) {
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            if let Some(v) = self.value(name) {
                println!("{name:<34} {v:>16.6} {unit}");
            }
        }
        let set = if trace { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = set
            .iter()
            .map(|&(name, unit)| {
                let v = self
                    .value(name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured"));
                assert!(v.is_finite(), "metric {name} is not finite: {v}");
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        assert!(self.attempted >= 1, "the run attempted nothing");
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` declares exactly the metrics this program prints.
    #[test]
    fn benchmark_json_declares_every_metric() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            json.matches("\"better\"").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
    }
}
