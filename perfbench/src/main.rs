//! `perfbench`: the repository's benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <q8_skew|agg_groups|svc_open|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Each workload generates its inputs from
//! `--seed`, sets up, checks its outputs against references computed
//! during set-up, measures for `--seconds`, and prints its metrics
//! followed by one JSON result line: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1` (a separate run
//! that also writes its spans under `perfbench/out/`). `--workload all`
//! runs the three workloads one after another, each in its own process
//! so that `peak_rss_mb` is per workload. `BENCHMARK.json` at the
//! repository root declares the metrics; `perfbench/README.md` describes
//! the workloads.

mod closed;
mod engine;
mod http;
mod layers;
mod report;
mod scorer;
mod stats;
mod svc;
mod tracer;
mod workload;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured window.
    pub seconds: u64,
    /// Per-layer (`true`) or end-to-end (`false`) run.
    pub trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <q8_skew|agg_groups|svc_open|all> \
                     --seed <n> --seconds <s> --trace <0|1>";

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
                "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace {value}: expected 0 or 1")),
                    })
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        let seconds = seconds.ok_or("missing --seconds")?;
        if seconds == 0 {
            return Err("--seconds must be at least 1".to_string());
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds,
            trace: trace.ok_or("missing --trace")?,
        })
    }
}

/// Run every workload, each in a child process.
fn run_all(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    for name in ["q8_skew", "agg_groups", "svc_open"] {
        let status = std::process::Command::new(&exe)
            .args(["--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .map_err(|e| format!("{name}: {e}"))?;
        if !status.success() {
            return Err(format!("{name} failed: {status}"));
        }
    }
    Ok(())
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "all" => {
            if let Err(e) = run_all(&args) {
                eprintln!("perfbench: {e}");
                std::process::exit(1);
            }
            return;
        }
        "q8_skew" => closed::run(&closed::Q8_SKEW, &args),
        "agg_groups" => closed::run(&closed::AGG_GROUPS, &args),
        "svc_open" => svc::run(&args),
        other => Err(format!("unknown workload {other}\n{USAGE}")),
    };
    match outcome {
        Ok(report) => {
            report.print(args.trace);
            if !report.correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
