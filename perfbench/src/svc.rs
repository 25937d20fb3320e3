//! `svc_open`: an open-loop submission stream through the query service's
//! HTTP front door.
//!
//! One generator thread (this one) sends each submission at its scheduled
//! time, waits for the `202`, and after every tenth sends one
//! `GET /progress/{id}`. One reader thread holds a single `/events`
//! connection and timestamps each terminal frame, so the client side never
//! holds more than two threads or two connections. Latency runs from a
//! submission's scheduled send time to its terminal frame, so a stalled
//! generator counts against the service rather than hiding it.

use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use qprog::core::EstimationMode;
use qprog::plan::physical::PhysicalOptions;
use qprog::svc::{QueryService, ServiceConfig};
use qprog::{Observability, ServiceRuntime, SessionBuilder};

use crate::engine::{self, Check};
use crate::http::{self, Events};
use crate::layers;
use crate::report::{peak_rss_mb, Report};
use crate::scorer;
use crate::stats::{describe, max, median, quantile};
use crate::tracer::{Spans, ROOT};
use crate::workload::{
    options, schedule, Statement, Submission, BATCH_ROWS, SVC_DATA, SVC_GROUP_SQL, SVC_JOIN_SQL,
    SVC_RATE, SVC_STATE_SEED, SVC_WORKERS,
};
use crate::Args;

/// Set-ups per run, the first before the open loop and the rest after
/// it; the median is `setup_s`.
const SETUP_REPS: usize = 9;
/// How long to wait for the last terminal frames after the last send.
const SETTLE: Duration = Duration::from_secs(30);
/// Length of the traced run's layer probe over the statement mix.
const PROBE: Duration = Duration::from_secs(2);

/// A running service with its HTTP address and journal directory.
struct Svc {
    runtime: ServiceRuntime,
    addr: SocketAddr,
    journal: PathBuf,
}

impl Svc {
    /// Generate the data, start session, monitor and service, and run one
    /// warm-up submission to its terminal state. Returns the service with
    /// the set-up and data-generation times (s).
    fn start(opts: &PhysicalOptions, journal: PathBuf) -> Result<(Svc, f64, f64), String> {
        let t0 = Instant::now();
        let catalog = SVC_DATA
            .generate(SVC_STATE_SEED)
            .map_err(|e| e.to_string())?;
        let generated = t0.elapsed().as_secs_f64();
        let session = SessionBuilder::new(catalog)
            .options(*opts)
            .observability(Observability::new().serve_on("127.0.0.1:0"))
            .build()
            .map_err(|e| e.to_string())?;
        let addr = session
            .monitor()
            .expect("serve_on attaches a monitor")
            .addr();
        let _ = std::fs::remove_dir_all(&journal);
        let cfg = ServiceConfig {
            workers: SVC_WORKERS,
            ..ServiceConfig::default()
        };
        let runtime = ServiceRuntime::start(session, &journal, cfg).map_err(|e| e.to_string())?;
        let svc = Svc {
            runtime,
            addr,
            journal,
        };
        if let Err(e) = svc.warm_up() {
            svc.stop();
            return Err(e);
        }
        Ok((svc, t0.elapsed().as_secs_f64(), generated))
    }

    fn warm_up(&self) -> Result<(), String> {
        let reply = http::request(
            self.addr,
            "POST",
            "/submit",
            &http::submit_body(SVC_JOIN_SQL, "a"),
        )
        .map_err(|e| format!("warm-up submit: {e}"))?;
        let id = http::json_u64(&reply.body, "id")
            .ok_or_else(|| format!("warm-up submit: {} {}", reply.status, reply.body))?;
        let end = Instant::now() + SETTLE;
        while Instant::now() < end {
            let reply = http::request(self.addr, "GET", &format!("/progress/{id}"), "")
                .map_err(|e| format!("warm-up poll: {e}"))?;
            match http::json_str(&reply.body, "state") {
                Some("done") => return Ok(()),
                Some("queued" | "running" | "retrying") => {
                    std::thread::sleep(Duration::from_millis(1))
                }
                other => return Err(format!("warm-up query ended {other:?}: {}", reply.body)),
            }
        }
        Err("warm-up query did not finish".to_string())
    }

    fn service(&self) -> Arc<QueryService> {
        Arc::clone(self.runtime.service())
    }

    /// Drain, stop the monitor (joining its threads), stop the service,
    /// and remove the journal.
    fn stop(self) {
        self.runtime.drain();
        if let Some(monitor) = self.runtime.session().monitor() {
            monitor.shutdown();
        }
        drop(self.runtime);
        let _ = std::fs::remove_dir_all(&self.journal);
    }
}

/// What the generator observed for one submission.
struct Sent {
    due: Instant,
    sent: Instant,
    replied: Instant,
    /// Accepted id, when the reply was a `202`.
    id: Option<u64>,
    status: u16,
    /// Progress poll: start, end, and whether it answered `200`.
    poll: Option<(Instant, Instant, bool)>,
}

/// A terminal frame, as the reader received it.
struct Terminal {
    at: Instant,
    state: String,
    rows: Option<u64>,
    current: u64,
    /// The service's span totals for the query, read on receipt
    /// (µs: total, queue wait, exec, finalize).
    totals: Option<[u64; 4]>,
}

/// Frames the reader saw.
#[derive(Default)]
struct Seen {
    terminals: HashMap<u64, Vec<Terminal>>,
    frames: u64,
}

fn ms(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

/// Size of the journal divided by the queries it records: the bytes one
/// accepted query appends. Read after the run, because the service
/// compacts the file as terminals accumulate.
fn journal_bytes_per_query(dir: &Path) -> f64 {
    let text = std::fs::read_to_string(dir.join("queue.jsonl")).unwrap_or_default();
    let ids: HashSet<u64> = text
        .lines()
        .filter_map(|l| http::json_u64(l, "id"))
        .collect();
    if ids.is_empty() {
        0.0
    } else {
        text.len() as f64 / ids.len() as f64
    }
}

/// Run `svc_open`.
pub fn run(args: &Args) -> Result<Report, String> {
    let opts = options(SVC_STATE_SEED, EstimationMode::Once, BATCH_ROWS);
    let count = (SVC_RATE * args.seconds as f64) as usize;
    println!(
        "workload svc_open seed {} seconds {} trace {}",
        args.seed, args.seconds, args.trace
    );
    println!(
        "data {SVC_DATA:?} seed {SVC_STATE_SEED}; {count} submissions at {SVC_RATE}/s, {SVC_WORKERS} workers, \
         default admission and retention"
    );
    println!("options {opts:?}");
    let mut report = Report::new();
    let out = PathBuf::from(layers::OUT_DIR);

    let journal = |rep: usize| out.join(format!("journal-{}-{rep}", std::process::id()));
    let (svc, total, gen) = Svc::start(&opts, journal(0)).map_err(|e| format!("set-up: {e}"))?;
    let (mut setups, mut gens) = (vec![total], vec![gen]);
    let result = drive(&svc, args, &opts, count, &mut report);
    svc.stop();
    result?;
    // A stopped service leaves its memory resident (about 9 MB at this
    // scale), so the peak is read before the other set-ups: a service
    // starts once per process.
    report.set("peak_rss_mb", peak_rss_mb());
    for rep in 1..SETUP_REPS {
        let (svc, total, gen) =
            Svc::start(&opts, journal(rep)).map_err(|e| format!("set-up: {e}"))?;
        setups.push(total);
        gens.push(gen);
        svc.stop();
    }
    println!("setup_s {}", describe(&setups));
    report.set("setup_s", median(&setups));
    report.set("datagen.gen_s", median(&gens));
    Ok(report)
}

fn drive(
    svc: &Svc,
    args: &Args,
    opts: &PhysicalOptions,
    count: usize,
    report: &mut Report,
) -> Result<(), String> {
    let builder = svc.runtime.session().builder();
    let join = Statement::Sql(SVC_JOIN_SQL);
    let group = Statement::Sql(SVC_GROUP_SQL);
    let reference = |s| Check::strict(s, builder, opts).map_err(|e| format!("reference: {e}"));
    let (join_check, group_check) = (reference(join)?, reference(group)?);
    // The service keeps only a query's row count and driver tuples, not its
    // rows: a submission must end with both as the reference run had them.
    let tuples_of = |s| {
        engine::call(s, builder, opts, None)
            .map(|c| c.tuples)
            .map_err(|e| format!("reference: {e}"))
    };
    let (join_tuples, group_tuples) = (tuples_of(join)?, tuples_of(group)?);
    let expected = |heavy: bool| {
        let (check, tuples) = if heavy {
            (&group_check, group_tuples)
        } else {
            (&join_check, join_tuples)
        };
        match check {
            Check::Rows(r) => (r.len() as u64, tuples),
            _ => unreachable!("strict references hold rows"),
        }
    };

    let mut points = Vec::new();
    let mut dne_points = Vec::new();
    let dne_opts = PhysicalOptions {
        mode: EstimationMode::Dne,
        ..*opts
    };
    let mut units = 0;
    for s in [join, group] {
        let plan = s.plan(builder).map_err(|e| e.to_string())?;
        let t = scorer::measure(&plan, opts).map_err(|e| format!("progress checkpoints: {e}"))?;
        units += t.units;
        points.extend(t.points);
        if args.trace {
            let t =
                scorer::measure(&plan, &dne_opts).map_err(|e| format!("dne checkpoints: {e}"))?;
            dne_points.extend(t.points);
        }
    }
    println!("checkpoints {}", scorer::describe(&points));
    let err = scorer::score(&points);
    report.set("progress_mae", err.mae);
    report.set("progress_max_err", err.max);
    report.set("exec.units", units as f64);
    if args.trace {
        report.set("core.dne_progress_mae", scorer::score(&dne_points).mae);
    }

    let plan = schedule(args.seed, SVC_RATE, count);
    let (start, sent, seen) = open_loop(svc, &plan)?;
    let accepted: Vec<u64> = sent.iter().filter_map(|s| s.id).collect();

    // Checks and samples.
    report.attempted += sent.len() as u64;
    let mut latency = Vec::new();
    let mut join_exec = Vec::new();
    // Driver tuples per second of exec span, per submission.
    let mut rates = Vec::new();
    let mut layer = Layer::default();
    let mut spans = Spans::new(start);
    for (i, (s, sub)) in sent.iter().zip(&plan).enumerate() {
        layer.lateness.push(ms(s.due, s.sent));
        let Some(id) = s.id else {
            // 429 is admission shedding and 0 a transport error: refusals.
            // Any other status means the program rejected a valid request.
            match s.status {
                429 => {
                    layer.shed += 1;
                    report.refuse(&format!("submission {i}: shed"));
                }
                0 => report.refuse(&format!("submission {i}: transport error")),
                other => report.fail(&format!("submission {i}: status {other}")),
            }
            continue;
        };
        layer.submit.push(ms(s.sent, s.replied));
        if let Some((from, to, ok)) = s.poll {
            layer.poll.push(ms(from, to));
            if !ok {
                report.refuse(&format!("submission {i}: progress poll failed"));
            }
        }
        let t = match seen.terminals.get(&id).map(Vec::as_slice) {
            Some([t]) => t,
            Some(many) => {
                report.fail(&format!("query {id}: {} terminal frames", many.len()));
                continue;
            }
            None => {
                report.fail(&format!("query {id}: no terminal frame"));
                continue;
            }
        };
        let (rows, current) = expected(sub.heavy);
        if t.state != "done" || t.rows != Some(rows) || t.current != current {
            report.fail(&format!(
                "query {id}: ended {} with {:?} rows and {} tuples, expected done with {rows} and {current}",
                t.state, t.rows, t.current
            ));
            continue;
        }
        latency.push(ms(s.due, t.at));
        let item = i as u64;
        let root = spans.record("submission", item, ROOT, s.due, t.at);
        spans.record("lateness", item, root, s.due, s.sent);
        spans.record("submit", item, root, s.sent, s.replied);
        if let Some((from, to, _)) = s.poll {
            spans.record("poll", item, root, from, to);
        }
        if let Some([total, queue, exec, finalize]) = t.totals {
            if !sub.heavy {
                join_exec.push(exec as f64 / 1e3);
            }
            if exec > 0 {
                rates.push(t.current as f64 / (exec as f64 / 1e6));
            }
            let lag = ms(s.sent, t.at) - total as f64 / 1e3;
            layer.queue.push(queue as f64 / 1e3);
            layer.exec.push(exec as f64 / 1e3);
            layer.finalize.push(finalize as f64 / 1e3);
            layer.lag.push(lag);
            layer
                .parts
                .push(ms(s.due, s.replied) + (queue + exec + finalize) as f64 / 1e3 + lag);
        }
    }
    if latency.is_empty() || join_exec.is_empty() || rates.is_empty() {
        return Err("no submission completed".to_string());
    }
    println!("latency_ms {}", describe(&latency));
    println!("join exec_ms {}", describe(&join_exec));
    println!("generator lateness_ms {}", describe(&layer.lateness));
    println!("submit_ms {}", describe(&layer.submit));
    println!(
        "terminal frames {} for {} accepted; {} frames in all",
        seen.terminals.values().map(Vec::len).sum::<usize>(),
        accepted.len(),
        seen.frames
    );
    report.set("latency_p50_ms", median(&latency));
    report.set("latency_p99_ms", quantile(&latency, 0.99));
    report.set("query_ms_p50", median(&join_exec));
    report.set("query_ms_p90", quantile(&join_exec, 0.90));
    // The engine's throughput inside the service: the schedule fixes the
    // tuples offered per second, but not how long executing them takes.
    // A median, because a few preempted executions dominate a sum.
    report.set("rows_per_s", median(&rates));

    if args.trace {
        let frames_per_query = seen.frames as f64 / accepted.len().max(1) as f64;
        layer.report(report, frames_per_query, &svc.journal);
        let mix: Vec<(Statement, &Check)> = (0..10)
            .map(|k| {
                if k == 9 {
                    (group, &group_check)
                } else {
                    (join, &join_check)
                }
            })
            .collect();
        let probe = engine::probe(builder, opts, &mix, PROBE, start);
        let probe_spans = layers::report_probe(report, probe);
        // The service's attribution replaces the probe's closed-loop one.
        let parts = median(&layer.parts);
        let whole = median(&latency);
        report.set("attr.unexplained_pct", 100.0 * (whole - parts) / whole);
        println!("attribution: submit + queue + exec + finalize + lag + lateness {parts:.4} ms vs latency {whole:.4} ms");
        spans.absorb(probe_spans);
        let path = layers::spans_path("svc_open", args.seed);
        spans
            .write(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
    }
    Ok(())
}

/// Send `plan` while the reader thread collects `/events` frames; wait
/// for every accepted submission's terminal frame (up to [`SETTLE`]).
/// Returns the start instant, what was sent, and what the reader saw.
fn open_loop(svc: &Svc, plan: &[Submission]) -> Result<(Instant, Vec<Sent>, Seen), String> {
    let (mut events, socket) = Events::open(svc.addr).map_err(|e| format!("/events: {e}"))?;
    let snapshot = events
        .next_frame()
        .ok_or("/events closed before its snapshot")?;
    if snapshot.event != "snapshot" {
        return Err(format!("/events opened with {:?}", snapshot.event));
    }
    let seen = Arc::new(Mutex::new(Seen::default()));
    let service = svc.service();
    let reader = {
        let seen = Arc::clone(&seen);
        std::thread::spawn(move || {
            while let Some(frame) = events.next_frame() {
                let at = Instant::now();
                let mut seen = seen.lock().expect("reader state lock");
                seen.frames += 1;
                if frame.event != "terminal" {
                    continue;
                }
                let Some(id) = http::json_u64(&frame.data, "id") else {
                    continue;
                };
                let totals = service
                    .span_totals(id)
                    .map(|t| [t.total_us, t.queue_wait_us, t.exec_us, t.finalize_us]);
                seen.terminals.entry(id).or_default().push(Terminal {
                    at,
                    state: http::json_str(&frame.data, "state")
                        .unwrap_or("")
                        .to_string(),
                    rows: http::json_u64(&frame.data, "rows"),
                    current: http::json_u64(&frame.data, "current").unwrap_or(0),
                    totals,
                });
            }
        })
    };

    let start = Instant::now() + Duration::from_millis(20);
    let sent = generate(svc.addr, plan, start);
    let accepted: Vec<u64> = sent.iter().filter_map(|s| s.id).collect();
    let settle_end = Instant::now() + SETTLE;
    while Instant::now() < settle_end {
        let seen = seen.lock().expect("reader state lock");
        if accepted.iter().all(|id| seen.terminals.contains_key(id)) {
            break;
        }
        drop(seen);
        std::thread::sleep(Duration::from_millis(5));
    }
    // Let a duplicate terminal frame, if the monitor ever sent one,
    // arrive before the check.
    std::thread::sleep(Duration::from_millis(100));
    let _ = socket.shutdown(std::net::Shutdown::Both);
    reader.join().map_err(|_| "the /events reader panicked")?;
    let seen = Arc::try_unwrap(seen)
        .map_err(|_| "reader state still shared")?
        .into_inner()
        .expect("reader state lock");

    Ok((start, sent, seen))
}

/// Per-layer samples of the open loop (ms unless noted).
#[derive(Default)]
struct Layer {
    lateness: Vec<f64>,
    submit: Vec<f64>,
    poll: Vec<f64>,
    queue: Vec<f64>,
    exec: Vec<f64>,
    finalize: Vec<f64>,
    lag: Vec<f64>,
    /// Per submission: lateness + submit + queue + exec + finalize + lag.
    parts: Vec<f64>,
    shed: u64,
}

impl Layer {
    fn report(&self, report: &mut Report, frames_per_query: f64, journal: &Path) {
        report.set("monitor.terminal_lag_ms_p50", median(&self.lag));
        report.set("monitor.terminal_lag_ms_p99", quantile(&self.lag, 0.99));
        report.set("monitor.poll_ms_p50", median(&self.poll));
        report.set("monitor.frames_per_query", frames_per_query);
        report.set("service.submit_ms_p50", median(&self.submit));
        report.set("service.submit_ms_p99", quantile(&self.submit, 0.99));
        report.set("service.queue_wait_ms_p99", quantile(&self.queue, 0.99));
        report.set("service.exec_ms_p50", median(&self.exec));
        report.set("service.exec_ms_p99", quantile(&self.exec, 0.99));
        report.set("service.finalize_ms_p50", median(&self.finalize));
        report.set(
            "service.journal_bytes_per_query",
            journal_bytes_per_query(journal),
        );
        report.set("service.shed", self.shed as f64);
        report.set("gen.lateness_ms_p99", quantile(&self.lateness, 0.99));
        report.set("gen.lateness_ms_max", max(&self.lateness));
    }
}

/// Send every submission of `plan` at `start` + its due time.
fn generate(addr: SocketAddr, plan: &[Submission], start: Instant) -> Vec<Sent> {
    plan.iter()
        .map(|sub| {
            let due = start + sub.due;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let sent = Instant::now();
            let reply = http::request(
                addr,
                "POST",
                "/submit",
                &http::submit_body(sub.sql(), sub.tenant),
            );
            let replied = Instant::now();
            let (status, id) = match &reply {
                Ok(r) if r.status == 202 => (202, http::json_u64(&r.body, "id")),
                Ok(r) => (r.status, None),
                Err(_) => (0, None),
            };
            let poll = match (sub.poll, id) {
                (true, Some(id)) => {
                    let from = Instant::now();
                    let ok = http::request(addr, "GET", &format!("/progress/{id}"), "")
                        .is_ok_and(|r| r.status == 200);
                    Some((from, Instant::now(), ok))
                }
                _ => None,
            };
            Sent {
                due,
                sent,
                replied,
                id,
                status,
                poll,
            }
        })
        .collect()
}
