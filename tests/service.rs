//! End-to-end tests of the submit/queue/dispatch service behind the
//! monitor's HTTP front door, plus the chaos + crash-recovery gates.
//!
//! The fault-*injection* tests require `--features failpoints`:
//!
//! ```text
//! cargo test --test service --features failpoints
//! ```
//!
//! Chaos gate: every injected fault — at submit, journal append, dispatch,
//! or retry — must yield a *typed terminal state* visible over
//! `/progress/{id}` and SSE, with no hung submissions. Crash gate: a
//! simulated crash (abrupt shutdown + torn journal tail) followed by a
//! reopen must re-dispatch all pending work exactly once, with the torn
//! line reported as a diagnostic.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use qprog::prelude::*;
use qprog::svc::AdmissionConfig;
use qprog::types::json::{escape, u64_field};
use qprog::ServiceRuntime;

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.register(qprog::datagen::customer_table(
        "customer", 20_000, 1.0, 200, 3,
    ))
    .unwrap();
    c.register(qprog::datagen::nation_table("nation", 200))
        .unwrap();
    c
}

const JOIN_SQL: &str =
    "SELECT count(*) FROM customer JOIN nation ON customer.nationkey = nation.nationkey";

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "qprog-service-it-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Build a monitored session (fresh server on an OS-assigned port).
fn monitored_session() -> Session {
    SessionBuilder::new(catalog())
        .observability(Observability::new().serve_on("127.0.0.1:0"))
        .build()
        .unwrap()
}

fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut out = String::new();
    let _ = stream.read_to_string(&mut out);
    out
}

fn get(addr: SocketAddr, path: &str) -> String {
    http(addr, "GET", path, "")
}

fn submit(addr: SocketAddr, tenant: &str, sql: &str) -> (u16, String) {
    let body = format!("{{\"sql\":\"{}\",\"tenant\":\"{tenant}\"}}", escape(sql));
    let out = http(addr, "POST", "/submit", &body);
    let status: u16 = out
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = out.split("\r\n\r\n").nth(1).unwrap_or("").to_string();
    (status, body)
}

/// Poll `/progress/{id}` until `pred` matches (or fail after `timeout`).
fn await_progress(
    addr: SocketAddr,
    id: u64,
    timeout: Duration,
    pred: impl Fn(&str) -> bool,
) -> String {
    let deadline = Instant::now() + timeout;
    loop {
        let detail = get(addr, &format!("/progress/{id}"));
        if pred(&detail) {
            return detail;
        }
        assert!(
            Instant::now() < deadline,
            "progress condition never met for query {id}: {detail}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The failpoint registry is process-global; every test holds the scenario
/// lock so faults cannot bleed across tests (no-op without the feature).
fn scenario() -> qprog::fault::FailScenario {
    qprog::fault::FailScenario::setup()
}

#[test]
fn submitted_query_runs_to_done_visible_over_http_and_sse() {
    let _scenario = scenario();
    let dir = temp_dir("done");
    let session = monitored_session();
    let addr = session.monitor().unwrap().addr();
    let runtime = ServiceRuntime::start(session, &dir, ServiceConfig::default()).unwrap();

    let (status, body) = submit(addr, "acme", JOIN_SQL);
    assert_eq!(status, 202, "{body}");
    let id = u64_field(&body, "id").expect("ticket id");

    let detail = await_progress(addr, id, Duration::from_secs(10), |d| {
        d.contains("\"state\":\"done\"")
    });
    assert!(detail.contains("\"tenant\":\"acme\""), "{detail}");
    assert!(detail.contains("\"rows\":1"), "{detail}");
    assert!(detail.contains("\"done\":true"), "{detail}");
    // Per-operator detail attached by the adopted execution.
    assert!(detail.contains("\"ops\":["), "{detail}");

    // A late SSE subscriber still sees a terminal frame (synthesized from
    // the directory when the broadcast predates the subscription).
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "GET /progress/{id}/stream HTTP/1.1\r\nHost: t\r\n\r\n"
    )
    .unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut out = String::new();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => out.push_str(&String::from_utf8_lossy(&buf[..n])),
        }
    }
    assert!(out.contains("event: terminal\n"), "{out}");
    assert!(out.contains("\"done\":true"), "{out}");

    let stats = get(addr, "/service");
    assert!(stats.contains("\"finished\":1"), "{stats}");
    runtime.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn span_tree_is_gapless_and_reconciles_with_the_journal_wall_time() {
    let _scenario = scenario();
    let dir = temp_dir("spans");
    let session = monitored_session();
    let addr = session.monitor().unwrap().addr();
    let runtime = ServiceRuntime::start(session, &dir, ServiceConfig::default()).unwrap();

    let (status, body) = submit(addr, "acme", JOIN_SQL);
    assert_eq!(status, 202, "{body}");
    let id = u64_field(&body, "id").expect("ticket id");
    await_progress(addr, id, Duration::from_secs(10), |d| {
        d.contains("\"state\":\"done\"")
    });

    // Gapless tiling: the lifecycle phases sum exactly to the root span.
    let totals = runtime.service().span_totals(id).expect("span totals");
    assert_eq!(totals.attempts, 1, "{totals:?}");
    assert!(totals.exec_us > 0, "{totals:?}");
    let phases = totals.submit_us
        + totals.queue_wait_us
        + totals.backoff_us
        + totals.exec_us
        + totals.finalize_us;
    assert_eq!(phases, totals.total_us, "gap in the span tree: {totals:?}");

    // The assembled tree nests strictly and agrees with the raw totals.
    let events = runtime.service().span_events(id).expect("span events");
    let tree = qprog::obs::SpanTree::from_events(&events, &[]);
    let violations = tree.nesting_violations();
    assert!(violations.is_empty(), "{violations:?}");
    let lt = tree.lifecycle_totals();
    assert_eq!(lt.total_us, totals.total_us);
    assert_eq!(lt.queue_wait_us, totals.queue_wait_us);
    assert_eq!(lt.exec_us, totals.exec_us);
    assert_eq!(lt.attempts, 1);

    // The journal's terminal record and the span tree describe the same
    // wall time (within 1%; in fact the clocks are shared, so exactly).
    let journal = std::fs::read_to_string(dir.join(qprog::svc::JOURNAL_FILE)).unwrap();
    let wall = journal
        .lines()
        .filter(|l| l.contains("\"op\":\"terminal\"") && l.contains(&format!("\"id\":{id},")))
        .filter_map(|l| u64_field(l, "wall_us"))
        .next_back()
        .expect("terminal journal record with wall_us");
    let diff = wall.abs_diff(totals.total_us) as f64;
    assert!(
        diff <= 0.01 * (wall.max(1) as f64),
        "journal wall {wall}us vs span total {}us",
        totals.total_us
    );

    // Per-tenant SLO aggregates surface in /service stats.
    let stats = get(addr, "/service");
    assert!(stats.contains("\"tenant\":\"acme\""), "{stats}");
    assert!(stats.contains("\"queue_wait_us\":"), "{stats}");
    assert!(stats.contains("\"exec_us\":"), "{stats}");
    assert!(stats.contains("\"deadline_miss_queue\":0"), "{stats}");
    assert!(stats.contains("\"deadline_miss_exec\":0"), "{stats}");
    assert!(stats.contains("\"completed\":1"), "{stats}");

    runtime.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_sql_is_rejected_at_submit_time_with_400() {
    let _scenario = scenario();
    let dir = temp_dir("badsql");
    let session = monitored_session();
    let addr = session.monitor().unwrap().addr();
    let runtime = ServiceRuntime::start(session, &dir, ServiceConfig::default()).unwrap();
    let (status, body) = submit(addr, "t", "SELECT * FROM no_such_table");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("{\"error\":"), "{body}");
    // Nothing was admitted; no worker burned a dispatch on it.
    assert!(get(addr, "/service").contains("\"admitted\":0"));
    runtime.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn abusive_tenant_is_shed_while_polite_tenant_is_served() {
    let _scenario = scenario();
    let dir = temp_dir("fair");
    let session = monitored_session();
    let addr = session.monitor().unwrap().addr();
    let cfg = ServiceConfig {
        admission: AdmissionConfig {
            max_queue_depth: 64,
            max_tenant_inflight: 4,
            retry_after: Duration::from_secs(1),
        },
        workers: 0, // hold everything queued so caps are observable
        ..ServiceConfig::default()
    };
    let runtime = ServiceRuntime::start(session, &dir, cfg).unwrap();

    // The abusive tenant floods; past its in-flight cap it gets typed 429s.
    let mut flood_accepted = 0;
    let mut flood_shed = 0;
    for _ in 0..12 {
        let (status, body) = submit(addr, "flood", "SELECT * FROM nation");
        match status {
            202 => flood_accepted += 1,
            429 => {
                assert!(body.contains("tenant_cap"), "{body}");
                flood_shed += 1;
            }
            other => panic!("unexpected status {other}: {body}"),
        }
    }
    assert_eq!(flood_accepted, 4, "cap bounds the abusive tenant");
    assert_eq!(flood_shed, 8);

    // The polite tenant is unaffected by the flood.
    let (status, _) = submit(addr, "polite", "SELECT * FROM nation");
    assert_eq!(status, 202);

    let stats = get(addr, "/service");
    assert!(stats.contains("\"tenant\":\"polite\""), "{stats}");
    runtime.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancel_over_http_reaches_a_cancelled_terminal() {
    let _scenario = scenario();
    let dir = temp_dir("cancel");
    let session = monitored_session();
    let addr = session.monitor().unwrap().addr();
    let cfg = ServiceConfig {
        workers: 0, // keep it queued: cancellation must not need a worker
        ..ServiceConfig::default()
    };
    let runtime = ServiceRuntime::start(session, &dir, cfg).unwrap();
    let (status, body) = submit(addr, "t", JOIN_SQL);
    assert_eq!(status, 202, "{body}");
    let id = u64_field(&body, "id").unwrap();

    let cancelled = http(addr, "POST", &format!("/progress/{id}/cancel"), "");
    assert!(cancelled.contains("\"state\":\"cancelled\""), "{cancelled}");
    let detail = await_progress(addr, id, Duration::from_secs(5), |d| {
        d.contains("\"state\":\"failed\"")
    });
    assert!(detail.contains("\"failure\":\"cancelled\""), "{detail}");
    assert_eq!(
        runtime.service().status(id).unwrap().state,
        Lifecycle::Failed(AbortKind::Cancelled)
    );
    runtime.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn graceful_drain_flushes_every_terminal_and_stops_admission() {
    let _scenario = scenario();
    let dir = temp_dir("drain");
    let session = monitored_session();
    let addr = session.monitor().unwrap().addr();
    let runtime = ServiceRuntime::start(
        session,
        &dir,
        ServiceConfig {
            workers: 2,
            drain_timeout: Duration::from_secs(10),
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    let mut ids = Vec::new();
    for _ in 0..6 {
        let (status, body) = submit(addr, "t", JOIN_SQL);
        assert_eq!(status, 202, "{body}");
        ids.push(u64_field(&body, "id").unwrap());
    }
    runtime.drain();
    // After drain every accepted submission is terminal — none hung.
    let stats = runtime.service().stats();
    assert_eq!(stats.finished + stats.failed, 6, "{stats:?}");
    for id in ids {
        let s = runtime.service().status(id).unwrap();
        assert!(
            matches!(s.state, Lifecycle::Done | Lifecycle::Failed(_)),
            "query {id} not terminal after drain: {s:?}"
        );
    }
    // Admission is closed: new submissions bounce with a typed 503.
    let (status, body) = submit(addr, "t", JOIN_SQL);
    assert_eq!(status, 503, "{body}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_recovery_redispatches_pending_work_exactly_once() {
    let _scenario = scenario();
    let dir = temp_dir("crash");
    let addr_a;
    // Phase 1: accept work with no workers (nothing dispatches), then shut
    // down abruptly — the crash-adjacent path: journal intact, no
    // terminals.
    {
        let session = monitored_session();
        addr_a = session.monitor().unwrap().addr();
        let runtime = ServiceRuntime::start(
            session,
            &dir,
            ServiceConfig {
                workers: 0,
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        for _ in 0..5 {
            let (status, _) = submit(addr_a, "t", "SELECT * FROM nation");
            assert_eq!(status, 202);
        }
        assert_eq!(runtime.service().stats().queue_depth, 5);
        drop(runtime); // abrupt shutdown: pending stays journaled
    }
    // Simulate a torn final append (process died mid-write).
    let journal = dir.join(qprog::svc::JOURNAL_FILE);
    {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&journal)
            .unwrap();
        f.write_all(b"{\"op\":\"submit\",\"id\":99,\"tena").unwrap();
    }
    // Phase 2: reopen with workers; every pending entry re-dispatches
    // exactly once and the torn tail is a diagnostic, not an error.
    {
        let session = monitored_session();
        let addr = session.monitor().unwrap().addr();
        let runtime = ServiceRuntime::start(session, &dir, ServiceConfig::default()).unwrap();
        assert!(
            runtime
                .service()
                .recovery_diagnostics()
                .iter()
                .any(|d| d.contains("torn")),
            "{:?}",
            runtime.service().recovery_diagnostics()
        );
        let deadline = Instant::now() + Duration::from_secs(10);
        while runtime.service().stats().finished < 5 {
            assert!(
                Instant::now() < deadline,
                "recovered work never finished: {:?}",
                runtime.service().stats()
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        let stats = runtime.service().stats();
        assert_eq!(stats.finished, 5, "{stats:?}");
        assert_eq!(stats.dispatched, 5, "exactly once: {stats:?}");
        assert_eq!(stats.failed, 0, "{stats:?}");
        // Recovered ids are visible over HTTP like any submission.
        let listed = get(addr, "/progress");
        assert!(listed.contains("\"tenant\":\"t\""), "{listed}");
        runtime.drain();
    }
    // Phase 3: a third open finds no pending work — nothing runs twice.
    {
        let session = monitored_session();
        let runtime = ServiceRuntime::start(session, &dir, ServiceConfig::default()).unwrap();
        std::thread::sleep(Duration::from_millis(100));
        let stats = runtime.service().stats();
        assert_eq!(
            stats.dispatched, 0,
            "re-dispatch after clean drain: {stats:?}"
        );
        runtime.drain();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn submit_accepts_every_json_escape_and_the_journal_replays_it_byte_exact() {
    let _scenario = scenario();
    let dir = temp_dir("escapes");
    let session = monitored_session();
    let addr = session.monitor().unwrap().addr();
    let runtime = ServiceRuntime::start(
        session,
        &dir,
        ServiceConfig {
            workers: 0, // keep it queued: it must survive into the journal
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    // `\f` and a surrogate pair are valid JSON escapes; so is `\b`.
    let body = "{\"sql\":\"SELECT * FROM nation WHERE name <> '\\f\\ud83d\\ude00'\",\
                \"tenant\":\"t\",\"label\":\"x\\by\"}";
    let out = http(addr, "POST", "/submit", body);
    assert!(out.starts_with("HTTP/1.1 202"), "{out}");
    let id = u64_field(out.split("\r\n\r\n").nth(1).unwrap(), "id").unwrap();
    let detail = get(addr, &format!("/progress/{id}"));
    assert!(detail.contains("\"label\":\"x\\u0008y\""), "{detail}");
    drop(runtime); // abrupt shutdown: the submission stays pending

    let (_, replay) = qprog::svc::Journal::open(&dir).unwrap();
    assert!(replay.diagnostics.is_empty(), "{:?}", replay.diagnostics);
    assert_eq!(replay.pending.len(), 1);
    assert_eq!(
        replay.pending[0].sql,
        "SELECT * FROM nation WHERE name <> '\u{c}\u{1f600}'"
    );
    assert_eq!(replay.pending[0].label, "x\u{8}y");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journal_lines_are_byte_identical_to_the_golden_encoding() {
    use qprog::svc::{Journal, PendingEntry};
    let dir = temp_dir("golden");
    let v = "a\"b\\c\nd\u{1}é";
    {
        let (j, _) = Journal::open(&dir).unwrap();
        j.append_submit(&PendingEntry {
            id: 7,
            tenant: v.to_string(),
            label: v.to_string(),
            sql: v.to_string(),
            deadline: Some(Duration::from_millis(250)),
        })
        .unwrap();
        j.append_submit(&PendingEntry {
            id: 8,
            tenant: "t".to_string(),
            label: v.to_string(),
            sql: v.to_string(),
            deadline: None,
        })
        .unwrap();
        j.append_terminal(7, Lifecycle::Done, 1234).unwrap();
        j.append_terminal(8, Lifecycle::Failed(AbortKind::Cancelled), 99)
            .unwrap();
    }
    let text = std::fs::read_to_string(dir.join(qprog::svc::JOURNAL_FILE)).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(
        lines,
        [
            "{\"op\":\"submit\",\"id\":7,\"tenant\":\"a\\\"b\\\\c\\nd\\u0001é\",\"label\":\"a\\\"b\\\\c\\nd\\u0001é\",\"deadline_ms\":250,\"sql\":\"a\\\"b\\\\c\\nd\\u0001é\"}",
            "{\"op\":\"submit\",\"id\":8,\"tenant\":\"t\",\"label\":\"a\\\"b\\\\c\\nd\\u0001é\",\"sql\":\"a\\\"b\\\\c\\nd\\u0001é\"}",
            "{\"op\":\"terminal\",\"id\":7,\"state\":\"finished\",\"wall_us\":1234}",
            "{\"op\":\"terminal\",\"id\":8,\"state\":\"cancelled\",\"wall_us\":99}",
        ]
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Seeded interleavings of transient and permanent failures, cancels,
/// short deadlines and drains against a mock executor: every callback the
/// service makes must be a legal [`Lifecycle::transition`], and every job
/// must end exactly once — one `on_terminal`, one journal `terminal` line.
mod interleavings {
    use super::*;
    use qprog::exec::sync::Mutex;
    use qprog::svc::{JobExecutor, JobOutcome, JobSpec, StatusObserver};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// Runs the script in each job's SQL: `<transient failures> <kind>
    /// <final> <delay ms>`, e.g. `2 panic ok 3`.
    #[derive(Default)]
    struct ScriptedExec {
        attempts: Mutex<BTreeMap<u64, u32>>,
    }

    impl JobExecutor for ScriptedExec {
        fn execute(
            &self,
            job: &JobSpec,
            cancel: CancellationToken,
            deadline: Option<Duration>,
        ) -> Result<u64, QError> {
            let started = Instant::now();
            let script: Vec<&str> = job.sql.split(' ').collect();
            let transient: u32 = script[0].parse().unwrap();
            let delay = Duration::from_millis(script[3].parse().unwrap());
            while started.elapsed() < delay {
                if cancel.is_cancelled() {
                    return Err(QError::cancelled());
                }
                if deadline.is_some_and(|d| started.elapsed() >= d) {
                    return Err(QError::deadline_exceeded());
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            let attempt = {
                let mut attempts = self.attempts.lock();
                let n = attempts.entry(job.id).or_insert(0);
                *n += 1;
                *n
            };
            if attempt <= transient {
                return Err(match script[1] {
                    "panic" => QError::operator_panic("scripted"),
                    _ => QError::injected("scripted"),
                });
            }
            match script[2] {
                "budget" => Err(QError::budget_exceeded("scripted")),
                "error" => Err(QError::internal("scripted")),
                _ => Ok(u64::from(attempt)),
            }
        }
    }

    /// Applies every callback through `Lifecycle::transition`.
    #[derive(Default)]
    struct CheckingObserver {
        next_id: AtomicU64,
        states: Mutex<BTreeMap<u64, Lifecycle>>,
        terminals: Mutex<BTreeMap<u64, u32>>,
        violations: Mutex<Vec<String>>,
    }

    impl CheckingObserver {
        fn advance(&self, id: u64, to: Lifecycle) {
            let mut states = self.states.lock();
            let from = states[&id];
            match from.transition(to) {
                Ok(next) => {
                    states.insert(id, next);
                }
                Err(e) => {
                    self.violations.lock().push(format!("job {id}: {e}"));
                    panic!("job {id}: {e}");
                }
            }
        }
    }

    impl StatusObserver for CheckingObserver {
        fn allocate_id(&self, floor: u64) -> u64 {
            self.next_id.fetch_max(floor, Ordering::Relaxed);
            self.next_id.fetch_add(1, Ordering::Relaxed).max(floor)
        }

        fn on_queued(&self, job: &JobSpec) {
            let prev = self.states.lock().insert(job.id, Lifecycle::Queued);
            assert_eq!(prev, None, "job {} queued twice", job.id);
        }

        fn on_dispatched(&self, job: &JobSpec) {
            self.advance(job.id, Lifecycle::Running);
        }

        fn on_retrying(&self, job: &JobSpec, kind: AbortKind, _backoff: Duration) {
            self.advance(job.id, Lifecycle::Retrying(kind));
        }

        fn on_terminal(&self, job: &JobSpec, outcome: &JobOutcome) {
            *self.terminals.lock().entry(job.id).or_insert(0) += 1;
            self.advance(job.id, outcome.lifecycle());
        }
    }

    fn run_case(seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dir = temp_dir(&format!("interleave-{seed}"));
        let observer = Arc::new(CheckingObserver::default());
        let cfg = ServiceConfig {
            workers: 2,
            retry: RetryPolicy {
                max_attempts: 3,
                base: Duration::from_millis(1),
                cap: Duration::from_millis(4),
                seed,
            },
            drain_timeout: Duration::from_millis(rng.random_range(0..20u64)),
            ..ServiceConfig::default()
        };
        let svc = QueryService::open(
            &dir,
            cfg,
            Arc::new(ScriptedExec::default()),
            Arc::clone(&observer) as Arc<dyn StatusObserver>,
            None,
        )
        .unwrap();
        let mut ids = Vec::new();
        for _ in 0..16 {
            let kind = if rng.random_bool(0.5) {
                "panic"
            } else {
                "injected"
            };
            let end = ["ok", "ok", "budget", "error"][rng.random_range(0..4usize)];
            let sql = format!(
                "{} {kind} {end} {}",
                rng.random_range(0..4u32),
                rng.random_range(0..5u64)
            );
            let deadline = rng
                .random_bool(0.25)
                .then(|| Duration::from_millis(rng.random_range(1..15u64)));
            let ticket = svc
                .submit(SubmitRequest {
                    sql,
                    tenant: format!("t{}", rng.random_range(0..3u32)),
                    label: None,
                    deadline,
                })
                .unwrap();
            ids.push(ticket.id);
            if rng.random_bool(0.3) {
                std::thread::sleep(Duration::from_millis(rng.random_range(0..4u64)));
                let victim = ids[rng.random_range(0..ids.len())];
                svc.cancel(victim);
            }
        }
        if seed % 2 == 1 {
            // Drain mid-flight: queued and parked jobs end as cancelled.
            svc.drain();
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        while !ids
            .iter()
            .all(|id| svc.status(*id).is_some_and(|s| s.state.is_terminal()))
        {
            let violations = observer.violations.lock().clone();
            assert!(violations.is_empty(), "seed {seed}: {violations:?}");
            assert!(
                Instant::now() < deadline,
                "seed {seed}: jobs never ended: {:?}",
                ids.iter().map(|id| svc.status(*id)).collect::<Vec<_>>()
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        svc.shutdown();

        let violations = observer.violations.lock().clone();
        assert!(violations.is_empty(), "seed {seed}: {violations:?}");
        let journal = std::fs::read_to_string(svc.journal_path()).unwrap();
        for &id in &ids {
            let status = svc.status(id).unwrap();
            assert_eq!(
                observer.states.lock().get(&id),
                Some(&status.state),
                "seed {seed}: job {id} observer and service disagree"
            );
            assert_eq!(
                observer.terminals.lock().get(&id),
                Some(&1),
                "seed {seed}: job {id} on_terminal count"
            );
            let lines = journal
                .lines()
                .filter(|l| {
                    l.starts_with("{\"op\":\"terminal\"") && l.contains(&format!("\"id\":{id},"))
                })
                .count();
            assert_eq!(lines, 1, "seed {seed}: job {id} journal terminal lines");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_job_ends_exactly_once_through_legal_transitions() {
        for seed in 0..32 {
            eprintln!("interleaving seed {seed}");
            run_case(seed);
        }
    }
}

#[cfg(feature = "failpoints")]
mod chaos {
    use super::*;
    use qprog::fault;

    #[test]
    fn cancel_between_pop_and_dispatch_is_not_lost() {
        // The worker pops the job, then stalls in the dispatch failpoint
        // before the executor runs; a cancel landing in that window must
        // still end the job as cancelled.
        let dir = temp_dir("fp-cancel-race");
        let session = monitored_session();
        let _scenario = fault::FailScenario::setup();
        let runtime = ServiceRuntime::start(
            session,
            &dir,
            ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        fault::configure("service/dispatch", "1*sleep(300)").unwrap();
        let service = runtime.service();
        let id = service
            .submit(SubmitRequest {
                sql: "SELECT * FROM nation".to_string(),
                tenant: "t".to_string(),
                label: None,
                deadline: None,
            })
            .unwrap()
            .id;
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(service.cancel(id), CancelOutcome::SignalledRunning);
        let deadline = Instant::now() + Duration::from_secs(10);
        let status = loop {
            let status = service.status(id).unwrap();
            if status.state.is_terminal() {
                break status;
            }
            assert!(Instant::now() < deadline, "{status:?}");
            std::thread::sleep(Duration::from_millis(5));
        };
        assert_eq!(status.state, Lifecycle::Failed(AbortKind::Cancelled));
        assert_eq!(status.rows, None);
        assert_eq!(fault::hits("service/dispatch"), 1);
        runtime.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn submit_fault_is_a_typed_500_and_the_service_keeps_serving() {
        let dir = temp_dir("fp-submit");
        let session = monitored_session();
        let addr = session.monitor().unwrap().addr();
        let _scenario = fault::FailScenario::setup();
        let runtime = ServiceRuntime::start(session, &dir, ServiceConfig::default()).unwrap();
        fault::configure("service/submit", "1*error(chaos: submit torn)").unwrap();
        let (status, body) = submit(addr, "t", "SELECT * FROM nation");
        assert_eq!(status, 500, "{body}");
        assert!(body.contains("{\"error\":\"internal\""), "{body}");
        // The fault was one-shot: the service recovers immediately.
        let (status, body) = submit(addr, "t", "SELECT * FROM nation");
        assert_eq!(status, 202, "{body}");
        let id = u64_field(&body, "id").unwrap();
        await_progress(addr, id, Duration::from_secs(10), |d| {
            d.contains("\"state\":\"done\"")
        });
        runtime.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_fault_rejects_the_submission_without_accepting_it() {
        let dir = temp_dir("fp-journal");
        let session = monitored_session();
        let addr = session.monitor().unwrap().addr();
        let _scenario = fault::FailScenario::setup();
        let runtime = ServiceRuntime::start(session, &dir, ServiceConfig::default()).unwrap();
        fault::configure("service/journal/append", "1*error(chaos: disk full)").unwrap();
        let (status, body) = submit(addr, "t", "SELECT * FROM nation");
        assert_eq!(status, 500, "{body}");
        // Not accepted: nothing to recover, nothing hung.
        assert_eq!(runtime.service().stats().admitted, 0);
        // And durable work still flows afterwards.
        let (status, _) = submit(addr, "t", "SELECT * FROM nation");
        assert_eq!(status, 202);
        runtime.drain();
        assert_eq!(runtime.service().stats().finished, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dispatch_fault_retries_to_success_under_one_query_id() {
        let dir = temp_dir("fp-dispatch");
        let session = monitored_session();
        let addr = session.monitor().unwrap().addr();
        let _scenario = fault::FailScenario::setup();
        let cfg = ServiceConfig {
            retry: RetryPolicy {
                base: Duration::from_millis(10),
                cap: Duration::from_millis(50),
                ..RetryPolicy::default()
            },
            ..ServiceConfig::default()
        };
        let runtime = ServiceRuntime::start(session, &dir, cfg).unwrap();
        fault::configure("service/dispatch", "1*error(chaos: dispatch glitch)").unwrap();
        let (status, body) = submit(addr, "t", "SELECT * FROM nation");
        assert_eq!(status, 202, "{body}");
        let id = u64_field(&body, "id").unwrap();
        // The injected fault is transient → retried → done, same id.
        let detail = await_progress(addr, id, Duration::from_secs(10), |d| {
            d.contains("\"state\":\"done\"")
        });
        assert!(detail.contains("\"attempt\":2"), "{detail}");
        let stats = runtime.service().stats();
        assert!(stats.retries >= 1, "{stats:?}");
        assert_eq!(stats.finished, 1, "{stats:?}");
        runtime.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retry_fault_abandons_into_a_typed_terminal_visible_over_sse() {
        let dir = temp_dir("fp-retry");
        let session = monitored_session();
        let addr = session.monitor().unwrap().addr();
        let _scenario = fault::FailScenario::setup();
        let runtime = ServiceRuntime::start(session, &dir, ServiceConfig::default()).unwrap();
        // Dispatch always faults; the retry machinery itself faults once →
        // the submission must still end in a typed terminal, not a hang.
        fault::configure("service/dispatch", "error(chaos: dispatch down)").unwrap();
        fault::configure("service/retry", "1*error(chaos: retry broker down)").unwrap();
        let (status, body) = submit(addr, "t", "SELECT * FROM nation");
        assert_eq!(status, 202, "{body}");
        let id = u64_field(&body, "id").unwrap();
        let detail = await_progress(addr, id, Duration::from_secs(10), |d| {
            d.contains("\"state\":\"failed\"")
        });
        assert!(detail.contains("\"failure\":\"injected\""), "{detail}");
        let status = runtime.service().status(id).unwrap();
        assert!(
            status
                .detail
                .as_deref()
                .unwrap_or("")
                .contains("retry abandoned"),
            "{status:?}"
        );
        // SSE subscribers learn the ending too.
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(
            stream,
            "GET /progress/{id}/stream HTTP/1.1\r\nHost: t\r\n\r\n"
        )
        .unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut out = String::new();
        let mut buf = [0u8; 4096];
        loop {
            match stream.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => out.push_str(&String::from_utf8_lossy(&buf[..n])),
            }
        }
        assert!(out.contains("event: terminal\n"), "{out}");
        assert!(out.contains("\"failure\":\"injected\""), "{out}");
        runtime.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retried_chaos_run_spans_attribute_backoff_and_still_reconcile() {
        let dir = temp_dir("fp-spans");
        let session = monitored_session();
        let addr = session.monitor().unwrap().addr();
        let _scenario = fault::FailScenario::setup();
        let cfg = ServiceConfig {
            retry: RetryPolicy {
                base: Duration::from_millis(20),
                cap: Duration::from_millis(80),
                ..RetryPolicy::default()
            },
            ..ServiceConfig::default()
        };
        let runtime = ServiceRuntime::start(session, &dir, cfg).unwrap();
        // Fault inside the engine so attempt 1 genuinely executes (and is
        // counted) before the retry park and the successful attempt 2.
        fault::configure("exec/scan/next", "1*error(chaos: page gone)").unwrap();
        let (status, body) = submit(addr, "t", "SELECT * FROM nation");
        assert_eq!(status, 202, "{body}");
        let id = u64_field(&body, "id").unwrap();
        await_progress(addr, id, Duration::from_secs(10), |d| {
            d.contains("\"state\":\"done\"")
        });

        let totals = runtime.service().span_totals(id).expect("span totals");
        assert_eq!(totals.attempts, 2, "{totals:?}");
        assert!(totals.backoff_us > 0, "retry park unattributed: {totals:?}");
        assert!(totals.exec_us > 0, "{totals:?}");
        let phases = totals.submit_us
            + totals.queue_wait_us
            + totals.backoff_us
            + totals.exec_us
            + totals.finalize_us;
        assert_eq!(phases, totals.total_us, "gap in retried tree: {totals:?}");

        let events = runtime.service().span_events(id).unwrap();
        let tree = qprog::obs::SpanTree::from_events(&events, &[]);
        assert!(
            tree.nesting_violations().is_empty(),
            "{:?}",
            tree.nesting_violations()
        );
        assert_eq!(tree.lifecycle_totals().attempts, 2);

        let journal = std::fs::read_to_string(dir.join(qprog::svc::JOURNAL_FILE)).unwrap();
        let wall = journal
            .lines()
            .filter(|l| l.contains("\"op\":\"terminal\"") && l.contains(&format!("\"id\":{id},")))
            .filter_map(|l| u64_field(l, "wall_us"))
            .next_back()
            .expect("terminal journal record");
        let diff = wall.abs_diff(totals.total_us) as f64;
        assert!(
            diff <= 0.01 * (wall.max(1) as f64),
            "journal wall {wall}us vs span total {}us",
            totals.total_us
        );

        // Attempt-count attribution reaches the tenant SLO stats.
        let stats = get(addr, "/service");
        assert!(stats.contains("\"attempts\":2"), "{stats}");
        runtime.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn engine_level_fault_retries_and_recovers() {
        let dir = temp_dir("fp-engine");
        let session = monitored_session();
        let addr = session.monitor().unwrap().addr();
        let _scenario = fault::FailScenario::setup();
        let cfg = ServiceConfig {
            retry: RetryPolicy {
                base: Duration::from_millis(10),
                cap: Duration::from_millis(50),
                ..RetryPolicy::default()
            },
            ..ServiceConfig::default()
        };
        let runtime = ServiceRuntime::start(session, &dir, cfg).unwrap();
        // The fault fires inside the engine (scan getnext), not the
        // service: the run aborts as injected, the service retries, and
        // the second attempt succeeds.
        fault::configure("exec/scan/next", "1*error(chaos: page gone)").unwrap();
        let (status, body) = submit(addr, "t", "SELECT * FROM nation");
        assert_eq!(status, 202, "{body}");
        let id = u64_field(&body, "id").unwrap();
        let detail = await_progress(addr, id, Duration::from_secs(10), |d| {
            d.contains("\"state\":\"done\"")
        });
        assert!(detail.contains("\"rows\":200"), "{detail}");
        assert!(runtime.service().stats().retries >= 1);
        runtime.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
