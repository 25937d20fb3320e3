//! Service load benchmark: the submit/queue/dispatch front door under
//! concurrent fire.
//!
//! Hundreds of submitter threads push short queries through `POST /submit`
//! while per-query SSE subscribers watch a sample of them and one abusive
//! tenant floods far past its in-flight cap. Measured:
//!
//! - **submit latency** (p50/p99 across every HTTP submit round-trip —
//!   accepted and shed alike; admission control answers fast either way),
//! - **zero dropped terminal states** — every accepted submission must end
//!   in a typed terminal (`finished`/`failed`) after drain, and every
//!   sampled SSE subscriber must see a terminal frame. Either miss fails
//!   the bench with a non-zero exit.
//! - **shed behaviour** — the abusive tenant's floods must be answered
//!   with typed 429s, never by queue collapse.
//!
//! Results are written to **`BENCH_service.json`** at the repo root. Set
//! `QPROG_SERVICE_MAX_P99_MS` (e.g. `250`) to turn the p99 submit latency
//! into a hard gate.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use qprog::prelude::*;
use qprog::svc::AdmissionConfig;
use qprog::ServiceRuntime;
use qprog_bench::{banner, ms, paper_note, write_bench_json, Scale};

const SQL: &str = "SELECT count(*) FROM customer \
                   JOIN nation ON customer.nationkey = nation.nationkey";

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.register(qprog::datagen::customer_table(
        "customer", 10_000, 1.0, 200, 11,
    ))
    .expect("customer");
    c.register(qprog::datagen::nation_table("nation", 200))
        .expect("nation");
    c
}

fn submit_raw(addr: SocketAddr, tenant: &str) -> Option<(u16, String)> {
    let mut stream = TcpStream::connect(addr).ok()?;
    let body = format!("{{\"sql\":\"{}\",\"tenant\":\"{tenant}\"}}", SQL);
    write!(
        stream,
        "POST /submit HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .ok()?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .ok()?;
    let mut out = String::new();
    stream.read_to_string(&mut out).ok()?;
    let status: u16 = out.split_whitespace().nth(1)?.parse().ok()?;
    let body = out.split("\r\n\r\n").nth(1).unwrap_or("").to_string();
    Some((status, body))
}

fn ticket_id(body: &str) -> Option<u64> {
    let at = body.find("\"id\":")?;
    let rest = &body[at + 5..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Watch `/progress/{id}/stream` until the connection closes; report
/// whether a terminal frame arrived.
fn watch_terminal(addr: SocketAddr, id: u64) -> bool {
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return false;
    };
    if write!(
        stream,
        "GET /progress/{id}/stream HTTP/1.1\r\nHost: b\r\n\r\n"
    )
    .is_err()
    {
        return false;
    }
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let mut out = String::new();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                out.push_str(&String::from_utf8_lossy(&buf[..n]));
                if out.contains("event: terminal\n") {
                    return true;
                }
            }
        }
    }
    out.contains("event: terminal\n")
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p / 100.0).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn main() {
    let scale = Scale::detect();
    banner(
        "service_load",
        "submit/queue/dispatch under concurrent submitters + an abusive tenant",
        scale,
    );
    let (submitters, submits_each, flood_submits) = if scale.full {
        (256usize, 3usize, 256usize)
    } else {
        (96, 2, 96)
    };
    let tenants = 16usize;
    let watched_sample = 32usize;

    let session = SessionBuilder::new(catalog())
        .observability(Observability::new().serve_on("127.0.0.1:0"))
        .build()
        .expect("session");
    let addr = session.monitor().expect("monitor").addr();
    let dir = std::env::temp_dir().join(format!("qprog-service-load-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ServiceConfig {
        admission: AdmissionConfig {
            max_queue_depth: 4096,
            max_tenant_inflight: 16,
            retry_after: Duration::from_secs(1),
        },
        workers: 8,
        retain_terminals: 1 << 20, // hold every terminal for the audit
        ..ServiceConfig::default()
    };
    let runtime = Arc::new(ServiceRuntime::start(session, &dir, cfg).expect("service"));

    println!(
        "phase 1: {submitters} submitters x {submits_each} submissions across \
         {tenants} tenants, plus {flood_submits} floods from one abusive tenant..."
    );
    let started = Instant::now();
    let mut workers = Vec::new();
    for i in 0..submitters {
        workers.push(std::thread::spawn(move || {
            let tenant = format!("tenant-{}", i % tenants);
            let mut latencies = Vec::with_capacity(submits_each);
            let mut accepted = Vec::new();
            let mut shed = 0u64;
            for _ in 0..submits_each {
                let t0 = Instant::now();
                match submit_raw(addr, &tenant) {
                    Some((202, body)) => {
                        latencies.push(t0.elapsed());
                        accepted.extend(ticket_id(&body));
                    }
                    Some((429, _)) => {
                        latencies.push(t0.elapsed());
                        shed += 1;
                    }
                    Some((status, body)) => {
                        panic!("unexpected submit status {status}: {body}")
                    }
                    None => panic!("submit transport failure"),
                }
            }
            (latencies, accepted, shed)
        }));
    }
    // The abusive tenant floods from many threads at once so its in-flight
    // count outruns the workers; past the cap it must be shed with 429s.
    let flood_threads = 8usize;
    let floods: Vec<_> = (0..flood_threads)
        .map(|_| {
            std::thread::spawn(move || {
                let mut accepted = Vec::new();
                let mut shed = 0u64;
                for _ in 0..flood_submits / flood_threads {
                    match submit_raw(addr, "abusive") {
                        Some((202, body)) => accepted.extend(ticket_id(&body)),
                        Some((429, _)) => shed += 1,
                        Some((status, body)) => panic!("flood: unexpected {status}: {body}"),
                        None => panic!("flood transport failure"),
                    }
                }
                (accepted, shed)
            })
        })
        .collect();

    let mut latencies = Vec::new();
    let mut accepted_ids = Vec::new();
    let mut polite_shed = 0u64;
    for w in workers {
        let (lat, ids, shed) = w.join().expect("submitter");
        latencies.extend(lat);
        accepted_ids.extend(ids);
        polite_shed += shed;
    }
    let mut flood_accepted = Vec::new();
    let mut flood_shed = 0u64;
    for f in floods {
        let (ids, shed) = f.join().expect("flood");
        flood_accepted.extend(ids);
        flood_shed += shed;
    }
    let submit_wall = started.elapsed();

    // Phase 2: streaming subscribers watch a sample of accepted queries;
    // late subscription is fine — terminals are synthesized for them.
    println!("phase 2: {watched_sample} SSE subscribers watching accepted queries...");
    let watchers: Vec<_> = accepted_ids
        .iter()
        .take(watched_sample)
        .map(|&id| std::thread::spawn(move || watch_terminal(addr, id)))
        .collect();
    let mut missed_sse_terminals = 0usize;
    for w in watchers {
        if !w.join().expect("watcher") {
            missed_sse_terminals += 1;
        }
    }

    // Phase 3: graceful drain, then audit — every accepted submission,
    // polite or abusive, must sit in a typed terminal state.
    println!("phase 3: drain + terminal audit...");
    runtime.drain();
    let total_wall = started.elapsed();
    let service = runtime.service();
    let mut dropped_terminals = 0usize;
    for id in accepted_ids.iter().chain(flood_accepted.iter()) {
        match service.status(*id) {
            Some(s) if matches!(s.state, Lifecycle::Done | Lifecycle::Failed(_)) => {}
            _ => dropped_terminals += 1,
        }
    }
    let stats = service.stats();

    latencies.sort();
    let p50 = percentile(&latencies, 50.0);
    let p99 = percentile(&latencies, 99.0);
    let accepted_total = accepted_ids.len() + flood_accepted.len();
    let throughput = stats.finished as f64 / total_wall.as_secs_f64();

    println!(
        "\nsubmits: {} accepted ({} polite + {} abusive), {} shed \
         ({polite_shed} polite + {flood_shed} abusive)",
        accepted_total,
        accepted_ids.len(),
        flood_accepted.len(),
        polite_shed + flood_shed,
    );
    println!(
        "submit latency: p50 {} ms, p99 {} ms over {} round-trips",
        ms(p50),
        ms(p99),
        latencies.len() + flood_accepted.len() + flood_shed as usize,
    );
    println!(
        "terminals: {} finished, {} failed, {} retries; {} dropped; \
         {missed_sse_terminals}/{} SSE watchers missed theirs",
        stats.finished,
        stats.failed,
        stats.retries,
        dropped_terminals,
        watched_sample.min(accepted_ids.len()),
    );
    println!(
        "wall: submits {} ms, total {} ms ({throughput:.1} queries/s finished)",
        ms(submit_wall),
        ms(total_wall),
    );

    let json = format!(
        "{{\n  \"bench\": \"service_load\",\n  \"scale\": \"{}\",\n  \
         \"submitters\": {submitters},\n  \"submits_each\": {submits_each},\n  \
         \"flood_submits\": {flood_submits},\n  \
         \"accepted\": {accepted_total},\n  \
         \"shed_polite\": {polite_shed},\n  \"shed_abusive\": {flood_shed},\n  \
         \"submit_p50_ms\": {:.3},\n  \"submit_p99_ms\": {:.3},\n  \
         \"finished\": {},\n  \"failed\": {},\n  \"retries\": {},\n  \
         \"dropped_terminals\": {dropped_terminals},\n  \
         \"missed_sse_terminals\": {missed_sse_terminals},\n  \
         \"submit_wall_ms\": {:.3},\n  \"total_wall_ms\": {:.3},\n  \
         \"finished_per_sec\": {throughput:.3}\n}}\n",
        if scale.full { "full" } else { "quick" },
        p50.as_secs_f64() * 1e3,
        p99.as_secs_f64() * 1e3,
        stats.finished,
        stats.failed,
        stats.retries,
        submit_wall.as_secs_f64() * 1e3,
        total_wall.as_secs_f64() * 1e3,
    );
    write_bench_json("BENCH_service.json", &json);
    let _ = std::fs::remove_dir_all(&dir);

    paper_note(&[
        "the paper's monitor is passive; the service front door is this \
         reproduction's extension — progress still has to stay observable \
         when the system is the one running the queries",
        "expect: admission control answers in microseconds whether the \
         verdict is 202 or 429 — shed is cheap by construction",
        "expect: zero dropped terminal states — every accepted submission \
         ends typed, visible over /progress/{id} and SSE",
    ]);

    let mut fail = false;
    if dropped_terminals > 0 {
        eprintln!("FAIL: {dropped_terminals} accepted submissions never reached a terminal state");
        fail = true;
    }
    if missed_sse_terminals > 0 {
        eprintln!("FAIL: {missed_sse_terminals} SSE watchers missed their terminal frame");
        fail = true;
    }
    if flood_shed == 0 && flood_submits > 64 {
        eprintln!("FAIL: the abusive tenant was never shed — admission control is inert");
        fail = true;
    }
    if let Ok(bound) = std::env::var("QPROG_SERVICE_MAX_P99_MS") {
        let bound: f64 = bound.parse().expect("QPROG_SERVICE_MAX_P99_MS");
        let got = p99.as_secs_f64() * 1e3;
        if got > bound {
            eprintln!("FAIL: submit p99 {got:.2} ms above bound {bound:.2} ms");
            fail = true;
        } else {
            println!("latency gate: p99 {got:.2} ms <= {bound:.2} ms — ok");
        }
    }
    if fail {
        std::process::exit(1);
    }
}
