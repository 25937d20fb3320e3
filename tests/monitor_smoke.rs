//! End-to-end smoke test for the live monitor: a TPC-H-lite join runs
//! through [`Observability::serve_on`] while this test curls the HTTP
//! endpoints over a raw `std::net::TcpStream` (exactly what CI does):
//!
//! - `/progress/{id}` is polled during execution: the reported `C` and the
//!   progress fraction must be monotone non-decreasing, and every poll must
//!   carry valid `[lo, hi]` bounds,
//! - `/progress` lists the query while it is live, 404s after its handle
//!   drops,
//! - `/metrics` parses as Prometheus text exposition and carries the
//!   per-estimator q-error histogram.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

use qprog::prelude::*;
use qprog::types::json::raw_field;

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.register(qprog::datagen::customer_table(
        "customer", 20_000, 1.0, 400, 7,
    ))
    .unwrap();
    c.register(qprog::datagen::nation_table("nation", 400))
        .unwrap();
    c
}

/// One HTTP GET over a fresh TcpStream; returns (head, body).
fn get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to monitor");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: smoke\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    let split = raw.find("\r\n\r\n").expect("response has a blank line");
    (raw[..split].to_string(), raw[split + 4..].to_string())
}

/// The first `"key":<number>` in a JSON string (the monitor's JSON is flat
/// enough that the textual field reader is unambiguous for top-level
/// summary keys).
fn json_num(json: &str, key: &str) -> f64 {
    let raw = raw_field(json, key).unwrap_or_else(|| panic!("no {key} in {json}"));
    raw.parse()
        .unwrap_or_else(|_| panic!("bad number for {key}: {raw}"))
}

/// Minimal Prometheus text-format check: every sample line is
/// `name{labels} value` (or `name value`) with a parseable float, and every
/// sample's family has a preceding `# TYPE`.
fn assert_prometheus_well_formed(text: &str) {
    let mut typed: Vec<String> = Vec::new();
    let mut samples = 0usize;
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            typed.push(rest.split_whitespace().next().unwrap().to_string());
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let name_end = line
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == ':'))
            .unwrap_or_else(|| panic!("no name delimiter in sample line: {line}"));
        let name = &line[..name_end];
        assert!(!name.is_empty(), "empty metric name: {line}");
        let value = line.rsplit(' ').next().unwrap();
        assert!(
            value.parse::<f64>().is_ok() || value == "+Inf" || value == "-Inf" || value == "NaN",
            "unparseable value in: {line}"
        );
        // `foo_bucket`/`foo_sum`/`foo_count` belong to family `foo`.
        let family_ok = typed.iter().any(|t| {
            name == t
                || name.strip_suffix("_bucket") == Some(t)
                || name.strip_suffix("_sum") == Some(t)
                || name.strip_suffix("_count") == Some(t)
        });
        assert!(family_ok, "sample before its # TYPE: {line}");
        samples += 1;
    }
    assert!(samples > 0, "no samples in exposition:\n{text}");
}

#[test]
fn monitored_query_is_observable_live_over_http() {
    let session = SessionBuilder::new(catalog())
        .observability(Observability::new().serve_on("127.0.0.1:0"))
        .build()
        .unwrap();
    let server = Arc::clone(session.monitor().unwrap());
    let addr = server.addr();

    let mut handle = session
        .query(
            "SELECT nation.nationkey, count(*) FROM customer \
             JOIN nation ON customer.nationkey = nation.nationkey \
             GROUP BY nation.nationkey",
        )
        .unwrap();
    let id = handle.query_id().expect("monitored query gets an id");

    // Listed while live.
    let (_, listing) = get(addr, "/progress");
    assert!(listing.contains(&format!("\"id\":{id}")), "{listing}");

    // Poll the detail endpoint from this thread while the query runs on a
    // worker: C and the fraction must only move forward, bounds must stay
    // ordered.
    let worker = std::thread::spawn(move || {
        let rows = handle.collect().unwrap();
        (rows.len(), handle)
    });
    let path = format!("/progress/{id}");
    let (mut last_c, mut last_fraction, mut polls) = (0.0, 0.0, 0usize);
    loop {
        let (head, body) = get(addr, &path);
        if !head.starts_with("HTTP/1.1 200") {
            // The worker finished and dropped the handle between polls.
            break;
        }
        let c = json_num(&body, "current");
        let fraction = json_num(&body, "fraction");
        let lo = json_num(&body, "lo");
        let hi = json_num(&body, "hi");
        assert!(c >= last_c, "C went backwards: {last_c} -> {c}");
        assert!(
            fraction >= last_fraction - 1e-9,
            "fraction went backwards: {last_fraction} -> {fraction}"
        );
        assert!((0.0..=1.0).contains(&fraction), "fraction {fraction}");
        assert!(lo <= hi, "bounds inverted: [{lo}, {hi}]");
        assert!(lo >= 0.0, "negative lower bound {lo}");
        // Remaining-time fields: elapsed is always present and positive;
        // once meaningful progress registers, a running query also reports
        // a smoothed `eta_us` derived from `elapsed × (1−p)/p` (null until
        // p clears the smoother's floor and after terminal states).
        let elapsed = json_num(&body, "elapsed_us");
        assert!(elapsed > 0.0, "elapsed_us not positive: {body}");
        assert!(body.contains("\"eta_us\":"), "{body}");
        if fraction > 0.0 && !body.contains("\"done\":true") && !body.contains("\"eta_us\":null") {
            let eta = json_num(&body, "eta_us");
            let expect = elapsed * (1.0 - fraction) / fraction;
            // The smoothed estimate lags the raw formula (and the two
            // fields are sampled at slightly different instants in the
            // server); allow generous slack around it.
            assert!(
                eta >= 0.0 && eta <= expect * 2.0 + 1e6,
                "eta_us {eta} inconsistent with elapsed {elapsed} @ p={fraction}"
            );
        }
        // A clean run never leaves the healthy verdict.
        assert!(body.contains("\"health\":\"healthy\""), "{body}");
        last_c = c;
        last_fraction = fraction;
        polls += 1;
        if body.contains("\"done\":true") {
            break;
        }
    }
    let (rows, handle) = worker.join().unwrap();
    assert_eq!(rows, 400);
    assert!(polls > 0, "never observed the query over HTTP");

    // Terminal state: fraction pinned at 1 while the handle is alive.
    let (head, body) = get(addr, &path);
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert_eq!(json_num(&body, "fraction"), 1.0, "{body}");
    assert!(body.contains("\"done\":true"), "{body}");
    assert!(
        body.contains("\"eta_us\":null"),
        "finished query has no ETA: {body}"
    );

    // /metrics is well-formed Prometheus and has the estimator histograms.
    let (head, metrics) = get(addr, "/metrics");
    assert!(head.contains("text/plain; version=0.0.4"), "{head}");
    assert_prometheus_well_formed(&metrics);
    assert!(
        metrics.contains("# TYPE qprog_estimate_q_error histogram"),
        "{metrics}"
    );
    assert!(
        metrics.contains("qprog_estimate_q_error_bucket{estimator=\"once\",le=\"+Inf\"}"),
        "{metrics}"
    );
    assert!(
        metrics.contains("qprog_queries_finished_total{estimator=\"once\"} 1"),
        "{metrics}"
    );

    // Dropping the handle unregisters the query.
    drop(handle);
    let (head, _) = get(addr, &path);
    assert!(head.starts_with("HTTP/1.1 404"), "{head}");

    server.shutdown();
}

/// Open a streaming GET and read until the server closes the connection.
fn stream_get(addr: SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to monitor");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: smoke\r\n\r\n").unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(20)))
        .unwrap();
    let mut out = String::new();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => out.push_str(&String::from_utf8_lossy(&buf[..n])),
        }
    }
    out
}

#[test]
fn sse_stream_delivers_well_formed_frames_and_always_a_terminal() {
    let session = SessionBuilder::new(catalog())
        .observability(Observability::new().serve_on("127.0.0.1:0"))
        .build()
        .unwrap();
    let server = Arc::clone(session.monitor().unwrap());
    let addr = server.addr();

    let mut handle = session
        .query(
            "SELECT nation.nationkey, count(*) FROM customer \
             JOIN nation ON customer.nationkey = nation.nationkey \
             GROUP BY nation.nationkey",
        )
        .unwrap();
    let id = handle.query_id().unwrap();
    let reader = std::thread::spawn(move || stream_get(addr, &format!("/progress/{id}/stream")));
    let rows = handle.collect().unwrap();
    assert_eq!(rows.len(), 400);
    // The stream closes by itself once the terminal frame is delivered.
    let raw = reader.join().unwrap();

    // Headers: an open-ended event stream, not a buffered response.
    let split = raw.find("\r\n\r\n").expect("response has a head");
    let (head, body) = (&raw[..split], &raw[split + 4..]);
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    assert!(head.contains("Content-Type: text/event-stream"), "{head}");
    assert!(!head.contains("Content-Length"), "{head}");

    // Framing: every chunk is either an SSE comment (keepalive) or an
    // optional monotone `id:` line, an `event:` line, and a single-line
    // JSON `data:` payload. (Hub-broadcast frames always carry ids for
    // `Last-Event-ID` reconnects; per-connection opening frames may not.)
    let mut kinds = Vec::new();
    let mut last_id = 0u64;
    for frame in body.split("\n\n").filter(|f| !f.is_empty()) {
        if frame.starts_with(':') {
            continue; // keepalive comment
        }
        let mut lines = frame.lines().peekable();
        if lines.peek().is_some_and(|l| l.starts_with("id: ")) {
            let id_line = lines.next().unwrap();
            let id: u64 = id_line["id: ".len()..]
                .parse()
                .unwrap_or_else(|_| panic!("bad id line: {frame:?}"));
            assert!(id > last_id, "frame ids not monotone: {body:?}");
            last_id = id;
        }
        let event = lines.next().unwrap_or_default();
        let data = lines.next().unwrap_or_default();
        assert!(event.starts_with("event: "), "bad frame: {frame:?}");
        assert!(data.starts_with("data: {"), "bad frame: {frame:?}");
        assert!(data.ends_with('}'), "bad frame: {frame:?}");
        assert_eq!(lines.next(), None, "multi-line data: {frame:?}");
        kinds.push(event["event: ".len()..].to_string());
    }
    assert!(last_id > 0, "no broadcast frame carried an id: {body:?}");
    // First frame is the initial snapshot; the last is always terminal.
    assert!(!kinds.is_empty(), "no frames in {body:?}");
    assert_eq!(
        kinds.first().map(String::as_str),
        Some("progress"),
        "{kinds:?}"
    );
    assert_eq!(
        kinds.last().map(String::as_str),
        Some("terminal"),
        "{kinds:?}"
    );
    assert_eq!(
        kinds.iter().filter(|k| *k == "terminal").count(),
        1,
        "{kinds:?}"
    );
    assert!(body.contains("\"done\":true"), "{body}");

    // Stream metrics surfaced on /metrics: subscribers came and went,
    // frames were delivered.
    let (_, metrics) = get(addr, "/metrics");
    assert!(
        metrics.contains("qprog_stream_events_delivered_total"),
        "{metrics}"
    );
    assert!(metrics.contains("qprog_stream_subscribers 0"), "{metrics}");

    drop(handle);
    server.shutdown();
}

/// Open a streaming GET with an extra request header and read frames for
/// a bounded window (the firehose never closes on its own).
fn stream_get_with_header(
    addr: SocketAddr,
    path: &str,
    header: &str,
    window: std::time::Duration,
) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to monitor");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: smoke\r\n{header}\r\n\r\n"
    )
    .unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_millis(200)))
        .unwrap();
    let deadline = std::time::Instant::now() + window;
    let mut out = String::new();
    let mut buf = [0u8; 4096];
    while std::time::Instant::now() < deadline {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => out.push_str(&String::from_utf8_lossy(&buf[..n])),
            Err(_) => {} // read-timeout tick; re-check the window
        }
    }
    out
}

#[test]
fn sse_events_reconnect_replays_or_resyncs_by_last_event_id() {
    let session = SessionBuilder::new(catalog())
        .observability(Observability::new().serve_on("127.0.0.1:0"))
        .build()
        .unwrap();
    let server = Arc::clone(session.monitor().unwrap());
    let addr = server.addr();
    let hub = server.hub();

    // Seed the replay ring with deterministic frames (no live queries, so
    // the broadcast tick publishes nothing of its own).
    for i in 0..5 {
        hub.publish(900, "progress", &format!("{{\"n\":{i}}}"), false);
    }
    let last = hub.last_frame_id();
    assert!(last >= 5, "expected seeded frames, got id {last}");

    // Reconnect having seen all but the last two frames: exactly those
    // replay (in order, ids intact) and no snapshot resync happens.
    let out = stream_get_with_header(
        addr,
        "/events",
        &format!("Last-Event-ID: {}", last - 2),
        std::time::Duration::from_millis(700),
    );
    assert!(
        out.contains(&format!(
            "id: {}\nevent: progress\ndata: {{\"n\":3}}\n\n",
            last - 1
        )),
        "{out}"
    );
    assert!(
        out.contains(&format!(
            "id: {last}\nevent: progress\ndata: {{\"n\":4}}\n\n"
        )),
        "{out}"
    );
    assert!(
        !out.contains("event: snapshot"),
        "replay must not resync: {out}"
    );

    // An id the hub never issued (stale client from a previous server
    // life): full snapshot resync, stamped with the current frame id so
    // the client's Last-Event-ID re-anchors to the present.
    let out = stream_get_with_header(
        addr,
        "/events",
        "Last-Event-ID: 999999",
        std::time::Duration::from_millis(700),
    );
    assert!(
        out.contains(&format!(
            "id: {last}\nevent: snapshot\ndata: {{\"queries\":["
        )),
        "{out}"
    );

    server.shutdown();
}

#[test]
fn healthz_answers_over_http() {
    let session = SessionBuilder::new(catalog())
        .observability(Observability::new().serve_on("127.0.0.1:0"))
        .build()
        .unwrap();
    let server = Arc::clone(session.monitor().unwrap());
    let (head, body) = get(server.addr(), "/healthz");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(body.contains("\"status\":\"ok\""), "{body}");
    assert!(body.contains("\"version\":\""), "{body}");
    assert!(body.contains("\"queue_depth\":"), "{body}");
    server.shutdown();
}

#[test]
fn sse_slow_subscribers_drop_stale_frames_and_are_evicted() {
    let session = SessionBuilder::new(catalog())
        .observability(Observability::new().serve_on("127.0.0.1:0"))
        .build()
        .unwrap();
    let server = Arc::clone(session.monitor().unwrap());
    let hub = server.hub();

    // A subscriber that never drains with a tiny queue: stale progress
    // frames are dropped, and once it has missed a full queue's worth it
    // is evicted — without ever blocking the publisher.
    let slow = hub.subscribe(Some(4242), 2);
    for i in 0..8 {
        hub.publish(4242, "progress", &format!("{{\"n\":{i}}}"), false);
    }
    assert!(hub.dropped() >= 3, "dropped {}", hub.dropped());
    assert!(hub.evicted() >= 1, "evicted {}", hub.evicted());
    assert!(slow.is_closed());

    // Terminal frames are exempt: a full-but-not-evicted subscriber still
    // receives the query outcome past its cap.
    let full = hub.subscribe(Some(7), 2);
    hub.publish(7, "progress", "{\"n\":0}", false);
    hub.publish(7, "progress", "{\"n\":1}", false);
    hub.publish(7, "terminal", "{\"done\":true}", true);
    let mut saw_terminal = false;
    loop {
        match full.next(std::time::Duration::from_millis(100)) {
            qprog::monitor::StreamNext::Frame(f) => {
                saw_terminal |= f.contains("event: terminal\n");
            }
            qprog::monitor::StreamNext::Closed => break,
            qprog::monitor::StreamNext::Timeout => panic!("stream should close"),
        }
    }
    assert!(saw_terminal, "terminal frame was dropped");

    server.shutdown();
}
