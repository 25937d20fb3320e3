//! Acceptance: the Chrome trace-event export for a real Q8 run parses as
//! valid JSON and every thread-track's `ts`/`dur` intervals are strictly
//! nested (a stack discipline per `tid` — the invariant Perfetto and
//! `chrome://tracing` require to render complete events).
//!
//! The JSON checks are hand-rolled (this workspace has no external
//! crates): a full well-formedness scanner plus a flat object-field
//! extractor for the trace-event array.

use std::io::Write;
use std::sync::{Arc, Mutex};

use qprog::obs::{ReplayedTrace, SpanTree};
use qprog::prelude::*;
use qprog::types::json::raw_field;
use qprog::workloads::q8_plan;
use qprog_datagen::{TpchConfig, TpchGenerator};

// ---------------------------------------------------------------------
// Minimal JSON well-formedness checker (objects, arrays, strings with
// escapes, numbers, literals). Returns the byte offset that failed.
// ---------------------------------------------------------------------

fn json_check(text: &str) -> Result<(), String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    json_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn json_value(b: &[u8], pos: &mut usize) -> Result<(), String> {
    match b.get(*pos) {
        Some(b'{') => json_object(b, pos),
        Some(b'[') => json_array(b, pos),
        Some(b'"') => json_string(b, pos),
        Some(b't') => json_literal(b, pos, b"true"),
        Some(b'f') => json_literal(b, pos, b"false"),
        Some(b'n') => json_literal(b, pos, b"null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => json_number(b, pos),
        other => Err(format!("unexpected {other:?} at byte {pos}")),
    }
}

fn json_literal(b: &[u8], pos: &mut usize, lit: &[u8]) -> Result<(), String> {
    if b.get(*pos..*pos + lit.len()) == Some(lit) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn json_object(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // consume '{'
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        json_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}"));
        }
        *pos += 1;
        skip_ws(b, pos);
        json_value(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            other => return Err(format!("expected ',' or '}}', got {other:?} at byte {pos}")),
        }
    }
}

fn json_array(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // consume '['
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        json_value(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            other => return Err(format!("expected ',' or ']', got {other:?} at byte {pos}")),
        }
    }
}

fn json_string(b: &[u8], pos: &mut usize) -> Result<(), String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected '\"' at byte {pos}"));
    }
    *pos += 1;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => match b.get(*pos + 1) {
                Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 2,
                Some(b'u') => {
                    let hex = b.get(*pos + 2..*pos + 6);
                    match hex {
                        Some(h) if h.iter().all(u8::is_ascii_hexdigit) => *pos += 6,
                        _ => return Err(format!("bad \\u escape at byte {pos}")),
                    }
                }
                other => return Err(format!("bad escape {other:?} at byte {pos}")),
            },
            0x00..=0x1f => return Err(format!("raw control byte in string at {pos}")),
            _ => *pos += 1,
        }
    }
    Err("unterminated string".to_string())
}

fn json_number(b: &[u8], pos: &mut usize) -> Result<(), String> {
    fn digits(b: &[u8], pos: &mut usize) -> usize {
        let start = *pos;
        while b.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos - start
    }
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    if digits(b, pos) == 0 {
        return Err(format!("bad number at byte {start}"));
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if digits(b, pos) == 0 {
            return Err(format!("bad fraction at byte {start}"));
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if digits(b, pos) == 0 {
            return Err(format!("bad exponent at byte {start}"));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Flat extraction of the traceEvents objects (each is one-level deep
// except the trailing "args" object, which is always last).
// ---------------------------------------------------------------------

/// One `"ph":"X"` complete event: `(name, ts, dur, tid)`.
#[derive(Debug, Clone)]
struct Complete {
    name: String,
    ts: u64,
    dur: u64,
    tid: u64,
}

/// Split the `traceEvents` array into its top-level objects by brace
/// depth (string-aware would be overkill: names are escaped and the only
/// braces inside strings would be user SQL, which Q8 plans don't carry —
/// json_check above already proved the document well-formed).
fn trace_event_objects(json: &str) -> Vec<&str> {
    let start = json.find("\"traceEvents\":[").expect("traceEvents array") + 15;
    let mut depth = 0usize;
    let mut obj_start = 0usize;
    let mut out = Vec::new();
    for (i, c) in json[start..].char_indices() {
        match c {
            '{' => {
                if depth == 0 {
                    obj_start = start + i;
                }
                depth += 1;
            }
            '}' => {
                depth -= 1;
                if depth == 0 {
                    out.push(&json[obj_start..=start + i]);
                }
            }
            ']' if depth == 0 => break,
            _ => {}
        }
    }
    out
}

/// Assert that the intervals on one tid obey a strict stack discipline:
/// sorted by `(ts, dur desc)`, every interval either starts at-or-after
/// the previous top ends, or sits entirely inside it.
fn assert_strictly_nested(tid: u64, spans: &mut [Complete]) {
    spans.sort_by_key(|s| (s.ts, u64::MAX - s.dur));
    let mut stack: Vec<Complete> = Vec::new();
    for s in spans.iter() {
        while stack.last().is_some_and(|top| top.ts + top.dur <= s.ts) {
            stack.pop();
        }
        if let Some(top) = stack.last() {
            assert!(
                s.ts >= top.ts && s.ts + s.dur <= top.ts + top.dur,
                "tid {tid}: '{}' [{}, {}] partially overlaps '{}' [{}, {}]",
                s.name,
                s.ts,
                s.ts + s.dur,
                top.name,
                top.ts,
                top.ts + top.dur,
            );
        }
        stack.push(s.clone());
    }
}

fn q8_events() -> (Vec<qprog_exec::trace::TraceEvent>, Vec<String>, String) {
    let catalog = TpchGenerator::new(TpchConfig {
        scale: 0.005,
        skew: 2.0,
        seed: 8,
    })
    .catalog()
    .unwrap();

    // Learn operator names from an untraced compile (registration order is
    // deterministic), as the trace_q8 example does.
    let probe_session = Session::new(catalog.clone());
    let probe = probe_session
        .query_plan(q8_plan(probe_session.builder()).unwrap())
        .unwrap();
    let op_names: Vec<String> = probe
        .registry()
        .iter()
        .map(|(n, _)| n.to_string())
        .collect();

    let ring = Arc::new(RingSink::with_capacity(1 << 14));
    let jsonl_buf = SharedBuf::default();
    let jsonl = Arc::new(JsonlSink::new(jsonl_buf.clone()).with_op_names(op_names.clone()));
    let bus = EventBus::builder()
        .sink(Arc::clone(&ring) as _)
        .sink(Arc::clone(&jsonl) as _)
        .build();
    let session = SessionBuilder::new(catalog)
        .observability(Observability::new().with_trace(bus))
        .build()
        .unwrap();
    let mut query = session
        .query_plan(q8_plan(session.builder()).unwrap())
        .unwrap();
    let rows = query.collect().unwrap();
    assert!(!rows.is_empty(), "Q8 returned no rows");
    (ring.drain(), op_names, jsonl_buf.text())
}

/// A `Write` target the test can read back while the sink keeps ownership.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn text(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn q8_chrome_export_is_valid_json_with_strictly_nested_spans() {
    let (events, op_names, _) = q8_events();
    assert!(!events.is_empty(), "traced Q8 run published no events");

    let tree = SpanTree::from_events(&events, &op_names);
    let violations = tree.nesting_violations();
    assert!(
        violations.is_empty(),
        "span tree not nested: {violations:?}"
    );

    let json = tree.to_chrome_json(8);
    json_check(&json).expect("chrome export must be valid JSON");
    assert!(json.contains("\"displayTimeUnit\":\"ms\""));

    let objects = trace_event_objects(&json);
    assert!(
        objects.len() > 10,
        "expected a rich trace, got {} events",
        objects.len()
    );

    let mut by_tid: std::collections::BTreeMap<u64, Vec<Complete>> = Default::default();
    let mut named_tids = std::collections::BTreeSet::new();
    for obj in &objects {
        match raw_field(obj, "ph") {
            Some("X") => {
                let span = Complete {
                    name: raw_field(obj, "name").unwrap_or_default().to_string(),
                    ts: raw_field(obj, "ts").unwrap().parse().unwrap(),
                    dur: raw_field(obj, "dur").unwrap().parse().unwrap(),
                    tid: raw_field(obj, "tid").unwrap().parse().unwrap(),
                };
                assert_eq!(raw_field(obj, "pid"), Some("8"), "pid must be the query id");
                by_tid.entry(span.tid).or_default().push(span);
            }
            Some("M") => {
                assert_eq!(raw_field(obj, "name"), Some("thread_name"));
                named_tids.insert(raw_field(obj, "tid").unwrap().parse::<u64>().unwrap());
            }
            other => panic!("unexpected ph {other:?} in {obj}"),
        }
    }

    // Every track used by a complete event carries thread_name metadata.
    for tid in by_tid.keys() {
        assert!(named_tids.contains(tid), "tid {tid} has no thread_name");
    }

    // The lifecycle track holds the synthesized root covering the run.
    let lifecycle = by_tid.get(&0).expect("lifecycle track");
    let root = lifecycle
        .iter()
        .find(|s| s.name == "query")
        .expect("root query span");
    let t_max = events.iter().map(|e| e.at_us).max().unwrap();
    assert!(root.ts + root.dur >= t_max, "root must cover the run");

    // Q8's eight-table pipeline shows up as real derived spans.
    let all_names: Vec<&str> = by_tid.values().flatten().map(|s| s.name.as_str()).collect();
    assert!(
        all_names.iter().any(|n| n.starts_with("op ")),
        "no operator spans in {all_names:?}"
    );
    assert!(
        all_names.iter().any(|n| n.starts_with("phase ")),
        "no phase spans in {all_names:?}"
    );

    // The acceptance invariant: strict nesting per thread-track.
    for (tid, spans) in by_tid.iter_mut() {
        assert_strictly_nested(*tid, spans);
    }
}

#[test]
fn replayed_jsonl_rebuilds_the_identical_chrome_export() {
    let (events, op_names, jsonl) = q8_events();
    let live = SpanTree::from_events(&events, &op_names).to_chrome_json(8);

    let replayed = ReplayedTrace::parse(&jsonl);
    assert!(
        replayed.errors.is_empty(),
        "replay parse errors: {:?}",
        replayed.errors
    );
    let offline = SpanTree::from_events(&replayed.events, &replayed.op_names).to_chrome_json(8);
    assert_eq!(
        live, offline,
        "offline replay must reproduce the live span export byte-for-byte"
    );
}

#[test]
fn validator_rejects_malformed_documents() {
    // Sanity-check the hand-rolled checker itself so a green export test
    // means something.
    assert!(json_check("{\"a\":[1,2,{\"b\":\"c\\n\"}]}").is_ok());
    assert!(json_check("{\"a\":1,}").is_err());
    assert!(json_check("{\"a\":1} trailing").is_err());
    assert!(json_check("{\"a\":\"unterminated}").is_err());
    assert!(json_check("[1,2,").is_err());
    assert!(json_check("{\"a\":01e}").is_err());
    assert!(json_check("{\"a\":\"bad\\q\"}").is_err());
}
