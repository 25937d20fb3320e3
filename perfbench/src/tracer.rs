//! The benchmark's own tracing, for `--trace 1` runs.
//!
//! [`Spans`] records a span around each call the benchmark makes into a
//! layer (name, start, end, parent span, and the query or submission it
//! belongs to), in memory; [`Spans::write`] dumps them when the run ends.
//! [`LayerSink`] is the trace sink the benchmark attaches to a query: it
//! forwards every event to the per-query sinks the service attaches
//! (`MetricsSink` and `PhaseSink`), times those calls, and keeps the
//! events for per-operator attribution. Nothing here adds tracing inside
//! the program.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use qprog::exec::trace::{TraceEvent, TraceSink};
use qprog::metrics::Registry;
use qprog::monitor::PhaseSink;
use qprog::obs::MetricsSink;

/// Parent of a root span.
pub const ROOT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `compile` or `submit`.
    pub name: &'static str,
    /// Query or submission the span belongs to.
    pub item: u64,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// Start, µs after the recorder's epoch.
    pub start_us: f64,
    /// End, µs after the recorder's epoch.
    pub end_us: f64,
}

impl Span {
    /// Duration in µs.
    pub fn us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// An in-memory span recorder (one per thread).
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Spans {
            epoch,
            spans: Vec::new(),
        }
    }

    fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Record a finished span; returns its index for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        item: u64,
        parent: u32,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let span = Span {
            name,
            item,
            parent,
            start_us: self.at(start),
            end_us: self.at(end),
        };
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    /// Durations (µs) of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::us)
            .collect()
    }

    /// Append another recorder's spans (same epoch), re-basing parents.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != ROOT {
                s.parent += base;
            }
            s
        }));
    }

    /// Write the spans as JSON lines.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"item\":{},\"name\":\"{}\",\
                 \"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.item, s.name, s.start_us, s.end_us
            )?;
        }
        out.flush()
    }
}

/// Trace sink wrapping the per-query `MetricsSink` + `PhaseSink` pair.
pub struct LayerSink {
    metrics: MetricsSink,
    phases: PhaseSink,
    sink_ns: AtomicU64,
    events: Mutex<Vec<TraceEvent>>,
}

impl LayerSink {
    /// A fresh sink feeding `registry` under estimator label `estimator`.
    pub fn new(registry: Arc<Registry>, estimator: &str) -> Arc<Self> {
        Arc::new(LayerSink {
            metrics: MetricsSink::new(registry, estimator),
            phases: PhaseSink::new(),
            sink_ns: AtomicU64::new(0),
            events: Mutex::new(Vec::new()),
        })
    }

    /// Time spent inside the wrapped sinks so far, in µs.
    pub fn sink_us(&self) -> f64 {
        self.sink_ns.load(Ordering::Relaxed) as f64 / 1e3
    }

    /// The events received so far.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().expect("event log lock").clone()
    }
}

impl TraceSink for LayerSink {
    fn publish(&self, event: &TraceEvent) {
        let t = Instant::now();
        self.metrics.publish(event);
        self.phases.publish(event);
        self.sink_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.events.lock().expect("event log lock").push(*event);
    }
}
