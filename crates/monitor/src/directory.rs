//! The registry of live (and recently finished, still-held) queries.
//!
//! Entries come in two flavours:
//!
//! - **Session-owned** ([`register`](QueryDirectory::register)): created
//!   when a session compiles a query; lifecycle state is *derived* from the
//!   execution trace (the [`PhaseSink`]).
//! - **Service-owned** ([`register_managed`](QueryDirectory::register_managed)):
//!   created by the query service at submit time, before any execution
//!   exists. Its [`Lifecycle`] is *dictated* by the service
//!   ([`set_managed_state`](QueryDirectory::set_managed_state)) so a
//!   transiently-failed attempt can show `retrying` instead of leaking a
//!   premature terminal; execution progress attaches later
//!   ([`attach_execution`](QueryDirectory::attach_execution)) when a
//!   worker dispatches the job. The terminal SSE frame is emitted exactly
//!   once, and only when the service says so.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use qprog_core::gnm::{PipelineState, ProgressSnapshot};
use qprog_exec::sync::Mutex;
use qprog_exec::trace::{AbortKind, Lifecycle, Phase, TraceEvent, TraceEventKind, TraceSink};
use qprog_metrics::{Counter, Gauge, Registry};
use qprog_obs::json::num;
use qprog_obs::HealthAnalyzer;
use qprog_plan::ProgressTracker;
use qprog_types::json::escape;

use crate::eta::EtaSmoother;
use crate::hub::StreamHub;

/// A [`TraceSink`] tracking each operator's last observed phase plus the
/// query's terminal event — the live-status complement to the cumulative
/// counters a `MetricsSink` keeps. One per monitored query.
#[derive(Debug, Default)]
pub struct PhaseSink {
    phases: Mutex<Vec<Option<Phase>>>,
    rows: AtomicU64,
    finished: AtomicBool,
    aborted: Mutex<Option<AbortKind>>,
}

impl PhaseSink {
    /// A fresh sink.
    pub fn new() -> Self {
        PhaseSink::default()
    }

    /// The last phase operator `op` transitioned into, if any transition
    /// was observed.
    pub fn phase(&self, op: usize) -> Option<Phase> {
        self.phases.lock().get(op).copied().flatten()
    }

    /// Whether the query's root has been exhausted (`QueryFinished` seen).
    pub fn is_finished(&self) -> bool {
        self.finished.load(Ordering::Relaxed)
    }

    /// Why the query aborted, if a terminal `QueryAborted` was observed.
    pub fn abort_reason(&self) -> Option<AbortKind> {
        *self.aborted.lock()
    }

    /// The query's lifecycle state as observed through trace events:
    /// `Running`, `Done` or `Failed`.
    pub fn state(&self) -> Lifecycle {
        if let Some(reason) = self.abort_reason() {
            Lifecycle::Failed(reason)
        } else if self.is_finished() {
            Lifecycle::Done
        } else {
            Lifecycle::Running
        }
    }

    /// Rows the query returned before reaching a terminal state (`None`
    /// while still running).
    pub fn rows(&self) -> Option<u64> {
        (self.is_finished() || self.abort_reason().is_some())
            .then(|| self.rows.load(Ordering::Relaxed))
    }
}

impl TraceSink for PhaseSink {
    fn publish(&self, event: &TraceEvent) {
        match event.kind {
            TraceEventKind::PhaseTransition { op, to, .. } => {
                let mut phases = self.phases.lock();
                let idx = op as usize;
                if phases.len() <= idx {
                    phases.resize(idx + 1, None);
                }
                phases[idx] = Some(to);
            }
            TraceEventKind::QueryFinished { rows } => {
                self.rows.store(rows, Ordering::Relaxed);
                self.finished.store(true, Ordering::Release);
            }
            TraceEventKind::QueryAborted { reason, rows } => {
                self.rows.store(rows, Ordering::Relaxed);
                *self.aborted.lock() = Some(reason);
            }
            _ => {}
        }
    }
}

/// Live execution state attached to an entry (present from compile time
/// for session-owned queries; from dispatch time for managed ones).
struct ExecAttachment {
    tracker: ProgressTracker,
    phases: Arc<PhaseSink>,
    health: Option<Arc<HealthAnalyzer>>,
}

/// One registered query.
struct QueryEntry {
    label: String,
    estimator: String,
    /// Owning tenant; `Some` only for service-managed entries (rendered
    /// into their JSON).
    tenant: Option<String>,
    /// Dispatch attempts (managed entries).
    attempt: u32,
    exec: Option<ExecAttachment>,
    /// The service-dictated lifecycle of a managed entry; `None` for a
    /// session-owned entry, whose lifecycle derives from its trace.
    managed: Option<Lifecycle>,
    /// Rows a managed entry's terminal reported.
    rows: Option<u64>,
    started: Instant,
    /// Smoothed remaining-time estimate (interior mutability: refreshed
    /// from whichever render or broadcast tick observes the entry).
    eta: Mutex<EtaSmoother>,
    /// Whether the stream hub already saw this query's terminal frame.
    terminal_emitted: AtomicBool,
}

/// One reading of an entry, taken once per render or broadcast tick: a
/// single tracker snapshot feeds the lifecycle, the health check, the ETA
/// smoother and the JSON frame.
struct Reading {
    state: Lifecycle,
    /// The execution's snapshot; `None` while a managed entry waits for
    /// dispatch.
    snap: Option<ProgressSnapshot>,
    elapsed_us: u64,
    eta_us: Option<u64>,
}

impl QueryEntry {
    /// Take this entry's [`Reading`], feeding the ETA smoother once.
    fn read(&self) -> Reading {
        let snap = self.exec.as_ref().map(|x| x.tracker.snapshot());
        let state = self.lifecycle(snap.as_ref());
        let elapsed_us = self.started.elapsed().as_micros() as u64;
        // The paper's motivating use case, estimated time remaining from
        // the gnm fraction, smoothed so refinement noise does not whipsaw
        // the number. `None` before meaningful progress and once terminal.
        let fraction = snap.as_ref().map_or(0.0, ProgressSnapshot::fraction);
        let eta_us = self
            .eta
            .lock()
            .update(elapsed_us, fraction, state == Lifecycle::Running);
        Reading {
            state,
            snap,
            elapsed_us,
            eta_us,
        }
    }

    /// The entry's lifecycle. A session-owned query counts as `Done` once
    /// its progress is complete, even before the trace says so.
    fn lifecycle(&self, snap: Option<&ProgressSnapshot>) -> Lifecycle {
        if let Some(state) = self.managed {
            return state;
        }
        let exec = self.exec.as_ref().expect("session entries carry exec");
        match exec.phases.state() {
            Lifecycle::Running if snap.is_some_and(ProgressSnapshot::is_complete) => {
                Lifecycle::Done
            }
            state => state,
        }
    }

    /// Rows returned, once known.
    fn rows(&self) -> Option<u64> {
        match self.managed {
            Some(_) => self.rows,
            None => self.exec.as_ref().and_then(|x| x.phases.rows()),
        }
    }
}

/// Registry of live queries, keyed by a process-unique query id.
///
/// Queries [`register`](Self::register) when compiled and unregister when
/// their [`MonitoredQuery`] token drops (normally: when the
/// `QueryHandle` does), so a finished query stays visible — pinned at
/// 100% — for as long as its handle is held.
pub struct QueryDirectory {
    next_id: AtomicU64,
    entries: Mutex<BTreeMap<u64, QueryEntry>>,
    /// Server-push fan-out, attached by the [`MonitorServer`] when it
    /// starts. Lock order is always entries → hub.
    hub: Mutex<Option<Arc<StreamHub>>>,
    /// `qprog_queries_live`, when a metrics registry is attached.
    live_gauge: Option<Arc<Gauge>>,
    /// `qprog_queries_registered_total`, when a registry is attached.
    registered: Option<Arc<Counter>>,
}

impl QueryDirectory {
    /// A directory; with a metrics registry attached it also maintains the
    /// `qprog_queries_live` gauge and `qprog_queries_registered_total`
    /// counter.
    pub fn new(metrics: Option<&Registry>) -> Self {
        QueryDirectory {
            next_id: AtomicU64::new(1),
            entries: Mutex::new(BTreeMap::new()),
            hub: Mutex::new(None),
            live_gauge: metrics.map(|r| {
                r.gauge(
                    "qprog_queries_live",
                    "Queries currently registered with the monitor",
                    &[],
                )
            }),
            registered: metrics.map(|r| {
                r.counter(
                    "qprog_queries_registered_total",
                    "Queries ever registered with the monitor",
                    &[],
                )
            }),
        }
    }

    /// Register a query; the returned token unregisters it on drop. Pass
    /// a [`HealthAnalyzer`] to have the broadcast tick sample it and to
    /// surface its verdict in the query's JSON (`"health"` is `null`
    /// otherwise).
    pub fn register(
        self: &Arc<Self>,
        label: impl Into<String>,
        estimator: impl Into<String>,
        tracker: ProgressTracker,
        phases: Arc<PhaseSink>,
        health: Option<Arc<HealthAnalyzer>>,
    ) -> MonitoredQuery {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.insert(
            id,
            QueryEntry {
                label: label.into(),
                estimator: estimator.into(),
                tenant: None,
                attempt: 0,
                exec: Some(ExecAttachment {
                    tracker,
                    phases,
                    health,
                }),
                managed: None,
                rows: None,
                started: Instant::now(),
                eta: Mutex::new(EtaSmoother::new()),
                terminal_emitted: AtomicBool::new(false),
            },
        )
    }

    /// Reserve a fresh query id that is `≥ floor` and unique among every
    /// id this directory has seen (including explicitly-registered
    /// managed ids). Used by the query service so journal-recovered ids
    /// and fresh submissions share one namespace.
    pub fn allocate_id(&self, floor: u64) -> u64 {
        self.next_id.fetch_max(floor, Ordering::Relaxed);
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Register a service-managed entry under an explicit, pre-allocated
    /// id (fresh via [`allocate_id`](Self::allocate_id) or recovered from
    /// the journal). Starts `queued` with no execution attached.
    pub fn register_managed(
        self: &Arc<Self>,
        id: u64,
        label: impl Into<String>,
        estimator: impl Into<String>,
        tenant: impl Into<String>,
    ) -> MonitoredQuery {
        self.next_id.fetch_max(id + 1, Ordering::Relaxed);
        self.insert(
            id,
            QueryEntry {
                label: label.into(),
                estimator: estimator.into(),
                tenant: Some(tenant.into()),
                attempt: 0,
                exec: None,
                managed: Some(Lifecycle::Queued),
                rows: None,
                started: Instant::now(),
                eta: Mutex::new(EtaSmoother::new()),
                terminal_emitted: AtomicBool::new(false),
            },
        )
    }

    fn insert(self: &Arc<Self>, id: u64, entry: QueryEntry) -> MonitoredQuery {
        self.entries.lock().insert(id, entry);
        if let Some(g) = &self.live_gauge {
            g.add(1.0);
        }
        if let Some(c) = &self.registered {
            c.inc();
        }
        MonitoredQuery {
            directory: Arc::clone(self),
            id,
        }
    }

    /// Attach live execution state to a managed entry (a worker is about
    /// to drive the query). A retry attempt replaces the previous
    /// attachment and carries its fraction into the new tracker's
    /// high-water mark, so the published fraction stays monotone across
    /// attempts. Returns false if the id is unknown.
    pub fn attach_execution(
        &self,
        id: u64,
        tracker: ProgressTracker,
        phases: Arc<PhaseSink>,
        health: Option<Arc<HealthAnalyzer>>,
    ) -> bool {
        let mut entries = self.entries.lock();
        match entries.get_mut(&id) {
            Some(e) => {
                if let Some(previous) = &e.exec {
                    tracker.carry_floor(&previous.tracker);
                }
                e.exec = Some(ExecAttachment {
                    tracker,
                    phases,
                    health,
                });
                true
            }
            None => false,
        }
    }

    /// Move a managed entry to `to`, as the service dictates (the service
    /// checks the move). `attempt`, when given, replaces the rendered
    /// attempt count; `rows` is what a terminal reports. Entering a
    /// terminal state arms the exactly-once terminal frame (emitted by the
    /// next tick, or on unregister). Returns false if the id is unknown.
    pub fn set_managed_state(
        &self,
        id: u64,
        to: Lifecycle,
        attempt: Option<u32>,
        rows: Option<u64>,
    ) -> bool {
        let mut entries = self.entries.lock();
        let Some(e) = entries.get_mut(&id) else {
            return false;
        };
        e.managed = Some(to);
        e.attempt = attempt.unwrap_or(e.attempt);
        e.rows = rows;
        true
    }

    fn remove(&self, id: u64) {
        let removed = self.entries.lock().remove(&id);
        if let Some(e) = removed {
            if let Some(g) = &self.live_gauge {
                g.sub(1.0);
            }
            // A query can unregister before the broadcast tick saw it end
            // (or while still running, if its handle is dropped early).
            // Streams must still always learn the outcome: emit the final
            // frame now, then close its per-query subscribers.
            let hub = self.hub.lock().clone();
            if let Some(hub) = hub {
                if !e.terminal_emitted.swap(true, Ordering::Relaxed) {
                    hub.publish(id, "terminal", &Self::summary_json(id, &e, &e.read()), true);
                }
                hub.close_query(id);
            }
        }
    }

    /// Attach the server-push hub (done by [`MonitorServer::start`]).
    ///
    /// [`MonitorServer::start`]: crate::server::MonitorServer::start
    pub fn set_hub(&self, hub: Arc<StreamHub>) {
        *self.hub.lock() = Some(hub);
    }

    /// One broadcast tick: per registered query, take one reading, sample
    /// health from it, then push a `progress` frame (if anyone is
    /// listening) or — exactly once — a `terminal` frame. Encoding happens
    /// at most once per query per tick regardless of subscriber count.
    pub fn tick(&self) {
        let hub = match self.hub.lock().clone() {
            Some(h) => h,
            None => return,
        };
        let entries = self.entries.lock();
        for (&id, e) in entries.iter() {
            let r = e.read();
            let health = e.exec.as_ref().and_then(|x| x.health.as_ref());
            if let (Some(h), Some(snap)) = (health, &r.snap) {
                let running = r.state == Lifecycle::Running;
                if let Some((from, to, reason)) =
                    h.observe(snap.current(), r.eta_us.map(|v| v as f64), running)
                {
                    hub.publish(
                        id,
                        "health",
                        &format!(
                            "{{\"id\":{id},\"from\":\"{from}\",\"to\":\"{to}\",\
                             \"reason\":\"{reason}\"}}"
                        ),
                        false,
                    );
                }
            }
            if r.state.is_terminal() {
                if !e.terminal_emitted.swap(true, Ordering::Relaxed) {
                    hub.publish(id, "terminal", &Self::summary_json(id, e, &r), true);
                }
            } else if hub.wants(id) {
                hub.publish(id, "progress", &Self::summary_json(id, e, &r), false);
            }
        }
    }

    /// Number of currently registered queries.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// True iff no query is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Registered query ids, ascending.
    pub fn ids(&self) -> Vec<u64> {
        self.entries.lock().keys().copied().collect()
    }

    fn summary_json(id: u64, e: &QueryEntry, r: &Reading) -> String {
        let state = r.state;
        // Progress numbers come from the execution's snapshot; entries
        // waiting for dispatch render the trivially-true bounds.
        let (fraction, (lo, hi), current, total, pipes, pipes_done) = match &r.snap {
            Some(snap) => {
                let pipelines = snap.pipelines();
                let finished = pipelines
                    .iter()
                    .filter(|p| p.state == PipelineState::Finished)
                    .count();
                (
                    snap.fraction(),
                    snap.bounds(),
                    snap.current(),
                    snap.total(),
                    pipelines.len(),
                    finished,
                )
            }
            None => (0.0, (0.0, 1.0), 0, f64::NAN, 0, 0),
        };
        let elapsed_us = r.elapsed_us;
        let eta_us = r
            .eta_us
            .map_or_else(|| "null".to_string(), |v| v.to_string());
        let health = e.exec.as_ref().and_then(|x| x.health.as_ref()).map_or_else(
            || "null".to_string(),
            |h| format!("\"{}\"", h.state().name()),
        );
        // Service-managed entries carry their tenant and attempt count;
        // session-owned JSON is unchanged.
        let tenancy = match &e.tenant {
            Some(t) => format!("\"tenant\":\"{}\",\"attempt\":{},", escape(t), e.attempt),
            None => String::new(),
        };
        format!(
            "{{\"id\":{id},\"label\":\"{}\",\"estimator\":\"{}\",{tenancy}\
             \"elapsed_us\":{elapsed_us},\"eta_us\":{eta_us},\
             \"fraction\":{},\"lo\":{},\"hi\":{},\
             \"current\":{current},\"total\":{},\"pipelines\":{pipes},\
             \"pipelines_finished\":{pipes_done},\"state\":\"{}\",\"failure\":{},\
             \"health\":{health},\"done\":{},\"rows\":{}}}",
            escape(&e.label),
            escape(&e.estimator),
            num(fraction),
            num(lo),
            num(hi),
            num(total),
            state.name(),
            state
                .failure()
                .map_or("null".to_string(), |f| format!("\"{f}\"")),
            state == Lifecycle::Done,
            e.rows().map_or("null".to_string(), |r| r.to_string()),
        )
    }

    fn detail_json(id: u64, e: &QueryEntry) -> String {
        let summary = Self::summary_json(id, e, &e.read());
        let ops: Vec<String> = match &e.exec {
            None => Vec::new(),
            Some(exec) => exec
                .tracker
                .registry()
                .iter()
                .enumerate()
                .map(|(i, (name, m))| {
                    let (lo, hi) = m
                        .estimated_bounds()
                        .map_or(("null".to_string(), "null".to_string()), |(lo, hi)| {
                            (num(lo), num(hi))
                        });
                    format!(
                        "{{\"name\":\"{}\",\"k\":{},\"driver\":{},\"n\":{},\
                         \"lo\":{lo},\"hi\":{hi},\"finished\":{},\"phase\":{},\
                         \"wall_us\":{},\"workers\":{}}}",
                        escape(name),
                        m.emitted(),
                        m.driver_consumed(),
                        num(m.estimated_total()),
                        m.is_finished(),
                        exec.phases
                            .phase(i)
                            .map_or("null".to_string(), |p| format!("\"{}\"", p.name())),
                        m.wall_us().map_or("null".to_string(), |w| w.to_string()),
                        m.workers().map_or("null".to_string(), |w| w.to_string()),
                    )
                })
                .collect(),
        };
        debug_assert!(summary.ends_with('}'));
        format!(
            "{},\"ops\":[{}]}}",
            &summary[..summary.len() - 1],
            ops.join(",")
        )
    }

    /// JSON for `GET /progress`: every registered query's summary.
    pub fn render_all(&self) -> String {
        let entries = self.entries.lock();
        let queries: Vec<String> = entries
            .iter()
            .map(|(&id, e)| Self::summary_json(id, e, &e.read()))
            .collect();
        format!("{{\"queries\":[{}]}}", queries.join(","))
    }

    /// JSON for `GET /progress/{id}`: one query with per-operator detail,
    /// or `None` if the id is not (or no longer) registered.
    pub fn render_query(&self, id: u64) -> Option<String> {
        let entries = self.entries.lock();
        entries.get(&id).map(|e| Self::detail_json(id, e))
    }

    /// Initial state for a new SSE subscriber: the query's summary JSON,
    /// whether it is already terminal, and whether its terminal frame was
    /// already broadcast (in which case the new subscriber will never see
    /// one and the server must synthesize it).
    pub fn stream_snapshot(&self, id: u64) -> Option<(String, bool, bool)> {
        let entries = self.entries.lock();
        entries.get(&id).map(|e| {
            let r = e.read();
            (
                Self::summary_json(id, e, &r),
                r.state.is_terminal(),
                e.terminal_emitted.load(Ordering::Relaxed),
            )
        })
    }
}

impl std::fmt::Debug for QueryDirectory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryDirectory")
            .field("live", &self.len())
            .finish()
    }
}

/// Registration token: while alive, the query is listed by the monitor;
/// dropping it unregisters the query.
pub struct MonitoredQuery {
    directory: Arc<QueryDirectory>,
    id: u64,
}

impl MonitoredQuery {
    /// The process-unique query id (`/progress/{id}`).
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for MonitoredQuery {
    fn drop(&mut self) {
        self.directory.remove(self.id);
    }
}

impl std::fmt::Debug for MonitoredQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MonitoredQuery")
            .field("id", &self.id)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qprog_exec::metrics::MetricsRegistry;
    use qprog_plan::pipeline::PipelineSet;

    fn tracker() -> (ProgressTracker, MetricsRegistry) {
        let mut reg = MetricsRegistry::new();
        reg.register("scan", 100.0);
        let mut pipes = PipelineSet::new();
        let p = pipes.new_pipeline();
        pipes.assign(p, 0);
        (ProgressTracker::new(reg.clone(), pipes), reg)
    }

    fn ev(kind: TraceEventKind) -> TraceEvent {
        TraceEvent {
            seq: 0,
            at_us: 0,
            kind,
        }
    }

    #[test]
    fn register_list_unregister() {
        let dir = Arc::new(QueryDirectory::new(None));
        let (t1, _) = tracker();
        let (t2, _) = tracker();
        let q1 = dir.register("q one", "once", t1, Arc::new(PhaseSink::new()), None);
        let q2 = dir.register("q two", "dne", t2, Arc::new(PhaseSink::new()), None);
        assert_eq!(dir.len(), 2);
        assert_eq!(dir.ids(), vec![q1.id(), q2.id()]);
        assert_ne!(q1.id(), q2.id());
        drop(q1);
        assert_eq!(dir.len(), 1);
        assert!(dir.render_query(q2.id()).is_some());
        drop(q2);
        assert!(dir.is_empty());
    }

    #[test]
    fn progress_json_reflects_tracker_state() {
        let dir = Arc::new(QueryDirectory::new(None));
        let (t, reg) = tracker();
        let q = dir.register("sel", "once", t, Arc::new(PhaseSink::new()), None);
        for _ in 0..50 {
            reg.get(0).unwrap().record_emitted();
        }
        let all = dir.render_all();
        assert!(all.contains("\"label\":\"sel\""), "{all}");
        assert!(all.contains("\"current\":50"), "{all}");
        assert!(all.contains("\"fraction\":0.5"), "{all}");
        assert!(all.contains("\"done\":false"), "{all}");
        // running at p = 0.5: elapsed and a finite ETA are reported
        assert!(all.contains("\"elapsed_us\":"), "{all}");
        assert!(all.contains("\"eta_us\":"), "{all}");
        assert!(!all.contains("\"eta_us\":null"), "{all}");
        // session-owned queries carry no tenancy fields
        assert!(!all.contains("\"tenant\""), "{all}");
        let detail = dir.render_query(q.id()).unwrap();
        assert!(detail.contains("\"ops\":[{\"name\":\"scan\""), "{detail}");
        assert!(detail.contains("\"k\":50"), "{detail}");
        reg.finish_all();
        let detail = dir.render_query(q.id()).unwrap();
        assert!(detail.contains("\"done\":true"), "{detail}");
        assert!(detail.contains("\"fraction\":1"), "{detail}");
        // terminal queries have no remaining-time estimate
        assert!(detail.contains("\"eta_us\":null"), "{detail}");
    }

    #[test]
    fn phase_sink_tracks_last_phase_and_terminal_event() {
        let sink = PhaseSink::new();
        assert_eq!(sink.phase(0), None);
        assert_eq!(sink.rows(), None);
        sink.publish(&ev(TraceEventKind::PhaseTransition {
            op: 2,
            from: Phase::Init,
            to: Phase::Build,
        }));
        sink.publish(&ev(TraceEventKind::PhaseTransition {
            op: 2,
            from: Phase::Build,
            to: Phase::Probe,
        }));
        assert_eq!(sink.phase(2), Some(Phase::Probe));
        assert_eq!(sink.phase(0), None);
        assert!(!sink.is_finished());
        sink.publish(&ev(TraceEventKind::QueryFinished { rows: 9 }));
        assert!(sink.is_finished());
        assert_eq!(sink.rows(), Some(9));
    }

    #[test]
    fn phase_sink_records_aborts_as_failed_state() {
        let sink = PhaseSink::new();
        assert_eq!(sink.state(), Lifecycle::Running);
        sink.publish(&ev(TraceEventKind::QueryAborted {
            reason: AbortKind::Cancelled,
            rows: 17,
        }));
        assert_eq!(sink.state(), Lifecycle::Failed(AbortKind::Cancelled));
        assert_eq!(sink.abort_reason(), Some(AbortKind::Cancelled));
        assert_eq!(sink.rows(), Some(17));
        assert!(!sink.is_finished());
    }

    #[test]
    fn summary_json_reports_failed_queries() {
        let dir = Arc::new(QueryDirectory::new(None));
        let (t, reg) = tracker();
        let sink = Arc::new(PhaseSink::new());
        let q = dir.register("doomed", "once", t, Arc::clone(&sink), None);
        for _ in 0..30 {
            reg.get(0).unwrap().record_emitted();
        }
        let all = dir.render_all();
        assert!(all.contains("\"state\":\"running\""), "{all}");
        assert!(all.contains("\"failure\":null"), "{all}");
        sink.publish(&ev(TraceEventKind::QueryAborted {
            reason: AbortKind::DeadlineExceeded,
            rows: 30,
        }));
        let detail = dir.render_query(q.id()).unwrap();
        assert!(detail.contains("\"state\":\"failed\""), "{detail}");
        assert!(detail.contains("\"failure\":\"deadline\""), "{detail}");
        assert!(detail.contains("\"done\":false"), "{detail}");
        assert!(detail.contains("\"rows\":30"), "{detail}");
        // progress froze where the abort happened, it did not jump to 1.0
        assert!(detail.contains("\"fraction\":0.3"), "{detail}");
    }

    #[test]
    fn live_gauge_follows_registrations() {
        let metrics = Registry::new();
        let dir = Arc::new(QueryDirectory::new(Some(&metrics)));
        let gauge = metrics.gauge("qprog_queries_live", "", &[]);
        let registered = metrics.counter("qprog_queries_registered_total", "", &[]);
        let (t, _) = tracker();
        let q = dir.register("q", "once", t, Arc::new(PhaseSink::new()), None);
        assert_eq!(gauge.get(), 1.0);
        assert_eq!(registered.get(), 1);
        drop(q);
        assert_eq!(gauge.get(), 0.0);
        assert_eq!(registered.get(), 1, "total is monotone");
    }

    #[test]
    fn unknown_id_renders_none() {
        let dir = QueryDirectory::new(None);
        assert!(dir.render_query(404).is_none());
    }

    #[test]
    fn managed_entries_walk_the_service_lifecycle() {
        let dir = Arc::new(QueryDirectory::new(None));
        let id = dir.allocate_id(1);
        let q = dir.register_managed(id, "svc query", "gnm", "acme");
        let all = dir.render_all();
        assert!(all.contains("\"state\":\"queued\""), "{all}");
        assert!(all.contains("\"tenant\":\"acme\""), "{all}");
        assert!(all.contains("\"attempt\":0"), "{all}");
        assert!(all.contains("\"fraction\":0"), "{all}");
        assert!(all.contains("\"eta_us\":null"), "{all}");

        assert!(dir.set_managed_state(id, Lifecycle::Running, Some(1), None));
        let (t, reg) = tracker();
        assert!(dir.attach_execution(id, t, Arc::new(PhaseSink::new()), None));
        for _ in 0..40 {
            reg.get(0).unwrap().record_emitted();
        }
        let detail = dir.render_query(id).unwrap();
        assert!(detail.contains("\"state\":\"running\""), "{detail}");
        assert!(detail.contains("\"attempt\":1"), "{detail}");
        assert!(detail.contains("\"fraction\":0.4"), "{detail}");
        assert!(detail.contains("\"ops\":[{\"name\":\"scan\""), "{detail}");

        assert!(dir.set_managed_state(id, Lifecycle::Retrying(AbortKind::Injected), Some(1), None));
        let all = dir.render_all();
        assert!(all.contains("\"state\":\"retrying\""), "{all}");
        assert!(all.contains("\"failure\":\"injected\""), "{all}");
        assert!(all.contains("\"done\":false"), "{all}");

        assert!(dir.set_managed_state(id, Lifecycle::Done, None, Some(123)));
        let detail = dir.render_query(id).unwrap();
        assert!(detail.contains("\"state\":\"done\""), "{detail}");
        assert!(detail.contains("\"done\":true"), "{detail}");
        assert!(detail.contains("\"rows\":123"), "{detail}");
        drop(q);
        assert!(!dir.set_managed_state(id, Lifecycle::Queued, None, None));
        assert!(!dir.attach_execution(id, tracker().0, Arc::new(PhaseSink::new()), None));
    }

    #[test]
    fn reattaching_a_lower_tracker_never_lowers_fraction_or_hi() {
        let dir = Arc::new(QueryDirectory::new(None));
        let id = dir.allocate_id(1);
        let _q = dir.register_managed(id, "flaky", "gnm", "t");
        let read = |dir: &QueryDirectory| {
            let json = dir.render_query(id).unwrap();
            let field = |k| {
                qprog_types::json::raw_field(&json, k)
                    .unwrap()
                    .parse::<f64>()
            };
            (field("fraction").unwrap(), field("hi").unwrap())
        };
        let (first, reg) = tracker();
        dir.attach_execution(id, first, Arc::new(PhaseSink::new()), None);
        for _ in 0..60 {
            reg.get(0).unwrap().record_emitted();
        }
        let (fraction, hi) = read(&dir);
        assert!(
            (fraction - 0.6).abs() < 1e-9 && hi >= fraction,
            "{fraction} {hi}"
        );
        // The retry attempt starts over: its own tracker reads 0.1.
        dir.set_managed_state(id, Lifecycle::Retrying(AbortKind::Injected), Some(1), None);
        let (retry, reg) = tracker();
        dir.attach_execution(id, retry, Arc::new(PhaseSink::new()), None);
        for _ in 0..10 {
            reg.get(0).unwrap().record_emitted();
        }
        let (after, after_hi) = read(&dir);
        assert_eq!(after, fraction, "fraction dropped across the retry");
        assert!(
            after_hi >= hi,
            "hi dropped across the retry: {after_hi} < {hi}"
        );
    }

    #[test]
    fn allocate_id_respects_floor_and_explicit_registrations() {
        let dir = Arc::new(QueryDirectory::new(None));
        let a = dir.allocate_id(10);
        assert!(a >= 10);
        let _q = dir.register_managed(50, "replayed", "gnm", "t");
        let b = dir.allocate_id(1);
        assert!(b > 50, "{b}");
        let (t, _) = tracker();
        let s = dir.register("session", "once", t, Arc::new(PhaseSink::new()), None);
        assert!(s.id() > b, "session ids share the namespace: {}", s.id());
    }

    #[test]
    fn managed_terminal_is_not_derived_from_trace_state() {
        // A retryable abort publishes QueryAborted into the phase sink;
        // the entry must stay non-terminal until the service says so.
        let dir = Arc::new(QueryDirectory::new(None));
        let id = dir.allocate_id(1);
        let _q = dir.register_managed(id, "flaky", "gnm", "t");
        dir.set_managed_state(id, Lifecycle::Running, Some(1), None);
        let (t, _reg) = tracker();
        let sink = Arc::new(PhaseSink::new());
        dir.attach_execution(id, t, Arc::clone(&sink), None);
        sink.publish(&ev(TraceEventKind::QueryAborted {
            reason: AbortKind::Injected,
            rows: 0,
        }));
        let (_, terminal, emitted) = dir.stream_snapshot(id).unwrap();
        assert!(!terminal, "trace abort must not leak a managed terminal");
        assert!(!emitted);
        let all = dir.render_all();
        assert!(all.contains("\"state\":\"running\""), "{all}");
    }
}
