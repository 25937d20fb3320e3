//! The query service: admission → journal → queue → dispatch → retry →
//! terminal, with graceful drain.
//!
//! # Lifecycle
//!
//! ```text
//! submit ──► admission (depth / tenant caps) ──► journal append (WAL)
//!        ──► observer.on_queued ──► ready queue (DRR) ──► worker pops
//!        ──► deadline re-check ──► executor.execute(cancel, remaining)
//!        ──► Ok → terminal finished
//!            Err retryable (injected / panic) → backoff → queue (delayed)
//!            Err other (cancelled / deadline / budget / error) → terminal failed
//! ```
//!
//! Each job's state is a [`Lifecycle`], moved only through
//! [`Lifecycle::transition`]; the service makes these moves:
//!
//! - `Queued → Running` (dispatch) and `Running → Done` (success);
//! - `Queued/Running/Retrying → Retrying` (a transient failure, including a
//!   fault at dispatch before the job ever ran) and `Retrying → Running`;
//! - `Queued/Running/Retrying → Failed` (a permanent failure, a
//!   cancellation, a queue deadline, or drain).
//!
//! Every terminal is journaled, reported to the [`StatusObserver`] (which
//! the monitor bridges onto the progress directory and SSE hub), and
//! counted; the journal guarantees that anything accepted but not terminal
//! at crash time is re-dispatched exactly once on reopen.

use std::collections::VecDeque;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use qprog_exec::governor::CancellationToken;
use qprog_exec::span::SpanKind;
use qprog_exec::sync::Mutex;
use qprog_exec::trace::{AbortKind, Lifecycle, TraceEvent};
use qprog_metrics::{Counter, Gauge, Histogram, Registry};
use qprog_types::json::escape;
use qprog_types::QError;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::journal::{Journal, PendingEntry};
use crate::queue::{AdmissionConfig, JobSpec, Pop, ReadyQueue, RejectReason};
use crate::spans::{SpanLog, SpanTotals};

/// Recent dispatch timestamps retained for the shed-time estimate.
const DRAIN_RATE_WINDOW: usize = 64;

/// Largest workload text accepted at submit time.
pub const MAX_SQL_BYTES: usize = 64 * 1024;

/// Retry behaviour for transiently-failed runs.
///
/// Only faults the engine classifies as transient are retried: injected
/// faults and operator panics. Cancellation, deadline expiry, and budget
/// breaches are deliberate terminations and never retry.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total execution attempts per submission (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per subsequent retry.
    pub base: Duration,
    /// Upper bound on the un-jittered backoff.
    pub cap: Duration,
    /// Seed for deterministic jitter (`crates/prng`): the same (seed, id,
    /// attempt) triple always yields the same delay, so chaos runs replay.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base: Duration::from_millis(50),
            cap: Duration::from_secs(2),
            seed: 0x5E_ED_0F_90_47,
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `attempt` (1-based) of job `id`:
    /// `min(base · 2^(attempt−1), cap)` scaled by a deterministic jitter
    /// factor in `[0.5, 1.0]`.
    pub fn backoff(&self, id: u64, attempt: u32) -> Duration {
        let doublings = attempt.saturating_sub(1).min(16);
        let exp = self
            .base
            .saturating_mul(1u32 << doublings)
            .min(self.cap)
            .max(Duration::from_millis(1));
        let mut rng = StdRng::seed_from_u64(
            self.seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ u64::from(attempt),
        );
        exp.mul_f64(0.5 + 0.5 * rng.random_f64())
    }
}

/// Service-wide configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Admission-control bounds.
    pub admission: AdmissionConfig,
    /// Retry behaviour.
    pub retry: RetryPolicy,
    /// Dispatcher worker threads (0 = accept + journal only; tests use
    /// this to stage pending work for crash-recovery runs).
    pub workers: usize,
    /// Deadline applied to submissions that do not carry their own.
    pub default_deadline: Option<Duration>,
    /// Terminal job records kept for status queries before eviction.
    pub retain_terminals: usize,
    /// How long [`QueryService::drain`] waits for in-flight and queued
    /// work before checkpoint-aborting it.
    pub drain_timeout: Duration,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            admission: AdmissionConfig::default(),
            retry: RetryPolicy::default(),
            workers: 2,
            default_deadline: None,
            retain_terminals: 256,
            drain_timeout: Duration::from_secs(5),
        }
    }
}

/// A submission as received from a client.
#[derive(Debug, Clone)]
pub struct SubmitRequest {
    /// Workload text (SQL).
    pub sql: String,
    /// Tenant identity (quota + fairness key). Must be non-empty.
    pub tenant: String,
    /// Optional display label; derived from the SQL when absent.
    pub label: Option<String>,
    /// Optional deadline budget measured from acceptance.
    pub deadline: Option<Duration>,
}

/// Why a submission was not accepted.
#[derive(Debug)]
pub enum SubmitError {
    /// Malformed request (empty/oversized SQL, empty tenant, or the
    /// executor rejected the workload). Maps to HTTP 400.
    Invalid(String),
    /// Shed by admission control. Maps to HTTP 429 + `Retry-After`.
    Rejected {
        /// Which bound was hit.
        reason: RejectReason,
        /// Human-readable explanation.
        detail: String,
        /// Suggested client back-off.
        retry_after: Duration,
    },
    /// The service is draining or stopped. Maps to HTTP 503.
    ShuttingDown,
    /// The journal append failed — the submission was *not* accepted.
    /// Maps to HTTP 500.
    Internal(String),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Invalid(d) => write!(f, "invalid submission: {d}"),
            SubmitError::Rejected { reason, detail, .. } => {
                write!(f, "rejected ({}): {detail}", reason.label())
            }
            SubmitError::ShuttingDown => write!(f, "service is shutting down"),
            SubmitError::Internal(d) => write!(f, "submission failed: {d}"),
        }
    }
}

/// Acknowledgement for an accepted submission.
#[derive(Debug, Clone, Copy)]
pub struct Ticket {
    /// Process-unique query id; poll `/progress/{id}` or stream
    /// `/progress/{id}/stream` with it.
    pub id: u64,
    /// Queue depth right after this submission was enqueued.
    pub queue_depth: usize,
}

/// Terminal outcome of a submission.
#[derive(Debug, Clone)]
pub enum JobOutcome {
    /// The query ran to completion.
    Finished {
        /// Rows produced.
        rows: u64,
    },
    /// The query terminated without completing.
    Failed {
        /// Typed failure kind.
        kind: AbortKind,
        /// Human-readable detail.
        detail: String,
    },
}

impl JobOutcome {
    /// The terminal lifecycle state this outcome puts the job in.
    pub fn lifecycle(&self) -> Lifecycle {
        match self {
            JobOutcome::Finished { .. } => Lifecycle::Done,
            JobOutcome::Failed { kind, .. } => Lifecycle::Failed(*kind),
        }
    }
}

/// Point-in-time status of one submission.
#[derive(Debug, Clone)]
pub struct JobStatus {
    /// Query id.
    pub id: u64,
    /// Owning tenant.
    pub tenant: String,
    /// Display label.
    pub label: String,
    /// Lifecycle state (its [`Lifecycle::failure`] is the failure kind).
    pub state: Lifecycle,
    /// Execution attempts started so far.
    pub attempts: u32,
    /// Rows produced (terminal successes only).
    pub rows: Option<u64>,
    /// Failure detail, when the job failed.
    pub detail: Option<String>,
}

/// Result of a cancellation request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelOutcome {
    /// The job was still queued/delayed; it is now terminal `cancelled`.
    CancelledQueued,
    /// A worker had the job (running, or being dispatched); its
    /// cancellation token fired and the job will reach a `cancelled`
    /// terminal shortly.
    SignalledRunning,
    /// The job already reached a terminal state.
    AlreadyTerminal,
    /// No such job.
    Unknown,
}

/// Runs accepted jobs. The monitor-facing glue implements this on top of
/// `SessionBuilder`/`RunOptions`; unit tests use mocks.
pub trait JobExecutor: Send + Sync {
    /// Cheap well-formedness check at submit time (e.g. plan the SQL).
    fn validate(&self, sql: &str) -> Result<(), String> {
        let _ = sql;
        Ok(())
    }

    /// Execute the job to completion, honouring `cancel` and `deadline`
    /// (the remaining budget after queue wait). Returns rows produced.
    fn execute(
        &self,
        job: &JobSpec,
        cancel: CancellationToken,
        deadline: Option<Duration>,
    ) -> Result<u64, QError>;
}

/// Receives lifecycle callbacks; the monitor's bridge turns these into
/// directory entries and SSE frames.
///
/// Observers are called with the service's internal lock held and must not
/// call back into the service.
pub trait StatusObserver: Send + Sync {
    /// Reserve a fresh id `≥ floor`, unique among all ids the observer has
    /// seen (including replayed ones).
    fn allocate_id(&self, floor: u64) -> u64;

    /// A submission was accepted (or recovered from the journal).
    fn on_queued(&self, job: &JobSpec) {
        let _ = job;
    }

    /// A worker picked the job up; `job.attempt` prior attempts completed.
    fn on_dispatched(&self, job: &JobSpec) {
        let _ = job;
    }

    /// The job failed transiently and was parked for `backoff`.
    fn on_retrying(&self, job: &JobSpec, kind: AbortKind, backoff: Duration) {
        let _ = (job, kind, backoff);
    }

    /// The job reached a terminal state.
    fn on_terminal(&self, job: &JobSpec, outcome: &JobOutcome) {
        let _ = (job, outcome);
    }

    /// A terminal job record aged out of the status table.
    fn on_evicted(&self, id: u64) {
        let _ = id;
    }

    /// Push any buffered state (drain calls this so SSE subscribers see
    /// every ending before shutdown).
    fn flush(&self) {}
}

/// Minimal [`StatusObserver`]: allocates ids, ignores events. Used when no
/// monitor is attached and by unit tests.
#[derive(Debug, Default)]
pub struct LocalIds(AtomicU64);

impl StatusObserver for LocalIds {
    fn allocate_id(&self, floor: u64) -> u64 {
        self.0.fetch_max(floor, Ordering::Relaxed);
        self.0.fetch_add(1, Ordering::Relaxed).max(floor)
    }
}

#[derive(Debug, Default)]
struct SvcCounters {
    submitted: AtomicU64,
    admitted: AtomicU64,
    rejected: AtomicU64,
    invalid: AtomicU64,
    dispatched: AtomicU64,
    retries: AtomicU64,
    finished: AtomicU64,
    failed: AtomicU64,
    journal_errors: AtomicU64,
}

/// Counters snapshot for `/service` and assertions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Submissions received (any outcome).
    pub submitted: u64,
    /// Submissions accepted into the queue.
    pub admitted: u64,
    /// Submissions shed by admission control.
    pub rejected: u64,
    /// Submissions refused as malformed.
    pub invalid: u64,
    /// Jobs handed to the executor (includes retry attempts).
    pub dispatched: u64,
    /// Retry attempts scheduled.
    pub retries: u64,
    /// Jobs that reached the `finished` terminal.
    pub finished: u64,
    /// Jobs that reached a failure terminal.
    pub failed: u64,
    /// Journal terminal-append failures (job completion still reported;
    /// the affected job may be re-dispatched after a crash).
    pub journal_errors: u64,
    /// Jobs currently queued or in backoff.
    pub queue_depth: usize,
    /// Jobs currently executing.
    pub running: usize,
}

struct SvcMetrics {
    registry: Arc<Registry>,
    queue_depth: Arc<Gauge>,
    retries: Arc<Counter>,
    /// Shared bucket bounds for the per-tenant SLO histograms: 100µs to
    /// ~26s in ×4 steps, fixed so every tenant series is comparable.
    slo_buckets: Vec<f64>,
}

impl SvcMetrics {
    fn new(registry: Arc<Registry>) -> Self {
        let queue_depth = registry.gauge(
            "qprog_queue_depth",
            "Submissions queued or in retry backoff",
            &[],
        );
        let retries = registry.counter("qprog_retries_total", "Retry attempts scheduled", &[]);
        SvcMetrics {
            registry,
            queue_depth,
            retries,
            slo_buckets: Histogram::exponential_buckets(100.0, 4.0, 10),
        }
    }

    fn submission(&self, outcome: &str) {
        self.registry
            .counter(
                "qprog_submissions_total",
                "Submissions received, by outcome",
                &[("outcome", outcome)],
            )
            .inc();
    }

    fn tenant_inflight(&self, tenant: &str, value: f64) {
        self.registry
            .gauge(
                "qprog_tenant_inflight",
                "In-system (queued + running) submissions per tenant",
                &[("tenant", tenant)],
            )
            .set(value);
    }

    /// Record one completed submission's lifecycle attribution.
    fn slo(&self, tenant: &str, t: &SpanTotals) {
        self.registry
            .histogram(
                "qprog_queue_wait_us",
                "Queued + retry-parked time per completed submission (µs)",
                &[("tenant", tenant)],
                &self.slo_buckets,
            )
            .observe((t.queue_wait_us + t.backoff_us) as f64);
        self.registry
            .histogram(
                "qprog_exec_us",
                "Execution time across all dispatch attempts per completed submission (µs)",
                &[("tenant", tenant)],
                &self.slo_buckets,
            )
            .observe(t.exec_us as f64);
        self.registry
            .counter(
                "qprog_dispatch_attempts_total",
                "Dispatch attempts across completed submissions",
                &[("tenant", tenant)],
            )
            .add(u64::from(t.attempts));
    }

    fn deadline_miss(&self, tenant: &str, location: &str) {
        self.registry
            .counter(
                "qprog_deadline_miss_total",
                "Deadline misses, by where the budget ran out",
                &[("tenant", tenant), ("where", location)],
            )
            .inc();
    }
}

/// Per-tenant lifecycle aggregates across completed submissions, surfaced
/// in [`QueryService::stats_json`] for `GET /service`.
#[derive(Debug, Clone, Copy, Default)]
struct TenantSlo {
    completed: u64,
    queue_wait_us: u64,
    exec_us: u64,
    attempts: u64,
    deadline_miss_queue: u64,
    deadline_miss_exec: u64,
}

struct JobRecord {
    spec: JobSpec,
    state: Lifecycle,
    /// Created at acceptance, so a cancel reaches the job in every
    /// non-terminal state — including between a worker's pop and the
    /// executor call.
    cancel: CancellationToken,
    attempts: u32,
    rows: Option<u64>,
    detail: Option<String>,
    /// Lifecycle span log; appended only under the state lock.
    spans: SpanLog,
    /// Scheduled end of the current backoff park, on the span log's
    /// clock. Present exactly while the job's open span is a
    /// `backoff_park`, so the re-dispatch pop can split park from
    /// queue-wait at the scheduled ready time.
    backoff_ready_us: Option<u64>,
}

impl JobRecord {
    /// Apply a lifecycle move; an illegal one is a service bug.
    fn advance(&mut self, to: Lifecycle) {
        match self.state.transition(to) {
            Ok(next) => self.state = next,
            Err(e) => debug_assert!(false, "job {}: {e}", self.spec.id),
        }
    }
}

#[derive(Default)]
struct SvcState {
    jobs: std::collections::BTreeMap<u64, JobRecord>,
    tenant_inflight: std::collections::BTreeMap<String, usize>,
    tenant_slo: std::collections::BTreeMap<String, TenantSlo>,
    terminal_order: std::collections::VecDeque<u64>,
}

/// The resilient submit/queue/dispatch service. See the module docs for
/// the lifecycle; construct with [`QueryService::open`].
pub struct QueryService {
    cfg: ServiceConfig,
    journal: Journal,
    queue: ReadyQueue,
    executor: Arc<dyn JobExecutor>,
    observer: Arc<dyn StatusObserver>,
    state: Mutex<SvcState>,
    admitting: AtomicBool,
    stop: AtomicBool,
    running: AtomicUsize,
    id_floor: u64,
    counters: SvcCounters,
    metrics: Option<SvcMetrics>,
    diagnostics: Vec<String>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// Recent worker-pop timestamps (bounded to [`DRAIN_RATE_WINDOW`]);
    /// the shed path derives `Retry-After` from the observed drain rate.
    dispatch_times: Mutex<VecDeque<Instant>>,
}

impl QueryService {
    /// Open the service over journal directory `dir`: replay pending
    /// submissions from the previous incarnation (re-queued exactly once,
    /// in original order), then start `cfg.workers` dispatcher threads.
    pub fn open(
        dir: &Path,
        cfg: ServiceConfig,
        executor: Arc<dyn JobExecutor>,
        observer: Arc<dyn StatusObserver>,
        metrics: Option<Arc<Registry>>,
    ) -> io::Result<Arc<QueryService>> {
        let (journal, replay) = Journal::open(dir)?;
        let svc = Arc::new(QueryService {
            cfg,
            journal,
            queue: ReadyQueue::new(),
            executor,
            observer,
            state: Mutex::new(SvcState::default()),
            admitting: AtomicBool::new(true),
            stop: AtomicBool::new(false),
            running: AtomicUsize::new(0),
            id_floor: replay.next_id,
            counters: SvcCounters::default(),
            metrics: metrics.map(SvcMetrics::new),
            diagnostics: replay.diagnostics,
            workers: Mutex::new(Vec::new()),
            dispatch_times: Mutex::new(VecDeque::with_capacity(DRAIN_RATE_WINDOW)),
        });
        for e in replay.pending {
            let spec = JobSpec {
                id: e.id,
                tenant: e.tenant,
                label: e.label,
                sql: e.sql,
                // The wait already spent before the crash is unknowable;
                // the deadline budget restarts at recovery.
                deadline: e.deadline,
                submitted: Instant::now(),
                attempt: 0,
            };
            svc.enqueue(spec);
        }
        let mut workers = svc.workers.lock();
        for i in 0..svc.cfg.workers {
            let me = Arc::clone(&svc);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("qprog-svc-worker-{i}"))
                    .spawn(move || me.worker_loop())
                    .expect("spawn service worker"),
            );
        }
        drop(workers);
        Ok(svc)
    }

    /// Recovery notes from the journal replay (torn lines, etc). Empty on
    /// a clean open.
    pub fn recovery_diagnostics(&self) -> &[String] {
        &self.diagnostics
    }

    /// Journal file path (tests simulate crashes against it).
    pub fn journal_path(&self) -> &Path {
        self.journal.path()
    }

    /// Accept a submission: validate, admit, journal, queue. Returns the
    /// query id immediately — progress is observed via the monitor.
    pub fn submit(&self, req: SubmitRequest) -> Result<Ticket, SubmitError> {
        // Lifecycle span epoch: every later span (and the journal's wall
        // time) is measured from this instant.
        let accepted_at = Instant::now();
        self.counters.submitted.fetch_add(1, Ordering::Relaxed);
        if let Err(e) = qprog_fault::eval("service/submit") {
            self.count_submission("error");
            self.counters.invalid.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::Internal(e.to_string()));
        }
        if !self.admitting.load(Ordering::Acquire) {
            self.count_submission("shutdown");
            return Err(SubmitError::ShuttingDown);
        }
        if let Err(detail) = self.validate(&req) {
            self.count_submission("invalid");
            self.counters.invalid.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::Invalid(detail));
        }
        let mut state = self.state.lock();
        let depth = self.queue.depth();
        if depth >= self.cfg.admission.max_queue_depth {
            drop(state);
            return Err(self.reject(
                RejectReason::QueueFull,
                format!("queue depth {depth} at limit"),
            ));
        }
        let inflight = state.tenant_inflight.get(&req.tenant).copied().unwrap_or(0);
        if inflight >= self.cfg.admission.max_tenant_inflight {
            drop(state);
            return Err(self.reject(
                RejectReason::TenantCap,
                format!(
                    "tenant {:?} has {inflight} submissions in flight",
                    req.tenant
                ),
            ));
        }
        let id = self.observer.allocate_id(self.id_floor);
        let label = req
            .label
            .filter(|l| !l.trim().is_empty())
            .unwrap_or_else(|| {
                let mut l: String = req.sql.chars().take(48).collect();
                if l.len() < req.sql.len() {
                    l.push('…');
                }
                l
            });
        let deadline = req.deadline.or(self.cfg.default_deadline);
        let entry = PendingEntry {
            id,
            tenant: req.tenant.clone(),
            label: label.clone(),
            sql: req.sql.clone(),
            deadline,
        };
        let mut spans = SpanLog::new(accepted_at);
        spans.push_at(0, SpanKind::Query, 0);
        spans.push_at(0, SpanKind::Submit, 0);
        spans.push(SpanKind::JournalAppend, 0);
        if let Err(e) = self.journal.append_submit(&entry) {
            drop(state);
            self.count_submission("error");
            self.counters.journal_errors.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::Internal(format!("journal append failed: {e}")));
        }
        spans.pop();
        let spec = JobSpec {
            id,
            tenant: req.tenant,
            label,
            sql: req.sql,
            deadline,
            submitted: accepted_at,
            attempt: 0,
        };
        Self::enqueue_locked(self, &mut state, spec, spans);
        drop(state);
        self.counters.admitted.fetch_add(1, Ordering::Relaxed);
        self.count_submission("admitted");
        Ok(Ticket {
            id,
            queue_depth: self.refresh_depth(),
        })
    }

    fn validate(&self, req: &SubmitRequest) -> Result<(), String> {
        if req.tenant.trim().is_empty() {
            return Err("tenant must be non-empty".to_string());
        }
        if req.sql.trim().is_empty() {
            return Err("sql must be non-empty".to_string());
        }
        if req.sql.len() > MAX_SQL_BYTES {
            return Err(format!(
                "sql is {} bytes; limit is {MAX_SQL_BYTES}",
                req.sql.len()
            ));
        }
        self.executor.validate(&req.sql)
    }

    fn reject(&self, reason: RejectReason, detail: String) -> SubmitError {
        self.counters.rejected.fetch_add(1, Ordering::Relaxed);
        self.count_submission(reason.label());
        SubmitError::Rejected {
            reason,
            detail,
            retry_after: self.suggested_retry_after(),
        }
    }

    /// Client back-off suggested on shed: the predicted time for the
    /// current backlog to drain at the observed dispatch rate, clamped to
    /// [1, 60] seconds. Falls back to the configured constant until enough
    /// dispatches have been observed to measure a rate.
    fn suggested_retry_after(&self) -> Duration {
        let depth = self.queue.depth().max(1);
        let times = self.dispatch_times.lock();
        if times.len() >= 2 {
            let window = times
                .back()
                .expect("len checked")
                .duration_since(*times.front().expect("len checked"))
                .as_secs_f64();
            if window > 1e-6 {
                let rate = (times.len() - 1) as f64 / window;
                let secs = (depth as f64 / rate).ceil() as u64;
                return Duration::from_secs(secs.clamp(1, 60));
            }
            // All observed dispatches landed within a microsecond: the
            // queue drains effectively instantly.
            return Duration::from_secs(1);
        }
        self.cfg.admission.retry_after
    }

    /// Enqueue a replayed spec (record + observer + queue). The submit
    /// side happened in a previous incarnation, so its span is zero-width:
    /// the recovered lifecycle re-enters at the queue.
    fn enqueue(&self, spec: JobSpec) {
        let mut spans = SpanLog::new(spec.submitted);
        spans.push_at(0, SpanKind::Query, 0);
        spans.push_at(0, SpanKind::Submit, 0);
        let mut state = self.state.lock();
        Self::enqueue_locked(self, &mut state, spec, spans);
        drop(state);
        self.refresh_depth();
    }

    fn enqueue_locked(&self, state: &mut SvcState, spec: JobSpec, mut spans: SpanLog) {
        // The submit phase ends here and queue wait begins, at the same
        // stamp — the tiling that makes span sums reconcile with wall time.
        let now = spans.now_us();
        while spans.depth() > 1 {
            spans.pop_at(now);
        }
        spans.push_at(now, SpanKind::QueueWait, spec.attempt);
        *state
            .tenant_inflight
            .entry(spec.tenant.clone())
            .or_insert(0) += 1;
        if let Some(m) = &self.metrics {
            m.tenant_inflight(&spec.tenant, state.tenant_inflight[&spec.tenant] as f64);
        }
        state.jobs.insert(
            spec.id,
            JobRecord {
                spec: spec.clone(),
                state: Lifecycle::Queued,
                cancel: CancellationToken::new(),
                attempts: 0,
                rows: None,
                detail: None,
                spans,
                backoff_ready_us: None,
            },
        );
        self.observer.on_queued(&spec);
        self.queue.push(spec);
    }

    /// Status of a tracked (non-evicted) submission.
    pub fn status(&self, id: u64) -> Option<JobStatus> {
        let state = self.state.lock();
        state.jobs.get(&id).map(|r| JobStatus {
            id,
            tenant: r.spec.tenant.clone(),
            label: r.spec.label.clone(),
            state: r.state,
            attempts: r.attempts,
            rows: r.rows,
            detail: r.detail.clone(),
        })
    }

    /// Request cancellation of a submission.
    pub fn cancel(&self, id: u64) -> CancelOutcome {
        let mut state = self.state.lock();
        let token = match state.jobs.get(&id) {
            None => return CancelOutcome::Unknown,
            Some(r) if r.state.is_terminal() => return CancelOutcome::AlreadyTerminal,
            Some(r) => r.cancel.clone(),
        };
        if let Some(spec) = self.queue.remove(id) {
            self.finish_locked(
                &mut state,
                &spec,
                JobOutcome::Failed {
                    kind: AbortKind::Cancelled,
                    detail: "cancelled by client while queued".to_string(),
                },
            );
            drop(state);
            self.refresh_depth();
            return CancelOutcome::CancelledQueued;
        }
        token.cancel();
        CancelOutcome::SignalledRunning
    }

    /// Counters snapshot.
    pub fn stats(&self) -> ServiceStats {
        let c = &self.counters;
        ServiceStats {
            submitted: c.submitted.load(Ordering::Relaxed),
            admitted: c.admitted.load(Ordering::Relaxed),
            rejected: c.rejected.load(Ordering::Relaxed),
            invalid: c.invalid.load(Ordering::Relaxed),
            dispatched: c.dispatched.load(Ordering::Relaxed),
            retries: c.retries.load(Ordering::Relaxed),
            finished: c.finished.load(Ordering::Relaxed),
            failed: c.failed.load(Ordering::Relaxed),
            journal_errors: c.journal_errors.load(Ordering::Relaxed),
            queue_depth: self.queue.depth(),
            running: self.running.load(Ordering::Relaxed),
        }
    }

    /// The lifecycle span events recorded for a tracked (non-evicted)
    /// submission, timestamped in microseconds from its submit instant.
    /// Feed them to `qprog_obs::spans::SpanTree` for tree assembly and
    /// Chrome trace-event export (`GET /trace/{id}` does exactly that).
    pub fn span_events(&self, id: u64) -> Option<Vec<TraceEvent>> {
        self.state
            .lock()
            .jobs
            .get(&id)
            .map(|r| r.spans.events().to_vec())
    }

    /// Summed lifecycle durations for a tracked submission.
    pub fn span_totals(&self, id: u64) -> Option<SpanTotals> {
        self.state.lock().jobs.get(&id).map(|r| r.spans.totals())
    }

    /// Current in-system submissions for `tenant`.
    pub fn tenant_inflight(&self, tenant: &str) -> usize {
        self.state
            .lock()
            .tenant_inflight
            .get(tenant)
            .copied()
            .unwrap_or(0)
    }

    /// Whether new submissions are being accepted.
    pub fn is_admitting(&self) -> bool {
        self.admitting.load(Ordering::Acquire)
    }

    /// JSON snapshot for the monitor's `GET /service` endpoint.
    pub fn stats_json(&self) -> String {
        let s = self.stats();
        let tenants: Vec<String> = {
            let state = self.state.lock();
            let mut names: std::collections::BTreeSet<&String> =
                state.tenant_inflight.keys().collect();
            names.extend(state.tenant_slo.keys());
            names
                .into_iter()
                .map(|t| {
                    let inflight = state.tenant_inflight.get(t).copied().unwrap_or(0);
                    let slo = state.tenant_slo.get(t).copied().unwrap_or_default();
                    format!(
                        "{{\"tenant\":\"{}\",\"inflight\":{inflight},\
                         \"completed\":{},\"queue_wait_us\":{},\"exec_us\":{},\
                         \"attempts\":{},\"deadline_miss_queue\":{},\
                         \"deadline_miss_exec\":{}}}",
                        escape(t),
                        slo.completed,
                        slo.queue_wait_us,
                        slo.exec_us,
                        slo.attempts,
                        slo.deadline_miss_queue,
                        slo.deadline_miss_exec
                    )
                })
                .collect()
        };
        format!(
            "{{\"admitting\":{},\"queue_depth\":{},\"running\":{},\
             \"submitted\":{},\"admitted\":{},\"rejected\":{},\"invalid\":{},\
             \"dispatched\":{},\"retries\":{},\"finished\":{},\"failed\":{},\
             \"journal_errors\":{},\"tenants\":[{}]}}",
            self.is_admitting(),
            s.queue_depth,
            s.running,
            s.submitted,
            s.admitted,
            s.rejected,
            s.invalid,
            s.dispatched,
            s.retries,
            s.finished,
            s.failed,
            s.journal_errors,
            tenants.join(",")
        )
    }

    /// Graceful drain: stop admitting, wait up to `cfg.drain_timeout` for
    /// queued + running work, then checkpoint-abort the remainder
    /// (queued jobs reach a `cancelled` terminal; running jobs get their
    /// cancellation tokens fired) and flush the observer so every SSE
    /// subscriber sees an ending.
    pub fn drain(&self) {
        self.admitting.store(false, Ordering::Release);
        let deadline = Instant::now() + self.cfg.drain_timeout;
        while Instant::now() < deadline
            && (self.queue.depth() > 0 || self.running.load(Ordering::Relaxed) > 0)
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        for job in self.queue.drain_all() {
            let mut state = self.state.lock();
            self.finish_locked(
                &mut state,
                &job,
                JobOutcome::Failed {
                    kind: AbortKind::Cancelled,
                    detail: "service draining".to_string(),
                },
            );
        }
        for r in self.state.lock().jobs.values() {
            if !r.state.is_terminal() {
                r.cancel.cancel();
            }
        }
        let grace = Instant::now() + Duration::from_secs(2);
        while Instant::now() < grace && self.running.load(Ordering::Relaxed) > 0 {
            std::thread::sleep(Duration::from_millis(5));
        }
        self.refresh_depth();
        self.observer.flush();
    }

    /// Stop workers without draining: queued submissions stay journaled
    /// as pending and will be re-dispatched on the next open (the
    /// crash-adjacent shutdown; call [`drain`](Self::drain) first for the
    /// graceful one).
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Release);
        self.admitting.store(false, Ordering::Release);
        self.queue.close();
        let workers = std::mem::take(&mut *self.workers.lock());
        for w in workers {
            let _ = w.join();
        }
    }

    fn worker_loop(self: Arc<Self>) {
        loop {
            if self.stop.load(Ordering::Acquire) {
                return;
            }
            match self.queue.pop(Duration::from_millis(250)) {
                Pop::Closed => return,
                Pop::Timeout => continue,
                Pop::Job(job) => self.run_job(job),
            }
        }
    }

    fn run_job(&self, job: JobSpec) {
        self.refresh_depth();
        {
            // Every pop drains the queue — including deadline-expired jobs —
            // so each one is a sample for the Retry-After drain-rate model.
            let mut times = self.dispatch_times.lock();
            times.push_back(Instant::now());
            if times.len() > DRAIN_RATE_WINDOW {
                times.pop_front();
            }
        }
        // Deadline budget spent waiting counts: a submission that expired
        // in the queue terminates without ever reaching the engine.
        let remaining = match job.deadline {
            Some(d) => {
                let waited = job.submitted.elapsed();
                if waited >= d {
                    self.finish(
                        &job,
                        JobOutcome::Failed {
                            kind: AbortKind::DeadlineExceeded,
                            detail: format!(
                                "deadline ({}ms) expired after {}ms in queue",
                                d.as_millis(),
                                waited.as_millis()
                            ),
                        },
                    );
                    return;
                }
                Some(d - waited)
            }
            None => None,
        };
        if let Err(e) = qprog_fault::eval("service/dispatch") {
            self.handle_failure(job, &e);
            return;
        }
        let token = {
            let mut state = self.state.lock();
            let r = state
                .jobs
                .get_mut(&job.id)
                .expect("a job keeps its record until it is terminal");
            if r.cancel.is_cancelled() {
                // Cancelled after the pop, before the executor ran.
                self.finish_locked(
                    &mut state,
                    &job,
                    JobOutcome::Failed {
                        kind: AbortKind::Cancelled,
                        detail: "cancelled by client before dispatch".to_string(),
                    },
                );
                return;
            }
            r.advance(Lifecycle::Running);
            r.attempts = job.attempt + 1;
            let now = r.spans.now_us();
            if let Some(ready) = r.backoff_ready_us.take() {
                // The park ended at its scheduled ready time; the stretch
                // from ready to this pop is queue wait for the retry
                // attempt.
                let ready = ready.min(now);
                r.spans.pop_at(ready);
                r.spans.push_at(ready, SpanKind::QueueWait, job.attempt);
            }
            r.spans.pop_at(now);
            r.spans.push_at(now, SpanKind::Dispatch, job.attempt);
            r.cancel.clone()
        };
        self.running.fetch_add(1, Ordering::Relaxed);
        self.counters.dispatched.fetch_add(1, Ordering::Relaxed);
        self.observer.on_dispatched(&job);
        let result = self.executor.execute(&job, token, remaining);
        self.running.fetch_sub(1, Ordering::Relaxed);
        match result {
            Ok(rows) => self.finish(&job, JobOutcome::Finished { rows }),
            Err(e) => self.handle_failure(job, &e),
        }
    }

    fn handle_failure(&self, job: JobSpec, err: &QError) {
        let kind = AbortKind::from_error(err);
        let attempts_done = job.attempt + 1;
        let may_retry = kind.is_transient()
            && attempts_done < self.cfg.retry.max_attempts
            && !self.stop.load(Ordering::Acquire)
            && self.admitting.load(Ordering::Acquire);
        if may_retry {
            if let Err(fe) = qprog_fault::eval("service/retry") {
                self.finish(
                    &job,
                    JobOutcome::Failed {
                        kind,
                        detail: format!("{err} (retry abandoned: {fe})"),
                    },
                );
                return;
            }
            let backoff = self.cfg.retry.backoff(job.id, attempts_done);
            self.counters.retries.fetch_add(1, Ordering::Relaxed);
            if let Some(m) = &self.metrics {
                m.retries.inc();
            }
            {
                let mut state = self.state.lock();
                if let Some(r) = state.jobs.get_mut(&job.id) {
                    r.advance(Lifecycle::Retrying(kind));
                    // Close the dispatch attempt (or the still-open queue
                    // wait, when dispatch itself failpointed) and open the
                    // backoff park, recording its scheduled end.
                    let now = r.spans.now_us();
                    r.spans.pop_at(now);
                    r.spans.push_at(now, SpanKind::BackoffPark, attempts_done);
                    r.backoff_ready_us = Some(now + backoff.as_micros() as u64);
                }
            }
            self.observer.on_retrying(&job, kind, backoff);
            let mut next = job;
            next.attempt = attempts_done;
            self.queue.push_delayed(next, Instant::now() + backoff);
            self.refresh_depth();
        } else {
            self.finish(
                &job,
                JobOutcome::Failed {
                    kind,
                    detail: err.to_string(),
                },
            );
        }
    }

    fn finish(&self, job: &JobSpec, outcome: JobOutcome) {
        let mut state = self.state.lock();
        self.finish_locked(&mut state, job, outcome);
    }

    fn finish_locked(&self, state: &mut SvcState, job: &JobSpec, outcome: JobOutcome) {
        // Close the span tree first: open children end where terminal
        // processing begins, the finalize span covers the record
        // bookkeeping, and the root's end is the single wall-time stamp
        // the journal records — so summed child durations reconcile with
        // the journal's wall time exactly.
        //
        // A job ends once: a second terminal is a service bug, and must not
        // write a second journal line or call the observer twice.
        let Some(r) = state
            .jobs
            .get_mut(&job.id)
            .filter(|r| !r.state.is_terminal())
        else {
            debug_assert!(false, "second terminal for job {}", job.id);
            return;
        };
        let terminal = outcome.lifecycle();
        let was_running = r.state == Lifecycle::Running;
        r.backoff_ready_us = None;
        let t0 = r.spans.now_us();
        r.spans.close_children(t0);
        r.spans.push_at(t0, SpanKind::Finalize, 0);
        r.advance(terminal);
        match &outcome {
            JobOutcome::Finished { rows } => r.rows = Some(*rows),
            JobOutcome::Failed { detail, .. } => r.detail = Some(detail.clone()),
        }
        let wall_us = r.spans.now_us();
        r.spans.close_all(wall_us);
        let totals = r.spans.totals();
        if let Err(e) = self.journal.append_terminal(job.id, terminal, wall_us) {
            // Completion is still reported; after a crash the job may be
            // re-dispatched (at-least-once on journal IO failure).
            self.counters.journal_errors.fetch_add(1, Ordering::Relaxed);
            let _ = e;
        }
        match &outcome {
            JobOutcome::Finished { .. } => self.counters.finished.fetch_add(1, Ordering::Relaxed),
            JobOutcome::Failed { .. } => self.counters.failed.fetch_add(1, Ordering::Relaxed),
        };
        let deadline_missed = terminal == Lifecycle::Failed(AbortKind::DeadlineExceeded);
        let miss_location = if was_running { "exec" } else { "queue" };
        {
            let slo = state.tenant_slo.entry(job.tenant.clone()).or_default();
            slo.completed += 1;
            slo.queue_wait_us += totals.queue_wait_us + totals.backoff_us;
            slo.exec_us += totals.exec_us;
            slo.attempts += u64::from(totals.attempts);
            if deadline_missed {
                if was_running {
                    slo.deadline_miss_exec += 1;
                } else {
                    slo.deadline_miss_queue += 1;
                }
            }
        }
        if let Some(m) = &self.metrics {
            m.slo(&job.tenant, &totals);
            if deadline_missed {
                m.deadline_miss(&job.tenant, miss_location);
            }
        }
        if let Some(n) = state.tenant_inflight.get_mut(&job.tenant) {
            *n = n.saturating_sub(1);
            let left = *n;
            if left == 0 {
                state.tenant_inflight.remove(&job.tenant);
            }
            if let Some(m) = &self.metrics {
                m.tenant_inflight(&job.tenant, left as f64);
            }
        }
        self.observer.on_terminal(job, &outcome);
        state.terminal_order.push_back(job.id);
        let mut evicted = Vec::new();
        while state.terminal_order.len() > self.cfg.retain_terminals {
            if let Some(old) = state.terminal_order.pop_front() {
                state.jobs.remove(&old);
                evicted.push(old);
            }
        }
        // Opportunistic journal compaction once the terminal tail dwarfs
        // the live set, so long-running services don't grow the log
        // without bound (tmp + rename, same as reopen).
        let live_count = state
            .jobs
            .values()
            .filter(|r| !r.state.is_terminal())
            .count();
        if self.journal.terminal_count() >= 512
            && self.journal.terminal_count() as usize >= 4 * live_count
        {
            let live: Vec<PendingEntry> = state
                .jobs
                .values()
                .filter(|r| !r.state.is_terminal())
                .map(|r| PendingEntry {
                    id: r.spec.id,
                    tenant: r.spec.tenant.clone(),
                    label: r.spec.label.clone(),
                    sql: r.spec.sql.clone(),
                    deadline: r.spec.deadline,
                })
                .collect();
            if let Err(e) = self.journal.compact(&live) {
                self.counters.journal_errors.fetch_add(1, Ordering::Relaxed);
                let _ = e;
            }
        }
        for id in evicted {
            self.observer.on_evicted(id);
        }
    }

    fn count_submission(&self, outcome: &str) {
        if let Some(m) = &self.metrics {
            m.submission(outcome);
        }
    }

    fn refresh_depth(&self) -> usize {
        let depth = self.queue.depth();
        if let Some(m) = &self.metrics {
            m.queue_depth.set(depth as f64);
        }
        depth
    }
}

impl std::fmt::Debug for QueryService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryService")
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::AtomicU32;

    fn tmpdir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "qprog-service-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Scripted executor: per-id failure budget, then success.
    struct MockExec {
        /// Errors to return before succeeding, per call order.
        fail_first: AtomicU32,
        error: fn() -> QError,
        executions: Mutex<Vec<u64>>,
        delay: Duration,
    }

    impl MockExec {
        fn ok() -> Arc<Self> {
            Arc::new(MockExec {
                fail_first: AtomicU32::new(0),
                error: QError::cancelled,
                executions: Mutex::new(Vec::new()),
                delay: Duration::ZERO,
            })
        }

        fn failing(n: u32, error: fn() -> QError) -> Arc<Self> {
            Arc::new(MockExec {
                fail_first: AtomicU32::new(n),
                error,
                executions: Mutex::new(Vec::new()),
                delay: Duration::ZERO,
            })
        }

        fn executed(&self) -> Vec<u64> {
            self.executions.lock().clone()
        }
    }

    impl JobExecutor for MockExec {
        fn validate(&self, sql: &str) -> Result<(), String> {
            if sql.contains("syntax error") {
                return Err("unparseable workload".to_string());
            }
            Ok(())
        }

        fn execute(
            &self,
            job: &JobSpec,
            cancel: CancellationToken,
            _deadline: Option<Duration>,
        ) -> Result<u64, QError> {
            self.executions.lock().push(job.id);
            if !self.delay.is_zero() {
                let until = Instant::now() + self.delay;
                while Instant::now() < until {
                    if cancel.is_cancelled() {
                        return Err(QError::cancelled());
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            if cancel.is_cancelled() {
                return Err(QError::cancelled());
            }
            let remaining = self.fail_first.load(Ordering::Relaxed);
            if remaining > 0 {
                self.fail_first.store(remaining - 1, Ordering::Relaxed);
                return Err((self.error)());
            }
            Ok(7)
        }
    }

    fn svc(dir: &Path, exec: Arc<dyn JobExecutor>, cfg: ServiceConfig) -> Arc<QueryService> {
        QueryService::open(dir, cfg, exec, Arc::new(LocalIds::default()), None).unwrap()
    }

    fn req(sql: &str, tenant: &str) -> SubmitRequest {
        SubmitRequest {
            sql: sql.to_string(),
            tenant: tenant.to_string(),
            label: None,
            deadline: None,
        }
    }

    fn wait_terminal(s: &QueryService, id: u64) -> JobStatus {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let st = s.status(id).expect("job evicted before terminal check");
            if st.state.is_terminal() {
                return st;
            }
            assert!(Instant::now() < deadline, "job {id} never reached terminal");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn submit_runs_to_finished() {
        let dir = tmpdir("happy");
        let exec = MockExec::ok();
        let s = svc(&dir, exec.clone(), ServiceConfig::default());
        let t = s.submit(req("select 1", "acme")).unwrap();
        let st = wait_terminal(&s, t.id);
        assert_eq!(st.state, Lifecycle::Done);
        assert_eq!(st.rows, Some(7));
        assert_eq!(st.attempts, 1);
        assert_eq!(exec.executed(), vec![t.id]);
        let stats = s.stats();
        assert_eq!((stats.admitted, stats.finished, stats.failed), (1, 1, 0));
        s.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_submissions_are_typed() {
        let dir = tmpdir("invalid");
        let s = svc(&dir, MockExec::ok(), ServiceConfig::default());
        assert!(matches!(
            s.submit(req("", "acme")),
            Err(SubmitError::Invalid(_))
        ));
        assert!(matches!(
            s.submit(req("select 1", "")),
            Err(SubmitError::Invalid(_))
        ));
        assert!(matches!(
            s.submit(req("syntax error here", "acme")),
            Err(SubmitError::Invalid(_))
        ));
        assert_eq!(s.stats().invalid, 3);
        s.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn admission_sheds_on_depth_and_tenant_caps() {
        let dir = tmpdir("admission");
        let cfg = ServiceConfig {
            admission: AdmissionConfig {
                max_queue_depth: 4,
                max_tenant_inflight: 2,
                retry_after: Duration::from_millis(250),
            },
            workers: 0, // nothing drains the queue
            ..ServiceConfig::default()
        };
        let s = svc(&dir, MockExec::ok(), cfg);
        assert!(s.submit(req("select 1", "a")).is_ok());
        assert!(s.submit(req("select 1", "a")).is_ok());
        match s.submit(req("select 1", "a")) {
            Err(SubmitError::Rejected {
                reason,
                retry_after,
                ..
            }) => {
                assert_eq!(reason, RejectReason::TenantCap);
                assert_eq!(retry_after, Duration::from_millis(250));
            }
            other => panic!("expected tenant cap, got {other:?}"),
        }
        assert!(s.submit(req("select 1", "b")).is_ok());
        assert!(s.submit(req("select 1", "c")).is_ok());
        match s.submit(req("select 1", "d")) {
            Err(SubmitError::Rejected { reason, .. }) => {
                assert_eq!(reason, RejectReason::QueueFull)
            }
            other => panic!("expected queue full, got {other:?}"),
        }
        assert_eq!(s.stats().rejected, 2);
        assert_eq!(s.tenant_inflight("a"), 2);
        s.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_failures_retry_then_succeed() {
        let dir = tmpdir("retry");
        let exec = MockExec::failing(2, || QError::injected("unit"));
        let cfg = ServiceConfig {
            retry: RetryPolicy {
                max_attempts: 3,
                base: Duration::from_millis(5),
                cap: Duration::from_millis(20),
                seed: 42,
            },
            ..ServiceConfig::default()
        };
        let s = svc(&dir, exec.clone(), cfg);
        let t = s.submit(req("select 1", "acme")).unwrap();
        let st = wait_terminal(&s, t.id);
        assert_eq!(st.state, Lifecycle::Done);
        assert_eq!(st.attempts, 3);
        assert_eq!(exec.executed().len(), 3);
        assert_eq!(s.stats().retries, 2);
        s.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retries_exhaust_into_typed_failure() {
        let dir = tmpdir("exhaust");
        let exec = MockExec::failing(99, || QError::operator_panic("boom"));
        let cfg = ServiceConfig {
            retry: RetryPolicy {
                max_attempts: 2,
                base: Duration::from_millis(2),
                cap: Duration::from_millis(4),
                seed: 1,
            },
            ..ServiceConfig::default()
        };
        let s = svc(&dir, exec.clone(), cfg);
        let t = s.submit(req("select 1", "acme")).unwrap();
        let st = wait_terminal(&s, t.id);
        assert!(matches!(st.state, Lifecycle::Failed(_)));
        assert_eq!(st.state.failure(), Some(AbortKind::OperatorPanic));
        assert_eq!(exec.executed().len(), 2);
        s.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deliberate_terminations_never_retry() {
        for (mk, kind) in [
            (QError::cancelled as fn() -> QError, AbortKind::Cancelled),
            (
                || QError::budget_exceeded("rows"),
                AbortKind::BudgetExceeded,
            ),
            (QError::deadline_exceeded, AbortKind::DeadlineExceeded),
        ] {
            let dir = tmpdir("noretry");
            let exec = MockExec::failing(99, mk);
            let s = svc(&dir, exec.clone(), ServiceConfig::default());
            let t = s.submit(req("select 1", "acme")).unwrap();
            let st = wait_terminal(&s, t.id);
            assert!(matches!(st.state, Lifecycle::Failed(_)));
            assert_eq!(st.state.failure(), Some(kind));
            assert_eq!(exec.executed().len(), 1, "{kind} must not retry");
            s.shutdown();
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn deadline_expired_in_queue_never_reaches_executor() {
        let dir = tmpdir("queue-deadline");
        // One worker, busy for 150ms: the second job's 20ms deadline
        // expires while it waits in the queue.
        let exec = Arc::new(MockExec {
            fail_first: AtomicU32::new(0),
            error: QError::cancelled,
            executions: Mutex::new(Vec::new()),
            delay: Duration::from_millis(150),
        });
        let cfg = ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        };
        let s = svc(&dir, exec.clone(), cfg);
        let blocker = s.submit(req("select 0", "acme")).unwrap();
        let doomed = s
            .submit(SubmitRequest {
                deadline: Some(Duration::from_millis(20)),
                ..req("select 1", "acme")
            })
            .unwrap();
        let st = wait_terminal(&s, doomed.id);
        assert!(matches!(st.state, Lifecycle::Failed(_)));
        assert_eq!(st.state.failure(), Some(AbortKind::DeadlineExceeded));
        assert!(st.detail.unwrap().contains("in queue"));
        wait_terminal(&s, blocker.id);
        assert_eq!(exec.executed(), vec![blocker.id], "doomed job never ran");
        s.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancel_covers_queued_running_and_terminal() {
        let dir = tmpdir("cancel");
        let exec = Arc::new(MockExec {
            fail_first: AtomicU32::new(0),
            error: QError::cancelled,
            executions: Mutex::new(Vec::new()),
            delay: Duration::from_millis(400),
        });
        let cfg = ServiceConfig {
            workers: 0,
            ..ServiceConfig::default()
        };
        let s = svc(&dir, exec.clone(), cfg);
        let t = s.submit(req("select 1", "acme")).unwrap();
        assert_eq!(s.cancel(t.id), CancelOutcome::CancelledQueued);
        let st = s.status(t.id).unwrap();
        assert!(matches!(st.state, Lifecycle::Failed(_)));
        assert_eq!(st.state.failure(), Some(AbortKind::Cancelled));
        assert_eq!(s.cancel(t.id), CancelOutcome::AlreadyTerminal);
        assert_eq!(s.cancel(999_999), CancelOutcome::Unknown);
        assert!(exec.executed().is_empty(), "cancelled before dispatch");
        s.shutdown();
        let _ = std::fs::remove_dir_all(&dir);

        // Running cancellation, with a live worker this time.
        let dir = tmpdir("cancel-running");
        let exec = Arc::new(MockExec {
            fail_first: AtomicU32::new(0),
            error: QError::cancelled,
            executions: Mutex::new(Vec::new()),
            delay: Duration::from_secs(30),
        });
        let s = svc(&dir, exec.clone(), ServiceConfig::default());
        let t = s.submit(req("select 1", "acme")).unwrap();
        let spin = Instant::now();
        while s.stats().running == 0 && spin.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(s.cancel(t.id), CancelOutcome::SignalledRunning);
        let st = wait_terminal(&s, t.id);
        assert_eq!(st.state.failure(), Some(AbortKind::Cancelled));
        s.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_leaves_pending_and_reopen_redispatches_exactly_once() {
        let dir = tmpdir("recovery");
        let staged = {
            let cfg = ServiceConfig {
                workers: 0, // accept + journal, never dispatch
                ..ServiceConfig::default()
            };
            let s = svc(&dir, MockExec::ok(), cfg);
            let ids: Vec<u64> = (0..3)
                .map(|i| s.submit(req(&format!("select {i}"), "acme")).unwrap().id)
                .collect();
            s.shutdown(); // crash-adjacent: no drain, pending stays journaled
            ids
        };
        let exec = MockExec::ok();
        let s = QueryService::open(
            &dir,
            ServiceConfig::default(),
            exec.clone() as Arc<dyn JobExecutor>,
            Arc::new(LocalIds::default()),
            None,
        )
        .unwrap();
        for &id in &staged {
            let st = wait_terminal(&s, id);
            assert_eq!(st.state, Lifecycle::Done, "job {id}");
        }
        let mut executed = exec.executed();
        executed.sort_unstable();
        assert_eq!(executed, staged, "each pending job ran exactly once");
        assert_eq!(s.stats().dispatched, 3);
        // Fresh ids never collide with replayed ones.
        let t = s.submit(req("select 99", "acme")).unwrap();
        assert!(t.id > *staged.iter().max().unwrap());
        s.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drain_flushes_queued_work_to_terminals() {
        let dir = tmpdir("drain");
        let cfg = ServiceConfig {
            workers: 0,
            drain_timeout: Duration::from_millis(50),
            ..ServiceConfig::default()
        };
        let s = svc(&dir, MockExec::ok(), cfg);
        let ids: Vec<u64> = (0..3)
            .map(|i| s.submit(req(&format!("select {i}"), "t")).unwrap().id)
            .collect();
        s.drain();
        for id in ids {
            let st = s.status(id).unwrap();
            assert!(matches!(st.state, Lifecycle::Failed(_)));
            assert_eq!(st.state.failure(), Some(AbortKind::Cancelled));
        }
        assert!(matches!(
            s.submit(req("select 1", "t")),
            Err(SubmitError::ShuttingDown)
        ));
        s.shutdown();
        // Drained terminals are journaled: reopen has nothing pending.
        let exec = MockExec::ok();
        let s2 = QueryService::open(
            &dir,
            ServiceConfig::default(),
            exec.clone() as Arc<dyn JobExecutor>,
            Arc::new(LocalIds::default()),
            None,
        )
        .unwrap();
        std::thread::sleep(Duration::from_millis(50));
        assert!(exec.executed().is_empty(), "{:?}", exec.executed());
        s2.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn backoff_is_deterministic_capped_and_jittered() {
        let p = RetryPolicy {
            max_attempts: 5,
            base: Duration::from_millis(100),
            cap: Duration::from_secs(1),
            seed: 7,
        };
        for attempt in 1..=4u32 {
            let a = p.backoff(3, attempt);
            let b = p.backoff(3, attempt);
            assert_eq!(a, b, "same (seed, id, attempt) must agree");
            let exp = Duration::from_millis(100 * (1 << (attempt - 1))).min(p.cap);
            assert!(
                a >= exp.mul_f64(0.5) && a <= exp,
                "attempt {attempt}: {a:?}"
            );
        }
        assert_ne!(p.backoff(3, 1), p.backoff(4, 1), "jitter varies by id");
        assert_eq!(p.backoff(9, 10), p.backoff(9, 10));
        assert!(p.backoff(9, 10) <= Duration::from_secs(1));
    }

    #[test]
    fn terminal_records_evict_beyond_retention() {
        let dir = tmpdir("evict");
        let cfg = ServiceConfig {
            retain_terminals: 2,
            ..ServiceConfig::default()
        };
        let s = svc(&dir, MockExec::ok(), cfg);
        let ids: Vec<u64> = (0..4)
            .map(|i| {
                let id = s.submit(req(&format!("select {i}"), "t")).unwrap().id;
                wait_terminal(&s, id);
                id
            })
            .collect();
        assert!(s.status(ids[0]).is_none(), "oldest terminal evicted");
        assert!(s.status(ids[3]).is_some());
        s.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_json_is_flat_and_complete() {
        let dir = tmpdir("statsjson");
        let s = svc(
            &dir,
            MockExec::ok(),
            ServiceConfig {
                workers: 0,
                ..ServiceConfig::default()
            },
        );
        s.submit(req("select 1", "a\"b")).unwrap();
        let json = s.stats_json();
        assert!(json.contains("\"admitting\":true"), "{json}");
        assert!(json.contains("\"queue_depth\":1"), "{json}");
        assert!(json.contains("\"tenant\":\"a\\\"b\""), "{json}");
        s.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
