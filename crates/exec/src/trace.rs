//! Execution event tracing: the engine-side port of the observability
//! subsystem.
//!
//! Operators publish [`TraceEvent`]s through an [`EventBus`] at **phase
//! boundaries and estimate refinements only** — never per tuple — so the
//! paper's "couple of relaxed atomics per `getnext()`" cost model is
//! preserved. The bus itself is immutable after construction (no locks on
//! the publish path); sinks decide what to do with each event. The
//! higher-level sinks (bounded ring buffer, JSONL writer, progress
//! validator) and the timeline/EXPLAIN ANALYZE consumers live in the
//! `qprog-obs` crate; this module only defines the event taxonomy, the sink
//! trait, and the bus so the executor does not depend on the observability
//! stack.
//!
//! With no bus attached (the default), tracing costs a single `Option`
//! check at each *already amortized* publication site — the overhead
//! benches (`table3`/`table4a`) run in exactly this configuration.

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Execution phase of a blocking operator, as exposed in
/// [`TraceEventKind::PhaseTransition`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Not yet started (the implicit phase before the first transition).
    Init,
    /// Hash join: draining + partitioning the build input.
    Build,
    /// Hash join: draining + partitioning the probe input (where `once`
    /// estimation converges, §4.1.1).
    Probe,
    /// Hash join: partition-wise joining (output production).
    PartitionJoin,
    /// Merge join / sort: consuming and sorting an input.
    SortInput,
    /// Merge join: merging the sorted runs.
    Merge,
    /// Aggregation: consuming the input into groups.
    Accumulate,
    /// Producing output rows (generic final phase).
    Emit,
}

impl Phase {
    /// Stable lowercase name (used by the JSONL sink and EXPLAIN ANALYZE).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Init => "init",
            Phase::Build => "build",
            Phase::Probe => "probe",
            Phase::PartitionJoin => "partition_join",
            Phase::SortInput => "sort_input",
            Phase::Merge => "merge",
            Phase::Accumulate => "accumulate",
            Phase::Emit => "emit",
        }
    }

    /// Inverse of [`Phase::name`], used by the trace replay parser.
    pub fn from_name(name: &str) -> Option<Phase> {
        Some(match name {
            "init" => Phase::Init,
            "build" => Phase::Build,
            "probe" => Phase::Probe,
            "partition_join" => Phase::PartitionJoin,
            "sort_input" => Phase::SortInput,
            "merge" => Phase::Merge,
            "accumulate" => Phase::Accumulate,
            "emit" => Phase::Emit,
            _ => return None,
        })
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which estimator produced a refined `N_i` value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EstimateSource {
    /// The compile-time optimizer estimate (published at registration).
    Optimizer,
    /// An online estimator (framework / dne / byte) during execution.
    Online,
    /// The exact count, pinned when the operator finishes.
    Exact,
}

impl EstimateSource {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            EstimateSource::Optimizer => "optimizer",
            EstimateSource::Online => "online",
            EstimateSource::Exact => "exact",
        }
    }

    /// Inverse of [`EstimateSource::name`], used by the trace replay parser.
    pub fn from_name(name: &str) -> Option<EstimateSource> {
        Some(match name {
            "optimizer" => EstimateSource::Optimizer,
            "online" => EstimateSource::Online,
            "exact" => EstimateSource::Exact,
            _ => return None,
        })
    }
}

impl fmt::Display for EstimateSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Why a query terminated before draining its root operator, as carried by
/// [`TraceEventKind::QueryAborted`]. Mirrors the
/// [`ExecError`](qprog_types::ExecError) taxonomy plus a catch-all for
/// organic execution errors, flattened to `Copy` data so trace events stay
/// allocation-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbortKind {
    /// Cooperative cancellation via the query's token.
    Cancelled,
    /// The wall-clock deadline elapsed.
    DeadlineExceeded,
    /// A hard per-query resource budget was breached.
    BudgetExceeded,
    /// An operator (or worker thread) panicked and was isolated.
    OperatorPanic,
    /// A fault-injection site fired (failpoints builds).
    Injected,
    /// Any other execution error (type error, division by zero, ...).
    Error,
}

impl AbortKind {
    /// Stable lowercase name (used by the JSONL sink, metrics labels, and
    /// the monitor's terminal-state rendering).
    pub fn name(self) -> &'static str {
        match self {
            AbortKind::Cancelled => "cancelled",
            AbortKind::DeadlineExceeded => "deadline",
            AbortKind::BudgetExceeded => "budget",
            AbortKind::OperatorPanic => "panic",
            AbortKind::Injected => "injected",
            AbortKind::Error => "error",
        }
    }

    /// Inverse of [`AbortKind::name`], used by the trace replay parser.
    pub fn from_name(name: &str) -> Option<AbortKind> {
        Some(match name {
            "cancelled" => AbortKind::Cancelled,
            "deadline" => AbortKind::DeadlineExceeded,
            "budget" => AbortKind::BudgetExceeded,
            "panic" => AbortKind::OperatorPanic,
            "injected" => AbortKind::Injected,
            "error" => AbortKind::Error,
            _ => return None,
        })
    }

    /// Classify an error into its abort kind.
    pub fn from_error(e: &qprog_types::QError) -> AbortKind {
        use qprog_types::ExecError;
        match e.lifecycle() {
            Some(ExecError::Cancelled) => AbortKind::Cancelled,
            Some(ExecError::DeadlineExceeded) => AbortKind::DeadlineExceeded,
            Some(ExecError::BudgetExceeded(_)) => AbortKind::BudgetExceeded,
            Some(ExecError::OperatorPanic(_)) => AbortKind::OperatorPanic,
            Some(ExecError::Injected(_)) => AbortKind::Injected,
            None => AbortKind::Error,
        }
    }

    /// Whether a run that failed this way may succeed if retried: injected
    /// faults and operator panics are transient; cancellation, deadline
    /// expiry, budget breaches and organic errors are not.
    pub fn is_transient(self) -> bool {
        matches!(self, AbortKind::Injected | AbortKind::OperatorPanic)
    }
}

impl fmt::Display for AbortKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Where a query is in its life, as the monitor shows it and the query
/// service drives it.
///
/// [`transition`](Self::transition) is the one place the legal moves are
/// written down:
///
/// | from, to           | `Queued` | `Running` | `Retrying` | `Done` | `Failed` |
/// |--------------------|----------|-----------|------------|--------|----------|
/// | `Queued`           | –        | ✓         | ✓          | –      | ✓        |
/// | `Running`          | –        | ✓         | ✓          | ✓      | ✓        |
/// | `Retrying`         | –        | ✓         | ✓          | –      | ✓        |
/// | `Done`, `Failed`   | –        | –         | –          | –      | –        |
///
/// Nothing leaves a terminal state, nothing re-enters `Queued`, and only
/// `Running` may become `Done`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lifecycle {
    /// Accepted by the query service, waiting for a worker.
    Queued,
    /// Executing (or compiled and not yet driven).
    Running,
    /// The last attempt failed transiently; parked for a retry.
    Retrying(AbortKind),
    /// Ran to completion.
    Done,
    /// Ended without completing. Progress freezes where it stopped.
    Failed(AbortKind),
}

/// A move [`Lifecycle::transition`] refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IllegalTransition {
    /// State the move started from.
    pub from: Lifecycle,
    /// State the move asked for.
    pub to: Lifecycle,
}

impl fmt::Display for IllegalTransition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "illegal lifecycle move {:?} -> {:?}", self.from, self.to)
    }
}

impl std::error::Error for IllegalTransition {}

impl Lifecycle {
    /// The terminal label of a state that never ended.
    const UNKNOWN: &'static str = "unknown";

    /// Move to `to`, if the move is legal (see the type docs).
    pub fn transition(self, to: Lifecycle) -> Result<Lifecycle, IllegalTransition> {
        let legal = !self.is_terminal()
            && to != Lifecycle::Queued
            && (to != Lifecycle::Done || self == Lifecycle::Running);
        if legal {
            Ok(to)
        } else {
            Err(IllegalTransition { from: self, to })
        }
    }

    /// Whether the query has ended (`Done` or `Failed`).
    pub fn is_terminal(self) -> bool {
        matches!(self, Lifecycle::Done | Lifecycle::Failed(_))
    }

    /// The failure kind of a failed or retrying query.
    pub fn failure(self) -> Option<AbortKind> {
        match self {
            Lifecycle::Retrying(kind) | Lifecycle::Failed(kind) => Some(kind),
            _ => None,
        }
    }

    /// Stable lowercase name, as `/progress` and SSE frames render it:
    /// `queued`, `running`, `retrying`, `done` or `failed`.
    pub fn name(self) -> &'static str {
        match self {
            Lifecycle::Queued => "queued",
            Lifecycle::Running => "running",
            Lifecycle::Retrying(_) => "retrying",
            Lifecycle::Done => "done",
            Lifecycle::Failed(_) => "failed",
        }
    }

    /// The label a run is journaled and archived under: `finished`, the
    /// failure's [`AbortKind::name`], or `unknown` for a run that never
    /// ended (a trace with no terminal event).
    pub fn terminal_label(self) -> &'static str {
        match self {
            Lifecycle::Done => "finished",
            Lifecycle::Failed(kind) => kind.name(),
            _ => Self::UNKNOWN,
        }
    }

    /// Inverse of [`terminal_label`](Self::terminal_label): `unknown` parses
    /// as `Running`, the state of a run that never ended.
    pub fn from_terminal_label(label: &str) -> Option<Lifecycle> {
        match label {
            "finished" => Some(Lifecycle::Done),
            Self::UNKNOWN => Some(Lifecycle::Running),
            _ => AbortKind::from_name(label).map(Lifecycle::Failed),
        }
    }
}

/// Why an estimator stepped down a rung on the degradation ladder, as
/// carried by [`TraceEventKind::EstimatorDegraded`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DegradeReason {
    /// The exact frequency histogram outgrew its memory budget.
    HistogramMemory,
}

impl DegradeReason {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            DegradeReason::HistogramMemory => "histogram_memory",
        }
    }

    /// Inverse of [`DegradeReason::name`], used by the trace replay parser.
    pub fn from_name(name: &str) -> Option<DegradeReason> {
        match name {
            "histogram_memory" => Some(DegradeReason::HistogramMemory),
            _ => None,
        }
    }
}

impl fmt::Display for DegradeReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Progress-health verdict for a running query, as carried by
/// [`TraceEventKind::HealthTransition`]. Computed by the `obs::health`
/// analyzer from the live trace stream plus periodic work/ETA samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HealthState {
    /// Work is flowing and estimates are settled.
    Healthy,
    /// No observed-work delta for longer than the configured stall window
    /// while the query is still Running.
    Stalled,
    /// Estimates are oscillating/diverging or the ETA is swinging beyond
    /// the configured volatility thresholds.
    Unstable,
}

impl HealthState {
    /// Stable lowercase name (used by the JSONL sink, metrics labels, and
    /// the monitor's `"health"` JSON field).
    pub fn name(self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Stalled => "stalled",
            HealthState::Unstable => "unstable",
        }
    }

    /// Inverse of [`HealthState::name`], used by the trace replay parser.
    pub fn from_name(name: &str) -> Option<HealthState> {
        Some(match name {
            "healthy" => HealthState::Healthy,
            "stalled" => HealthState::Stalled,
            "unstable" => HealthState::Unstable,
            _ => return None,
        })
    }
}

impl fmt::Display for HealthState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Why the health analyzer changed its verdict, as carried by
/// [`TraceEventKind::HealthTransition`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HealthReason {
    /// No observed-work delta past the stall window.
    Stall,
    /// Estimate refinements flipped direction (or diverged) too often.
    Oscillation,
    /// The smoothed ETA swung by more than the volatility threshold across
    /// consecutive samples.
    EtaVolatility,
    /// Conditions cleared; the query is behaving again.
    Recovered,
}

impl HealthReason {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            HealthReason::Stall => "stall",
            HealthReason::Oscillation => "oscillation",
            HealthReason::EtaVolatility => "eta_volatility",
            HealthReason::Recovered => "recovered",
        }
    }

    /// Inverse of [`HealthReason::name`], used by the trace replay parser.
    pub fn from_name(name: &str) -> Option<HealthReason> {
        Some(match name {
            "stall" => HealthReason::Stall,
            "oscillation" => HealthReason::Oscillation,
            "eta_volatility" => HealthReason::EtaVolatility,
            "recovered" => HealthReason::Recovered,
            _ => return None,
        })
    }
}

impl fmt::Display for HealthReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which progress-quality metric regressed against its corpus baseline, as
/// carried by [`TraceEventKind::RegressionDetected`]. Computed by the
/// `obs::corpus` regression engine when a completed run's scorecard is
/// compared against rolling median/MAD baselines for the same
/// (workload, estimator, threads) key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegressionKind {
    /// Mean absolute progress error vs the retrospective oracle grew.
    MeanAbsErr,
    /// The estimate converged later (larger fraction of the run elapsed
    /// before entering the convergence band, 1.0 = never converged).
    Convergence,
    /// The progress fraction moved backwards more often.
    Monotonicity,
    /// The run's wall time grew.
    WallTime,
}

impl RegressionKind {
    /// Stable lowercase name (used by the JSONL sink, metrics labels, and
    /// the monitor's history rendering).
    pub fn name(self) -> &'static str {
        match self {
            RegressionKind::MeanAbsErr => "mean_abs_err",
            RegressionKind::Convergence => "convergence",
            RegressionKind::Monotonicity => "monotonicity",
            RegressionKind::WallTime => "wall_time",
        }
    }

    /// Inverse of [`RegressionKind::name`], used by the trace replay parser.
    pub fn from_name(name: &str) -> Option<RegressionKind> {
        Some(match name {
            "mean_abs_err" => RegressionKind::MeanAbsErr,
            "convergence" => RegressionKind::Convergence,
            "monotonicity" => RegressionKind::Monotonicity,
            "wall_time" => RegressionKind::WallTime,
            _ => return None,
        })
    }
}

impl fmt::Display for RegressionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The event taxonomy. `op` fields are metrics-registry indices (resolve
/// names through the registry); `pipeline` fields are pipeline ids from the
/// plan's pipeline decomposition. Events are plain `Copy` data so sinks can
/// buffer them without allocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEventKind {
    /// A pipeline moved from pending to running (observer-derived, so the
    /// timestamp is accurate to the monitor's sampling cadence).
    PipelineStarted { pipeline: u32 },
    /// Every operator of a pipeline finished (observer-derived).
    PipelineFinished { pipeline: u32 },
    /// A blocking operator crossed a phase boundary (build→probe,
    /// sort→merge, ...). Published synchronously by the operator.
    PhaseTransition { op: u32, from: Phase, to: Phase },
    /// An operator's lifetime-total estimate `N_i` changed materially.
    /// `old` is NaN for the very first (optimizer) publication.
    EstimateRefined {
        op: u32,
        old: f64,
        new: f64,
        source: EstimateSource,
    },
    /// An operator published a confidence interval on `N_i`.
    BoundsRefined { op: u32, lo: f64, hi: f64 },
    /// An operator returned `None`; `emitted` is its exact `K_i = N_i`.
    OperatorFinished { op: u32, emitted: u64 },
    /// The query's root operator is exhausted.
    QueryFinished { rows: u64 },
    /// The query terminated *without* exhausting its root operator —
    /// cancelled, past deadline, over budget, panicked, or errored. `rows`
    /// is how many rows the driver had consumed when it stopped. Terminal:
    /// at most one of `QueryFinished` / `QueryAborted` is published per
    /// query.
    QueryAborted { reason: AbortKind, rows: u64 },
    /// An operator's estimator fell back to a cheaper rung on the
    /// degradation ladder (e.g. exact frequency histogram → dne baseline)
    /// after breaching a resource budget; progress estimates continue but
    /// coarser.
    EstimatorDegraded { op: u32, reason: DegradeReason },
    /// A periodic `gnm` progress snapshot, published by the timeline
    /// recorder when it is bus-attached. Makes a recorded trace
    /// self-sufficient for post-hoc quality scoring (replay needs no live
    /// tracker): `fraction = current / total` with the estimator's current
    /// `ΣN_i`, and `[lo, hi]` the bounds-derived progress interval.
    ProgressSampled {
        /// `ΣK_i` — total work done across monitored operators.
        current: u64,
        /// `ΣN_i` — estimated total work (NaN when unknown).
        total: f64,
        /// `current / total`, clamped to `[0, 1]`.
        fraction: f64,
        /// Lower progress bound (NaN when no bounds are published).
        lo: f64,
        /// Upper progress bound (NaN when no bounds are published).
        hi: f64,
    },
    /// An operator's observed active wall-time span, stamped when it
    /// finishes. `wall_us` is the *inclusive* span from the operator's
    /// first to last observed unit of work (like `EXPLAIN ANALYZE`
    /// inclusive time: a parent's span contains its children's), measured
    /// by `Instant` reads amortized over the governor's 64-checkpoint
    /// stride.
    OperatorWallTime { op: u32, wall_us: u64 },
    /// One worker thread's busy time inside an operator's partition-parallel
    /// phases, published when the operator's parallel preprocessing
    /// completes. `worker` is the task index within the operator's pool;
    /// `busy_us` is wall time the worker spent executing (build + probe
    /// drains combined). Never published by serial execution, so
    /// single-threaded traces are byte-identical to pre-parallel builds.
    WorkerWallTime { op: u32, worker: u32, busy_us: u64 },
    /// The progress-health analyzer changed its verdict about the query
    /// (Healthy ↔ Stalled / Unstable). Published by the `obs::health`
    /// analyzer from the monitor's sampling thread — never from the query
    /// thread — and never published at all unless a health analyzer is
    /// attached, so plain traces stay byte-identical to pre-health builds.
    HealthTransition {
        from: HealthState,
        to: HealthState,
        reason: HealthReason,
    },
    /// A completed run's progress-quality scorecard regressed against the
    /// rolling corpus baseline for its (workload, estimator, threads) key.
    /// Published by the `obs::corpus` archival sink at terminal time — never
    /// unless a corpus is attached, so plain traces stay byte-identical to
    /// pre-corpus builds. `observed` exceeded `threshold`, which was derived
    /// from `baseline` (the rolling median) plus a MAD-scaled margin.
    RegressionDetected {
        kind: RegressionKind,
        observed: f64,
        baseline: f64,
        threshold: f64,
    },
    /// A causal lifecycle span opened. `span` is unique within the emitting
    /// stream, `parent` names the enclosing span
    /// ([`NO_PARENT`](crate::span::NO_PARENT) for the root), and `arg`
    /// qualifies the kind (see [`SpanKind`](crate::span::SpanKind)).
    /// Emitted by the query service's lifecycle instrumentation — never by
    /// execution operators, whose span detail is derived from the events
    /// they already publish — so the traced hot path gains no new atomics.
    SpanStart {
        span: u32,
        parent: u32,
        kind: crate::span::SpanKind,
        arg: u32,
    },
    /// The span opened by the matching [`SpanStart`](Self::SpanStart)
    /// closed; its duration is `at_us(end) - at_us(start)`.
    SpanEnd { span: u32 },
}

/// A timestamped, globally ordered trace event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Publication order across the whole bus (contiguous from 0 unless
    /// sinks drop on overflow).
    pub seq: u64,
    /// Microseconds since the bus was created.
    pub at_us: u64,
    /// What happened.
    pub kind: TraceEventKind,
}

/// A trace consumer. Implementations must be cheap and non-blocking on
/// `publish` — it runs synchronously on the query thread (though only at
/// phase boundaries / refinements).
pub trait TraceSink: Send + Sync {
    /// Consume one event.
    fn publish(&self, event: &TraceEvent);
}

/// The event bus: a timestamp epoch, a sequence counter, and an immutable
/// set of sinks. Publishing takes no locks — one atomic fetch-add for the
/// sequence number plus whatever each sink does.
pub struct EventBus {
    epoch: Instant,
    seq: std::sync::atomic::AtomicU64,
    sinks: Vec<Arc<dyn TraceSink>>,
}

impl fmt::Debug for EventBus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventBus")
            .field("sinks", &self.sinks.len())
            .field(
                "published",
                &self.seq.load(std::sync::atomic::Ordering::Relaxed),
            )
            .finish()
    }
}

impl EventBus {
    /// Start building a bus.
    pub fn builder() -> EventBusBuilder {
        EventBusBuilder { sinks: Vec::new() }
    }

    /// Shorthand for a bus with exactly one sink.
    pub fn with_sink(sink: Arc<dyn TraceSink>) -> Arc<EventBus> {
        EventBus::builder().sink(sink).build()
    }

    /// Stamp and fan `kind` out to every sink.
    pub fn publish(&self, kind: TraceEventKind) {
        let event = TraceEvent {
            seq: self.seq.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            at_us: self.epoch.elapsed().as_micros() as u64,
            kind,
        };
        for sink in &self.sinks {
            sink.publish(&event);
        }
    }

    /// Total events published so far.
    pub fn published(&self) -> u64 {
        self.seq.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// The attached sinks (shareable: a caller composing a derived bus —
    /// e.g. a session adding metrics/monitor sinks per query — clones these
    /// so events are stamped once and fan out to every consumer).
    pub fn sinks(&self) -> &[Arc<dyn TraceSink>] {
        &self.sinks
    }

    /// The bus creation instant (`at_us` timestamps are relative to it).
    pub fn epoch(&self) -> Instant {
        self.epoch
    }
}

/// Builder for [`EventBus`].
pub struct EventBusBuilder {
    sinks: Vec<Arc<dyn TraceSink>>,
}

impl EventBusBuilder {
    /// Attach a sink.
    pub fn sink(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.sinks.push(sink);
        self
    }

    /// Finish, producing a shareable bus.
    pub fn build(self) -> Arc<EventBus> {
        Arc::new(EventBus {
            epoch: Instant::now(),
            seq: std::sync::atomic::AtomicU64::new(0),
            sinks: self.sinks,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::Mutex;

    struct VecSink(Mutex<Vec<TraceEvent>>);
    impl TraceSink for VecSink {
        fn publish(&self, event: &TraceEvent) {
            self.0.lock().push(*event);
        }
    }

    const KINDS: [AbortKind; 6] = [
        AbortKind::Cancelled,
        AbortKind::DeadlineExceeded,
        AbortKind::BudgetExceeded,
        AbortKind::OperatorPanic,
        AbortKind::Injected,
        AbortKind::Error,
    ];

    fn every_lifecycle() -> Vec<Lifecycle> {
        let mut all = vec![Lifecycle::Queued, Lifecycle::Running, Lifecycle::Done];
        for k in KINDS {
            all.push(Lifecycle::Retrying(k));
            all.push(Lifecycle::Failed(k));
        }
        all
    }

    #[test]
    fn lifecycle_transitions_follow_the_table_for_every_pair() {
        use Lifecycle::*;
        let all = every_lifecycle();
        let mut legal = 0;
        for &from in &all {
            for &to in &all {
                // The table in the type docs, row by row.
                let expected = match (from, to) {
                    (Done | Failed(_), _) => false,
                    (_, Queued) => false,
                    (_, Done) => from == Running,
                    (Queued | Running | Retrying(_), Running | Retrying(_) | Failed(_)) => true,
                };
                let got = from.transition(to);
                assert_eq!(got.is_ok(), expected, "{from:?} -> {to:?}");
                match got {
                    Ok(next) => {
                        assert_eq!(next, to);
                        legal += 1;
                    }
                    Err(e) => assert_eq!(e, IllegalTransition { from, to }),
                }
            }
        }
        // 8 live sources (Queued, Running, 6 Retrying) × 13 targets (Running,
        // 6 Retrying, 6 Failed), plus Running → Done.
        assert_eq!(legal, 8 * 13 + 1);
        // The moves the query service makes outside the happy path.
        assert!(Queued.transition(Retrying(AbortKind::Injected)).is_ok());
        assert!(Retrying(AbortKind::Injected)
            .transition(Retrying(AbortKind::OperatorPanic))
            .is_ok());
        assert!(Queued.transition(Failed(AbortKind::Cancelled)).is_ok());
        assert!(Retrying(AbortKind::Injected)
            .transition(Failed(AbortKind::DeadlineExceeded))
            .is_ok());
    }

    #[test]
    fn lifecycle_names_and_terminal_labels() {
        let names: Vec<&str> = [
            Lifecycle::Queued,
            Lifecycle::Running,
            Lifecycle::Retrying(AbortKind::Injected),
            Lifecycle::Done,
            Lifecycle::Failed(AbortKind::Injected),
        ]
        .iter()
        .map(|l| l.name())
        .collect();
        assert_eq!(names, ["queued", "running", "retrying", "done", "failed"]);
        assert_eq!(Lifecycle::Done.terminal_label(), "finished");
        for k in KINDS {
            assert_eq!(Lifecycle::Failed(k).terminal_label(), k.name());
            assert_eq!(Lifecycle::Failed(k).failure(), Some(k));
            assert_eq!(Lifecycle::Retrying(k).failure(), Some(k));
        }
        for l in every_lifecycle() {
            let back = Lifecycle::from_terminal_label(l.terminal_label());
            let expected = if l.is_terminal() {
                l
            } else {
                Lifecycle::Running
            };
            assert_eq!(back, Some(expected), "{l:?}");
        }
        assert_eq!(Lifecycle::Queued.terminal_label(), "unknown");
        assert_eq!(Lifecycle::from_terminal_label("done"), None);
        assert_eq!(Lifecycle::from_terminal_label("running"), None);
        assert_eq!(Lifecycle::from_terminal_label(""), None);
    }

    #[test]
    fn only_injected_faults_and_panics_are_transient() {
        let transient: Vec<AbortKind> = KINDS.into_iter().filter(|k| k.is_transient()).collect();
        assert_eq!(
            transient,
            [AbortKind::OperatorPanic, AbortKind::Injected],
            "cancel, deadline, budget and organic errors never retry"
        );
    }

    #[test]
    fn events_are_stamped_in_order() {
        let sink = Arc::new(VecSink(Mutex::new(Vec::new())));
        let bus = EventBus::with_sink(Arc::clone(&sink) as Arc<dyn TraceSink>);
        for i in 0..5u64 {
            bus.publish(TraceEventKind::QueryFinished { rows: i });
        }
        let events = sink.0.lock();
        assert_eq!(events.len(), 5);
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
            assert_eq!(e.kind, TraceEventKind::QueryFinished { rows: i as u64 });
        }
        assert!(events.windows(2).all(|w| w[0].at_us <= w[1].at_us));
        assert_eq!(bus.published(), 5);
    }

    #[test]
    fn fans_out_to_all_sinks() {
        let a = Arc::new(VecSink(Mutex::new(Vec::new())));
        let b = Arc::new(VecSink(Mutex::new(Vec::new())));
        let bus = EventBus::builder()
            .sink(Arc::clone(&a) as Arc<dyn TraceSink>)
            .sink(Arc::clone(&b) as Arc<dyn TraceSink>)
            .build();
        bus.publish(TraceEventKind::PipelineStarted { pipeline: 3 });
        assert_eq!(a.0.lock().len(), 1);
        assert_eq!(b.0.lock().len(), 1);
    }

    #[test]
    fn concurrent_publication_yields_unique_seqs() {
        let sink = Arc::new(VecSink(Mutex::new(Vec::new())));
        let bus = EventBus::with_sink(Arc::clone(&sink) as Arc<dyn TraceSink>);
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let bus = Arc::clone(&bus);
                std::thread::spawn(move || {
                    for _ in 0..250 {
                        bus.publish(TraceEventKind::QueryFinished { rows: 0 });
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let mut seqs: Vec<u64> = sink.0.lock().iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (0..1000).collect::<Vec<_>>());
    }
}
