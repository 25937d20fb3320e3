//! # qprog — A Lightweight Online Framework for Query Progress Indicators
//!
//! `qprog` is a from-scratch Rust reproduction of Mishra & Koudas,
//! *"A Lightweight Online Framework For Query Progress Indicators"*
//! (ICDE 2007). It bundles:
//!
//! - a miniature Volcano-style relational engine with phase-structured
//!   operators (grace hash join, sort-merge join, hash aggregation, ...)
//!   instrumented with `getnext()` counters ([`exec`], [`storage`]),
//! - a planner with deliberately optimizer-grade (i.e. skew-blind)
//!   cardinality estimates and pipeline decomposition ([`plan`]),
//! - the paper's **online estimation framework**: incremental join-size
//!   estimators pushed into partitioning/sorting phases, pipeline push-down
//!   (Algorithm 1), the GEE and MLE distinct-value estimators with the
//!   γ²-based online chooser, and the *gnm* progress monitor, plus the
//!   `dne` and `byte` baselines it is evaluated against ([`core`]),
//! - Zipfian TPC-H-lite data generation matching the paper's evaluation
//!   ([`datagen`]) and a small SQL front end ([`sql`]),
//! - an observability stack: execution event tracing with EXPLAIN ANALYZE
//!   ([`obs`]), a lock-cheap metrics registry with Prometheus text
//!   exposition ([`metrics`]), and a std-only live monitor HTTP server
//!   with a progress dashboard, server-push SSE streaming, per-query
//!   health detection (stall / drift / ETA volatility) for concurrent
//!   queries, and a run-history API over a persistent trace corpus with
//!   automatic progress-quality regression detection ([`monitor`]).
//!
//! ## Quickstart
//!
//! ```
//! use qprog::prelude::*;
//!
//! // Generate a small skewed customer table and register it.
//! let mut catalog = Catalog::new();
//! let customer = qprog::datagen::customer_table("customer", 10_000, 1.0, 200, 1);
//! catalog.register(customer).unwrap();
//! let nation = qprog::datagen::nation_table("nation", 200);
//! catalog.register(nation).unwrap();
//!
//! // Run a join with a live progress monitor.
//! let session = Session::new(catalog);
//! let mut handle = session
//!     .query("SELECT count(*) FROM customer JOIN nation ON customer.nationkey = nation.nationkey")
//!     .unwrap();
//! let rows = handle.run(RunOptions::new().observer(|progress| {
//!     assert!((0.0..=1.0).contains(&progress.fraction()));
//! })).unwrap();
//! assert_eq!(rows.len(), 1);
//! ```

pub use qprog_core as core;
pub use qprog_datagen as datagen;
pub use qprog_exec as exec;
pub use qprog_metrics as metrics;
pub use qprog_monitor as monitor;
pub use qprog_obs as obs;
pub use qprog_plan as plan;
pub use qprog_sql as sql;
pub use qprog_storage as storage;
pub use qprog_types as types;

pub mod service;
mod session;
pub mod workloads;

pub use qprog_fault as fault;
pub use qprog_service as svc;
pub use service::ServiceRuntime;
pub use session::{
    Observability, ProgressWatcher, QueryHandle, RunOptions, Session, SessionBuilder,
};

/// Commonly used items, for glob import in examples and tests.
pub mod prelude {
    pub use crate::service::ServiceRuntime;
    pub use crate::session::{
        Observability, ProgressWatcher, QueryHandle, RunOptions, Session, SessionBuilder,
    };
    pub use qprog_core::gnm::ProgressSnapshot;
    pub use qprog_core::EstimationMode;
    pub use qprog_exec::governor::{Budgets, CancellationToken, Governor};
    pub use qprog_exec::trace::{
        AbortKind, DegradeReason, EventBus, HealthReason, HealthState, Lifecycle, TraceEvent,
        TraceSink,
    };
    pub use qprog_metrics::Registry;
    pub use qprog_monitor::{MonitorServer, StreamHub, StreamNext};
    pub use qprog_obs::{
        explain_analyze, ArchivedRun, Corpus, CorpusConfig, HealthAnalyzer, HealthConfig,
        JsonlSink, MetricsSink, ProgressLog, RegressionConfig, RingSink, RunMeta, RunRecord,
        StderrSink, TimelineRecorder, ValidatorSink,
    };
    pub use qprog_plan::builder::PlanBuilder;
    pub use qprog_plan::physical::PhysicalOptions;
    pub use qprog_service::{
        AdmissionConfig, CancelOutcome, JobStatus, QueryService, RetryPolicy, ServiceConfig,
        SubmitError, SubmitRequest, Ticket,
    };
    pub use qprog_storage::{Catalog, Table};
    pub use qprog_types::{DataType, ExecError, Field, Key, QError, QResult, Row, Schema, Value};
}
