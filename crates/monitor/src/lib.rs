//! Live progress monitoring for concurrent qprog queries.
//!
//! The paper's framework is *online*: a progress estimate is only useful if
//! someone can watch it while the query runs. This crate serves that view
//! over plain HTTP using nothing but `std::net`:
//!
//! - [`directory`] — a [`QueryDirectory`] where
//!   live queries register a cloneable
//!   [`ProgressTracker`](qprog_plan::ProgressTracker) plus a
//!   [`PhaseSink`] (last observed phase per
//!   operator), and unregister automatically when their registration token
//!   drops;
//! - [`server`] — a threaded [`MonitorServer`] on
//!   `std::net::TcpListener` answering
//!   `GET /metrics` (Prometheus text from an attached
//!   [`qprog_metrics::Registry`]), `GET /progress` and
//!   `GET /progress/{query_id}` (JSON: whole-query `C/T` with `[lo, hi]`
//!   bounds and per-operator `K_i`/`N_i`/phase), and `GET /` (a
//!   self-contained HTML dashboard polling the JSON endpoints);
//! - [`http`] — the minimal HTTP/1.1 request parsing and response writing
//!   underneath, shared by the server and its tests;
//! - [`hub`] — the server-push [`StreamHub`] behind
//!   `GET /progress/{id}/stream` and the `GET /events` firehose: each
//!   broadcast tick encodes a query's progress **once** and fans the frame
//!   out to every `text/event-stream` subscriber through bounded queues
//!   (slow readers drop stale progress frames and are eventually evicted;
//!   terminal frames are never dropped);
//! - [`eta`] — the [`EtaSmoother`] turning the raw
//!   `elapsed × (1 − p) / p` remaining-time formula into a stable number.
//!
//! Everything is observer-side: sampling a tracker is a handful of relaxed
//! atomic loads, and a query that never registers pays nothing.

pub mod dashboard;
pub mod directory;
pub mod eta;
pub mod http;
pub mod hub;
pub mod server;
pub mod service;

// The submit/queue/dispatch service this crate fronts (`POST /submit`);
// re-exported so monitor users need only one dependency.
pub use qprog_service;

pub use directory::{MonitoredQuery, PhaseSink, QueryDirectory};
pub use eta::EtaSmoother;
pub use hub::{StreamHub, StreamNext, StreamSubscriber};
pub use server::{MonitorServer, ServerConfig};
pub use service::DirectoryObserver;
