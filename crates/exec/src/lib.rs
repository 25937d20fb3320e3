//! Volcano-style, instrumented execution engine.
//!
//! Every operator implements [`Operator::next_batch`]; each tuple in a batch
//! is one `getnext()` event, precisely what the gnm progress model counts.
//! Operators publish per-operator counters through lock-free
//! [`metrics::OpMetrics`] handles so a monitor (same thread or another) can
//! observe `K_i` and the current `N_i` estimate at any time.
//!
//! The operators reproduce the *phase structure* the paper's estimators
//! rely on:
//!
//! - [`ops::hash_join::HashJoin`] is a grace-style partitioned join: the
//!   build input is fully consumed and partitioned, then the probe input is
//!   fully consumed and partitioned (this is where `once` estimation runs
//!   and converges), and only then are partitions joined pairwise — so the
//!   output is clustered by key, the reordering that defeats the dne/byte
//!   baselines (paper Fig. 4).
//! - [`ops::merge_join::MergeJoin`] sorts both inputs up front (estimation
//!   runs in the two sort phases) and merges, again emitting key-clustered
//!   output.
//! - [`ops::agg::HashAggregate`] consumes its whole input into groups
//!   (distinct-value estimation runs here) before emitting.

pub mod expr;
pub mod governor;
pub mod metrics;
pub mod ops;
pub mod parallel;
pub mod runtime;
pub mod span;
pub mod sync;
pub mod trace;

pub use expr::{BinOp, Expr};
pub use governor::{Budgets, CancellationToken, Governor};
pub use metrics::{MetricsRegistry, OpMetrics};
pub use ops::{BoxedOp, Operator};
pub use runtime::{collect, run_with_observer};
