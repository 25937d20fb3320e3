//! Fundamental data types shared by every `qprog` crate.
//!
//! This crate defines the dynamically typed [`Value`], the [`Row`] tuple
//! representation flowing between operators, [`Schema`]/[`Field`] metadata,
//! the hashable/equatable [`Key`] used for join and grouping attributes, and
//! the crate-wide [`QError`]/[`QResult`] error types, plus the workspace's
//! one JSON string codec ([`json`]).
//!
//! It deliberately has no dependencies: everything above it (storage,
//! execution, planning, the estimation framework) builds on these types.

pub mod batch;
pub mod error;
pub mod json;
pub mod key;
pub mod row;
pub mod schema;
pub mod value;

pub use batch::{BatchStatus, RowBatch, DEFAULT_BATCH_ROWS};
pub use error::{ExecError, QError, QResult};
pub use key::{CompositeKey, Key};
pub use row::Row;
pub use schema::{Field, Schema, SchemaRef};
pub use value::{DataType, Value};
