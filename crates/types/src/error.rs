//! Error handling for the `qprog` workspace.

use std::fmt;

/// Convenient result alias used across the workspace.
pub type QResult<T> = Result<T, QError>;

/// The unified error type for all `qprog` crates.
///
/// Lower layers construct the structured variants; the `Internal` variant is
/// reserved for invariant violations that indicate a bug rather than bad
/// input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QError {
    /// A schema lookup failed (unknown column or ambiguous reference).
    Schema(String),
    /// A value had an unexpected type for the requested operation.
    Type(String),
    /// The catalog has no table with the given name.
    TableNotFound(String),
    /// SQL text failed to lex or parse.
    Parse(String),
    /// A logical plan could not be bound or physically planned.
    Plan(String),
    /// A runtime execution failure (e.g. division by zero).
    Execution(String),
    /// An estimator was configured or driven incorrectly.
    Estimation(String),
    /// Invariant violation — indicates a bug in qprog itself.
    Internal(String),
    /// A query-lifecycle event terminated execution (cancellation,
    /// deadline, budget breach, operator panic, or an injected fault).
    Lifecycle(ExecError),
}

/// The typed taxonomy of lifecycle terminations.
///
/// These are *expected* ways for a query to stop early — they carry enough
/// structure for the monitor and metrics layers to label terminal states
/// without parsing strings. They propagate through [`QResult`] wrapped in
/// [`QError::Lifecycle`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The query's `CancellationToken` was triggered.
    Cancelled,
    /// The wall-clock deadline attached to the query elapsed.
    DeadlineExceeded,
    /// A hard per-query resource budget was breached; the message names
    /// the budget and its limit.
    BudgetExceeded(String),
    /// An operator's `next()` (or a worker thread) panicked; the payload
    /// is the captured panic message.
    OperatorPanic(String),
    /// A fault-injection site fired (`--features failpoints` builds only);
    /// the payload names the site.
    Injected(String),
}

impl ExecError {
    /// Short stable label for metrics/monitor rendering.
    pub fn kind(&self) -> &'static str {
        match self {
            ExecError::Cancelled => "cancelled",
            ExecError::DeadlineExceeded => "deadline",
            ExecError::BudgetExceeded(_) => "budget",
            ExecError::OperatorPanic(_) => "panic",
            ExecError::Injected(_) => "injected",
        }
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Cancelled => write!(f, "query cancelled"),
            ExecError::DeadlineExceeded => write!(f, "query deadline exceeded"),
            ExecError::BudgetExceeded(m) => write!(f, "resource budget exceeded: {m}"),
            ExecError::OperatorPanic(m) => write!(f, "operator panicked: {m}"),
            ExecError::Injected(m) => write!(f, "injected fault: {m}"),
        }
    }
}

impl From<ExecError> for QError {
    fn from(e: ExecError) -> Self {
        QError::Lifecycle(e)
    }
}

impl QError {
    /// Build a [`QError::Schema`] from anything displayable.
    pub fn schema(msg: impl fmt::Display) -> Self {
        QError::Schema(msg.to_string())
    }

    /// Build a [`QError::Type`] from anything displayable.
    pub fn type_err(msg: impl fmt::Display) -> Self {
        QError::Type(msg.to_string())
    }

    /// Build a [`QError::Parse`] from anything displayable.
    pub fn parse(msg: impl fmt::Display) -> Self {
        QError::Parse(msg.to_string())
    }

    /// Build a [`QError::Plan`] from anything displayable.
    pub fn plan(msg: impl fmt::Display) -> Self {
        QError::Plan(msg.to_string())
    }

    /// Build a [`QError::Execution`] from anything displayable.
    pub fn exec(msg: impl fmt::Display) -> Self {
        QError::Execution(msg.to_string())
    }

    /// Build a [`QError::Estimation`] from anything displayable.
    pub fn estimation(msg: impl fmt::Display) -> Self {
        QError::Estimation(msg.to_string())
    }

    /// Build a [`QError::Internal`] from anything displayable.
    pub fn internal(msg: impl fmt::Display) -> Self {
        QError::Internal(msg.to_string())
    }

    /// Build a [`QError::Lifecycle`] cancellation.
    pub fn cancelled() -> Self {
        QError::Lifecycle(ExecError::Cancelled)
    }

    /// Build a [`QError::Lifecycle`] deadline expiry.
    pub fn deadline_exceeded() -> Self {
        QError::Lifecycle(ExecError::DeadlineExceeded)
    }

    /// Build a [`QError::Lifecycle`] budget breach.
    pub fn budget_exceeded(msg: impl fmt::Display) -> Self {
        QError::Lifecycle(ExecError::BudgetExceeded(msg.to_string()))
    }

    /// Build a [`QError::Lifecycle`] operator panic.
    pub fn operator_panic(msg: impl fmt::Display) -> Self {
        QError::Lifecycle(ExecError::OperatorPanic(msg.to_string()))
    }

    /// Build a [`QError::Lifecycle`] injected fault.
    pub fn injected(site: impl fmt::Display) -> Self {
        QError::Lifecycle(ExecError::Injected(site.to_string()))
    }

    /// The lifecycle termination carried by this error, if any.
    pub fn lifecycle(&self) -> Option<&ExecError> {
        match self {
            QError::Lifecycle(e) => Some(e),
            _ => None,
        }
    }

    /// True when this error is a cooperative cancellation.
    pub fn is_cancelled(&self) -> bool {
        matches!(self, QError::Lifecycle(ExecError::Cancelled))
    }
}

impl fmt::Display for QError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QError::Schema(m) => write!(f, "schema error: {m}"),
            QError::Type(m) => write!(f, "type error: {m}"),
            QError::TableNotFound(m) => write!(f, "table not found: {m}"),
            QError::Parse(m) => write!(f, "parse error: {m}"),
            QError::Plan(m) => write!(f, "plan error: {m}"),
            QError::Execution(m) => write!(f, "execution error: {m}"),
            QError::Estimation(m) => write!(f, "estimation error: {m}"),
            QError::Internal(m) => write!(f, "internal error (bug): {m}"),
            QError::Lifecycle(e) => write!(f, "lifecycle: {e}"),
        }
    }
}

impl std::error::Error for QError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_category_and_message() {
        let e = QError::schema("no column `x`");
        assert_eq!(e.to_string(), "schema error: no column `x`");
        let e = QError::TableNotFound("orders".into());
        assert_eq!(e.to_string(), "table not found: orders");
        let e = QError::internal("counter underflow");
        assert!(e.to_string().contains("bug"));
    }

    #[test]
    fn constructors_map_to_variants() {
        assert!(matches!(QError::type_err("x"), QError::Type(_)));
        assert!(matches!(QError::parse("x"), QError::Parse(_)));
        assert!(matches!(QError::plan("x"), QError::Plan(_)));
        assert!(matches!(QError::exec("x"), QError::Execution(_)));
        assert!(matches!(QError::estimation("x"), QError::Estimation(_)));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(QError::schema("a"), QError::schema("a"));
        assert_ne!(QError::schema("a"), QError::schema("b"));
        assert_ne!(QError::schema("a"), QError::plan("a"));
    }

    #[test]
    fn lifecycle_taxonomy_roundtrips() {
        let e = QError::cancelled();
        assert!(e.is_cancelled());
        assert_eq!(e.lifecycle().map(ExecError::kind), Some("cancelled"));
        assert_eq!(e.to_string(), "lifecycle: query cancelled");

        let e = QError::budget_exceeded("max_rows=100");
        assert!(!e.is_cancelled());
        assert_eq!(e.lifecycle().map(ExecError::kind), Some("budget"));
        assert!(e.to_string().contains("max_rows=100"));

        let e: QError = ExecError::OperatorPanic("boom".into()).into();
        assert_eq!(e.lifecycle().map(ExecError::kind), Some("panic"));
        assert_eq!(
            QError::deadline_exceeded().lifecycle().map(ExecError::kind),
            Some("deadline")
        );
        assert_eq!(
            QError::injected("exec/scan/next")
                .lifecycle()
                .map(ExecError::kind),
            Some("injected")
        );
        assert!(QError::schema("x").lifecycle().is_none());
    }
}
