//! Plan execution drivers.
//!
//! Both drivers run inside [`crate::governor::guarded`], a single
//! `catch_unwind` boundary around the whole drain loop: a panic anywhere
//! below the root surfaces as
//! [`ExecError::OperatorPanic`](qprog_types::ExecError) through the normal
//! `QResult` channel instead of unwinding through the caller.
//! The boundary wraps the loop, not each `next_batch()`, so the per-batch
//! path stays free of unwind machinery.

use qprog_types::{QResult, Row, RowBatch};

use crate::governor::guarded;
use crate::ops::Operator;

/// Drain an operator to completion, collecting all output rows.
/// `batch_rows` is the root batch capacity (1 = strict tuple-at-a-time
/// equivalence mode).
pub fn collect(op: &mut dyn Operator, batch_rows: usize) -> QResult<Vec<Row>> {
    let arity = op.schema().arity();
    guarded(|| {
        let mut out = Vec::new();
        let mut batch = RowBatch::with_capacity(arity, batch_rows);
        loop {
            let status = op.next_batch(&mut batch)?;
            batch.append_rows_to(&mut out);
            if status.is_exhausted() {
                break;
            }
        }
        Ok(out)
    })
}

/// Drain an operator, invoking `observer(rows_so_far)` at every `every_n`-th
/// output row and once more at completion — the hook progress monitors and
/// experiment harnesses use to snapshot estimates at a fixed cadence without
/// threading. A batch that crosses several multiples of `every_n` fires the
/// observer once per crossed multiple, so the cadence is independent of
/// `batch_rows`.
pub fn run_with_observer(
    op: &mut dyn Operator,
    every_n: u64,
    batch_rows: usize,
    mut observer: impl FnMut(u64),
) -> QResult<Vec<Row>> {
    let every_n = every_n.max(1);
    let arity = op.schema().arity();
    guarded(move || {
        let mut out = Vec::new();
        let mut batch = RowBatch::with_capacity(arity, batch_rows);
        let mut n: u64 = 0;
        let mut next_fire = every_n;
        loop {
            let status = op.next_batch(&mut batch)?;
            n += batch.len() as u64;
            batch.append_rows_to(&mut out);
            while next_fire <= n {
                observer(next_fire);
                next_fire += every_n;
            }
            if status.is_exhausted() {
                break;
            }
        }
        observer(n);
        Ok(out)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::OpMetrics;
    use crate::ops::test_util::int_table;
    use crate::ops::TableScan;

    #[test]
    fn collect_drains_everything() {
        let t = int_table("t", "a", &[1, 2, 3]).into_shared();
        let mut s = TableScan::new(t, OpMetrics::with_initial_estimate(0.0));
        assert_eq!(collect(&mut s, 1).unwrap().len(), 3);
        let t2 = int_table("t", "a", &[1, 2, 3]).into_shared();
        let mut s2 = TableScan::new(t2, OpMetrics::with_initial_estimate(0.0));
        assert_eq!(collect(&mut s2, 1024).unwrap().len(), 3);
    }

    #[test]
    fn observer_fires_at_cadence_and_completion() {
        for batch_rows in [1usize, 3, 1024] {
            let vals: Vec<i64> = (0..10).collect();
            let t = int_table("t", "a", &vals).into_shared();
            let mut s = TableScan::new(t, OpMetrics::with_initial_estimate(0.0));
            let mut calls = Vec::new();
            let rows = run_with_observer(&mut s, 4, batch_rows, |n| calls.push(n)).unwrap();
            assert_eq!(rows.len(), 10);
            assert_eq!(calls, vec![4, 8, 10], "batch_rows={batch_rows}");
        }
    }

    #[test]
    fn operator_panic_is_isolated_as_typed_error() {
        use qprog_types::{BatchStatus, ExecError, QError, SchemaRef};
        use std::sync::Arc;

        struct Bomb {
            schema: SchemaRef,
        }
        impl Operator for Bomb {
            fn schema(&self) -> SchemaRef {
                Arc::clone(&self.schema)
            }
            fn next_batch(&mut self, _out: &mut RowBatch) -> QResult<BatchStatus> {
                panic!("wired to explode");
            }
            fn name(&self) -> &str {
                "bomb"
            }
        }

        let t = int_table("t", "a", &[1]);
        let mut bomb = Bomb {
            schema: Arc::clone(t.schema()),
        };
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // silence the expected panic
        let err = collect(&mut bomb, 1).unwrap_err();
        std::panic::set_hook(hook);
        match err {
            QError::Lifecycle(ExecError::OperatorPanic(m)) => {
                assert!(m.contains("wired to explode"), "{m}")
            }
            other => panic!("expected OperatorPanic, got {other:?}"),
        }
    }

    #[test]
    fn observer_zero_cadence_clamped() {
        let t = int_table("t", "a", &[1]).into_shared();
        let mut s = TableScan::new(t, OpMetrics::with_initial_estimate(0.0));
        let mut calls = 0;
        run_with_observer(&mut s, 0, 1, |_| calls += 1).unwrap();
        assert_eq!(calls, 2); // after row 1 and at completion
    }
}
