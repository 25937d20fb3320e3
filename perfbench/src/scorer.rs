//! Deterministic progress error from budget checkpoints.
//!
//! The query runs once with an armed but unreachable row budget, which
//! makes the governor count its checkpoint units `U`; the final tracker
//! snapshot gives the exact driver work `C_final`. It then runs again at
//! each budget `k·U/20` (k = 1..19) until the governor stops it with
//! `BudgetExceeded`, and the tracker's snapshot at that stop is one
//! checkpoint: actual progress `current / C_final` against the estimate
//! `fraction()`. The stops are fixed by work done, not by a timer, so with
//! one thread the same inputs give bit-identical errors on every run.

use qprog::plan::physical::{compile, PhysicalOptions};
use qprog::plan::LogicalPlan;
use qprog::types::{ExecError, QError, QResult};

/// Checkpoints per query: budgets at 1/20 … 19/20 of the query's work.
pub const CHECKPOINTS: u64 = 19;

/// One checkpoint of a progress trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Checkpoint {
    /// Exact share of the query's driver work done at the stop.
    pub actual: f64,
    /// The progress indicator's estimate at the stop.
    pub estimate: f64,
}

/// A query's checkpoint trajectory and the exact work counts behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    /// Governor checkpoint units of the full run (`U`).
    pub units: u64,
    /// Driver tuples of the full run (`C_final`).
    pub driver_tuples: u64,
    /// The checkpoints, in budget order.
    pub points: Vec<Checkpoint>,
}

/// Mean and worst absolute progress error over a set of checkpoints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgressError {
    /// Mean `|estimate − actual|`.
    pub mae: f64,
    /// Largest `|estimate − actual|`.
    pub max: f64,
}

/// Score checkpoints (non-empty).
pub fn score(points: &[Checkpoint]) -> ProgressError {
    assert!(!points.is_empty(), "no checkpoints to score");
    let errors: Vec<f64> = points
        .iter()
        .map(|p| (p.estimate - p.actual).abs())
        .collect();
    ProgressError {
        mae: errors.iter().sum::<f64>() / errors.len() as f64,
        max: errors.iter().copied().fold(0.0, f64::max),
    }
}

/// `actual→estimate` per checkpoint, for the human-readable report.
pub fn describe(points: &[Checkpoint]) -> String {
    points
        .iter()
        .map(|p| format!("{:.2}→{:.2}", p.actual, p.estimate))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Row budget of checkpoint `k` for a query of `units` checkpoint units.
pub fn budget(units: u64, k: u64) -> u64 {
    (u128::from(units) * u128::from(k) / 20) as u64
}

/// Run `plan` under `opts` to its budget checkpoints.
pub fn measure(plan: &LogicalPlan, opts: &PhysicalOptions) -> QResult<Trajectory> {
    let armed = PhysicalOptions {
        max_rows: Some(u64::MAX),
        ..*opts
    };
    let mut full = compile(plan, &armed)?;
    let tracker = full.tracker();
    full.collect()?;
    let units = full
        .governor()
        .expect("compiled queries carry a governor")
        .units();
    let driver_tuples = tracker.snapshot().current();
    if units == 0 || driver_tuples == 0 {
        return Err(QError::internal("checkpoint scorer: the query did no work"));
    }
    let mut points = Vec::with_capacity(CHECKPOINTS as usize);
    for k in 1..=CHECKPOINTS {
        let capped = PhysicalOptions {
            max_rows: Some(budget(units, k)),
            ..*opts
        };
        let mut q = compile(plan, &capped)?;
        let tracker = q.tracker();
        match q.collect() {
            Err(QError::Lifecycle(ExecError::BudgetExceeded(_))) => {}
            Err(e) => return Err(e),
            Ok(_) => {
                return Err(QError::internal(format!(
                    "checkpoint scorer: the query finished within budget {k}/20"
                )))
            }
        }
        let snap = tracker.snapshot();
        points.push(Checkpoint {
            actual: snap.current() as f64 / driver_tuples as f64,
            estimate: snap.fraction(),
        });
    }
    Ok(Trajectory {
        units,
        driver_tuples,
        points,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scores_a_hand_made_trajectory() {
        let points = [
            Checkpoint {
                actual: 0.25,
                estimate: 0.5,
            },
            Checkpoint {
                actual: 0.5,
                estimate: 0.5,
            },
            Checkpoint {
                actual: 0.75,
                estimate: 0.625,
            },
        ];
        let e = score(&points);
        assert_eq!(e.mae, (0.25 + 0.0 + 0.125) / 3.0);
        assert_eq!(e.max, 0.25);
    }

    #[test]
    fn two_runs_give_bit_identical_errors() {
        use crate::workload::{options, DataSpec, BATCH_ROWS};
        use qprog::core::EstimationMode;
        let catalog = DataSpec {
            scale: 0.002,
            skew: 2.0,
        }
        .generate(88)
        .unwrap();
        let builder = qprog::plan::PlanBuilder::new(catalog);
        let plan = qprog::workloads::q8_plan(&builder).unwrap();
        let opts = options(88, EstimationMode::Once, BATCH_ROWS);
        let a = measure(&plan, &opts).unwrap();
        let b = measure(&plan, &opts).unwrap();
        assert_eq!(a.points.len(), CHECKPOINTS as usize);
        assert_eq!(a, b);
        let (ea, eb) = (score(&a.points), score(&b.points));
        assert_eq!(ea.mae.to_bits(), eb.mae.to_bits());
        assert_eq!(ea.max.to_bits(), eb.max.to_bits());
        assert!(a.points.windows(2).all(|w| w[0].actual <= w[1].actual));
    }

    #[test]
    fn budgets_split_the_work_in_twentieths() {
        assert_eq!(budget(200, 1), 10);
        assert_eq!(budget(200, 19), 190);
        assert_eq!(
            budget(u64::MAX, 19),
            (u128::from(u64::MAX) * 19 / 20) as u64
        );
    }
}
