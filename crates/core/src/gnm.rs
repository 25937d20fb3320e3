//! The `getnext()` model (gnm) of query progress (§3, §4.4).
//!
//! A query's progress is `C(Q)/T(Q)` where `C(Q) = Σ K_i` counts the
//! `getnext()` calls made so far over all operators and `T(Q) = Σ N_i` the
//! calls over the query's lifetime. `C(Q)` is observable; `T(Q)` is the sum
//! of per-pipeline totals `T(p)`:
//!
//! - **finished** pipelines: `T(p)` known exactly,
//! - the **running** pipeline: `T(p)` from the online estimators of this
//!   crate,
//! - **pending** pipelines: `T(p)` from refined optimizer estimates (as in
//!   Chaudhuri et al.).
//!
//! Every `T(p)` is clamped below by the work already observed. The
//! executor summarizes each pipeline into a [`PipelineProgress`] and hands
//! the set to [`ProgressSnapshot`], which does the gnm arithmetic.

/// Execution state of a pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PipelineState {
    /// All operators in the pipeline have completed.
    Finished,
    /// Currently executing.
    Running,
    /// Not yet started.
    Pending,
}

/// Progress summary for one pipeline.
#[derive(Debug, Clone)]
pub struct PipelineProgress {
    /// Pipeline identifier (assigned by the planner's decomposition).
    pub id: usize,
    /// Execution state.
    pub state: PipelineState,
    /// `C(p)`: `getnext()` calls made so far over the pipeline's operators.
    pub done: u64,
    /// `T(p)`: estimated total `getnext()` calls over the pipeline's
    /// lifetime (exact when finished).
    pub total_estimate: f64,
}

impl PipelineProgress {
    /// A finished pipeline with exact totals.
    pub fn finished(id: usize, total: u64) -> Self {
        PipelineProgress {
            id,
            state: PipelineState::Finished,
            done: total,
            total_estimate: total as f64,
        }
    }

    /// A running pipeline with an online total estimate.
    pub fn running(id: usize, done: u64, total_estimate: f64) -> Self {
        PipelineProgress {
            id,
            state: PipelineState::Running,
            done,
            total_estimate,
        }
    }

    /// A pending pipeline with an optimizer estimate.
    pub fn pending(id: usize, total_estimate: f64) -> Self {
        PipelineProgress {
            id,
            state: PipelineState::Pending,
            done: 0,
            total_estimate,
        }
    }

    /// `T(p)`: the estimate, clamped below by the work already observed.
    pub fn total(&self) -> f64 {
        self.total_estimate.max(self.done as f64)
    }
}

/// A point-in-time gnm progress snapshot over all pipelines of a query,
/// carrying the fraction a monitor publishes and its confidence bounds.
#[derive(Debug, Clone)]
pub struct ProgressSnapshot {
    pipelines: Vec<PipelineProgress>,
    /// The published fraction: the raw ratio, or the monotone value a live
    /// tracker clamped it to (see [`publish`](Self::publish)).
    fraction: f64,
    /// Confidence bounds `(lo, hi)` with `lo ≤ fraction ≤ hi`.
    bounds: (f64, f64),
}

impl ProgressSnapshot {
    /// Assemble a snapshot from per-pipeline summaries. It publishes the
    /// raw ratio, with the bounds collapsed onto it.
    pub fn new(pipelines: Vec<PipelineProgress>) -> Self {
        let snap = ProgressSnapshot {
            pipelines,
            fraction: 0.0,
            bounds: (0.0, 0.0),
        };
        let raw = snap.raw_fraction();
        snap.publish(raw, (raw, raw))
    }

    /// Publish `fraction` with confidence `bounds` in place of the raw
    /// ratio. The caller keeps `lo ≤ fraction ≤ hi`: a live tracker calls
    /// this after its monotone clamp.
    pub fn publish(mut self, fraction: f64, bounds: (f64, f64)) -> Self {
        self.fraction = fraction;
        self.bounds = bounds;
        self
    }

    /// The per-pipeline summaries.
    pub fn pipelines(&self) -> &[PipelineProgress] {
        &self.pipelines
    }

    /// `C(Q)`: total `getnext()` calls made so far.
    pub fn current(&self) -> u64 {
        self.pipelines.iter().map(|p| p.done).sum()
    }

    /// `T(Q)`: estimated total `getnext()` calls over the query.
    pub fn total(&self) -> f64 {
        self.pipelines.iter().map(|p| p.total()).sum()
    }

    /// The published gnm progress fraction in `[0, 1]`. An empty snapshot
    /// reports 0.
    pub fn fraction(&self) -> f64 {
        self.fraction
    }

    /// Confidence bounds `(lo, hi)` on [`fraction`](Self::fraction), with
    /// `lo ≤ fraction ≤ hi`.
    pub fn bounds(&self) -> (f64, f64) {
        self.bounds
    }

    /// The raw ratio `C(Q)/T(Q)` in `[0, 1]`, before any monotone clamp.
    pub fn raw_fraction(&self) -> f64 {
        let total = self.total();
        if total <= 0.0 {
            return 0.0;
        }
        (self.current() as f64 / total).clamp(0.0, 1.0)
    }

    /// Whether every pipeline has finished.
    pub fn is_complete(&self) -> bool {
        !self.pipelines.is_empty()
            && self
                .pipelines
                .iter()
                .all(|p| p.state == PipelineState::Finished)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fraction_combines_pipeline_states() {
        let snap = ProgressSnapshot::new(vec![
            PipelineProgress::finished(0, 100),
            PipelineProgress::running(1, 50, 100.0),
            PipelineProgress::pending(2, 200.0),
        ]);
        assert_eq!(snap.current(), 150);
        assert!((snap.total() - 400.0).abs() < 1e-9);
        assert!((snap.fraction() - 0.375).abs() < 1e-9);
        assert!(!snap.is_complete());
    }

    #[test]
    fn complete_query_reports_one() {
        let snap = ProgressSnapshot::new(vec![
            PipelineProgress::finished(0, 10),
            PipelineProgress::finished(1, 20),
        ]);
        assert_eq!(snap.fraction(), 1.0);
        assert!(snap.is_complete());
    }

    #[test]
    fn empty_snapshot_is_zero() {
        let snap = ProgressSnapshot::new(vec![]);
        assert_eq!(snap.fraction(), 0.0);
        assert!(!snap.is_complete());
    }

    #[test]
    fn published_values_replace_the_raw_ratio() {
        let snap = ProgressSnapshot::new(vec![PipelineProgress::running(0, 25, 100.0)]);
        assert_eq!(snap.fraction(), 0.25);
        assert_eq!(snap.bounds(), (0.25, 0.25));
        let published = snap.publish(0.4, (0.3, 0.5));
        assert_eq!(published.fraction(), 0.4);
        assert_eq!(published.bounds(), (0.3, 0.5));
        assert_eq!(published.raw_fraction(), 0.25);
    }

    #[test]
    fn running_total_never_below_done() {
        // Underestimating estimator must not push progress past 1.
        let p = PipelineProgress::running(0, 100, 10.0);
        assert_eq!(p.total(), 100.0);
        let snap = ProgressSnapshot::new(vec![p]);
        assert!(snap.fraction() <= 1.0);
    }

    #[test]
    fn fraction_is_monotone_under_progress() {
        let mut fractions = Vec::new();
        for done in [0u64, 25, 50, 75, 100] {
            let snap = ProgressSnapshot::new(vec![
                PipelineProgress::finished(0, 40),
                PipelineProgress::running(1, done, 100.0),
            ]);
            fractions.push(snap.fraction());
        }
        for w in fractions.windows(2) {
            assert!(w[1] >= w[0], "{fractions:?}");
        }
    }
}
