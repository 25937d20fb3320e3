//! Progress timelines: periodic sampling of a running query's gnm state.
//!
//! A [`TimelineRecorder`] polls a query's
//! [`ProgressTracker`] — from the same thread
//! between batches, or from a dedicated monitor thread via
//! [`TimelineRecorder::spawn`] — capturing a [`TimelinePoint`] per sample:
//! the whole-query gnm fraction with its confidence bounds plus every
//! operator's `(K_i, N_i, lo_i, hi_i)` trajectory. The finished
//! [`ProgressLog`] exports as CSV or JSON for plotting (the paper's Figs.
//! 2–7 are exactly such trajectories).
//!
//! Sampling is entirely observer-side: the query thread never blocks on
//! the recorder. When a trace bus is attached, the recorder also publishes
//! `PipelineStarted` / `PipelineFinished` events as it observes pipeline
//! state changes (accurate to the sampling cadence, as documented on the
//! event).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use qprog_core::gnm::PipelineState;
use qprog_exec::trace::{EventBus, TraceEventKind};
use qprog_plan::ProgressTracker;

use crate::json::num;

/// One operator's state at a sample instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpPoint {
    /// `K_i`: `getnext()` calls answered so far.
    pub emitted: u64,
    /// Driver (input) tuples consumed so far.
    pub driver_consumed: u64,
    /// Current `N_i` estimate.
    pub estimate: f64,
    /// Confidence bounds on `N_i`, when the estimator publishes them.
    pub bounds: Option<(f64, f64)>,
    /// Whether the operator has finished (`N_i` exact).
    pub finished: bool,
}

/// One whole-query sample.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelinePoint {
    /// Microseconds since recording started (or since the trace bus epoch,
    /// when one is attached).
    pub at_us: u64,
    /// gnm progress fraction `K/N`.
    pub fraction: f64,
    /// Lower confidence bound on the fraction.
    pub lo: f64,
    /// Upper confidence bound on the fraction.
    pub hi: f64,
    /// Total `getnext()` calls so far (`K`).
    pub current: u64,
    /// Total estimated lifetime `getnext()` calls (`N`).
    pub total: f64,
    /// Per-operator state, in registry order.
    pub ops: Vec<OpPoint>,
}

/// A recorded progress timeline.
#[derive(Debug, Clone, Default)]
pub struct ProgressLog {
    op_names: Vec<String>,
    points: Vec<TimelinePoint>,
}

impl ProgressLog {
    /// Operator names, in registry order (column identity for
    /// [`to_csv`](Self::to_csv)).
    pub fn op_names(&self) -> &[String] {
        &self.op_names
    }

    /// The samples, in time order.
    pub fn points(&self) -> &[TimelinePoint] {
        &self.points
    }

    /// Number of samples taken.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether no samples were taken.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Count of adjacent samples where the progress fraction *decreased*
    /// by more than `tolerance` — the timeline half of the progress-sanity
    /// validation (estimate refinements may wobble the fraction slightly;
    /// sustained regressions indicate an estimator bug).
    pub fn monotonicity_violations(&self, tolerance: f64) -> usize {
        self.points
            .windows(2)
            .filter(|w| w[1].fraction < w[0].fraction - tolerance)
            .count()
    }

    /// CSV export: one row per sample with whole-query columns followed by
    /// `emitted`/`estimate` pairs per operator.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str("at_us,fraction,lo,hi,current,total");
        for name in &self.op_names {
            let clean = name.replace(',', ";");
            out.push_str(&format!(",{clean}.k,{clean}.n"));
        }
        out.push('\n');
        for p in &self.points {
            out.push_str(&format!(
                "{},{:.6},{:.6},{:.6},{},{:.1}",
                p.at_us, p.fraction, p.lo, p.hi, p.current, p.total
            ));
            for op in &p.ops {
                out.push_str(&format!(",{},{:.1}", op.emitted, op.estimate));
            }
            out.push('\n');
        }
        out
    }

    /// JSON export: `{"ops": [names], "points": [{...}]}`.
    pub fn to_json(&self) -> String {
        let names: Vec<String> = self
            .op_names
            .iter()
            .map(|n| format!("\"{}\"", qprog_types::json::escape(n)))
            .collect();
        let points: Vec<String> = self
            .points
            .iter()
            .map(|p| {
                let ops: Vec<String> = p
                    .ops
                    .iter()
                    .map(|o| {
                        let bounds = match o.bounds {
                            Some((lo, hi)) => format!("[{},{}]", num(lo), num(hi)),
                            None => "null".to_string(),
                        };
                        format!(
                            "{{\"k\":{},\"driver\":{},\"n\":{},\"bounds\":{},\"finished\":{}}}",
                            o.emitted,
                            o.driver_consumed,
                            num(o.estimate),
                            bounds,
                            o.finished
                        )
                    })
                    .collect();
                format!(
                    "{{\"at_us\":{},\"fraction\":{},\"lo\":{},\"hi\":{},\"current\":{},\"total\":{},\"ops\":[{}]}}",
                    p.at_us,
                    num(p.fraction),
                    num(p.lo),
                    num(p.hi),
                    p.current,
                    num(p.total),
                    ops.join(",")
                )
            })
            .collect();
        format!(
            "{{\"ops\":[{}],\"points\":[{}]}}",
            names.join(","),
            points.join(",")
        )
    }
}

/// Samples a [`ProgressTracker`] into a [`ProgressLog`].
pub struct TimelineRecorder {
    tracker: ProgressTracker,
    bus: Option<Arc<EventBus>>,
    epoch: Instant,
    log: ProgressLog,
    /// Last observed per-pipeline state, for start/finish event edges.
    pipeline_states: Vec<PipelineState>,
    /// Running max of the published fraction: reported progress is clamped
    /// monotone at this layer while the raw (possibly wobbling) estimates
    /// stay visible in `EstimateRefined` events and per-op trajectories.
    max_fraction: f64,
}

impl TimelineRecorder {
    /// A recorder over `tracker` (same-thread sampling via
    /// [`sample`](Self::sample)).
    pub fn new(tracker: ProgressTracker) -> Self {
        let op_names: Vec<String> = tracker
            .registry()
            .iter()
            .map(|(n, _)| n.to_string())
            .collect();
        TimelineRecorder {
            tracker,
            bus: None,
            epoch: Instant::now(),
            log: ProgressLog {
                op_names,
                points: Vec::new(),
            },
            pipeline_states: Vec::new(),
            max_fraction: 0.0,
        }
    }

    /// Publish `PipelineStarted`/`PipelineFinished` edges to `bus` as the
    /// recorder observes pipeline state changes, and timestamp samples
    /// against the bus epoch.
    pub fn with_bus(mut self, bus: Arc<EventBus>) -> Self {
        self.epoch = bus.epoch();
        self.bus = Some(bus);
        self
    }

    /// Take one sample now.
    pub fn sample(&mut self) {
        let at_us = self.epoch.elapsed().as_micros() as u64;
        let snapshot = self.tracker.snapshot();
        let (lo, hi) = self.tracker.fraction_bounds();
        let ops: Vec<OpPoint> = self
            .tracker
            .registry()
            .iter()
            .map(|(_, m)| OpPoint {
                emitted: m.emitted(),
                driver_consumed: m.driver_consumed(),
                estimate: m.estimated_total(),
                bounds: m.estimated_bounds(),
                finished: m.is_finished(),
            })
            .collect();

        // Pipeline lifecycle edges (observer-derived).
        for p in snapshot.pipelines() {
            if self.pipeline_states.len() <= p.id {
                self.pipeline_states
                    .resize(p.id + 1, PipelineState::Pending);
            }
            let prev = self.pipeline_states[p.id];
            if prev != p.state {
                self.pipeline_states[p.id] = p.state;
                if let Some(bus) = &self.bus {
                    let id = p.id as u32;
                    match (prev, p.state) {
                        (PipelineState::Pending, PipelineState::Running) => {
                            bus.publish(TraceEventKind::PipelineStarted { pipeline: id });
                        }
                        (PipelineState::Pending, PipelineState::Finished) => {
                            // ran to completion between two samples
                            bus.publish(TraceEventKind::PipelineStarted { pipeline: id });
                            bus.publish(TraceEventKind::PipelineFinished { pipeline: id });
                        }
                        (PipelineState::Running, PipelineState::Finished) => {
                            bus.publish(TraceEventKind::PipelineFinished { pipeline: id });
                        }
                        _ => {}
                    }
                }
            }
        }

        // Published progress is clamped to its running max: estimate
        // refinements may shrink `ΣN_i` and wobble the raw fraction
        // backwards, but a user-facing indicator must never retreat. The
        // raw values stay in the trace via `EstimateRefined` / per-op
        // trajectories.
        let raw = snapshot.fraction();
        if raw.is_finite() && raw > self.max_fraction {
            self.max_fraction = raw;
        }
        let fraction = self.max_fraction;
        // Keep the published interval consistent with the clamped point.
        let hi = if hi.is_finite() { hi.max(fraction) } else { hi };

        // A sampled gnm snapshot in the trace itself makes the recorded
        // JSONL self-sufficient for post-hoc quality scoring (replay needs
        // no live tracker).
        if let Some(bus) = &self.bus {
            bus.publish(TraceEventKind::ProgressSampled {
                current: snapshot.current(),
                total: snapshot.total(),
                fraction,
                lo,
                hi,
            });
        }

        self.log.points.push(TimelinePoint {
            at_us,
            fraction,
            lo,
            hi,
            current: snapshot.current(),
            total: snapshot.total(),
            ops,
        });
    }

    /// Whether the tracked query has finished (all pipelines complete).
    pub fn is_complete(&self) -> bool {
        self.tracker.snapshot().is_complete()
    }

    /// Finish recording and return the log.
    pub fn into_log(self) -> ProgressLog {
        self.log
    }

    /// The log so far.
    pub fn log(&self) -> &ProgressLog {
        &self.log
    }

    /// Spawn a monitor thread sampling every `cadence` until
    /// [`RecorderHandle::finish`] is called (a final sample is always taken
    /// at finish, so the terminal state is captured) or the handle is
    /// dropped (which stops and joins the thread, discarding the log).
    pub fn spawn(self, cadence: Duration) -> RecorderHandle {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let mut recorder = self;
        let join = std::thread::Builder::new()
            .name("qprog-timeline".to_string())
            .spawn(move || {
                while !stop2.load(Ordering::Relaxed) {
                    recorder.sample();
                    // Sleep in short slices so a stop request (finish or
                    // drop) is honored promptly even at long cadences.
                    let mut remaining = cadence;
                    while !stop2.load(Ordering::Relaxed) && remaining > Duration::ZERO {
                        let slice = remaining.min(Duration::from_millis(5));
                        std::thread::sleep(slice);
                        remaining = remaining.saturating_sub(slice);
                    }
                }
                recorder.sample();
                recorder
            })
            .expect("spawn timeline monitor thread");
        RecorderHandle {
            stop,
            join: Some(join),
        }
    }
}

/// Handle to a recorder running on a monitor thread.
///
/// The thread never outlives the handle: [`finish`](Self::finish) stops and
/// joins it, returning the log, and dropping the handle without finishing
/// does the same join (discarding the log) — no sampler is left spinning
/// against a dead query.
pub struct RecorderHandle {
    stop: Arc<AtomicBool>,
    join: Option<std::thread::JoinHandle<TimelineRecorder>>,
}

impl RecorderHandle {
    /// Stop the monitor thread, take a final sample, and return the log.
    pub fn finish(mut self) -> ProgressLog {
        self.stop_and_join()
            .map(TimelineRecorder::into_log)
            .unwrap_or_default()
    }

    fn stop_and_join(&mut self) -> Option<TimelineRecorder> {
        let join = self.join.take()?;
        self.stop.store(true, Ordering::Relaxed);
        join.join().ok()
    }
}

impl Drop for RecorderHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qprog_exec::metrics::MetricsRegistry;
    use qprog_exec::sync::Mutex;
    use qprog_exec::trace::{EventBus, TraceEvent, TraceSink};
    use qprog_plan::pipeline::PipelineSet;

    fn two_op_tracker() -> (ProgressTracker, MetricsRegistry) {
        let mut reg = MetricsRegistry::new();
        reg.register("scan", 100.0);
        reg.register("join", 300.0);
        let mut pipes = PipelineSet::new();
        let p0 = pipes.new_pipeline();
        let p1 = pipes.new_pipeline();
        pipes.assign(p0, 0);
        pipes.assign(p1, 1);
        let tracker = ProgressTracker::new(reg.clone(), pipes);
        (tracker, reg)
    }

    #[test]
    fn samples_capture_per_op_trajectories() {
        let (tracker, reg) = two_op_tracker();
        let mut rec = TimelineRecorder::new(tracker);
        rec.sample();
        let scan = reg.get(0).unwrap();
        for _ in 0..60 {
            scan.record_emitted();
        }
        scan.set_estimated_total(120.0);
        rec.sample();
        let log = rec.into_log();
        assert_eq!(log.len(), 2);
        assert_eq!(log.op_names(), &["scan".to_string(), "join".to_string()]);
        assert_eq!(log.points()[0].ops[0].emitted, 0);
        assert_eq!(log.points()[1].ops[0].emitted, 60);
        assert_eq!(log.points()[1].ops[0].estimate, 120.0);
        assert!(log.points()[1].fraction > log.points()[0].fraction);
        assert!(log.points().windows(2).all(|w| w[0].at_us <= w[1].at_us));
    }

    #[test]
    fn csv_and_json_exports_are_well_formed() {
        let (tracker, reg) = two_op_tracker();
        let mut rec = TimelineRecorder::new(tracker);
        reg.get(0).unwrap().record_emitted();
        rec.sample();
        let log = rec.into_log();
        let csv = log.to_csv();
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert_eq!(
            header,
            "at_us,fraction,lo,hi,current,total,scan.k,scan.n,join.k,join.n"
        );
        let row = lines.next().unwrap();
        assert_eq!(row.split(',').count(), header.split(',').count());
        let json = log.to_json();
        assert!(json.starts_with("{\"ops\":[\"scan\",\"join\"]"));
        assert!(json.contains("\"points\":[{"));
    }

    #[test]
    fn monotonicity_check_counts_regressions() {
        let mut log = ProgressLog::default();
        for f in [0.1, 0.3, 0.2, 0.4, 0.39999] {
            log.points.push(TimelinePoint {
                at_us: 0,
                fraction: f,
                lo: f,
                hi: f,
                current: 0,
                total: 0.0,
                ops: Vec::new(),
            });
        }
        assert_eq!(log.monotonicity_violations(0.01), 1);
        assert_eq!(log.monotonicity_violations(0.0), 2);
    }

    #[test]
    fn published_fraction_is_clamped_monotone() {
        let (tracker, reg) = two_op_tracker();
        let mut rec = TimelineRecorder::new(tracker);
        let scan = reg.get(0).unwrap();
        for _ in 0..60 {
            scan.record_emitted();
        }
        rec.sample();
        let before = rec.log().points().last().unwrap().fraction;
        assert!(before > 0.0);
        // An upward estimate revision shrinks the raw fraction...
        scan.set_estimated_total(10_000.0);
        rec.sample();
        let log = rec.into_log();
        let after = log.points().last().unwrap();
        // ...but the published fraction holds its running max, with the
        // interval kept consistent.
        assert_eq!(after.fraction, before);
        assert!(!after.hi.is_finite() || after.hi >= after.fraction);
        assert_eq!(log.monotonicity_violations(0.0), 0);
    }

    #[test]
    fn pipeline_edges_are_published_once() {
        struct Collect(Mutex<Vec<TraceEvent>>);
        impl TraceSink for Collect {
            fn publish(&self, e: &TraceEvent) {
                self.0.lock().push(*e);
            }
        }
        let sink = Arc::new(Collect(Mutex::new(Vec::new())));
        let bus = EventBus::with_sink(Arc::clone(&sink) as _);
        let (tracker, reg) = two_op_tracker();
        let mut rec = TimelineRecorder::new(tracker).with_bus(bus);
        rec.sample(); // both pending: no events
        let scan = reg.get(0).unwrap();
        scan.record_emitted();
        rec.sample(); // pipeline 0 running
        rec.sample(); // still running: no duplicate
        scan.mark_finished();
        rec.sample(); // pipeline 0 finished
        let all: Vec<_> = sink.0.lock().iter().map(|e| e.kind).collect();
        // every sample also publishes a gnm snapshot into the trace
        let samples = all
            .iter()
            .filter(|k| matches!(k, TraceEventKind::ProgressSampled { .. }))
            .count();
        assert_eq!(samples, 4);
        let edges: Vec<_> = all
            .into_iter()
            .filter(|k| !matches!(k, TraceEventKind::ProgressSampled { .. }))
            .collect();
        assert_eq!(
            edges,
            vec![
                TraceEventKind::PipelineStarted { pipeline: 0 },
                TraceEventKind::PipelineFinished { pipeline: 0 },
            ]
        );
    }

    #[test]
    fn spawned_recorder_collects_until_finish() {
        let (tracker, reg) = two_op_tracker();
        let handle = TimelineRecorder::new(tracker).spawn(Duration::from_millis(1));
        for _ in 0..50 {
            reg.get(0).unwrap().record_emitted();
            std::thread::sleep(Duration::from_millis(1));
        }
        reg.finish_all();
        let log = handle.finish();
        assert!(
            log.len() >= 2,
            "expected several samples, got {}",
            log.len()
        );
        let last = log.points().last().unwrap();
        assert_eq!(last.fraction, 1.0, "final sample sees the finished query");
    }

    #[test]
    fn dropping_the_handle_joins_the_sampler_thread_promptly() {
        // A long cadence would previously leave the thread asleep (and the
        // recorder alive) long after the handle was gone; the chunked sleep
        // plus Drop-join must reclaim it in well under one cadence.
        let bus = EventBus::builder().build();
        let (tracker, _reg) = two_op_tracker();
        let handle = TimelineRecorder::new(tracker)
            .with_bus(Arc::clone(&bus))
            .spawn(Duration::from_secs(60));
        let started = std::time::Instant::now();
        drop(handle);
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "drop blocked for {:?} — stop not honored promptly",
            started.elapsed()
        );
        // The thread owned the recorder (and its bus clone); after the
        // join, ours is the only reference left.
        assert_eq!(
            Arc::strong_count(&bus),
            1,
            "sampler thread still holds the recorder after drop"
        );
    }
}
