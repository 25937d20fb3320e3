//! Progress-health analysis: is a running query *behaving*?
//!
//! A progress indicator is only trustworthy while the query underneath it
//! is making observable progress and its estimates are settling. Following
//! König et al.'s argument that estimator instability is a first-class
//! signal (not silent noise), the [`HealthAnalyzer`] watches each query
//! from two directions:
//!
//! - as a [`TraceSink`] it consumes the live trace stream, tracking
//!   **estimate drift** — direction flips and order-of-magnitude
//!   divergences across `EstimateRefined` events — and terminal events;
//! - as a polled component ([`observe`](HealthAnalyzer::observe), driven by
//!   the monitor's broadcast tick) it tracks **stalls** (no observed-work
//!   delta past a configurable window while Running) and **ETA
//!   volatility** (relative swing of the smoothed ETA between samples).
//!
//! Verdict changes are published back onto the query's own
//! [`EventBus`] as typed
//! [`TraceEventKind::HealthTransition`] events — so they land in JSONL
//! traces, replay, metrics (`qprog_health_*`), and the monitor's JSON —
//! always from the monitor's sampling thread, never from the query thread.
//!
//! State machine: `Healthy ↔ Stalled` and `Healthy ↔ Unstable`, with
//! Stalled taking priority when both conditions hold. Instability decays:
//! flip/divergence evidence older than the calm window is discarded, so a
//! query whose estimates settle recovers to Healthy.

use std::collections::VecDeque;
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use qprog_exec::sync::Mutex;
use qprog_exec::trace::{
    EstimateSource, EventBus, HealthReason, HealthState, TraceEvent, TraceEventKind, TraceSink,
};

/// Detector thresholds. Defaults are tuned so sub-second test queries and
/// the scorecard workloads never false-positive, while an injected
/// multi-second sleep or a genuinely thrashing estimator trips quickly.
#[derive(Debug, Clone)]
pub struct HealthConfig {
    /// How long observed work may sit still (while Running) before the
    /// query is declared Stalled.
    pub stall_window: Duration,
    /// How many estimate direction flips / divergences within the calm
    /// window mark the query Unstable.
    pub flip_threshold: usize,
    /// A single refinement whose `max(new/old, old/new)` exceeds this
    /// counts as divergence evidence (same bucket as a flip).
    pub divergence_ratio: f64,
    /// Relative ETA swing `|eta − prev| / max(eta, prev)` above which a
    /// sample counts toward volatility.
    pub eta_swing: f64,
    /// Consecutive swinging ETA samples that mark the query Unstable.
    pub eta_swing_samples: usize,
    /// Evidence of instability older than this is discarded, letting the
    /// verdict recover to Healthy.
    pub calm_window: Duration,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            stall_window: Duration::from_secs(2),
            flip_threshold: 4,
            divergence_ratio: 16.0,
            eta_swing: 0.6,
            eta_swing_samples: 3,
            calm_window: Duration::from_secs(2),
        }
    }
}

impl HealthConfig {
    /// Override the stall window (the knob chaos tests turn down).
    pub fn with_stall_window(mut self, window: Duration) -> Self {
        self.stall_window = window;
        self
    }
}

/// Mutable detector state, all behind one short mutex (touched at estimate
/// refinements and monitor ticks only — never per tuple).
#[derive(Debug)]
struct Inner {
    state: HealthState,
    /// A terminal trace event arrived; the verdict is frozen.
    terminal: bool,
    /// Last observed `ΣK_i` and when it last moved (µs since the epoch).
    last_work: u64,
    last_work_change_us: u64,
    /// Timestamps (µs) of recent flip/divergence evidence, pruned to the
    /// calm window.
    drift_evidence_us: VecDeque<u64>,
    /// Per-operator last refinement direction: +1 up, −1 down, 0 unknown.
    last_dir: Vec<i8>,
    /// Last ETA sample and the current run of swinging samples.
    last_eta: Option<f64>,
    eta_swing_run: usize,
}

impl Default for Inner {
    fn default() -> Self {
        Inner {
            state: HealthState::Healthy,
            terminal: false,
            last_work: 0,
            last_work_change_us: 0,
            drift_evidence_us: VecDeque::new(),
            last_dir: Vec::new(),
            last_eta: None,
            eta_swing_run: 0,
        }
    }
}

/// One query's health analyzer; see the module docs. Create it per query,
/// attach it to the query's bus as a sink, then let the monitor's sampling
/// thread drive [`observe`](Self::observe).
pub struct HealthAnalyzer {
    config: HealthConfig,
    epoch: Instant,
    inner: Mutex<Inner>,
    /// The query's bus, for publishing transitions. Weak: the analyzer is
    /// itself a sink on this bus, and an `Arc` would cycle.
    bus: Mutex<Option<Weak<EventBus>>>,
}

impl std::fmt::Debug for HealthAnalyzer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HealthAnalyzer")
            .field("state", &self.state())
            .finish()
    }
}

impl HealthAnalyzer {
    /// A fresh analyzer in the Healthy state.
    pub fn new(config: HealthConfig) -> Self {
        HealthAnalyzer {
            config,
            epoch: Instant::now(),
            inner: Mutex::new(Inner::default()),
            bus: Mutex::new(None),
        }
    }

    /// Attach the query's bus so verdict changes are published as
    /// [`TraceEventKind::HealthTransition`] events. Weak on purpose — the
    /// analyzer is usually a sink on the same bus.
    pub fn attach_bus(&self, bus: &Arc<EventBus>) {
        *self.bus.lock() = Some(Arc::downgrade(bus));
    }

    /// The current verdict.
    pub fn state(&self) -> HealthState {
        self.inner.lock().state
    }

    /// Microseconds since the analyzer was created.
    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Feed one work/ETA sample (normally from the monitor's broadcast
    /// tick). `running` must be false once the query reached a terminal
    /// state — the verdict freezes then. Returns the transition if the
    /// verdict changed.
    pub fn observe(
        &self,
        current_work: u64,
        eta_us: Option<f64>,
        running: bool,
    ) -> Option<(HealthState, HealthState, HealthReason)> {
        self.observe_at(self.now_us(), current_work, eta_us, running)
    }

    /// [`observe`](Self::observe) with an explicit clock, for deterministic
    /// tests. `now_us` must be monotone across calls.
    pub fn observe_at(
        &self,
        now_us: u64,
        current_work: u64,
        eta_us: Option<f64>,
        running: bool,
    ) -> Option<(HealthState, HealthState, HealthReason)> {
        let transition = {
            let mut inner = self.inner.lock();
            if inner.terminal || !running {
                return None;
            }
            // Stall: the work counter has to actually move.
            if current_work > inner.last_work {
                inner.last_work = current_work;
                inner.last_work_change_us = now_us;
            }
            let stalled = now_us.saturating_sub(inner.last_work_change_us)
                >= self.config.stall_window.as_micros() as u64;

            // Drift evidence decays past the calm window.
            let horizon = now_us.saturating_sub(self.config.calm_window.as_micros() as u64);
            while inner
                .drift_evidence_us
                .front()
                .is_some_and(|&t| t < horizon)
            {
                inner.drift_evidence_us.pop_front();
            }

            // ETA volatility: a run of consecutive large relative swings.
            if let Some(eta) = eta_us.filter(|e| e.is_finite() && *e >= 0.0) {
                if let Some(prev) = inner.last_eta {
                    let swing = (eta - prev).abs() / eta.max(prev).max(1.0);
                    if swing > self.config.eta_swing {
                        inner.eta_swing_run += 1;
                    } else {
                        inner.eta_swing_run = 0;
                    }
                }
                inner.last_eta = Some(eta);
            }

            let oscillating = inner.drift_evidence_us.len() >= self.config.flip_threshold;
            let volatile = inner.eta_swing_run >= self.config.eta_swing_samples;
            let next = if stalled {
                HealthState::Stalled
            } else if oscillating || volatile {
                HealthState::Unstable
            } else {
                HealthState::Healthy
            };
            if next == inner.state {
                None
            } else {
                let reason = match next {
                    HealthState::Stalled => HealthReason::Stall,
                    HealthState::Unstable if oscillating => HealthReason::Oscillation,
                    HealthState::Unstable => HealthReason::EtaVolatility,
                    HealthState::Healthy => HealthReason::Recovered,
                };
                let from = inner.state;
                inner.state = next;
                Some((from, next, reason))
            }
            // Guard dropped here: publishing below fans out to every sink
            // on the bus (including this analyzer), so the inner lock must
            // not be held across it.
        };
        if let Some((from, to, reason)) = transition {
            let bus = self.bus.lock().as_ref().and_then(Weak::upgrade);
            if let Some(bus) = bus {
                bus.publish(TraceEventKind::HealthTransition { from, to, reason });
            }
        }
        transition
    }
}

impl TraceSink for HealthAnalyzer {
    fn publish(&self, event: &TraceEvent) {
        match event.kind {
            TraceEventKind::EstimateRefined {
                op,
                old,
                new,
                source: EstimateSource::Online,
            } => {
                let mut inner = self.inner.lock();
                let idx = op as usize;
                if inner.last_dir.len() <= idx {
                    inner.last_dir.resize(idx + 1, 0);
                }
                if old.is_finite() && new.is_finite() {
                    let dir: i8 = match new.partial_cmp(&old) {
                        Some(std::cmp::Ordering::Greater) => 1,
                        Some(std::cmp::Ordering::Less) => -1,
                        _ => 0,
                    };
                    let prev = inner.last_dir[idx];
                    if dir != 0 {
                        if prev != 0 && dir != prev {
                            // Direction flip.
                            inner.drift_evidence_us.push_back(event.at_us);
                        }
                        inner.last_dir[idx] = dir;
                    }
                    // Divergence: an order-of-magnitude jump is evidence on
                    // its own, flip or not.
                    if old > 0.0 && new > 0.0 {
                        let ratio = (new / old).max(old / new);
                        if ratio > self.config.divergence_ratio {
                            inner.drift_evidence_us.push_back(event.at_us);
                        }
                    }
                }
            }
            TraceEventKind::QueryFinished { .. } | TraceEventKind::QueryAborted { .. } => {
                self.inner.lock().terminal = true;
            }
            // Everything else — including our own HealthTransition echoes —
            // is irrelevant to the verdict.
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000;

    fn analyzer(stall_ms: u64) -> HealthAnalyzer {
        HealthAnalyzer::new(HealthConfig {
            stall_window: Duration::from_millis(stall_ms),
            calm_window: Duration::from_millis(stall_ms),
            ..HealthConfig::default()
        })
    }

    fn refine(at_us: u64, op: u32, old: f64, new: f64) -> TraceEvent {
        TraceEvent {
            seq: at_us,
            at_us,
            kind: TraceEventKind::EstimateRefined {
                op,
                old,
                new,
                source: EstimateSource::Online,
            },
        }
    }

    #[test]
    fn steady_progress_stays_healthy() {
        let h = analyzer(100);
        for i in 0..50u64 {
            assert_eq!(
                h.observe_at(i * 10 * MS, i * 100, Some(1e6), true),
                None,
                "tick {i}"
            );
        }
        assert_eq!(h.state(), HealthState::Healthy);
    }

    #[test]
    fn stall_fires_after_window_and_recovers_on_work() {
        let h = analyzer(100);
        assert_eq!(h.observe_at(0, 10, None, true), None);
        // Work frozen past the window → Stalled.
        let t = h.observe_at(150 * MS, 10, None, true);
        assert_eq!(
            t,
            Some((
                HealthState::Healthy,
                HealthState::Stalled,
                HealthReason::Stall
            ))
        );
        assert_eq!(h.state(), HealthState::Stalled);
        // Work moves again → Recovered.
        let t = h.observe_at(160 * MS, 11, None, true);
        assert_eq!(
            t,
            Some((
                HealthState::Stalled,
                HealthState::Healthy,
                HealthReason::Recovered
            ))
        );
    }

    #[test]
    fn verdict_freezes_at_terminal() {
        let h = analyzer(100);
        h.publish(&TraceEvent {
            seq: 0,
            at_us: 0,
            kind: TraceEventKind::QueryFinished { rows: 1 },
        });
        // Would be a stall, but the query already finished.
        assert_eq!(h.observe_at(10_000 * MS, 0, None, true), None);
        assert_eq!(h.state(), HealthState::Healthy);
        // Non-running samples never transition either.
        let h = analyzer(100);
        assert_eq!(h.observe_at(10_000 * MS, 0, None, false), None);
    }

    #[test]
    fn estimate_flips_mark_unstable_then_decay() {
        let h = analyzer(100);
        // Oscillating refinements: up, down, up, down... on one operator.
        let (mut lo, mut hi) = (100.0, 1000.0);
        for i in 0..6u64 {
            let (old, new) = if i % 2 == 0 { (lo, hi) } else { (hi, lo) };
            h.publish(&refine(i * MS, 0, old, new));
            lo += 1.0;
            hi += 1.0;
        }
        let t = h.observe_at(10 * MS, 50, None, true);
        assert_eq!(
            t,
            Some((
                HealthState::Healthy,
                HealthState::Unstable,
                HealthReason::Oscillation
            ))
        );
        // Evidence decays past the calm window (keep feeding work so the
        // stall detector stays quiet).
        let t = h.observe_at(300 * MS, 100, None, true);
        assert_eq!(
            t,
            Some((
                HealthState::Unstable,
                HealthState::Healthy,
                HealthReason::Recovered
            ))
        );
    }

    #[test]
    fn single_divergence_counts_as_evidence_but_not_verdict() {
        let h = analyzer(100);
        h.publish(&refine(0, 0, 100.0, 10_000.0)); // 100× jump
        assert_eq!(h.observe_at(MS, 1, None, true), None);
        assert_eq!(h.state(), HealthState::Healthy);
        assert_eq!(h.inner.lock().drift_evidence_us.len(), 1);
    }

    #[test]
    fn eta_volatility_marks_unstable() {
        let h = analyzer(10_000); // stall window far away
        let mut work = 0u64;
        let mut tick = |h: &HealthAnalyzer, at_ms: u64, eta: f64| {
            work += 1;
            h.observe_at(at_ms * MS, work, Some(eta), true)
        };
        assert_eq!(tick(&h, 0, 1e6), None);
        // Three consecutive >60% swings.
        assert_eq!(tick(&h, 10, 1e5), None);
        assert_eq!(tick(&h, 20, 1e6), None);
        let t = tick(&h, 30, 1e5);
        assert_eq!(
            t,
            Some((
                HealthState::Healthy,
                HealthState::Unstable,
                HealthReason::EtaVolatility
            ))
        );
        // The first settling sample breaks the run and recovers the verdict.
        let t = tick(&h, 40, 1.05e5);
        assert_eq!(
            t,
            Some((
                HealthState::Unstable,
                HealthState::Healthy,
                HealthReason::Recovered
            ))
        );
        assert_eq!(tick(&h, 50, 1.0e5), None);
    }

    #[test]
    fn transitions_are_published_to_the_bus() {
        struct Collect(Mutex<Vec<TraceEventKind>>);
        impl TraceSink for Collect {
            fn publish(&self, e: &TraceEvent) {
                self.0.lock().push(e.kind);
            }
        }
        let h = Arc::new(analyzer(100));
        let collect = Arc::new(Collect(Mutex::new(Vec::new())));
        let bus = EventBus::builder()
            .sink(Arc::clone(&h) as _)
            .sink(Arc::clone(&collect) as _)
            .build();
        h.attach_bus(&bus);
        h.observe_at(0, 0, None, true);
        h.observe_at(200 * MS, 0, None, true); // stall
        let events = collect.0.lock();
        assert_eq!(
            *events,
            vec![TraceEventKind::HealthTransition {
                from: HealthState::Healthy,
                to: HealthState::Stalled,
                reason: HealthReason::Stall,
            }]
        );
    }
}
