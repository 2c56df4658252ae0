//! Rolling-window SLOs with multi-window burn-rate alerting.
//!
//! An SLO here is a statement about *recent* behaviour — "interactive
//! p95 under 100 ms", "abort ratio under 1 %" — evaluated over the
//! [`RollingWindow`] rather than the cumulative
//! registry (a latency regression must be able to *clear* once the
//! service recovers; cumulative quantiles never forget).
//!
//! Alerting uses the classic **multi-window burn rate** rule: an
//! objective *fires* only when it is breached over both a fast window
//! (default 1 m — reacts quickly, but noisy alone) **and** a slow
//! window (default 10 m — confirms the breach is sustained), and it
//! clears as soon as the fast window recovers — the fast window drains
//! first, so recovery is detected at fast-window speed even while the
//! slow window still remembers the incident.
//!
//! The clock is the window's: [`SloTracker::evaluate`] looks only at
//! ticked history, so deterministic tests drive `tick()` by hand and
//! never sleep. Each tracked objective surfaces its state in the same
//! registry everything else publishes to, as the gauge
//! `qtda_slo_firing{slo="<name>"}` (1 = firing, 0 = ok), so a scrape
//! of `/metrics` carries the alert state alongside the raw series.

use crate::metrics::Gauge;
use crate::window::RollingWindow;
use crate::MetricsRegistry;
use std::sync::Arc;
use std::time::Duration;

/// What an [`Slo`] asserts about the window.
#[derive(Clone, Debug)]
pub enum SloObjective {
    /// A bucket-interpolated quantile of a histogram family must stay
    /// below a threshold: `quantile(family{labels}, q) < threshold`.
    /// An empty window does not breach (no data is not bad data).
    LatencyQuantile {
        /// Histogram family name (e.g. `qtda_service_request_seconds`).
        family: String,
        /// Label pairs, in registration order.
        labels: Vec<(String, String)>,
        /// The quantile in `[0, 1]` (e.g. `0.95`).
        q: f64,
        /// The bound, in seconds, the quantile must stay under.
        threshold_seconds: f64,
    },
    /// A ratio of two counter families (summed over label sets) must
    /// stay below a threshold: `bad / total ≤ max_ratio`. A window with
    /// `total == 0` does not breach.
    EventRatio {
        /// The numerator counter family (e.g. aborts).
        bad_family: String,
        /// The denominator counter family (e.g. submissions).
        total_family: String,
        /// The largest acceptable `bad / total` fraction.
        max_ratio: f64,
    },
}

/// One service-level objective: a named [`SloObjective`] with its
/// fast/slow burn-rate windows.
#[derive(Clone, Debug)]
pub struct Slo {
    /// Stable identifier — becomes the `slo` label on the firing gauge.
    pub name: String,
    /// What is asserted.
    pub objective: SloObjective,
    /// Fast window (reaction speed); default 1 minute.
    pub fast: Duration,
    /// Slow window (sustained-breach confirmation); default 10 minutes.
    pub slow: Duration,
}

impl Slo {
    /// An objective with the default 1 m / 10 m burn-rate windows.
    pub fn new(name: impl Into<String>, objective: SloObjective) -> Self {
        Slo {
            name: name.into(),
            objective,
            fast: Duration::from_secs(60),
            slow: Duration::from_secs(600),
        }
    }

    /// Overrides the fast/slow windows (deterministic tests shrink them
    /// to a handful of ticks).
    pub fn with_windows(mut self, fast: Duration, slow: Duration) -> Self {
        self.fast = fast;
        self.slow = slow;
        self
    }

    /// Convenience: `family{labels} p<q·100> < threshold_seconds`.
    pub fn latency_quantile(
        name: impl Into<String>,
        family: impl Into<String>,
        labels: &[(&str, &str)],
        q: f64,
        threshold_seconds: f64,
    ) -> Self {
        Slo::new(
            name,
            SloObjective::LatencyQuantile {
                family: family.into(),
                labels: labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
                q,
                threshold_seconds,
            },
        )
    }

    /// Convenience: `bad_family / total_family ≤ max_ratio`.
    pub fn event_ratio(
        name: impl Into<String>,
        bad_family: impl Into<String>,
        total_family: impl Into<String>,
        max_ratio: f64,
    ) -> Self {
        Slo::new(
            name,
            SloObjective::EventRatio {
                bad_family: bad_family.into(),
                total_family: total_family.into(),
                max_ratio,
            },
        )
    }

    /// The measured value over one window, and whether it breaches.
    /// `None` means the window has no data for this objective.
    fn measure(&self, window: &RollingWindow, over: Duration) -> (Option<f64>, bool) {
        match &self.objective {
            SloObjective::LatencyQuantile { family, labels, q, threshold_seconds } => {
                let label_refs: Vec<(&str, &str)> =
                    labels.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
                let value = window.quantile(family, &label_refs, *q, over);
                (value, value.is_some_and(|v| v >= *threshold_seconds))
            }
            SloObjective::EventRatio { bad_family, total_family, max_ratio } => {
                let (merged, _) = window.over_last(over);
                let total = merged.counter_family(total_family);
                if total == 0 {
                    return (None, false);
                }
                let ratio = merged.counter_family(bad_family) as f64 / total as f64;
                (Some(ratio), ratio > *max_ratio)
            }
        }
    }
}

/// The result of evaluating one [`Slo`] at one instant.
#[derive(Clone, Debug)]
pub struct SloStatus {
    /// The objective's name.
    pub name: String,
    /// True when breached over **both** windows — the alert condition.
    pub firing: bool,
    /// Breached over the fast window.
    pub fast_breached: bool,
    /// Breached over the slow window.
    pub slow_breached: bool,
    /// Measured value over the fast window (quantile in seconds or
    /// ratio), `None` when that window holds no data.
    pub fast_value: Option<f64>,
    /// Measured value over the slow window.
    pub slow_value: Option<f64>,
}

/// Evaluates a set of [`Slo`]s against one [`RollingWindow`] and
/// publishes `qtda_slo_firing{slo="…"}` gauges into a registry.
pub struct SloTracker {
    window: Arc<RollingWindow>,
    registry: Arc<MetricsRegistry>,
    slos: Vec<(Slo, Gauge)>,
}

impl SloTracker {
    /// A tracker over `window`, publishing firing gauges into
    /// `registry` (normally the same registry the window watches, so
    /// one scrape carries data and alert state together).
    pub fn new(window: Arc<RollingWindow>, registry: Arc<MetricsRegistry>) -> Self {
        SloTracker { window, registry, slos: Vec::new() }
    }

    /// Adds an objective; its gauge appears in the registry immediately
    /// (value 0) so dashboards see the SLO exists before first breach.
    pub fn track(&mut self, slo: Slo) {
        let gauge = self.registry.gauge_with("qtda_slo_firing", &[("slo", &slo.name)]);
        gauge.set(0);
        self.slos.push((slo, gauge));
    }

    /// Evaluates every objective against the window's current history,
    /// updates the firing gauges, and returns the per-SLO statuses.
    /// Call after each tick (or on whatever cadence alerts should
    /// refresh); evaluation reads only ticked history, never the clock.
    pub fn evaluate(&self) -> Vec<SloStatus> {
        self.slos
            .iter()
            .map(|(slo, gauge)| {
                let (fast_value, fast_breached) = slo.measure(&self.window, slo.fast);
                let (slow_value, slow_breached) = slo.measure(&self.window, slo.slow);
                let firing = fast_breached && slow_breached;
                gauge.set(u64::from(firing));
                SloStatus {
                    name: slo.name.clone(),
                    firing,
                    fast_breached,
                    slow_breached,
                    fast_value,
                    slow_value,
                }
            })
            .collect()
    }
}

impl std::fmt::Debug for SloTracker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SloTracker").field("slos", &self.slos.len()).finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::WindowConfig;
    use crate::DEFAULT_LATENCY_BUCKETS;

    /// A tracker whose "1 m / 10 m" windows are 1 / 6 ticks of a
    /// manually driven window — the injected-clock setup every
    /// deterministic burn-rate test uses.
    fn harness() -> (Arc<MetricsRegistry>, Arc<RollingWindow>, SloTracker) {
        let registry = Arc::new(MetricsRegistry::new());
        let window = Arc::new(RollingWindow::new(
            Arc::clone(&registry),
            WindowConfig { cadence: Duration::from_secs(1), slots: 6 },
        ));
        let mut tracker = SloTracker::new(Arc::clone(&window), Arc::clone(&registry));
        tracker.track(
            Slo::latency_quantile(
                "interactive-p95",
                "lat_seconds",
                &[("class", "interactive")],
                0.95,
                0.1,
            )
            .with_windows(Duration::from_secs(1), Duration::from_secs(6)),
        );
        (registry, window, tracker)
    }

    fn firing_gauge(registry: &MetricsRegistry) -> Option<u64> {
        registry
            .snapshot()
            .gauges
            .get(&("qtda_slo_firing".to_string(), "slo=\"interactive-p95\"".to_string()))
            .copied()
    }

    #[test]
    fn fires_only_when_both_windows_breach_and_clears_on_recovery() {
        let (registry, window, tracker) = harness();
        let h = registry.histogram_with(
            "lat_seconds",
            &[("class", "interactive")],
            &DEFAULT_LATENCY_BUCKETS,
        );
        // Healthy ticks are heavy (100 × 2 ms), regression ticks light
        // (20 × 400 ms): the fast window (1 tick) flips to the
        // regression at once, while the slow window (6 ticks) needs a
        // second bad tick before its p95 crosses 100 ms.
        let fast = |h: &crate::Histogram| (0..100).for_each(|_| h.observe(0.002));
        let slow = |h: &crate::Histogram| (0..20).for_each(|_| h.observe(0.4));

        // Healthy traffic: no breach anywhere.
        for _ in 0..4 {
            fast(&h);
            window.tick();
        }
        let status = &tracker.evaluate()[0];
        assert!(!status.firing && !status.fast_breached && !status.slow_breached);
        assert_eq!(firing_gauge(&registry), Some(0));

        // One slow tick: the fast window breaches immediately, but the
        // slow window still holds 400 healthy observations against 20
        // slow ones (p95 rank 399 of 420 lands in the healthy mass) —
        // no alert yet.
        slow(&h);
        window.tick();
        let status = &tracker.evaluate()[0];
        assert!(status.fast_breached, "fast window sees the regression");
        assert!(!status.slow_breached, "slow window still mostly healthy");
        assert!(!status.firing, "single-window breach must not page");

        // The regression sustains: now both windows breach — firing.
        slow(&h);
        window.tick();
        let status = &tracker.evaluate()[0];
        assert!(status.fast_breached && status.slow_breached && status.firing);
        assert_eq!(firing_gauge(&registry), Some(1));

        // Recovery: one healthy tick drains the fast window; the slow
        // window still remembers the incident, but the alert clears.
        fast(&h);
        window.tick();
        let status = &tracker.evaluate()[0];
        assert!(!status.fast_breached, "fast window recovered");
        assert!(status.slow_breached, "slow window still remembers");
        assert!(!status.firing, "alert clears at fast-window speed");
        assert_eq!(firing_gauge(&registry), Some(0));
    }

    #[test]
    fn event_ratio_objective_ignores_empty_windows() {
        let registry = Arc::new(MetricsRegistry::new());
        let window = Arc::new(RollingWindow::new(
            Arc::clone(&registry),
            WindowConfig { cadence: Duration::from_secs(1), slots: 4 },
        ));
        let mut tracker = SloTracker::new(Arc::clone(&window), Arc::clone(&registry));
        tracker.track(
            Slo::event_ratio("abort-ratio", "aborts_total", "submits_total", 0.01)
                .with_windows(Duration::from_secs(1), Duration::from_secs(4)),
        );
        let submits = registry.counter("submits_total");
        let aborts = registry.counter("aborts_total");

        // No traffic at all: no data, no breach.
        window.tick();
        let status = &tracker.evaluate()[0];
        assert!(!status.firing && status.fast_value.is_none());

        // 5% aborts over both windows: fires.
        submits.add(100);
        aborts.add(5);
        window.tick();
        let status = &tracker.evaluate()[0];
        assert!(status.firing, "5% > 1% over both windows");
        assert!((status.fast_value.expect("has data") - 0.05).abs() < 1e-12);

        // A clean fast window clears it.
        submits.add(100);
        window.tick();
        let status = &tracker.evaluate()[0];
        assert!(!status.firing && status.slow_breached);
    }
}
