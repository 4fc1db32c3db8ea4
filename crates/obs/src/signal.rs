//! Point-in-time tuner input signals sampled from a [`Registry`].
//!
//! The closed-loop tuner (`crates/tune`) reads the live metric stream —
//! trainer stall fraction, client fetch-latency tail, starvation
//! counters, fastpath pool health, per-stage span times — once per
//! control tick. [`SignalSnapshot`] is that read: one consistent-enough
//! sample of every signal the policy consumes, with every float routed
//! through [`finite_or_zero`] so a NaN published upstream (a 0/0 ratio,
//! an uninitialized gauge) can never poison a knob decision. A NaN that
//! reaches a comparison is false against every threshold, which is
//! exactly the failure that froze the old scaler on an empty fleet
//! (`empty_fleet_recovers_even_with_zero_min_workers`).

use crate::metrics::HistogramSnapshot;
use crate::registry::{MetricValue, Registry};
use crate::{names, span, stage};

/// Maps non-finite readings (NaN, ±inf) to 0.0 — the tuner's "no signal"
/// value. Everything a [`SignalSnapshot`] exposes passes through here.
#[inline]
pub fn finite_or_zero(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// One control tick's view of the pipeline, sampled from a registry.
///
/// Counters are cumulative; a tuner diffing two snapshots should use
/// [`SignalSnapshot::delta`] to get per-tick rates. Absent series read
/// as zero, so sampling an empty registry yields an all-zero (never
/// NaN) snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SignalSnapshot {
    /// Fraction of trainer wall time spent data-stalled, in `[0, 1]`.
    pub stall_fraction: f64,
    /// Client batch-fetch latency p99, seconds.
    pub fetch_p99: f64,
    /// Cumulative client polls that returned no batch (starvation).
    pub starved_polls: u64,
    /// Cumulative batches accepted by clients.
    pub client_batches: u64,
    /// Fastpath decode scratch-pool hit ratio, in `[0, 1]`.
    pub pool_hit_ratio: f64,
    /// Splits currently prefetched ahead of the transform stage.
    pub prefetch_depth: f64,
    /// Cumulative extract-stage seconds (storage reads).
    pub extract_secs: f64,
    /// Cumulative transform-stage seconds (preprocessing).
    pub transform_secs: f64,
    /// Cumulative load-stage seconds (batching + shipping).
    pub load_secs: f64,
    /// Cumulative trainer stall-stage seconds.
    pub stall_secs: f64,
    /// Splits waiting in the master queue.
    pub queue_depth: f64,
    /// Workers currently registered with the master.
    pub workers: f64,
}

fn hist_snapshot(reg: &Registry, name: &str, labels: &[(&str, &str)]) -> HistogramSnapshot {
    match reg.value(name, labels) {
        Some(MetricValue::Histogram(s)) => s,
        _ => HistogramSnapshot::default(),
    }
}

fn hist_quantile(reg: &Registry, name: &str, labels: &[(&str, &str)], q: f64) -> f64 {
    let key_exists = reg.value(name, labels).is_some();
    if !key_exists {
        return 0.0;
    }
    finite_or_zero(reg.histogram(name, labels).quantile(q))
}

fn stage_sum(reg: &Registry, stage_name: &str) -> f64 {
    finite_or_zero(hist_snapshot(reg, span::STAGE_SECONDS, &[("stage", stage_name)]).sum)
}

impl SignalSnapshot {
    /// Samples the unlabeled series (a single-job registry).
    pub fn sample(reg: &Registry) -> Self {
        Self::sample_inner(reg, &[])
    }

    /// Samples the trainer, client and fastpath series stamped with a
    /// `job` label, as published by sessions; stage times and master
    /// gauges are read unlabeled.
    pub fn sample_job(reg: &Registry, job: &str) -> Self {
        Self::sample_inner(reg, &[("job", job)])
    }

    fn sample_inner(reg: &Registry, job_labels: &[(&str, &str)]) -> Self {
        Self {
            stall_fraction: finite_or_zero(
                reg.gauge_value(names::TRAINER_STALL_FRACTION, job_labels),
            )
            .clamp(0.0, 1.0),
            fetch_p99: hist_quantile(reg, names::CLIENT_FETCH_SECONDS, job_labels, 0.99),
            starved_polls: reg.counter_value(names::CLIENT_STARVED_POLLS_TOTAL, job_labels),
            client_batches: reg.counter_value(names::CLIENT_BATCHES_TOTAL, job_labels),
            pool_hit_ratio: finite_or_zero(
                reg.gauge_value(names::FASTPATH_POOL_HIT_RATIO, job_labels),
            )
            .clamp(0.0, 1.0),
            prefetch_depth: finite_or_zero(
                reg.gauge_value(names::FASTPATH_PREFETCH_DEPTH, job_labels),
            ),
            extract_secs: stage_sum(reg, stage::EXTRACT),
            transform_secs: stage_sum(reg, stage::TRANSFORM),
            load_secs: stage_sum(reg, stage::LOAD),
            stall_secs: stage_sum(reg, stage::STALL),
            queue_depth: finite_or_zero(reg.gauge_value(names::MASTER_QUEUE_DEPTH, &[])),
            workers: finite_or_zero(reg.gauge_value(names::MASTER_WORKERS, &[])),
        }
    }

    /// Per-tick signal movement between `earlier` and `self`: counters
    /// and cumulative stage sums become interval deltas (saturating at
    /// zero — a restarted registry never yields negative rates), while
    /// instantaneous gauges keep the newer reading.
    pub fn delta(&self, earlier: &SignalSnapshot) -> SignalSnapshot {
        SignalSnapshot {
            starved_polls: self.starved_polls.saturating_sub(earlier.starved_polls),
            client_batches: self.client_batches.saturating_sub(earlier.client_batches),
            extract_secs: (self.extract_secs - earlier.extract_secs).max(0.0),
            transform_secs: (self.transform_secs - earlier.transform_secs).max(0.0),
            load_secs: (self.load_secs - earlier.load_secs).max(0.0),
            stall_secs: (self.stall_secs - earlier.stall_secs).max(0.0),
            ..*self
        }
    }

    /// Starved polls as a fraction of all client polls this snapshot
    /// covers, in `[0, 1]`; 0 when the client has not polled at all.
    pub fn starvation_rate(&self) -> f64 {
        let polls = self.starved_polls + self.client_batches;
        if polls == 0 {
            0.0
        } else {
            finite_or_zero(self.starved_polls as f64 / polls as f64)
        }
    }

    /// The pipeline stage carrying the most cumulative time, out of
    /// extract/transform/load. Returns `None` when no stage has run.
    pub fn dominant_stage(&self) -> Option<&'static str> {
        let rows = [
            (stage::EXTRACT, self.extract_secs),
            (stage::TRANSFORM, self.transform_secs),
            (stage::LOAD, self.load_secs),
        ];
        rows.iter()
            .filter(|(_, s)| *s > 0.0)
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(name, _)| *name)
    }

    /// True when every field is exactly zero — the empty-registry (or
    /// not-yet-started pipeline) snapshot.
    pub fn is_zero(&self) -> bool {
        *self == SignalSnapshot::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_registry_snapshot_is_all_zero_never_nan() {
        let reg = Registry::new();
        let s = SignalSnapshot::sample(&reg);
        assert!(s.is_zero(), "empty registry must read as zeros: {s:?}");
        for v in [
            s.stall_fraction,
            s.fetch_p99,
            s.pool_hit_ratio,
            s.prefetch_depth,
            s.extract_secs,
            s.transform_secs,
            s.load_secs,
            s.stall_secs,
            s.queue_depth,
            s.workers,
        ] {
            assert!(v.is_finite(), "non-finite signal in {s:?}");
            assert_eq!(v, 0.0);
        }
        assert_eq!(s.starvation_rate(), 0.0);
        assert_eq!(s.dominant_stage(), None);
    }

    #[test]
    fn empty_histogram_quantile_reads_zero() {
        // Registering the series without recording must behave like the
        // absent series: quantile(0.99) of nothing is 0.0, not NaN.
        let reg = Registry::new();
        reg.histogram(names::CLIENT_FETCH_SECONDS, &[]);
        let s = SignalSnapshot::sample(&reg);
        assert_eq!(s.fetch_p99, 0.0);
        assert!(s.fetch_p99.is_finite());
    }

    #[test]
    fn nan_gauge_is_sanitized() {
        // A publisher computing 0/0 (e.g. a stall fraction over zero
        // elapsed time) must not freeze the tuner: NaN folds to 0.
        let reg = Registry::new();
        reg.gauge(names::TRAINER_STALL_FRACTION, &[]).set(f64::NAN);
        reg.gauge(names::FASTPATH_POOL_HIT_RATIO, &[])
            .set(f64::INFINITY);
        let s = SignalSnapshot::sample(&reg);
        assert_eq!(s.stall_fraction, 0.0);
        assert_eq!(s.pool_hit_ratio, 0.0);
    }

    #[test]
    fn populated_registry_round_trips_signals() {
        let reg = Registry::new();
        reg.gauge(names::TRAINER_STALL_FRACTION, &[]).set(0.4);
        reg.gauge(names::MASTER_WORKERS, &[]).set(6.0);
        reg.counter(names::CLIENT_STARVED_POLLS_TOTAL, &[]).add(25);
        reg.counter(names::CLIENT_BATCHES_TOTAL, &[]).add(75);
        crate::observe_stage_seconds(&reg, stage::EXTRACT, 3.0);
        crate::observe_stage_seconds(&reg, stage::TRANSFORM, 1.0);
        for _ in 0..100 {
            reg.histogram(names::CLIENT_FETCH_SECONDS, &[]).record(0.02);
        }
        let s = SignalSnapshot::sample(&reg);
        assert!((s.stall_fraction - 0.4).abs() < 1e-12);
        assert_eq!(s.workers, 6.0);
        assert!((s.starvation_rate() - 0.25).abs() < 1e-12);
        assert_eq!(s.dominant_stage(), Some(stage::EXTRACT));
        assert!(s.fetch_p99 > 0.0, "recorded latency surfaces in p99");
    }

    #[test]
    fn delta_yields_interval_rates_and_keeps_gauges() {
        let a = SignalSnapshot {
            starved_polls: 10,
            client_batches: 100,
            stall_secs: 2.0,
            stall_fraction: 0.5,
            ..Default::default()
        };
        let b = SignalSnapshot {
            starved_polls: 13,
            client_batches: 140,
            stall_secs: 2.5,
            stall_fraction: 0.2,
            ..Default::default()
        };
        let d = b.delta(&a);
        assert_eq!(d.starved_polls, 3);
        assert_eq!(d.client_batches, 40);
        assert!((d.stall_secs - 0.5).abs() < 1e-12);
        assert_eq!(d.stall_fraction, 0.2, "gauge keeps newest reading");
        // Restarted registry (counters went backwards): clamp, no wrap.
        let r = a.delta(&b);
        assert_eq!(r.starved_polls, 0);
        assert_eq!(r.stall_secs, 0.0);
    }

    #[test]
    fn job_labeled_stall_fraction_is_read() {
        let reg = Registry::new();
        reg.gauge(names::TRAINER_STALL_FRACTION, &[("job", "rm1")])
            .set(0.7);
        let s = SignalSnapshot::sample_job(&reg, "rm1");
        assert!((s.stall_fraction - 0.7).abs() < 1e-12);
        // The unlabeled sample does not see the labeled series.
        assert_eq!(SignalSnapshot::sample(&reg).stall_fraction, 0.0);
    }
}
