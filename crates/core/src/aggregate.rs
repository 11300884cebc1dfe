//! Multi-run aggregation: the paper averages every number over 100
//! randomized runs per (protocol, degree) point.
//!
//! [`sweep`] is the one way to run them. Sweeps are embarrassingly
//! parallel — each run slot is a pure function of its seed — so it
//! distributes slots over the [`par_map_indexed`] worker pool and
//! reassembles them in slot order. For every `jobs` value the output is
//! **bit-identical** to the sequential execution: same seeds, same
//! values, same CSV bytes downstream. Each run is handed to a caller
//! fold (e.g. [`summarize_streaming`](crate::metrics::streaming::summarize_streaming))
//! on its worker and dropped there, so a 100-run sweep holds 100 folded
//! values, never 100 full event traces.

use std::panic::{catch_unwind, AssertUnwindSafe};

use obs::telemetry::RunTelemetry;
use serde::{Deserialize, Serialize};

use crate::experiment::ExperimentConfig;
use crate::metrics::summary::RunSummary;
use crate::metrics::MetricsError;
use crate::parallel::par_map_indexed;
use crate::runner::{run, RunError, RunResult};

/// Builds the telemetry record of a completed run slot from its engine
/// counters.
#[must_use]
pub fn run_telemetry(
    slot: u64,
    seed: u64,
    attempts: u32,
    protocol: &str,
    result: &RunResult,
) -> RunTelemetry {
    let s = result.stats;
    RunTelemetry {
        label: String::new(),
        slot,
        seed,
        attempts,
        ok: true,
        protocol: protocol.to_string(),
        events_processed: s.events_processed,
        queue_high_water: s.queue_high_water,
        control_messages: s.control_messages_sent,
        control_bytes: s.control_bytes_sent,
        control_retransmits: s.control_retransmits,
        packets_injected: s.packets_injected,
        packets_delivered: s.packets_delivered,
        packets_dropped: s.packets_dropped,
        watchdog_trips: 0,
        error: String::new(),
    }
}

/// Builds the telemetry record of a slot that failed all attempts.
#[must_use]
pub fn failed_telemetry(
    slot: u64,
    seed: u64,
    attempts: u32,
    protocol: &str,
    error: &RunError,
) -> RunTelemetry {
    let (watchdog_trips, events_processed) = match error {
        RunError::Watchdog { events, .. } => (1, *events),
        _ => (0, 0),
    };
    RunTelemetry {
        slot,
        seed,
        attempts,
        ok: false,
        protocol: protocol.to_string(),
        events_processed,
        watchdog_trips,
        error: error.to_string(),
        ..RunTelemetry::default()
    }
}

/// Mean / standard deviation / extremes of one metric across runs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Aggregate {
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Number of observations.
    pub n: usize,
}

impl Aggregate {
    /// Aggregates a sample in a single pass (Welford's online algorithm
    /// for the variance, so huge samples neither need a second scan nor
    /// lose precision to the naive sum-of-squares formula).
    ///
    /// Returns `None` on an empty sample.
    #[must_use]
    pub fn of(values: &[f64]) -> Option<Self> {
        if values.is_empty() {
            return None;
        }
        let mut mean = 0.0f64;
        let mut m2 = 0.0f64;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for (i, &v) in values.iter().enumerate() {
            let delta = v - mean;
            mean += delta / (i + 1) as f64;
            m2 += delta * (v - mean);
            min = min.min(v);
            max = max.max(v);
        }
        let n = values.len();
        Some(Aggregate {
            mean,
            std_dev: (m2 / n as f64).sqrt(),
            min,
            max,
            n,
        })
    }
}

/// Attempts per sweep slot, the first included: a slot whose run fails
/// with a retryable error ([`RunError::is_retryable`]) is reseeded with
/// [`derive_seed`] until it succeeds or this many attempts are spent.
pub const MAX_ATTEMPTS: u32 = 3;

/// The reseed used for attempt `attempt` (0-based) of the slot whose
/// first attempt used `seed`.
///
/// Deterministic, collision-averse (golden-ratio stride in the upper
/// bits, far from the dense `base_seed..base_seed+runs` band), and
/// attempt 0 is the unmodified seed, so a retry-free sweep runs exactly
/// the seeds `base_seed..base_seed+runs`.
#[must_use]
pub fn derive_seed(seed: u64, attempt: u32) -> u64 {
    seed.wrapping_add(u64::from(attempt).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// One run slot that produced no usable result even after retries.
#[derive(Debug)]
pub struct FailedRun {
    /// The slot index.
    pub slot: usize,
    /// The slot's base seed (before reseeding).
    pub seed: u64,
    /// Attempts consumed ([`MAX_ATTEMPTS`] unless the error was not
    /// retryable).
    pub attempts: u32,
    /// The last error.
    pub error: RunError,
}

/// Everything a sweep produced.
#[derive(Debug)]
pub struct SweepOutcome<T> {
    /// The folded value of every successful slot, in slot order.
    pub values: Vec<T>,
    /// Slots that failed all attempts, in slot order.
    pub failed: Vec<FailedRun>,
    /// One record per slot — completed *and* failed — in slot order.
    pub telemetry: Vec<RunTelemetry>,
}

/// Executes `runs` seeded repetitions of `config` (slot `i` uses seed
/// `base_seed + i`) on up to `jobs` worker threads (`0` = all cores) and
/// maps each finished run through `fold`.
///
/// The sweep is hardened for adversarial configurations: each attempt
/// (run and fold) is isolated with [`catch_unwind`], so a panic becomes a
/// [`RunError::Panicked`] instead of tearing down the sweep, and
/// retryable errors (no path, unsatisfiable failure selection, caught
/// panics) are retried with [`derive_seed`] reseeds up to
/// [`MAX_ATTEMPTS`]. A fold error is a property of the scenario, not the
/// draw, and is never retried. The sweep itself never fails:
/// unsalvageable slots land in [`SweepOutcome::failed`].
///
/// Each slot's telemetry is taken from the run's engine counters before
/// `fold` consumes the result, and records the slot's true attempt
/// count. `on_done(i)` fires when slot `i` finishes (for progress
/// meters). Slots are reassembled in slot order, so the outcome is
/// identical for every `jobs` value.
pub fn sweep<T, F>(
    config: &ExperimentConfig,
    runs: usize,
    base_seed: u64,
    jobs: usize,
    fold: F,
    on_done: &(dyn Fn(usize) + Sync),
) -> SweepOutcome<T>
where
    T: Send,
    F: Fn(RunResult) -> Result<T, MetricsError> + Sync,
{
    let protocol = config.protocol.label();
    let slots = par_map_indexed(
        runs,
        jobs,
        |i| {
            let slot = i as u64;
            let seed = base_seed + slot;
            let mut attempts = 0;
            loop {
                let mut cfg = config.clone();
                cfg.seed = derive_seed(seed, attempts);
                attempts += 1;
                let attempt = catch_unwind(AssertUnwindSafe(|| {
                    let result = run(&cfg)?;
                    let telemetry = run_telemetry(slot, seed, attempts, protocol, &result);
                    Ok((fold(result)?, telemetry))
                }))
                .unwrap_or_else(|payload| Err(RunError::Panicked(panic_message(&*payload))));
                match attempt {
                    Ok((value, telemetry)) => break (Ok(value), telemetry),
                    Err(error) if error.is_retryable() && attempts < MAX_ATTEMPTS => {}
                    Err(error) => {
                        let telemetry = failed_telemetry(slot, seed, attempts, protocol, &error);
                        let failed = FailedRun {
                            slot: i,
                            seed,
                            attempts,
                            error,
                        };
                        break (Err(failed), telemetry);
                    }
                }
            }
        },
        on_done,
    );
    let mut outcome = SweepOutcome {
        values: Vec::with_capacity(runs),
        failed: Vec::new(),
        telemetry: Vec::with_capacity(runs),
    };
    for (slot, telemetry) in slots {
        match slot {
            Ok(value) => outcome.values.push(value),
            Err(failed) => outcome.failed.push(failed),
        }
        outcome.telemetry.push(telemetry);
    }
    outcome
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The aggregated scalars for one sweep point, in the units the paper
/// plots.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PointSummary {
    /// Mean drops with no route (Fig. 3 y-axis).
    pub drops_no_route: Aggregate,
    /// Mean TTL expirations (Fig. 4 y-axis).
    pub ttl_expirations: Aggregate,
    /// Mean drops on the undetected failed link.
    pub drops_link_down: Aggregate,
    /// Mean total drops.
    pub drops_total: Aggregate,
    /// Mean delivery ratio.
    pub delivery_ratio: Aggregate,
    /// Mean forwarding-path convergence delay (Fig. 6a y-axis).
    pub forwarding_convergence_s: Aggregate,
    /// Mean network routing convergence time (Fig. 6b y-axis).
    pub routing_convergence_s: Aggregate,
    /// Mean count of looping packets.
    pub looped_packets: Aggregate,
    /// Mean count of distinct transient paths.
    pub transient_paths: Aggregate,
    /// Mean control messages per run.
    pub control_messages: Aggregate,
    /// Mean of the per-run maximum switch-over window (Fig. 4.1 factor).
    pub max_switchover_s: Aggregate,
    /// Mean path stretch of delivered flow packets.
    pub mean_stretch: Aggregate,
}

/// Folds per-run summaries into a [`PointSummary`].
///
/// # Errors
///
/// [`MetricsError::EmptySweep`] if `summaries` is empty.
pub fn aggregate_point(summaries: &[RunSummary]) -> Result<PointSummary, MetricsError> {
    let f = |extract: fn(&RunSummary) -> f64| {
        Aggregate::of(&summaries.iter().map(extract).collect::<Vec<f64>>())
            .ok_or(MetricsError::EmptySweep)
    };
    Ok(PointSummary {
        drops_no_route: f(|s| s.drops.no_route as f64)?,
        ttl_expirations: f(|s| s.drops.ttl_expired as f64)?,
        drops_link_down: f(|s| s.drops.link_down as f64)?,
        drops_total: f(|s| s.drops.total() as f64)?,
        delivery_ratio: f(RunSummary::delivery_ratio)?,
        forwarding_convergence_s: f(|s| s.forwarding_convergence_s)?,
        routing_convergence_s: f(|s| s.routing_convergence_s)?,
        looped_packets: f(|s| s.looped_packets as f64)?,
        transient_paths: f(|s| s.transient_paths as f64)?,
        control_messages: f(|s| s.control_messages as f64)?,
        max_switchover_s: f(|s| s.max_switchover_s)?,
        mean_stretch: f(|s| s.mean_stretch)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_of_constant_sample() {
        let a = Aggregate::of(&[3.0, 3.0, 3.0]).unwrap();
        assert_eq!(a.mean, 3.0);
        assert_eq!(a.std_dev, 0.0);
        assert_eq!(a.min, 3.0);
        assert_eq!(a.max, 3.0);
        assert_eq!(a.n, 3);
    }

    #[test]
    fn aggregate_statistics() {
        let a = Aggregate::of(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert!((a.mean - 2.5).abs() < 1e-12);
        assert!((a.std_dev - (1.25f64).sqrt()).abs() < 1e-12);
        assert_eq!(a.min, 1.0);
        assert_eq!(a.max, 4.0);
    }

    #[test]
    fn empty_sample_is_none() {
        assert_eq!(Aggregate::of(&[]), None);
    }

    #[test]
    fn welford_matches_two_pass_on_a_shifted_sample() {
        // A mean far from zero is where the naive sum-of-squares loses
        // precision; Welford must agree with the two-pass reference.
        let values: Vec<f64> = (0..1000).map(|i| 1.0e9 + f64::from(i) * 0.25).collect();
        let a = Aggregate::of(&values).unwrap();
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        let var =
            values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / values.len() as f64;
        assert!((a.mean - mean).abs() < 1e-3);
        assert!((a.std_dev - var.sqrt()).abs() < 1e-6);
    }
}
