//! End-to-end tests of the parallel sweep: bit-identical results for
//! every worker count, streaming-vs-trace metric equality, and panic
//! isolation inside a multi-threaded sweep.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use convergence::experiment::ProtocolFactory;
use convergence::prelude::*;
use spf::Spf;
use topology::mesh::MeshDegree;

/// A sweep whose fold keeps each run's full result next to its
/// seven-pass summary.
fn trace_sweep(
    cfg: &ExperimentConfig,
    runs: usize,
    base_seed: u64,
    jobs: usize,
) -> SweepOutcome<(RunSummary, RunResult)> {
    sweep(
        cfg,
        runs,
        base_seed,
        jobs,
        |r| Ok((summarize(&r)?, r)),
        &|_| {},
    )
}

/// A sweep whose fold keeps only each run's streaming summary.
fn streaming_sweep(
    cfg: &ExperimentConfig,
    runs: usize,
    base_seed: u64,
    jobs: usize,
) -> SweepOutcome<RunSummary> {
    sweep(
        cfg,
        runs,
        base_seed,
        jobs,
        |r| summarize_streaming(&r),
        &|_| {},
    )
}

fn summaries(outcome: &SweepOutcome<(RunSummary, RunResult)>) -> Vec<RunSummary> {
    outcome.values.iter().map(|(s, _)| s.clone()).collect()
}

#[test]
fn sweep_matches_a_plain_run_loop_for_every_job_count() {
    let cfg = ExperimentConfig::paper(ProtocolKind::Dbf, MeshDegree::D4, 0);
    let reference: Vec<(RunSummary, RunResult)> = (0..4)
        .map(|i| {
            let mut cfg = cfg.clone();
            cfg.seed = 901 + i;
            let result = run(&cfg).expect("reference run succeeds");
            (summarize(&result).expect("summary"), result)
        })
        .collect();
    for jobs in [1, 4] {
        let outcome = trace_sweep(&cfg, 4, 901, jobs);
        assert!(outcome.failed.is_empty());
        assert_eq!(outcome.values.len(), reference.len());
        for ((ref_summary, ref_result), (summary, result)) in
            reference.iter().zip(outcome.values.iter())
        {
            assert_eq!(ref_summary, summary, "jobs={jobs}");
            assert_eq!(ref_result.trace.len(), result.trace.len());
            assert_eq!(
                ref_result.stats.events_processed,
                result.stats.events_processed
            );
        }
    }
}

#[test]
fn hardened_sweep_is_bit_identical_for_every_job_count() {
    let cfg = ExperimentConfig::paper(ProtocolKind::Rip, MeshDegree::D4, 0);
    let sequential = trace_sweep(&cfg, 4, 300, 1);
    let parallel = trace_sweep(&cfg, 4, 300, 4);
    assert!(sequential.failed.is_empty());
    assert!(parallel.failed.is_empty());
    assert_eq!(sequential.telemetry, parallel.telemetry);
    assert_eq!(summaries(&sequential), summaries(&parallel));
}

#[test]
fn streaming_mode_matches_trace_mode_for_each_paper_protocol() {
    for protocol in [ProtocolKind::Rip, ProtocolKind::Dbf, ProtocolKind::Bgp3] {
        let cfg = ExperimentConfig::paper(protocol, MeshDegree::D4, 0);
        let trace = trace_sweep(&cfg, 3, 700, 2);
        let streaming = streaming_sweep(&cfg, 3, 700, 2);
        assert!(trace.failed.is_empty(), "{protocol}: trace sweep failed");
        assert_eq!(
            summaries(&trace),
            streaming.values,
            "{protocol}: streaming fold diverged from the trace analyzers"
        );
        // The trace fold keeps every run; the streaming fold keeps none.
        assert_eq!(trace.values.len(), 3);
        assert!(trace.values.iter().all(|(_, r)| !r.trace.is_empty()));
    }
}

#[test]
fn sweep_telemetry_is_bit_identical_for_every_job_count() {
    let cfg = ExperimentConfig::paper(ProtocolKind::Dbf, MeshDegree::D4, 0);
    let sequential = streaming_sweep(&cfg, 3, 512, 1);
    let parallel = streaming_sweep(&cfg, 3, 512, 3);
    assert_eq!(sequential.telemetry, parallel.telemetry);
    assert_eq!(
        render_jsonl(&sequential.telemetry),
        render_jsonl(&parallel.telemetry),
        "telemetry JSONL bytes must not depend on the worker count"
    );
    // One record per slot, in slot order, fully populated.
    assert_eq!(sequential.telemetry.len(), 3);
    for (i, row) in sequential.telemetry.iter().enumerate() {
        assert_eq!(row.slot, i as u64);
        assert_eq!(row.attempts, 1);
        assert!(row.ok);
        assert_eq!(row.protocol, "DBF");
        assert!(row.events_processed > 0);
        assert!(row.queue_high_water > 0);
        assert_eq!(row.packets_injected, 1000);
    }
    // The fold consumed every result, but never the telemetry.
    assert_eq!(sequential.values.len(), 3);
}

#[test]
fn retry_attempts_are_recorded_in_telemetry() {
    // Exactly one protocol build panics, early enough to land inside
    // slot 0's first attempt (builds 0..=48 install slot 0's 49 nodes).
    // The retry — with a derived seed — completes, and the sweep must
    // report the true attempt count, not just the final attempt's
    // success.
    let builds = Arc::new(AtomicUsize::new(0));
    let factory = {
        let builds = Arc::clone(&builds);
        ProtocolFactory::new(move || {
            assert_ne!(
                builds.fetch_add(1, Ordering::Relaxed),
                5,
                "injected mid-install panic"
            );
            Box::new(Spf::default())
        })
    };
    let mut cfg = ExperimentConfig::paper(ProtocolKind::Spf, MeshDegree::D4, 0);
    cfg.protocol_override = Some(factory);

    let outcome = streaming_sweep(&cfg, 2, 40, 1);
    assert!(
        outcome.failed.is_empty(),
        "retry should have salvaged slot 0"
    );
    assert_eq!(outcome.values.len(), 2);
    assert_eq!(outcome.telemetry.len(), 2);
    assert_eq!(outcome.telemetry[0].attempts, 2);
    assert_eq!(outcome.telemetry[1].attempts, 1);
    assert!(outcome.telemetry.iter().all(|t| t.ok));
}

#[test]
fn exhausted_retries_yield_a_failed_telemetry_record() {
    let factory = ProtocolFactory::new(|| panic!("injected unconditional panic"));
    let mut cfg = ExperimentConfig::paper(ProtocolKind::Spf, MeshDegree::D4, 0);
    cfg.protocol_override = Some(factory);

    let outcome = streaming_sweep(&cfg, 1, 40, 1);
    assert!(outcome.values.is_empty());
    assert_eq!(outcome.failed.len(), 1);
    assert_eq!(outcome.failed[0].attempts, MAX_ATTEMPTS);
    assert_eq!(MAX_ATTEMPTS, 3);
    assert!(
        matches!(outcome.failed[0].error, RunError::Panicked(_)),
        "expected a Panicked error, got: {}",
        outcome.failed[0].error
    );
    assert_eq!(outcome.telemetry.len(), 1);
    let row = &outcome.telemetry[0];
    assert!(!row.ok);
    assert_eq!(row.attempts, 3);
    assert!(!row.error.is_empty());
    // The JSONL line survives the panic message's quoting.
    let line = row.to_json_line();
    assert!(line.contains("\"ok\":false"));
    assert!(line.contains("\"attempts\":3"));
}

#[test]
fn a_panicking_run_is_isolated_and_reported() {
    let runs = 4;
    // The factory is called once per node (49 per run); exactly one call
    // — inside exactly one run, whichever worker gets there first —
    // panics. The poisoned slot must recover on its reseeded second
    // attempt while every other slot completes untouched on its first.
    let builds = Arc::new(AtomicUsize::new(0));
    let trigger = 60; // lands mid-build of some run for every schedule
    let factory = {
        let builds = Arc::clone(&builds);
        ProtocolFactory::new(move || {
            assert_ne!(
                builds.fetch_add(1, Ordering::Relaxed),
                trigger,
                "injected protocol-construction panic"
            );
            Box::new(Spf::default())
        })
    };
    let mut cfg = ExperimentConfig::paper(ProtocolKind::Spf, MeshDegree::D4, 0);
    cfg.protocol_override = Some(factory);

    let outcome = streaming_sweep(&cfg, runs, 40, 2);
    assert!(outcome.failed.is_empty(), "the poisoned slot must recover");
    assert_eq!(outcome.values.len(), runs);
    let mut attempts: Vec<u32> = outcome.telemetry.iter().map(|t| t.attempts).collect();
    attempts.sort_unstable();
    assert_eq!(attempts, vec![1, 1, 1, 2], "exactly one slot retried once");
    assert!(outcome.telemetry.iter().all(|t| t.ok));
}
