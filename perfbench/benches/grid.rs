//! End-to-end measurement of a grid workload, with no tracing attached.
//!
//! Closed loop on one thread: each run starts when the previous one has
//! been folded and checked. The scenarios are [`SEEDS_PER_POINT`] seeds at
//! every (degree, protocol) point; one round runs each of them once.
//! Rounds repeat until `--seconds` have passed, so every round costs the
//! same, and the median round gives the throughput. Every round must
//! reproduce the first round's summary digest exactly.
//!
//! Peak RSS is measured apart, in a fresh child process that runs one
//! round at the default seed. A run's memory is set by its trace, and
//! trace lengths are heavy-tailed: a few BGP degree-3 runs in a thousand
//! record four times the median. The peak over a seed-dependent sample
//! would mostly measure which seeds were drawn.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::Command;
use std::time::{Duration, Instant};

use convergence::experiment::{ExperimentConfig, TopologySpec};
use convergence::metrics::streaming::summarize_streaming;
use convergence::metrics::summary::RunSummary;
use convergence::runner::{run, RunError};
use netsim::simulator::SimStats;
use topology::mesh::MeshDegree;

use crate::check::{self, Digest};
use crate::sys;
use crate::{Outcome, Workload};

/// Set-up repetitions; the median is reported.
const SETUP_REPS: usize = 31;

/// Seeds per (degree, protocol) point in one round.
const SEEDS_PER_POINT: usize = 10;

/// Rounds every run completes.
const MIN_ROUNDS: usize = 2;

/// The configuration grid: [`SEEDS_PER_POINT`] paper runs at every
/// (degree, protocol) point, in round order. `seed` takes the place of
/// `bench::BASE_SEED` in `bench::point_seed`, so the default seed gives
/// exactly the figure binaries' scenarios.
#[must_use]
pub fn config_grid(workload: &Workload, seed: u64) -> Vec<ExperimentConfig> {
    let mut grid = Vec::new();
    for index in 0..SEEDS_PER_POINT {
        for degree in MeshDegree::ALL {
            let point_seed = bench::point_seed(degree, index)
                .wrapping_sub(bench::BASE_SEED)
                .wrapping_add(seed);
            for &protocol in workload.protocols {
                grid.push(ExperimentConfig::paper(protocol, degree, point_seed));
            }
        }
    }
    grid
}

/// One scenario as a sweep runs it: the run, then the streaming fold the
/// fig3/4/6 sweeps use. Errors and panics both count as failures.
pub fn run_and_fold(cfg: &ExperimentConfig) -> Result<(SimStats, RunSummary), String> {
    let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<_, RunError> {
        let result = run(cfg)?;
        let summary = summarize_streaming(&result)?;
        Ok((result.stats, summary))
    }));
    match outcome {
        Ok(Ok(done)) => Ok(done),
        Ok(Err(e)) => Err(e.to_string()),
        Err(_) => Err("panicked".into()),
    }
}

/// Runs one canary scenario per protocol at a fixed seed, whatever the
/// workload seed, and checks the digest of their summaries against its
/// pin. Prints what went wrong.
pub fn canary(workload: &Workload) -> bool {
    let mut digest = Digest::default();
    for &protocol in workload.protocols {
        let degree = MeshDegree::D4;
        let cfg = ExperimentConfig::paper(protocol, degree, bench::point_seed(degree, 0));
        match run_and_fold(&cfg) {
            Ok((stats, summary)) if check::conserved(&stats, &summary) => {
                digest.push(cfg.seed, &summary);
            }
            Ok(_) => {
                eprintln!("perfbench: {protocol} canary does not conserve packets");
                return false;
            }
            Err(why) => {
                eprintln!("perfbench: {protocol} canary failed: {why}");
                return false;
            }
        }
    }
    let pinned = check::pinned_canary(workload.name);
    if digest.value() != pinned {
        eprintln!(
            "perfbench: {} canary digest {:016x} != pinned {pinned:016x}",
            workload.name,
            digest.value()
        );
    }
    digest.value() == pinned
}

/// Set-up: the configuration grid, the six realised meshes and one
/// warm-up (canary) run per protocol.
fn setup(workload: &Workload, seed: u64) -> (Duration, Vec<ExperimentConfig>, bool) {
    let started = Instant::now();
    let grid = config_grid(workload, seed);
    for degree in MeshDegree::ALL {
        black_box(TopologySpec::paper_mesh(degree).realize());
    }
    let canary_ok = canary(workload);
    (started.elapsed(), grid, canary_ok)
}

/// The `--rss-probe` child: one round of the grid at the default seed,
/// then this process's peak RSS in MiB.
pub fn rss_probe(workload: &Workload) -> Result<f64, String> {
    for cfg in config_grid(workload, check::DEFAULT_SEED) {
        let (stats, summary) = run_and_fold(&cfg)?;
        if !check::conserved(&stats, &summary) {
            return Err(format!("seed {} does not conserve packets", cfg.seed));
        }
    }
    Ok(sys::peak_rss_mib())
}

/// Runs [`rss_probe`] in a fresh process and returns its peak RSS.
fn peak_rss_of_probe(workload: &Workload) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--rss-probe", workload.name])
        .output()
        .map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!("memory probe exited with {}", output.status));
    }
    String::from_utf8_lossy(&output.stdout)
        .trim()
        .parse()
        .map_err(|_| "memory probe printed no number".to_string())
}

/// Measures a grid workload's end-to-end metrics.
pub fn measure(workload: &Workload, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut scenarios = Vec::new();
    for _ in 0..SETUP_REPS {
        let (took, grid, canary_ok) = setup(workload, seed);
        setup_s.push(took.as_secs_f64());
        out.attempted += workload.protocols.len() as u64;
        if !canary_ok {
            out.failed += workload.protocols.len() as u64;
        }
        scenarios = grid;
    }

    // Wall time of every run, by scenario.
    let mut latency_ms = vec![Vec::new(); scenarios.len()];
    let mut round_s = Vec::new();
    let mut first: Option<Digest> = None;
    let cpu_start = sys::cpu_seconds();
    let started = Instant::now();
    while round_s.len() < MIN_ROUNDS || started.elapsed().as_secs_f64() < seconds {
        let round_started = Instant::now();
        let mut digest = Digest::default();
        for (cfg, latency_ms) in scenarios.iter().zip(&mut latency_ms) {
            let t = Instant::now();
            let done = run_and_fold(cfg);
            latency_ms.push(t.elapsed().as_secs_f64() * 1e3);
            out.attempted += 1;
            match done {
                Ok((stats, summary)) => {
                    if !check::conserved(&stats, &summary) {
                        eprintln!("perfbench: seed {} does not conserve packets", cfg.seed);
                        out.failed += 1;
                    }
                    digest.push(cfg.seed, &summary);
                }
                Err(why) => {
                    eprintln!(
                        "perfbench: {} seed {} failed: {why}",
                        cfg.protocol, cfg.seed
                    );
                    out.failed += 1;
                }
            }
        }
        round_s.push(round_started.elapsed().as_secs_f64());
        match first {
            None => first = Some(digest),
            Some(first) if first.value() != digest.value() => {
                eprintln!(
                    "perfbench: round {} digest differs from round 1",
                    round_s.len()
                );
                out.failed += digest.runs();
            }
            Some(_) => {}
        }
    }
    let cpu = sys::cpu_seconds() - cpu_start;
    let runs = (scenarios.len() * round_s.len()) as f64;
    // A scenario's latency is its median over the rounds, which keeps
    // short bursts of machine noise out of the tail; p50 and p90 are over
    // the scenarios.
    let mut scenario_ms: Vec<f64> = latency_ms
        .iter_mut()
        .map(|runs| sys::quantile(runs, 0.5))
        .collect();

    let digest = first.expect("at least one round ran");
    match check::pinned_grid(workload.name, seed) {
        Some(pinned) if pinned != digest.value() => {
            eprintln!(
                "perfbench: {} seed {seed} digest {:016x} != pinned {pinned:016x}",
                workload.name,
                digest.value()
            );
            out.failed += digest.runs();
        }
        pinned => println!(
            "{} seed {seed}: {} rounds of {} scenarios, digest {:016x} ({})",
            workload.name,
            round_s.len(),
            digest.runs(),
            digest.value(),
            if pinned.is_some() {
                "matches the pin"
            } else {
                "no pin for this seed"
            }
        ),
    }

    let round = sys::quantile(&mut round_s, 0.5);
    println!(
        "{} round wall: min {:.4} s, median {round:.4} s, max {:.4} s",
        workload.name,
        round_s[0],
        round_s[round_s.len() - 1]
    );
    out.metric(
        "runs_per_s",
        sys::ratio(scenarios.len() as f64, round),
        "1/s",
    );
    out.metric("run_ms_p50", sys::quantile(&mut scenario_ms, 0.5), "ms");
    out.metric("run_ms_p90", sys::quantile(&mut scenario_ms, 0.9), "ms");
    out.metric("cpu_ms_per_run", sys::ratio(cpu * 1e3, runs), "ms");
    let peak_rss = peak_rss_of_probe(workload).unwrap_or_else(|why| {
        eprintln!("perfbench: {why}");
        out.attempted += 1;
        out.failed += 1;
        0.0
    });
    out.metric("peak_rss_mb", peak_rss, "MiB");
    out.metric("setup_s", sys::quantile(&mut setup_s, 0.5), "s");
    out
}
