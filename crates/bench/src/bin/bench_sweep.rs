//! Performance harness: times one fixed sweep three ways and records the
//! numbers in `BENCH_sweep.json` at the repository root.
//!
//! The workload is the paper's DBF degree-4 point (DBF produces the
//! richest event traces — transient loops, TTL drops, update storms).
//! Three legs run the identical seeded work through the one sweep the
//! figure binaries use (`convergence::aggregate::sweep`), differing only
//! in worker count and per-run fold:
//!
//! 1. sequential, seven-pass `summarize` (the baseline),
//! 2. parallel (`--jobs`, default 4), `summarize`,
//! 3. parallel, `summarize_streaming` (single-pass observers).
//!
//! The harness asserts that all three legs agree — byte-identical CSV
//! for 1 vs 2, identical `RunSummary` values for 1 vs 3 — so every
//! recorded speedup is for *verified-equivalent* output. Events/sec
//! comes from the simulator's own processed-event counter; peak RSS is
//! the `VmHWM` line of `/proc/self/status` (a whole-process high-water
//! mark, so leg order matters: the trace legs run first, and streaming
//! memory wins show up as the absence of further growth).

use std::time::Instant;

use bench::{point_seed, sweep_args};
use convergence::prelude::*;
use convergence::report::{fmt_f64, Table};
use topology::mesh::MeshDegree;

const PROTOCOL: ProtocolKind = ProtocolKind::Dbf;
const DEGREE: MeshDegree = MeshDegree::D4;

/// One timed leg: the workload's sweep on `jobs` workers, folding each
/// run with `fold`. Returns the summaries, the events processed and the
/// wall seconds.
///
/// # Panics
///
/// Panics if any slot fails (the paper's regular meshes never do).
fn leg(
    runs: usize,
    jobs: usize,
    fold: fn(&RunResult) -> Result<RunSummary, MetricsError>,
) -> (Vec<RunSummary>, u64, f64) {
    let cfg = ExperimentConfig::paper(PROTOCOL, DEGREE, 0);
    let t0 = Instant::now();
    let base_seed = point_seed(DEGREE, 0);
    let outcome = sweep(&cfg, runs, base_seed, jobs, |r| fold(&r), &|_| {});
    let seconds = t0.elapsed().as_secs_f64();
    if let Some(failed) = outcome.failed.first() {
        panic!("slot {} failed: {}", failed.slot, failed.error);
    }
    let events = outcome.telemetry.iter().map(|t| t.events_processed).sum();
    (outcome.values, events, seconds)
}

/// Renders the sweep's aggregate exactly the way a figure binary would,
/// so CSV comparison exercises the full float-formatting path.
fn point_csv(summaries: &[RunSummary]) -> String {
    let point = aggregate_point(summaries).expect("nonempty sweep");
    let mut table = Table::new(
        ["protocol", "degree", "delivery %", "no-route", "ttl", "fwdconv(s)", "rtconv(s)"]
            .map(String::from)
            .to_vec(),
    );
    table.push_row(vec![
        PROTOCOL.to_string(),
        DEGREE.to_string(),
        format!("{:.4}", 100.0 * point.delivery_ratio.mean),
        fmt_f64(point.drops_no_route.mean),
        fmt_f64(point.ttl_expirations.mean),
        fmt_f64(point.forwarding_convergence_s.mean),
        fmt_f64(point.routing_convergence_s.mean),
    ]);
    table.to_csv()
}

/// Peak resident set size in kB from `/proc/self/status` (`VmHWM`), or
/// `None` off Linux.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let args = sweep_args();
    let runs = args.runs;
    // The point of the harness is to measure parallelism, so `--jobs`
    // below 2 still benchmarks a multi-worker leg.
    let jobs = convergence::parallel::effective_jobs(args.jobs).max(4);
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    // Honesty: more workers than cores cannot speed anything up, so the
    // recorded speedups are judged against the parallelism the machine can
    // actually deliver.
    let jobs_effective = jobs.min(cores);
    println!(
        "bench_sweep: {PROTOCOL} {DEGREE}, {runs} runs, {jobs} jobs \
         ({cores} cores, {jobs_effective} effective)"
    );

    // Leg 1: sequential, seven-pass (the baseline all else must match).
    let (seq_summaries, events_total, sequential_s) = leg(runs, 1, summarize);
    let seq_csv = point_csv(&seq_summaries);
    println!("  sequential/trace   {sequential_s:.3}s");

    // Leg 2: parallel, seven-pass. Must reproduce the CSV byte for byte.
    let (par_summaries, par_events, parallel_s) = leg(runs, jobs, summarize);
    let par_csv = point_csv(&par_summaries);
    assert_eq!(seq_csv, par_csv, "parallel sweep changed the CSV bytes");
    assert_eq!(events_total, par_events, "parallel sweep changed the work");
    println!("  parallel/trace     {parallel_s:.3}s");

    // Leg 3: parallel, streaming fold. Must reproduce every RunSummary.
    let (stream_summaries, _, streaming_s) = leg(runs, jobs, summarize_streaming);
    assert_eq!(
        seq_summaries, stream_summaries,
        "streaming fold changed a RunSummary"
    );
    println!("  parallel/streaming {streaming_s:.3}s");

    let rss = peak_rss_kb();
    let par_speedup = sequential_s / parallel_s;
    let str_speedup = sequential_s / streaming_s;
    // A "parallel" leg slower than the sequential baseline is a red flag
    // (oversubscription, tiny workload, or a scheduling regression); make
    // it impossible to miss in the recorded JSON.
    let regressed = par_speedup < 1.0 || str_speedup < 1.0;
    if regressed {
        eprintln!(
            "warning: parallel speedup below 1.0 \
             (trace {par_speedup:.3}, streaming {str_speedup:.3})"
        );
    }
    let json = format!(
        concat!(
            "{{\n",
            "  \"workload\": {{\"protocol\": \"{protocol}\", \"degree\": \"{degree}\", \"runs\": {runs}}},\n",
            "  \"jobs\": {jobs},\n",
            "  \"available_cores\": {cores},\n",
            "  \"jobs_effective\": {jobs_effective},\n",
            "  \"speedup_below_one\": {regressed},\n",
            "  \"events_processed_total\": {events},\n",
            "  \"sequential_trace\": {{\"seconds\": {seq}, \"events_per_sec\": {seq_eps}, \"runs_per_sec\": {seq_rps}}},\n",
            "  \"parallel_trace\": {{\"seconds\": {par}, \"events_per_sec\": {par_eps}, \"runs_per_sec\": {par_rps}, \"speedup\": {par_speedup}}},\n",
            "  \"parallel_streaming\": {{\"seconds\": {str}, \"events_per_sec\": {str_eps}, \"runs_per_sec\": {str_rps}, \"speedup\": {str_speedup}}},\n",
            "  \"csv_bytes_identical\": true,\n",
            "  \"streaming_summaries_identical\": true,\n",
            "  \"peak_rss_kb\": {rss}\n",
            "}}\n"
        ),
        protocol = PROTOCOL,
        degree = DEGREE,
        runs = runs,
        jobs = jobs,
        cores = cores,
        jobs_effective = jobs_effective,
        regressed = regressed,
        events = events_total,
        seq = json_f64(sequential_s),
        seq_eps = json_f64(events_total as f64 / sequential_s),
        seq_rps = json_f64(runs as f64 / sequential_s),
        par = json_f64(parallel_s),
        par_eps = json_f64(events_total as f64 / parallel_s),
        par_rps = json_f64(runs as f64 / parallel_s),
        par_speedup = json_f64(par_speedup),
        str = json_f64(streaming_s),
        str_eps = json_f64(events_total as f64 / streaming_s),
        str_rps = json_f64(runs as f64 / streaming_s),
        str_speedup = json_f64(str_speedup),
        rss = rss.map_or("null".to_string(), |kb| kb.to_string()),
    );
    std::fs::write("BENCH_sweep.json", &json).expect("write BENCH_sweep.json");
    println!("wrote BENCH_sweep.json");
    print!("{json}");
}
