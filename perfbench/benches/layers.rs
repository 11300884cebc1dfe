//! The traced run: per-layer time and work, measured from outside by
//! timing calls into each layer's public functions, with a wall-clock
//! span recorder attached to the engine.
//!
//! The scenarios are the end-to-end run's configuration grid, in rounds
//! until `--seconds` have passed, so the counters are the same for any
//! run length. Every scenario runs twice, once untraced and once traced
//! (alternating which goes first), so the tracing overhead is measured on
//! the same inputs. The traced wall time of `run_observed` is reconciled against
//! the engine's span phases and the separately timed topology set-up;
//! what no phase accounts for (warm-up scanning, CBR scheduling, builder
//! and failure selection) is reported as `runner.unattributed_frac`.
//! Run-phase and record-kind splits come from the trace itself, cut at the
//! `RunResult` times (`warmup_end`, `t_fail`, end of the traffic window).

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use convergence::aggregate::run_telemetry;
use convergence::experiment::ExperimentConfig;
use convergence::metrics::series::{delay_series, throughput_series};
use convergence::metrics::streaming::summarize_streaming;
use convergence::metrics::summary::{summarize, RunSummary};
use convergence::protocols::ProtocolKind;
use convergence::runner::{run, run_observed, RunError, RunResult};
use obs::span::{Recorder, EVENT_DISPATCH, PROTOCOL_PROCESSING, TRACE_RECORDING};
use obs::telemetry::render_jsonl;
use topology::instantiate::to_simulator_builder;

use crate::check;
use crate::grid;
use crate::sys::{self, nanos, ratio};
use crate::{Outcome, Workload};

/// Rounds over the grid that every traced run completes.
const MIN_ROUNDS: usize = 1;

/// The fig5/fig7 series window, seconds relative to the failure.
const SERIES_WINDOW: (i64, i64) = (-10, 40);

/// Trace record kinds that occur in the paper's single-failure runs, in
/// report order. `LinkRecovered`, `ImpairmentChanged` and
/// `NodeRestarted` never occur there and are not reported.
const KINDS: [&str; 8] = [
    "PacketInjected",
    "PacketForwarded",
    "PacketDelivered",
    "PacketDropped",
    "RouteChanged",
    "ControlSent",
    "LinkFailed",
    "LinkStateDetected",
];

/// Run phases a trace record can fall in.
const PHASES: [&str; 4] = ["warmup", "lead", "after_fail", "drain"];

fn wall_recorder() -> Box<Recorder> {
    let start = Instant::now();
    Box::new(Recorder::external(Box::new(move || {
        u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    })))
}

/// Sums over the successfully traced scenarios.
#[derive(Debug, Default)]
struct Totals {
    runs: f64,
    events: f64,
    queue_high_water: Vec<f64>,
    records: f64,
    by_phase: [f64; 4],
    by_kind: [f64; 8],
    control_msgs: f64,
    control_bytes: f64,
    payloads_shared: f64,
    topology_ns: f64,
    untraced_ns: f64,
    traced_ns: f64,
    fold_ns: f64,
    summarize_ns: f64,
    series_ns: f64,
    render_ns: f64,
    telemetry_bytes: f64,
}

/// One protocol's span recorder and run count.
struct ProtocolSpans {
    protocol: ProtocolKind,
    recorder: Box<Recorder>,
    runs: u64,
}

impl ProtocolSpans {
    fn phase(&self, name: &'static str) -> (f64, f64) {
        (
            self.recorder.exclusive_ns(name) as f64,
            self.recorder.calls(name) as f64,
        )
    }
}

fn kind_counts(census: &netsim::trace::TraceCensus) -> [u64; 8] {
    [
        census.injected,
        census.forwarded,
        census.delivered,
        census.dropped,
        census.route_changes,
        census.control_sent,
        census.link_failures,
        census.detections,
    ]
}

fn phase_split(result: &RunResult) -> [u64; 4] {
    let mut split = [0u64; 4];
    for event in result.trace.iter() {
        let t = event.time();
        let phase = if t < result.warmup_end {
            0
        } else if t < result.t_fail {
            1
        } else if t < result.traffic_window.1 {
            2
        } else {
            3
        };
        split[phase] += 1;
    }
    split
}

/// The untraced side: `run` alone, timed.
fn untraced(cfg: &ExperimentConfig) -> Result<(f64, RunSummary), String> {
    catch_unwind(AssertUnwindSafe(|| -> Result<_, RunError> {
        let t = Instant::now();
        let result = run(cfg)?;
        let took = nanos(t.elapsed());
        Ok((took, summarize_streaming(&result)?))
    }))
    .map_err(|_| "panicked".to_string())?
    .map_err(|e| e.to_string())
}

/// The traced side: `run_observed` with the protocol's recorder attached,
/// timed.
fn traced(cfg: &ExperimentConfig, spans: &mut ProtocolSpans) -> Result<(f64, RunResult), String> {
    let recorder = std::mem::replace(&mut spans.recorder, wall_recorder());
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let t = Instant::now();
        let observed = run_observed(cfg, Some(recorder));
        (nanos(t.elapsed()), observed)
    }));
    match outcome {
        Ok((run_ns, Ok((result, returned)))) => {
            if let Some(recorder) = returned {
                spans.recorder = recorder;
            }
            spans.runs += 1;
            Ok((run_ns, result))
        }
        // A failed run drops the recorder with everything it accumulated;
        // the failure makes the whole traced run fail, so no span total
        // is used.
        Ok((_, Err(e))) => Err(e.to_string()),
        Err(_) => Err("panicked".into()),
    }
}

/// Times the layers around one scenario and folds them into `totals`.
/// Fails when the scenario fails or an output check does not hold.
fn scenario(
    cfg: &ExperimentConfig,
    index: usize,
    spans: &mut ProtocolSpans,
    totals: &mut Totals,
) -> Result<(), String> {
    let t = Instant::now();
    let realized = cfg.topology.realize();
    let built = to_simulator_builder(&realized.graph, cfg.link).map_err(|e| e.to_string())?;
    let topology_ns = nanos(t.elapsed());
    black_box((realized, built));

    let ((untraced_ns, untraced_summary), (traced_ns, result)) = if index.is_multiple_of(2) {
        let untraced = untraced(cfg)?;
        (untraced, traced(cfg, spans)?)
    } else {
        let traced = traced(cfg, spans)?;
        (untraced(cfg)?, traced)
    };
    let result = &result;

    let t = Instant::now();
    let folded = summarize_streaming(result).map_err(|e| e.to_string())?;
    let fold_ns = nanos(t.elapsed());
    let t = Instant::now();
    let seven_pass = summarize(result).map_err(|e| e.to_string())?;
    let summarize_ns = nanos(t.elapsed());
    let t = Instant::now();
    let (from_s, to_s) = SERIES_WINDOW;
    black_box(throughput_series(
        &result.trace,
        result.t_fail,
        from_s,
        to_s,
    ));
    black_box(delay_series(&result.trace, result.t_fail, from_s, to_s));
    let series_ns = nanos(t.elapsed());
    let t = Instant::now();
    let row = run_telemetry(index as u64, cfg.seed, 1, cfg.protocol.label(), result);
    let jsonl = render_jsonl(std::slice::from_ref(&row));
    let render_ns = nanos(t.elapsed());

    if folded != seven_pass || folded != untraced_summary {
        return Err("streaming, seven-pass and untraced summaries differ".into());
    }
    if !check::conserved(&result.stats, &folded) {
        return Err("packets not conserved".into());
    }

    let stats = &result.stats;
    totals.runs += 1.0;
    totals.events += stats.events_processed as f64;
    totals.queue_high_water.push(stats.queue_high_water as f64);
    totals.records += result.trace.len() as f64;
    for (sum, n) in totals.by_phase.iter_mut().zip(phase_split(result)) {
        *sum += n as f64;
    }
    for (sum, n) in totals
        .by_kind
        .iter_mut()
        .zip(kind_counts(&result.trace.census()))
    {
        *sum += n as f64;
    }
    totals.control_msgs += stats.control_messages_sent as f64;
    totals.control_bytes += stats.control_bytes_sent as f64;
    totals.payloads_shared += stats.control_payloads_shared as f64;
    totals.topology_ns += topology_ns;
    totals.untraced_ns += untraced_ns;
    totals.traced_ns += traced_ns;
    totals.fold_ns += fold_ns;
    totals.summarize_ns += summarize_ns;
    totals.series_ns += series_ns;
    totals.render_ns += render_ns;
    totals.telemetry_bytes += jsonl.len() as f64;
    Ok(())
}

/// Measures a workload's per-layer metrics.
pub fn measure(workload: &Workload, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let seed = if workload.figures {
        bench::BASE_SEED
    } else {
        seed
    };
    out.attempted += workload.protocols.len() as u64;
    if !grid::canary(workload) {
        out.failed += workload.protocols.len() as u64;
    }
    let grid = grid::config_grid(workload, seed);
    let mut spans: Vec<ProtocolSpans> = workload
        .protocols
        .iter()
        .map(|&protocol| ProtocolSpans {
            protocol,
            recorder: wall_recorder(),
            runs: 0,
        })
        .collect();
    let mut totals = Totals::default();
    let cpu_start = sys::cpu_seconds();
    let started = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || started.elapsed().as_secs_f64() < seconds {
        for (index, cfg) in grid.iter().enumerate() {
            let slot = spans
                .iter_mut()
                .find(|s| s.protocol == cfg.protocol)
                .expect("every grid protocol has a recorder");
            out.attempted += 1;
            if let Err(why) = scenario(cfg, index, slot, &mut totals) {
                eprintln!(
                    "perfbench: {} seed {} failed: {why}",
                    cfg.protocol, cfg.seed
                );
                out.failed += 1;
            }
        }
        rounds += 1;
    }
    let wall = started.elapsed().as_secs_f64();
    let cpu = sys::cpu_seconds() - cpu_start;

    let mut dispatch = (0.0, 0.0);
    let mut protocol = (0.0, 0.0);
    let mut recording = (0.0, 0.0);
    for s in &spans {
        for (sum, name) in [
            (&mut dispatch, EVENT_DISPATCH),
            (&mut protocol, PROTOCOL_PROCESSING),
            (&mut recording, TRACE_RECORDING),
        ] {
            let (ns, calls) = s.phase(name);
            sum.0 += ns;
            sum.1 += calls;
        }
    }
    let t = &totals;
    let n = t.runs;
    let attributed = dispatch.0 + protocol.0 + recording.0 + t.topology_ns;
    let per_run_ms = |ns: f64| ratio(ns, n) / 1e6;

    let w = workload.name;
    println!(
        "{w} traced: {n} runs in {wall:.1} s; traced run() {:.3} ms/run = topology {:.3} \
         + netsim.dispatch {:.3} + netsim.trace {:.3} + protocol {:.3} + unattributed {:.3} ms",
        per_run_ms(t.traced_ns),
        per_run_ms(t.topology_ns),
        per_run_ms(dispatch.0),
        per_run_ms(recording.0),
        per_run_ms(protocol.0),
        per_run_ms(t.traced_ns - attributed),
    );
    println!(
        "{w} traced: untraced run() {:.3} ms/run, tracing overhead {:.1}%; outside run(): \
         fold {:.3}, summarize {:.3}, series {:.3} ms/run, telemetry render {:.2} us/run",
        per_run_ms(t.untraced_ns),
        100.0 * (ratio(t.traced_ns, t.untraced_ns) - 1.0),
        per_run_ms(t.fold_ns),
        per_run_ms(t.summarize_ns),
        per_run_ms(t.series_ns),
        ratio(t.render_ns, n) / 1e3,
    );
    for s in &spans {
        let (ns, calls) = s.phase(PROTOCOL_PROCESSING);
        let runs = s.runs as f64;
        println!(
            "{w} traced: protocol {}: {:.3} ms/run, {:.0} calls/run, {:.1} ns/call",
            s.protocol,
            ratio(ns, runs) / 1e6,
            ratio(calls, runs),
            ratio(ns, calls),
        );
    }

    let mut hw = t.queue_high_water.clone();
    out.metric("netsim.events_per_run", ratio(t.events, n), "count");
    out.metric(
        "netsim.queue_high_water_p50",
        sys::quantile(&mut hw, 0.5),
        "count",
    );
    out.metric("netsim.dispatch_ms_per_run", per_run_ms(dispatch.0), "ms");
    out.metric(
        "netsim.dispatch_ns_per_event",
        ratio(dispatch.0, t.events),
        "ns",
    );
    out.metric("netsim.trace_records_per_run", ratio(t.records, n), "count");
    out.metric(
        "netsim.trace_recording_ms_per_run",
        per_run_ms(recording.0),
        "ms",
    );
    for (phase, count) in PHASES.iter().zip(t.by_phase) {
        out.metric(
            &format!("netsim.trace_frac.{phase}"),
            ratio(count, t.records),
            "fraction",
        );
    }
    for (kind, count) in KINDS.iter().zip(t.by_kind) {
        out.metric(
            &format!("netsim.trace_kind.{kind}_per_run"),
            ratio(count, n),
            "count",
        );
    }
    out.metric(
        "netsim.control_msgs_per_run",
        ratio(t.control_msgs, n),
        "count",
    );
    out.metric(
        "netsim.control_bytes_per_run",
        ratio(t.control_bytes, n),
        "bytes",
    );
    out.metric(
        "netsim.payload_shared_frac",
        ratio(t.payloads_shared, t.control_msgs),
        "fraction",
    );
    out.metric(
        "protocol.processing_ms_per_run",
        per_run_ms(protocol.0),
        "ms",
    );
    out.metric("protocol.calls_per_run", ratio(protocol.1, n), "count");
    out.metric("protocol.ns_per_call", ratio(protocol.0, protocol.1), "ns");
    out.metric(
        "topology.realize_us_per_run",
        ratio(t.topology_ns, n) / 1e3,
        "us",
    );
    out.metric(
        "runner.traced_run_ms_per_run",
        per_run_ms(t.traced_ns),
        "ms",
    );
    out.metric(
        "runner.unattributed_frac",
        1.0 - ratio(attributed, t.traced_ns),
        "fraction",
    );
    out.metric("metrics.fold_ms_per_run", per_run_ms(t.fold_ns), "ms");
    out.metric(
        "metrics.summarize_ms_per_run",
        per_run_ms(t.summarize_ns),
        "ms",
    );
    out.metric("metrics.series_ms_per_run", per_run_ms(t.series_ns), "ms");
    if !workload.figures {
        // The grid loop runs every scenario once, without retries, on
        // one thread.
        out.metric("sweep.runs_executed_per_scenario", 1.0, "ratio");
        out.metric(
            "sweep.events_executed_per_scenario",
            ratio(t.events, n),
            "count",
        );
        out.metric("sweep.attempts_per_scenario", 1.0, "ratio");
        out.metric("parallel.cpu_util", ratio(cpu, wall), "fraction");
    }
    out.metric(
        "obs.telemetry_bytes_per_run",
        ratio(t.telemetry_bytes, n),
        "bytes",
    );
    out.metric("obs.render_us_per_run", ratio(t.render_ns, n) / 1e3, "us");
    out.metric(
        "obs.tracing_overhead_frac",
        ratio(t.traced_ns, t.untraced_ns) - 1.0,
        "fraction",
    );
    out
}
