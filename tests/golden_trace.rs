//! Golden regression tests, pinned as fixtures under `tests/golden/`:
//!
//! - **Traces.** One small fixed-seed run per paper protocol, with the
//!   full `TraceEvent` stream compressed with the dependency-free `obs`
//!   codec. Any engine change that reorders events, alters a tie-break,
//!   or drifts a timer shows up here as a byte-level diff of the rendered
//!   trace — *before* it can silently shift the paper's figures.
//! - **Work counters.** The engine counters of one full-size paper run
//!   per protocol, plus a BGP link-flap run, in plain text. Unlike
//!   wall-clock rates they do not depend on the machine, so they are
//!   pinned exactly: dead work (an extra timer, a re-queued key, a lost
//!   payload share) fails here even when no trace record changes.
//!
//! To regenerate after an *intentional* behavior change:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test golden_trace
//! ```
//!
//! and commit the updated fixtures together with the change that
//! justified them.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use bgp::Bgp;
use convergence::experiment::TopologySpec;
use convergence::prelude::*;
use netsim::ident::NodeId;
use netsim::time::{SimDuration, SimTime};
use obs::telemetry::render_jsonl;
use topology::instantiate::to_simulator_builder;
use topology::mesh::MeshDegree;

/// The golden scenario: the paper's degree-4 single-link failure shrunk
/// to a 4×4 mesh with a short, low-rate flow, so each fixture stays a
/// few kilobytes compressed while still exercising failure detection,
/// convergence, and the full drop taxonomy.
fn golden_config(protocol: ProtocolKind) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper(protocol, MeshDegree::D4, 20030622);
    cfg.topology = TopologySpec::Mesh {
        rows: 4,
        cols: 4,
        degree: MeshDegree::D4,
    };
    cfg.traffic.lead = SimDuration::from_secs(2);
    cfg.traffic.tail = SimDuration::from_secs(10);
    cfg.traffic.rate_pps = 10;
    cfg.drain = SimDuration::from_secs(30);
    cfg
}

fn fixture_path(file: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file)
}

/// Compares `rendered` with the fixture at `path` (compressed with the
/// `obs` codec when its name ends in `.lz`), or rewrites the fixture when
/// `GOLDEN_REGEN` is set.
fn check_fixture(name: &str, path: &Path, rendered: &str) {
    let compressed = path.extension().is_some_and(|ext| ext == "lz");
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("create dir");
        let bytes = if compressed {
            obs::codec::compress(rendered.as_bytes())
        } else {
            rendered.as_bytes().to_vec()
        };
        std::fs::write(path, bytes).expect("write fixture");
        return;
    }

    let stored = std::fs::read(path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); run GOLDEN_REGEN=1 cargo test --test golden_trace",
            path.display()
        )
    });
    let golden = if compressed {
        obs::codec::decompress(&stored).expect("fixture decompresses")
    } else {
        stored
    };
    let golden = String::from_utf8(golden).expect("fixture is utf-8");
    if rendered != golden {
        // Point at the first divergent line: a full multi-thousand-line
        // assert_eq dump is useless for diagnosing a tie-break change.
        let line = rendered
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| rendered.lines().count().min(golden.lines().count()));
        let got = rendered.lines().nth(line).unwrap_or("<end of fixture>");
        let want = golden.lines().nth(line).unwrap_or("<end of fixture>");
        panic!(
            "{name}: output diverges from golden fixture at line {} of {} (golden {}):\n  got:  {got}\n  want: {want}",
            line + 1,
            rendered.lines().count(),
            golden.lines().count(),
        );
    }
}

fn check_golden(protocol: ProtocolKind, name: &str) {
    check_golden_config(&golden_config(protocol), name);
}

fn check_golden_config(config: &ExperimentConfig, name: &str) {
    let result = run(config).expect("golden run succeeds");
    let path = fixture_path(&format!("{name}.trace.lz"));
    check_fixture(name, &path, &result.trace.render_lines());
}

/// The work-counter scenarios' seed: `bench::point_seed(D4, 0)`, the
/// first run of every figure binary's degree-4 point.
const COUNTER_SEED: u64 = 20430622;

/// Engine counters of one full-size paper run per protocol: the run's
/// telemetry JSONL row, then one line with what telemetry lacks. A timer
/// re-armed to a later deadline keeps its calendar key, so the gap between
/// `calendar_pushes` and dispatched events is the skipped timer keys.
fn paper_work_counters() -> String {
    let mut out = String::new();
    for protocol in ProtocolKind::ALL {
        let cfg = ExperimentConfig::paper(protocol, MeshDegree::D4, COUNTER_SEED);
        let result = run(&cfg).unwrap_or_else(|e| panic!("{protocol} run failed: {e}"));
        let row = run_telemetry(0, COUNTER_SEED, 1, protocol.label(), &result);
        out.push_str(&render_jsonl(&[row]));
        writeln!(
            out,
            "{} trace_records={} control_payloads_shared={} calendar_pushes={} timer_keys_skipped={}",
            protocol.label(),
            result.trace.len(),
            result.stats.control_payloads_shared,
            result.stats.calendar_pushes,
            result.stats.timer_keys_skipped,
        )
        .expect("write to String");
    }
    out
}

/// Plain BGP on the paper's degree-4 mesh, converged and then put through
/// three failure/recovery cycles of its lowest link, so every
/// reconvergence walks routes back through already-seen AS paths.
/// Reports the engine counters.
fn bgp_flap_work_counters() -> String {
    let cfg = ExperimentConfig::paper(ProtocolKind::Bgp, MeshDegree::D4, COUNTER_SEED);
    let realized = cfg.topology.realize();
    let (mut builder, links) =
        to_simulator_builder(&realized.graph, cfg.link).expect("paper mesh instantiates");
    builder.seed(COUNTER_SEED);
    let mut sim = builder.build().expect("paper mesh builds");
    let num_nodes = sim.num_nodes();
    for i in 0..num_nodes {
        sim.install_protocol(NodeId::new(i as u32), Box::new(Bgp::new()))
            .expect("node exists");
    }
    let flapped = *links.values().next().expect("mesh has links");
    sim.start();
    for cycle in 0..3_u64 {
        sim.schedule_link_failure(SimTime::from_secs(120 + cycle * 120), flapped)
            .expect("link exists");
        sim.schedule_link_recovery(SimTime::from_secs(180 + cycle * 120), flapped)
            .expect("link exists");
    }
    sim.run_until(SimTime::from_secs(540));

    let stats = sim.stats();
    format!(
        "BGP-flap events_processed={} queue_high_water={} control_messages={} \
         trace_records={} control_payloads_shared={} calendar_pushes={} timer_keys_skipped={}\n",
        stats.events_processed,
        stats.queue_high_water,
        stats.control_messages_sent,
        sim.trace().len(),
        stats.control_payloads_shared,
        stats.calendar_pushes,
        stats.timer_keys_skipped,
    )
}

#[test]
fn golden_trace_rip() {
    check_golden(ProtocolKind::Rip, "rip");
}

#[test]
fn golden_trace_dbf() {
    check_golden(ProtocolKind::Dbf, "dbf");
}

#[test]
fn golden_trace_bgp() {
    check_golden(ProtocolKind::Bgp, "bgp");
}

#[test]
fn golden_trace_bgp3() {
    check_golden(ProtocolKind::Bgp3, "bgp3");
}

#[test]
fn golden_trace_spf() {
    check_golden(ProtocolKind::Spf, "spf");
}

#[test]
fn golden_trace_dual() {
    check_golden(ProtocolKind::Dual, "dual");
}

/// A go-back-N transfer over RIP across the golden failure: every ACK
/// re-arms the retransmission timer, and the ~7 s outage makes it fire
/// three times with backoff (24 retransmissions) before the transfer
/// completes.
#[test]
fn golden_trace_gbn() {
    let mut cfg = golden_config(ProtocolKind::Rip);
    cfg.traffic.mode = TrafficMode::GoBackN(GoBackNConfig {
        total_packets: 200,
        ..GoBackNConfig::default()
    });
    // The closed-loop flow runs at link speed: start it 200 ms before the
    // failure so the transfer is still in flight when the link dies.
    cfg.traffic.lead = SimDuration::from_millis(200);
    check_golden_config(&cfg, "gbn");
}

/// Exact work counters for every protocol: the machine-independent
/// regression gate for engine and protocol hot-path work.
#[test]
fn golden_work_counters() {
    let rendered = paper_work_counters() + &bgp_flap_work_counters();
    check_fixture(
        "work_counters",
        &fixture_path("work_counters.txt"),
        &rendered,
    );
}

/// The golden scenario itself is deterministic: two runs render
/// byte-identical traces (guards the fixtures against flakiness of the
/// scenario rather than of the engine).
#[test]
fn golden_scenario_is_deterministic() {
    let a = run(&golden_config(ProtocolKind::Dbf)).expect("run");
    let b = run(&golden_config(ProtocolKind::Dbf)).expect("run");
    assert_eq!(a.trace.render_lines(), b.trace.render_lines());
}
