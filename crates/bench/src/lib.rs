//! # bench — figure, ablation and extension regeneration
//!
//! Each binary in `src/bin/` regenerates one of the paper's figures, an
//! ablation or an extension study. Performance is measured by the
//! separate `perfbench/` harness, not here. This library provides
//! the shared command line and [`SweepObserver::sweep`], the one sweep
//! every figure binary runs: core's hardened
//! [`sweep`](convergence::aggregate::sweep) plus progress, telemetry and
//! failure reporting.
//!
//! Every binary accepts an optional positional argument (the number of
//! randomized runs per sweep point; default 100, the paper's count), a
//! `--jobs N` flag (worker threads per sweep point; `0` = all cores,
//! default 1, `JOBS` env var as fallback), and a `--progress` flag (live
//! per-sweep completion and ETA on stderr). Sweeps are deterministic for
//! every job count: per-run seeds depend only on the slot index, and
//! results are assembled in slot order, so the printed tables and CSVs
//! are byte-identical whether a sweep ran on one thread or sixteen.
//! Results are printed as aligned tables and written as CSV under
//! `results/`, with per-run telemetry under `results/telemetry/`.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

use std::fmt;
use std::path::PathBuf;

use convergence::aggregate::sweep;
use convergence::experiment::ExperimentConfig;
use convergence::metrics::MetricsError;
use convergence::runner::RunResult;
use obs::progress::Progress;
use obs::telemetry::{render_jsonl, RunTelemetry};
use topology::mesh::MeshDegree;

/// Default randomized runs per sweep point (the paper's §5 count).
pub const DEFAULT_RUNS: usize = 100;

/// Base seed for sweeps; per-point seeds derive deterministically.
pub const BASE_SEED: u64 = 20030622;

/// Command-line options shared by every figure binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepArgs {
    /// Randomized runs per sweep point.
    pub runs: usize,
    /// Worker threads per sweep point (`0` = all cores, `1` =
    /// sequential).
    pub jobs: usize,
    /// Report live sweep progress (runs completed / total, per-slot
    /// status, wall-clock ETA) on stderr.
    pub progress: bool,
}

impl Default for SweepArgs {
    fn default() -> Self {
        SweepArgs {
            runs: DEFAULT_RUNS,
            jobs: 1,
            progress: false,
        }
    }
}

/// Parses `[runs-per-point] [--jobs N]` from the process arguments, with
/// the `JOBS` environment variable as a fallback for the flag.
///
/// # Panics
///
/// Panics with a usage message on malformed arguments.
#[must_use]
pub fn sweep_args() -> SweepArgs {
    parse_sweep_args(std::env::args().skip(1), std::env::var("JOBS").ok())
}

/// Testable core of [`sweep_args`].
///
/// # Panics
///
/// Panics with a usage message on malformed arguments.
#[must_use]
pub fn parse_sweep_args<I: Iterator<Item = String>>(
    mut args: I,
    jobs_env: Option<String>,
) -> SweepArgs {
    const USAGE: &str = "usage: <binary> [runs-per-point] [--jobs N] [--progress]";
    let mut parsed = SweepArgs::default();
    if let Some(env) = jobs_env {
        parsed.jobs = env
            .parse()
            .unwrap_or_else(|_| panic!("{USAGE}; JOBS env var not a number: {env:?}"));
    }
    let mut runs_seen = false;
    while let Some(arg) = args.next() {
        if arg == "--progress" {
            parsed.progress = true;
        } else if arg == "--jobs" {
            let value = args
                .next()
                .unwrap_or_else(|| panic!("{USAGE}; --jobs needs a value"));
            parsed.jobs = value
                .parse()
                .unwrap_or_else(|_| panic!("{USAGE}; got --jobs {value:?}"));
        } else if let Some(value) = arg.strip_prefix("--jobs=") {
            parsed.jobs = value
                .parse()
                .unwrap_or_else(|_| panic!("{USAGE}; got --jobs={value:?}"));
        } else if !runs_seen {
            parsed.runs = arg
                .parse()
                .unwrap_or_else(|_| panic!("{USAGE}; got {arg:?}"));
            runs_seen = true;
        } else {
            panic!("{USAGE}; unexpected argument {arg:?}");
        }
    }
    parsed
}

/// A deterministic seed for a sweep point. Seeds depend on the degree and
/// run index but *not* the protocol, so all protocols face the identical
/// scenario sequence (flows, failed links) at each degree — the paper
/// compares protocols on the same situations.
#[must_use]
pub fn point_seed(degree: MeshDegree, run_index: usize) -> u64 {
    BASE_SEED + u64::from(degree.as_u32()) * 100_000 + run_index as u64
}

/// Runs a bench binary's sweeps and collects their per-run telemetry.
///
/// One observer lives per binary, built from the parsed [`SweepArgs`]:
/// every [`SweepObserver::sweep`] runs `runs` slots on `jobs` workers,
/// reports live completion on stderr when `--progress` was given, and
/// appends its telemetry rows (stamped with the sweep's label).
/// [`SweepObserver::finish`] writes everything as
/// `results/telemetry/<bin>.jsonl` — the per-target stream `run_all`
/// merges into `results/telemetry.jsonl`. The rows are in sweep-then-slot
/// order and contain no wall-clock values, so the file bytes are
/// deterministic for a fixed seed and any `--jobs` count; the wall clock
/// is used only for the (stderr) ETA display.
#[derive(Debug)]
pub struct SweepObserver {
    bin: &'static str,
    args: SweepArgs,
    started: std::time::Instant,
    rows: Vec<RunTelemetry>,
}

impl SweepObserver {
    /// An observer for the binary `bin` running sweeps as `args` says.
    #[must_use]
    pub fn new(bin: &'static str, args: SweepArgs) -> Self {
        SweepObserver {
            bin,
            args,
            started: std::time::Instant::now(),
            rows: Vec::new(),
        }
    }

    /// Runs one sweep of `config` (slot `i` uses seed `base_seed + i`)
    /// and returns the folded values of the slots that succeeded, in slot
    /// order.
    ///
    /// Each slot's telemetry row is recorded under `label`; a slot that
    /// still fails after core's retries is printed on stderr and recorded
    /// as an `ok=false` row, which [`SweepObserver::finish`] turns into an
    /// error once the telemetry is on disk.
    pub fn sweep<T: Send>(
        &mut self,
        label: &str,
        config: &ExperimentConfig,
        base_seed: u64,
        fold: impl Fn(RunResult) -> Result<T, MetricsError> + Sync,
    ) -> Vec<T> {
        let SweepArgs {
            runs,
            jobs,
            progress,
        } = self.args;
        let started = self.started;
        let meter = Progress::new(runs);
        let tick = |i| {
            meter.mark_done(i);
            if progress {
                let elapsed = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                eprintln!("{}", meter.render(label, Some(elapsed)));
            }
        };
        let outcome = sweep(config, runs, base_seed, jobs, fold, &tick);
        for failed in &outcome.failed {
            eprintln!(
                "  {label} slot {} (seed {}) failed after {} attempts: {}",
                failed.slot, failed.seed, failed.attempts, failed.error
            );
        }
        for mut row in outcome.telemetry {
            row.label = label.to_string();
            self.rows.push(row);
        }
        outcome.values
    }

    /// All rows collected so far, in sweep-then-slot order.
    #[must_use]
    pub fn rows(&self) -> &[RunTelemetry] {
        &self.rows
    }

    /// The collected rows rendered as JSONL (deterministic bytes).
    #[must_use]
    pub fn render_jsonl(&self) -> String {
        render_jsonl(&self.rows)
    }

    /// Writes the collected rows to `results/telemetry/<bin>.jsonl`,
    /// returning the path.
    ///
    /// # Errors
    ///
    /// [`FinishError::Io`] on a filesystem error;
    /// [`FinishError::FailedRuns`] when the file was written but any slot
    /// failed, so the binary exits non-zero with its outputs on disk.
    pub fn finish(&self) -> Result<PathBuf, FinishError> {
        let dir = results_dir().join("telemetry");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{}.jsonl", self.bin));
        std::fs::write(&path, self.render_jsonl())?;
        match self.rows.iter().filter(|row| !row.ok).count() {
            0 => Ok(path),
            failed => Err(FinishError::FailedRuns(failed)),
        }
    }
}

/// Why [`SweepObserver::finish`] failed.
#[derive(Debug)]
pub enum FinishError {
    /// The telemetry file could not be written.
    Io(std::io::Error),
    /// The telemetry was written, but this many run slots failed.
    FailedRuns(usize),
}

impl fmt::Display for FinishError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FinishError::Io(e) => write!(f, "writing telemetry failed: {e}"),
            FinishError::FailedRuns(n) => write!(f, "{n} run slot(s) failed after retries"),
        }
    }
}

impl std::error::Error for FinishError {}

impl From<std::io::Error> for FinishError {
    fn from(e: std::io::Error) -> Self {
        FinishError::Io(e)
    }
}

/// The directory figure CSVs are written into.
#[must_use]
pub fn results_dir() -> PathBuf {
    PathBuf::from("results")
}

/// Renders a compact ASCII sparkline of a numeric series (for terminal
/// previews of the Figure 5/7 curves).
#[must_use]
pub fn sparkline(values: &[f64], max_hint: Option<f64>) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = max_hint
        .unwrap_or_else(|| values.iter().copied().fold(0.0_f64, f64::max))
        .max(1e-12);
    values
        .iter()
        .map(|&v| {
            let ix = ((v / max) * 7.0).round().clamp(0.0, 7.0) as usize;
            GLYPHS[ix]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use convergence::aggregate::aggregate_point;
    use convergence::failure::FailurePlan;
    use convergence::metrics::streaming::summarize_streaming;
    use convergence::protocols::ProtocolKind;

    #[test]
    fn point_seeds_are_unique_per_degree_and_run() {
        let mut seen = std::collections::HashSet::new();
        for degree in MeshDegree::ALL {
            for i in 0..100 {
                assert!(seen.insert(point_seed(degree, i)));
            }
        }
    }

    #[test]
    fn sparkline_spans_the_range() {
        let line = sparkline(&[0.0, 0.5, 1.0], Some(1.0));
        assert_eq!(line.chars().count(), 3);
        assert!(line.starts_with('▁'));
        assert!(line.ends_with('█'));
    }

    #[test]
    fn arg_parsing_accepts_runs_jobs_and_env() {
        let args = |v: &[&str]| v.iter().map(|s| (*s).to_string()).collect::<Vec<_>>().into_iter();
        assert_eq!(parse_sweep_args(args(&[]), None), SweepArgs::default());
        assert_eq!(
            parse_sweep_args(args(&["25"]), None),
            SweepArgs { runs: 25, jobs: 1, progress: false }
        );
        assert_eq!(
            parse_sweep_args(args(&["25", "--jobs", "4"]), None),
            SweepArgs { runs: 25, jobs: 4, progress: false }
        );
        assert_eq!(
            parse_sweep_args(args(&["--jobs=8", "10"]), None),
            SweepArgs { runs: 10, jobs: 8, progress: false }
        );
        // Env fallback applies, explicit flag wins.
        assert_eq!(
            parse_sweep_args(args(&["5"]), Some("2".into())),
            SweepArgs { runs: 5, jobs: 2, progress: false }
        );
        assert_eq!(
            parse_sweep_args(args(&["5", "--jobs", "3"]), Some("2".into())),
            SweepArgs { runs: 5, jobs: 3, progress: false }
        );
        assert_eq!(
            parse_sweep_args(args(&["--progress", "5", "--jobs", "2"]), None),
            SweepArgs { runs: 5, jobs: 2, progress: true }
        );
    }

    #[test]
    #[should_panic(expected = "unexpected argument")]
    fn arg_parsing_rejects_extra_positionals() {
        let _ = parse_sweep_args(["1".to_string(), "2".to_string()].into_iter(), None);
    }

    fn observer(runs: usize, jobs: usize) -> SweepObserver {
        let args = SweepArgs {
            runs,
            jobs,
            progress: false,
        };
        SweepObserver::new("test", args)
    }

    /// One fig3-style point: `protocol` at degree 6, aggregated.
    fn point(
        observer: &mut SweepObserver,
        protocol: ProtocolKind,
    ) -> convergence::aggregate::PointSummary {
        let degree = MeshDegree::D6;
        let cfg = ExperimentConfig::paper(protocol, degree, 0);
        let summaries = observer.sweep(
            &format!("{protocol}/d{degree}"),
            &cfg,
            point_seed(degree, 0),
            |r| summarize_streaming(&r),
        );
        aggregate_point(&summaries).expect("nonempty sweep")
    }

    #[test]
    fn tiny_sweep_runs_end_to_end() {
        let point = point(&mut observer(2, 1), ProtocolKind::Spf);
        assert_eq!(point.drops_total.n, 2);
        assert!(point.delivery_ratio.mean > 0.9);
    }

    #[test]
    fn point_summary_is_identical_for_any_job_count() {
        let sequential = point(&mut observer(3, 1), ProtocolKind::Spf);
        let parallel = point(&mut observer(3, 3), ProtocolKind::Spf);
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn telemetry_bytes_are_identical_for_any_job_count() {
        let jsonl = |jobs: usize| {
            let mut observer = observer(3, jobs);
            let _ = point(&mut observer, ProtocolKind::Rip);
            observer.render_jsonl().into_bytes()
        };
        let sequential = jsonl(1);
        assert_eq!(sequential, jsonl(4));
        let text = String::from_utf8(sequential).expect("jsonl is utf-8");
        assert_eq!(text.lines().count(), 3);
        assert!(text.starts_with("{\"label\":\"RIP/d6\",\"slot\":0,"));
        for line in text.lines() {
            assert!(line.contains("\"attempts\":1,\"ok\":true,\"protocol\":\"RIP\""));
            assert!(obs::telemetry::field_u64(line, "events_processed").unwrap_or(0) > 0);
            assert!(obs::telemetry::field_u64(line, "queue_high_water").unwrap_or(0) > 0);
        }
    }

    #[test]
    fn sweep_csv_bytes_are_identical_for_any_job_count() {
        use convergence::metrics::series::{mean_u64_series, throughput_series};
        use convergence::report::{fmt_f64, Table};
        let point_csv = |jobs: usize| {
            let point = point(&mut observer(2, jobs), ProtocolKind::Dbf);
            let mut table = Table::new(
                ["delivery", "no-route", "rtconv"]
                    .map(String::from)
                    .to_vec(),
            );
            table.push_row(vec![
                format!("{:.6}", point.delivery_ratio.mean),
                fmt_f64(point.drops_no_route.mean),
                fmt_f64(point.routing_convergence_s.mean),
            ]);
            table.to_csv().into_bytes()
        };
        assert_eq!(point_csv(1), point_csv(4));
        // A fig5-style series fold: the per-second throughput of each run,
        // averaged across runs into the figure's CSV rows.
        let series_csv = |jobs: usize| {
            let degree = MeshDegree::D4;
            let cfg = ExperimentConfig::paper(ProtocolKind::Bgp3, degree, 0);
            let series = observer(3, jobs).sweep("BGP-3/d4", &cfg, point_seed(degree, 0), |r| {
                Ok(throughput_series(&r.trace, r.t_fail, -10, 40))
            });
            assert_eq!(series.len(), 3);
            let mut table = Table::new(["t(s)", "BGP-3"].map(String::from).to_vec());
            for (t, v) in mean_u64_series(&series) {
                table.push_row(vec![t.to_string(), format!("{v:.1}")]);
            }
            table.to_csv().into_bytes()
        };
        assert_eq!(series_csv(1), series_csv(4));
    }

    #[test]
    fn unsatisfiable_sweep_records_failed_rows_instead_of_panicking() {
        // 50 simultaneous link failures cannot leave a 49-node mesh
        // connected: every attempt of every slot is a selection error.
        let mut cfg = ExperimentConfig::paper(ProtocolKind::Dbf, MeshDegree::D4, 0);
        cfg.failure = FailurePlan::MultipleLinks { count: 50 };
        let mut observer = observer(3, 2);
        let values = observer.sweep("DBF/d4/unsatisfiable", &cfg, 1, |r| summarize_streaming(&r));
        assert!(values.is_empty());
        assert_eq!(observer.rows().len(), 3);
        for (i, row) in observer.rows().iter().enumerate() {
            assert_eq!(row.slot, i as u64);
            assert!(!row.ok);
            assert_eq!(row.attempts, 3);
            assert_eq!(row.label, "DBF/d4/unsatisfiable");
            assert!(
                row.error.contains("failure selection failed"),
                "{}",
                row.error
            );
        }
    }
}
