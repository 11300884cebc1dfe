//! The repository's benchmark harness: end-to-end throughput, latency,
//! CPU, memory and set-up time of the distance-vector and path-vector
//! sweep grids, and a separate traced run that splits a run's time and
//! work by layer.
//!
//! ```text
//! perfbench --workload dv_grid|pv_grid|figures --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics of a grid workload with no
//! instrumentation attached. `--trace 1` makes the traced run and reports
//! the per-layer metrics. The `figures` workload runs the fig3–7 binaries
//! as child processes; `run.py` drives those, and calls this binary only
//! for the in-process traced pass over the figure scenarios. The last
//! line of standard output is one JSON object; the exit code is non-zero
//! when any output check failed.

#![forbid(unsafe_code)]

mod check;
mod grid;
mod layers;
mod sys;

use std::process::ExitCode;

use convergence::protocols::ProtocolKind;

/// One benchmark workload: which paper protocols it sweeps over the six
/// mesh degrees.
#[derive(Debug)]
pub struct Workload {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// Protocols swept at every degree.
    pub protocols: &'static [ProtocolKind],
    /// The fig3–7 binaries' scenarios: seeds always derive from
    /// `bench::BASE_SEED`, and the sweep and parallel counters come from
    /// the binaries themselves (measured by `run.py`), not from this
    /// harness.
    pub figures: bool,
}

/// Distance-vector timers re-arm on every refresh, so the event
/// calendar dominates.
const DV_GRID: Workload = Workload {
    name: "dv_grid",
    protocols: &[ProtocolKind::Rip, ProtocolKind::Dbf],
    figures: false,
};

/// Path-vector runs keep a small calendar and spend their time in RIB
/// and AS-path processing and in warm-up trace volume.
const PV_GRID: Workload = Workload {
    name: "pv_grid",
    protocols: &[ProtocolKind::Bgp, ProtocolKind::Bgp3],
    figures: false,
};

/// The fig3–7 scenarios (all four paper protocols, fixed seed base).
const FIGURES: Workload = Workload {
    name: "figures",
    protocols: &ProtocolKind::PAPER,
    figures: true,
};

/// A measured metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// What one benchmark invocation measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Scenarios attempted.
    pub attempted: u64,
    /// Scenarios that returned an error, panicked or failed a check.
    pub failed: u64,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Appends a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    rss_probe: bool,
}

const USAGE: &str =
    "usage: perfbench --workload dv_grid|pv_grid|figures --seed N --seconds S --trace 0|1\n       \
     perfbench --rss-probe dv_grid|pv_grid";

fn find_workload(name: &str) -> Result<&'static Workload, String> {
    [&DV_GRID, &PV_GRID, &FIGURES]
        .into_iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = check::DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut rss_probe = false;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(find_workload(&value)?),
            "--rss-probe" => {
                workload = Some(find_workload(&value)?);
                rss_probe = true;
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload.figures && !trace {
        return Err("the figures end-to-end run is driven by run.py".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        rss_probe,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("perfbench: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.rss_probe {
        return match grid::rss_probe(args.workload) {
            Ok(mib) => {
                println!("{mib}");
                ExitCode::SUCCESS
            }
            Err(why) => {
                eprintln!("perfbench: memory probe failed: {why}");
                ExitCode::FAILURE
            }
        };
    }
    let outcome = if args.trace {
        layers::measure(args.workload, args.seed, args.seconds)
    } else {
        grid::measure(args.workload, args.seed, args.seconds)
    };
    for (name, value, unit) in &outcome.metrics {
        println!(
            "{:<44} {value:>14.4} {unit}",
            format!("{}.{name}", args.workload.name)
        );
    }
    println!("{}", outcome.json());
    if outcome.failed == 0 && outcome.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
