//! Extension E2 (paper §6 future work): multiple sender/receiver pairs,
//! multiple simultaneous link failures, and whole-router failures.

use bench::{point_seed, sweep_args, SweepObserver};
use convergence::aggregate::aggregate_point;
use convergence::experiment::ExperimentConfig;
use convergence::failure::FailurePlan;
use convergence::metrics::streaming::summarize_streaming;
use convergence::protocols::ProtocolKind;
use convergence::report::{fmt_f64, Table};
use topology::mesh::MeshDegree;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = sweep_args();
    let runs = args.runs;
    let mut observer = SweepObserver::new("ext_multi", args);
    println!("Extension E2 — multiple flows / failures, {runs} runs/point\n");

    let protocols = [ProtocolKind::Dbf, ProtocolKind::Bgp3];
    let mut table = Table::new(
        ["scenario", "degree", "protocol", "delivery", "no-route", "ttl", "rtconv(s)"]
            .map(String::from)
            .to_vec(),
    );
    for degree in [MeshDegree::D4, MeshDegree::D6] {
        for protocol in protocols {
            let baseline = ExperimentConfig::paper(protocol, degree, 0);
            let mut five_flows = baseline.clone();
            five_flows.traffic.flows = 5;
            let mut two_links = baseline.clone();
            two_links.failure = FailurePlan::MultipleLinks { count: 2 };
            let mut router = baseline.clone();
            router.failure = FailurePlan::NodeOnPath;
            for (label, cfg) in [
                ("baseline", baseline),
                ("5 flows", five_flows),
                ("2 link failures", two_links),
                ("router failure", router),
            ] {
                let summaries = observer.sweep(
                    &format!("{protocol}/d{degree}"),
                    &cfg,
                    point_seed(degree, 0),
                    |r| summarize_streaming(&r),
                );
                let point = aggregate_point(&summaries)?;
                table.push_row(vec![
                    label.to_string(),
                    degree.to_string(),
                    protocol.label().to_string(),
                    format!("{:.4}", point.delivery_ratio.mean),
                    fmt_f64(point.drops_no_route.mean),
                    fmt_f64(point.ttl_expirations.mean),
                    fmt_f64(point.routing_convergence_s.mean),
                ]);
            }
            eprintln!("  degree {degree} {protocol} done");
        }
    }
    println!("{}", table.render());
    println!("expected: richer connectivity keeps delivery high even under");
    println!("compound failures; a router failure hurts more than any one link.\n");
    let path = bench::results_dir().join("ext_multi.csv");
    table.write_csv(&path).expect("write CSV");
    println!("wrote {}", path.display());
    println!("wrote {}", observer.finish()?.display());
    Ok(())
}
