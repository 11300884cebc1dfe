//! Experiment configuration.

use std::fmt;
use std::sync::Arc;

use netsim::link::LinkConfig;
use netsim::protocol::RoutingProtocol;
use netsim::time::SimDuration;
use serde::{Deserialize, Serialize};
use topology::graph::Graph;
use topology::mesh::{Mesh, MeshDegree};

use crate::failure::FailurePlan;
use crate::protocols::ProtocolKind;
use crate::transport::GoBackNConfig;

/// Which network a run simulates.
#[derive(Debug, Clone)]
pub enum TopologySpec {
    /// The paper's regular mesh family.
    Mesh {
        /// Number of rows.
        rows: usize,
        /// Number of columns.
        cols: usize,
        /// Interior node degree.
        degree: MeshDegree,
    },
    /// An arbitrary pre-built graph (extension experiments). The sender
    /// and receiver are drawn from all nodes instead of first/last row.
    Custom(Graph),
}

impl TopologySpec {
    /// The paper's 7×7, 49-router mesh at the given degree.
    #[must_use]
    pub fn paper_mesh(degree: MeshDegree) -> Self {
        TopologySpec::Mesh {
            rows: 7,
            cols: 7,
            degree,
        }
    }

    /// Materializes the graph plus the sender/receiver candidate rows.
    #[must_use]
    pub fn realize(&self) -> RealizedTopology {
        match self {
            TopologySpec::Mesh { rows, cols, degree } => {
                let mesh = Mesh::regular(*rows, *cols, *degree);
                RealizedTopology {
                    sender_candidates: mesh.first_row(),
                    receiver_candidates: mesh.last_row(),
                    graph: mesh.into_graph(),
                }
            }
            TopologySpec::Custom(graph) => RealizedTopology {
                sender_candidates: graph.nodes().collect(),
                receiver_candidates: graph.nodes().collect(),
                graph: graph.clone(),
            },
        }
    }
}

/// A concrete topology with attachment candidate sets.
#[derive(Debug, Clone)]
pub struct RealizedTopology {
    /// The network graph.
    pub graph: Graph,
    /// Nodes eligible to host the sender.
    pub sender_candidates: Vec<netsim::ident::NodeId>,
    /// Nodes eligible to host the receiver.
    pub receiver_candidates: Vec<netsim::ident::NodeId>,
}

/// What kind of traffic the flows carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TrafficMode {
    /// Open-loop constant bit rate (the paper's workload).
    Cbr,
    /// Open-loop Poisson arrivals at the configured mean rate (burstier
    /// than CBR; exercises queues and convergence windows irregularly).
    Poisson,
    /// Closed-loop window-limited ARQ transfer (§6 end-to-end extension);
    /// the transfer starts at warm-up end and runs until complete.
    GoBackN(GoBackNConfig),
}

/// Constant-bit-rate traffic parameters.
///
/// Defaults reconstruct the paper's §5 setup (20 packets/second, TTL 127),
/// with the sender active from 10 s before the failure to 40 s after.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrafficConfig {
    /// Packets per second.
    pub rate_pps: u64,
    /// Payload size in bytes.
    pub packet_bytes: u32,
    /// Initial TTL.
    pub ttl: u8,
    /// How long the flow runs before the failure.
    pub lead: SimDuration,
    /// How long the flow continues after the failure.
    pub tail: SimDuration,
    /// Number of concurrent sender/receiver pairs (1 in the paper;
    /// >1 is the §6 multi-flow extension).
    pub flows: usize,
    /// Open-loop CBR (default) or closed-loop ARQ.
    pub mode: TrafficMode,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            rate_pps: 20,
            packet_bytes: 1000,
            ttl: netsim::packet::DEFAULT_TTL,
            lead: SimDuration::from_secs(10),
            tail: SimDuration::from_secs(40),
            flows: 1,
            mode: TrafficMode::Cbr,
        }
    }
}

/// How long the runner waits for routing to become quiescent before
/// injecting traffic and the failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WarmupPolicy {
    /// A run is warm when no FIB changed for this long.
    pub quiet: SimDuration,
    /// Give up (and panic) if not quiescent by this deadline.
    pub max: SimDuration,
}

impl Default for WarmupPolicy {
    fn default() -> Self {
        WarmupPolicy {
            quiet: SimDuration::from_secs(45),
            max: SimDuration::from_secs(1800),
        }
    }
}

/// The per-run event-budget watchdog.
///
/// A pathological scenario (a protocol stuck in a zero-delay timer loop,
/// a persistent forwarding loop fed by retransmissions) can generate
/// events faster than simulated time advances, livelocking a sweep. The
/// watchdog bounds the total number of engine events a single run may
/// dispatch ([`netsim::SimStats::events_processed`]: timer keys that pop
/// without firing, because the timer was cancelled or re-armed, are not
/// counted); exceeding it aborts the run with a typed
/// [`crate::runner::RunError::Watchdog`] instead of hanging.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WatchdogPolicy {
    /// Maximum engine events one run may dispatch (lifetime total,
    /// warm-up included; skipped timer keys are not counted).
    pub max_events: u64,
}

impl Default for WatchdogPolicy {
    fn default() -> Self {
        // Over three orders of magnitude above the busiest paper-figure
        // run (a degree-3 BGP run dispatches 201,668 events in
        // results/telemetry.jsonl), and 250x the largest extension run
        // (ext_scale's 15x15 BGP-3 mesh, ~2M); only livelock reaches this.
        WatchdogPolicy {
            max_events: 500_000_000,
        }
    }
}

/// A closure producing per-router protocol instances, used to run a
/// protocol with a non-default configuration (ablations).
#[derive(Clone)]
pub struct ProtocolFactory(pub Arc<dyn Fn() -> Box<dyn RoutingProtocol> + Send + Sync>);

impl ProtocolFactory {
    /// Wraps a factory closure.
    pub fn new<F>(f: F) -> Self
    where
        F: Fn() -> Box<dyn RoutingProtocol> + Send + Sync + 'static,
    {
        ProtocolFactory(Arc::new(f))
    }

    /// Builds one protocol instance.
    #[must_use]
    pub fn build(&self) -> Box<dyn RoutingProtocol> {
        (self.0)()
    }
}

impl fmt::Debug for ProtocolFactory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("ProtocolFactory(..)")
    }
}

/// Everything that defines a single simulation run.
///
/// A run is a pure function of this configuration (including `seed`), so
/// the multi-run sweeps of the figures simply vary the seed.
///
/// # Examples
///
/// ```
/// use convergence::experiment::ExperimentConfig;
/// use convergence::protocols::ProtocolKind;
/// use topology::mesh::MeshDegree;
///
/// let cfg = ExperimentConfig::paper(ProtocolKind::Dbf, MeshDegree::D6, 7);
/// assert_eq!(cfg.traffic.rate_pps, 20);
/// ```
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// The network under test.
    pub topology: TopologySpec,
    /// The routing protocol on every router.
    pub protocol: ProtocolKind,
    /// When set, overrides [`ExperimentConfig::protocol`] with custom
    /// instances (ablations with non-default protocol configurations).
    pub protocol_override: Option<ProtocolFactory>,
    /// Physical link parameters.
    pub link: LinkConfig,
    /// Traffic parameters.
    pub traffic: TrafficConfig,
    /// What fails and when (relative to warm-up completion).
    pub failure: FailurePlan,
    /// Warm-up policy.
    pub warmup: WarmupPolicy,
    /// Per-run event-budget watchdog.
    pub watchdog: WatchdogPolicy,
    /// How long the run continues after traffic stops, letting routing
    /// convergence finish for the Figure-6 measurements.
    pub drain: SimDuration,
    /// Master seed; every random decision in the run derives from it.
    pub seed: u64,
}

impl ExperimentConfig {
    /// The paper's canonical single-failure experiment on the 7×7 mesh.
    #[must_use]
    pub fn paper(protocol: ProtocolKind, degree: MeshDegree, seed: u64) -> Self {
        ExperimentConfig {
            topology: TopologySpec::paper_mesh(degree),
            protocol,
            protocol_override: None,
            link: LinkConfig::default(),
            traffic: TrafficConfig::default(),
            failure: FailurePlan::SingleLinkOnPath,
            warmup: WarmupPolicy::default(),
            watchdog: WatchdogPolicy::default(),
            drain: SimDuration::from_secs(120),
            seed,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.traffic.rate_pps == 0 {
            return Err("traffic rate must be positive".into());
        }
        if self.traffic.flows == 0 {
            return Err("at least one flow is required".into());
        }
        if let TrafficMode::GoBackN(g) = self.traffic.mode {
            if g.window == 0 || g.total_packets == 0 {
                return Err("go-back-N needs a positive window and transfer size".into());
            }
            let realized = self.topology.realize();
            let limit = realized
                .sender_candidates
                .len()
                .min(realized.receiver_candidates.len());
            if self.traffic.flows > limit {
                return Err(format!(
                    "go-back-N flows need distinct endpoints; at most {limit} available"
                ));
            }
        }
        if self.warmup.quiet >= self.warmup.max {
            return Err("warmup.quiet must be below warmup.max".into());
        }
        if self.watchdog.max_events == 0 {
            return Err("watchdog.max_events must be positive".into());
        }
        let realized = self.topology.realize();
        if realized.graph.num_nodes() < 3 {
            return Err("topology too small".into());
        }
        if !realized.graph.is_connected() {
            return Err("topology must be connected".into());
        }
        Ok(())
    }
}

// The parallel sweep engine shares one `ExperimentConfig` by reference
// across scoped worker threads; `ProtocolFactory` carries the only
// non-auto-derived bound (its `Arc<dyn Fn ... + Send + Sync>`).
const _: fn() = || {
    fn shareable<T: Send + Sync>() {}
    shareable::<ExperimentConfig>();
    shareable::<ProtocolFactory>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_is_valid() {
        for degree in MeshDegree::ALL {
            ExperimentConfig::paper(ProtocolKind::Rip, degree, 1)
                .validate()
                .unwrap();
        }
    }

    #[test]
    fn validation_catches_nonsense() {
        let mut cfg = ExperimentConfig::paper(ProtocolKind::Rip, MeshDegree::D4, 1);
        cfg.traffic.rate_pps = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = ExperimentConfig::paper(ProtocolKind::Rip, MeshDegree::D4, 1);
        cfg.traffic.flows = 0;
        assert!(cfg.validate().is_err());

        let mut disconnected = Graph::new(4);
        disconnected.add_edge(netsim::ident::NodeId::new(0), netsim::ident::NodeId::new(1));
        let cfg = ExperimentConfig {
            topology: TopologySpec::Custom(disconnected),
            ..ExperimentConfig::paper(ProtocolKind::Rip, MeshDegree::D4, 1)
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn mesh_realization_exposes_rows() {
        let spec = TopologySpec::paper_mesh(MeshDegree::D5);
        let realized = spec.realize();
        assert_eq!(realized.graph.num_nodes(), 49);
        assert_eq!(realized.sender_candidates.len(), 7);
        assert_eq!(realized.receiver_candidates.len(), 7);
        assert_ne!(realized.sender_candidates, realized.receiver_candidates);
    }

    #[test]
    fn custom_realization_allows_any_node() {
        let mut g = Graph::new(3);
        g.add_edge(netsim::ident::NodeId::new(0), netsim::ident::NodeId::new(1));
        g.add_edge(netsim::ident::NodeId::new(1), netsim::ident::NodeId::new(2));
        let realized = TopologySpec::Custom(g).realize();
        assert_eq!(realized.sender_candidates.len(), 3);
    }
}
