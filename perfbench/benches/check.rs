//! Output checks: packet conservation per run, and fixed-order digests of
//! run summaries compared against pinned values.
//!
//! Digests cover only what the paper's figures are computed from (the
//! [`RunSummary`] fields). Engine counters such as `events_processed` or
//! `queue_high_water`, and telemetry, are left out on purpose: engine
//! work may change without the simulated results changing.

use convergence::metrics::summary::RunSummary;
use netsim::simulator::SimStats;

/// The workload seed when none is given: `bench::point_seed`'s base, so
/// the grids run exactly the figure binaries' scenarios.
pub const DEFAULT_SEED: u64 = bench::BASE_SEED;

/// A seed held out while the benchmark was written. Performance claims
/// are also checked on it.
pub const HELD_OUT_SEED: u64 = 1_000_003;

/// Pinned digests of one round of a grid workload's scenarios, by
/// (workload, seed).
const PINNED_GRID: [(&str, u64, u64); 4] = [
    ("dv_grid", DEFAULT_SEED, 0x6ab7_c8c6_274f_9e97),
    ("dv_grid", HELD_OUT_SEED, 0x64bc_c9ad_25f7_65a7),
    ("pv_grid", DEFAULT_SEED, 0xc740_cd1f_7c3b_2e1b),
    ("pv_grid", HELD_OUT_SEED, 0x2cf0_f334_f9a8_89a7),
];

/// Pinned digests of the set-up canary runs (one per protocol, fixed
/// scenario), checked on every run whatever the workload seed.
const PINNED_CANARY: [(&str, u64); 3] = [
    ("dv_grid", 0xc3cf_df71_084e_0758),
    ("pv_grid", 0x377a_bd46_81c3_627b),
    ("figures", 0x8b38_bb07_6b87_9c36),
];

/// The pinned grid digest for `workload` at `seed`, if one was recorded.
#[must_use]
pub fn pinned_grid(workload: &str, seed: u64) -> Option<u64> {
    PINNED_GRID
        .iter()
        .find(|&&(w, s, _)| w == workload && s == seed)
        .map(|&(_, _, d)| d)
}

/// The pinned canary digest for `workload`.
#[must_use]
pub fn pinned_canary(workload: &str) -> u64 {
    PINNED_CANARY
        .iter()
        .find(|&&(w, _)| w == workload)
        .map(|&(_, d)| d)
        .expect("every workload has a pinned canary")
}

/// Injected packets are all accounted for: delivered or dropped for a
/// recorded reason, and the engine agrees with the trace-derived summary.
#[must_use]
pub fn conserved(stats: &SimStats, summary: &RunSummary) -> bool {
    summary.injected > 0
        && summary.injected == summary.delivered + summary.drops.total()
        && stats.packets_injected == summary.injected
        && stats.packets_delivered == summary.delivered
}

/// FNV-1a over a fixed-order encoding of run summaries.
#[derive(Debug, Clone, Copy)]
pub struct Digest {
    hash: u64,
    runs: u64,
}

impl Default for Digest {
    fn default() -> Self {
        Digest {
            hash: 0xcbf2_9ce4_8422_2325,
            runs: 0,
        }
    }
}

impl Digest {
    fn word(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.hash ^= u64::from(byte);
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Adds the summary of the run with scenario seed `seed`.
    pub fn push(&mut self, seed: u64, s: &RunSummary) {
        self.runs += 1;
        let d = &s.drops;
        for value in [
            seed,
            s.injected,
            s.delivered,
            d.no_route,
            d.ttl_expired,
            d.link_down,
            d.queue_overflow,
            d.impaired,
            s.routing_convergence_s.to_bits(),
            s.forwarding_convergence_s.to_bits(),
            s.transient_paths as u64,
            s.looped_packets,
            s.loop_escapes,
            s.mean_delay_s.map_or(u64::MAX, f64::to_bits),
            s.max_switchover_s.to_bits(),
            s.mean_stretch.to_bits(),
            s.control_messages,
            s.control_bytes,
        ] {
            self.word(value);
        }
    }

    /// The digest value.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.hash
    }

    /// Summaries hashed so far.
    #[must_use]
    pub fn runs(&self) -> u64 {
        self.runs
    }
}
