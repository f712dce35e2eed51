//! The benchmark's workloads and the simulations it builds from a seed.
//!
//! Every workload is the paper's §5.3 setting with the Table 2 defaults,
//! built by the same [`presets::mixed_workload_sim`] the figures use: a
//! K=8 fat-tree (128 hosts, 1 Gbps, Table 1 switches) carrying Poisson
//! background flows with the DCTCP flow-size distribution (120 ms mean
//! inter-arrival per host) plus 300 partition-aggregate queries per second
//! (degree 40, 20 KB responses). The only change is a shorter traffic
//! window, so a run can hold many independent simulations. The workloads
//! run the same traffic for the same seed and differ only in whether the
//! switches detour (DIBS) or drop (DCTCP drop-tail) on a full queue.

use dibs::presets::{self, MixedWorkload};
use dibs::{SimConfig, Simulation};
use dibs_engine::rng::SimRng;
use dibs_engine::time::SimDuration;
use dibs_net::builders::{fat_tree, FatTreeParams};
use dibs_net::topology::Topology;

/// Traffic generation window of one simulation.
const WINDOW: SimDuration = SimDuration::from_millis(50);

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name passed with `--workload`.
    pub name: &'static str,
    /// Switches detour on a full queue (DIBS) instead of dropping.
    pub dibs: bool,
}

/// The workloads, in the order `BENCHMARK.json` lists them.
///
/// `paper` is the DIBS configuration the figures are built on; `droptail`
/// is the paper's DCTCP baseline, so a change to the detour path should
/// leave it unmoved, while drops, timeouts and retransmissions run instead.
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "paper",
        dibs: true,
    },
    Workload {
        name: "droptail",
        dibs: false,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// The fabric every workload runs on.
pub fn topology() -> Topology {
    fat_tree(FatTreeParams::paper_default())
}

/// Seeds of `count` independent simulations under master `seed`.
pub fn seeds(seed: u64, count: usize) -> Vec<u64> {
    let root = SimRng::new(seed);
    (0..count as u64)
        .map(|i| root.fork_idx("perfbench/sim", i).next_u64())
        .collect()
}

impl Workload {
    /// Builds the simulation of `seed`: topology, FIB, switches, hosts and
    /// the generated traffic. This is the set-up a user pays before every
    /// run.
    pub fn build(&self, seed: u64) -> Simulation {
        let mut config = if self.dibs {
            SimConfig::dctcp_dibs()
        } else {
            SimConfig::dctcp_baseline()
        };
        config.seed = seed;
        let traffic = MixedWorkload {
            duration: WINDOW,
            ..MixedWorkload::paper_default()
        };
        presets::mixed_workload_sim(FatTreeParams::paper_default(), config, traffic)
    }
}
