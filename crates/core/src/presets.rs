//! Canonical experiment setups from the paper's evaluation.
//!
//! The benchmark, the golden digests and the integration tests build on
//! these: the K=8 fat-tree mixed workload of §5.3 (background +
//! partition-aggregate queries), the §5.2 Click-testbed incast and the
//! Fig 1/2 single incast. Every row of `dibs-bench`'s table declares its
//! runs as `dibs-cli` scenarios, which draw traffic from the same
//! [`traffic_rngs`] and [`incast_rng`] streams.

use crate::config::SimConfig;
use crate::sim::Simulation;
use dibs_engine::rng::SimRng;
use dibs_engine::time::{SimDuration, SimTime};
use dibs_net::builders::{fat_tree, mini_testbed, FatTreeParams};
use dibs_net::ids::HostId;
use dibs_net::topology::LinkSpec;
use dibs_workload::{BackgroundTraffic, QuerySpec, QueryTraffic};

/// Parameters of the §5.3 mixed workload (Table 2).
#[derive(Debug, Clone, Copy)]
pub struct MixedWorkload {
    /// Mean background inter-arrival time per host (Table 2: 10–120 ms).
    pub bg_interarrival: SimDuration,
    /// Query arrival rate (queries per second).
    pub qps: f64,
    /// Incast degree (responders per query).
    pub incast_degree: usize,
    /// Bytes per query response.
    pub response_bytes: u64,
    /// Traffic generation window; flows start within `[0, duration)`.
    pub duration: SimDuration,
    /// Extra drain time after the generation window before the hard stop.
    pub drain: SimDuration,
}

impl MixedWorkload {
    /// Table 2 defaults: 120 ms inter-arrival, 300 qps, degree 40, 20 KB
    /// responses, with a 1-second generation window.
    pub fn paper_default() -> Self {
        MixedWorkload {
            bg_interarrival: SimDuration::from_millis(120),
            qps: 300.0,
            incast_degree: 40,
            response_bytes: 20_000,
            duration: SimDuration::from_secs(1),
            drain: SimDuration::from_millis(500),
        }
    }

    /// The total horizon this workload needs.
    pub fn horizon(&self) -> SimTime {
        SimTime::ZERO + self.duration + self.drain
    }
}

/// Builds the §5.3 simulation: K=8 fat-tree (or a custom `params`) carrying
/// the mixed workload under the given switch/host configuration, with the
/// horizon set to cover the workload.
///
/// The seed in `config` drives *both* workload generation (through
/// [`traffic_rngs`]) and the simulator's internal randomness, so two
/// configs with the same seed see identical traffic — exactly how the
/// paper compares DCTCP with and without DIBS.
///
/// # Panics
///
/// Panics if `workload.incast_degree` is not below the host count.
pub fn mixed_workload_sim(
    tree: FatTreeParams,
    mut config: SimConfig,
    workload: MixedWorkload,
) -> Simulation {
    config.horizon = workload.horizon();
    let topo = fat_tree(tree);
    let hosts = topo.num_hosts();
    let mut sim = Simulation::new(topo, config);
    let (mut bg_rng, mut q_rng) = traffic_rngs(config.seed);

    let bg = BackgroundTraffic::paper(workload.bg_interarrival);
    sim.add_flows(bg.generate(hosts, workload.duration, &mut bg_rng));

    let qt = QueryTraffic {
        qps: workload.qps,
        degree: workload.incast_degree,
        response_bytes: workload.response_bytes,
    };
    let queries = qt.generate(hosts, workload.duration, &mut q_rng);
    sim.add_queries(&queries);
    sim
}

/// The random streams background flows and queries are drawn from: the
/// `workload/background` and `workload/query` forks of `seed`, in that
/// order. [`mixed_workload_sim`] and `dibs-cli`'s scenarios both draw from
/// them, so a scenario with the same seed re-runs a figure point's
/// traffic.
pub fn traffic_rngs(seed: u64) -> (SimRng, SimRng) {
    let root = SimRng::new(seed);
    (
        root.fork("workload/background"),
        root.fork("workload/query"),
    )
}

/// The §5.2 Click/Emulab incast test: on the 2-aggregation / 3-edge
/// mini-testbed, `senders` hosts each send `flows_per_sender` simultaneous
/// flows of `flow_bytes` to the last host.
///
/// The paper's run: 5 senders x 10 flows x 32 KB, 100-packet buffers.
pub fn testbed_incast_sim(
    mut config: SimConfig,
    senders: usize,
    flows_per_sender: usize,
    flow_bytes: u64,
) -> Simulation {
    let topo = mini_testbed(LinkSpec::gbit(1));
    let receiver = HostId::from_index(topo.num_hosts() - 1);
    assert!(senders < topo.num_hosts(), "too many senders");
    config.horizon = SimTime::from_secs(5);
    let mut sim = Simulation::new(topo, config);
    // One "query" covering all flows, so QCT comes out directly.
    let responders: Vec<HostId> = (0..senders)
        .flat_map(|s| std::iter::repeat_n(HostId::from_index(s), flows_per_sender))
        .collect();
    sim.add_queries(&[QuerySpec {
        start: SimTime::ZERO,
        target: receiver,
        responders,
        response_bytes: flow_bytes,
    }]);
    sim
}

/// A pure incast on the K=8 fat-tree: `degree` random responders send
/// `response_bytes` each to one target — the minimal Figure 1/2 scenario.
/// The target and responders are [`random_incast`] over [`incast_rng`].
pub fn single_incast_sim(
    tree: FatTreeParams,
    mut config: SimConfig,
    degree: usize,
    response_bytes: u64,
) -> Simulation {
    let topo = fat_tree(tree);
    let hosts = topo.num_hosts();
    config.horizon = SimTime::from_secs(5);
    let mut sim = Simulation::new(topo, config);
    let (target, responders) = random_incast(&mut incast_rng(config.seed), hosts, degree);
    sim.add_queries(&[QuerySpec {
        start: SimTime::ZERO,
        target,
        responders,
        response_bytes,
    }]);
    sim
}

/// The stream random incasts draw from: the `workload/single-incast` fork
/// of `seed`. [`single_incast_sim`] and `dibs-cli`'s target-less incasts
/// both draw from it.
pub fn incast_rng(seed: u64) -> SimRng {
    SimRng::new(seed).fork("workload/single-incast")
}

/// An incast's target, drawn uniformly from `rng`, then `degree` distinct
/// responders among the other hosts. Panics if `degree` is not below
/// `hosts`.
pub fn random_incast(rng: &mut SimRng, hosts: usize, degree: usize) -> (HostId, Vec<HostId>) {
    let target = HostId::from_index(rng.below(hosts));
    let responders = dibs_workload::distinct_responders(hosts, target, degree, rng);
    (target, responders)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_horizon_covers_duration_and_drain() {
        let wl = MixedWorkload::paper_default();
        assert_eq!(wl.horizon(), SimTime::ZERO + wl.duration + wl.drain);
    }

    #[test]
    fn mixed_workload_matches_table2_defaults() {
        let wl = MixedWorkload::paper_default();
        assert_eq!(wl.qps, 300.0);
        assert_eq!(wl.incast_degree, 40);
        assert_eq!(wl.response_bytes, 20_000);
        assert_eq!(wl.bg_interarrival, SimDuration::from_millis(120));
    }

    #[test]
    fn testbed_incast_builds_one_query_of_fifty_flows() {
        let sim = testbed_incast_sim(crate::SimConfig::dctcp_dibs(), 5, 10, 32_000);
        // 6-host testbed; 5 senders x 10 flows.
        assert_eq!(sim.topology().num_hosts(), 6);
        // The query expands into 50 response flows targeting the last host.
        // (Verified indirectly: the simulation runs them all to completion
        // in the integration tests.)
    }

    #[test]
    #[should_panic(expected = "too many senders")]
    fn testbed_rejects_too_many_senders() {
        testbed_incast_sim(crate::SimConfig::dctcp_dibs(), 6, 1, 1000);
    }
}
