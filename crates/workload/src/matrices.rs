//! Demand matrices and fluid-model link utilization — the Figure 3
//! substitution.
//!
//! Figure 3 of the paper reproduces the Flyways measurement of four
//! proprietary data-center workloads (IndexSrv, 3Cars, Neon, Cosmos): the
//! distribution over time of the fraction of links running "hot" (≥ 50 % of
//! the utilization of the hottest link). We cannot obtain those traces, so
//! — per the substitution rule — we synthesize four demand-matrix families
//! with the qualitative structure the Flyways paper describes for each
//! workload class, route them over the topology with fluid ECMP splitting,
//! and compute the same statistic.

use dibs_engine::rng::SimRng;
use dibs_net::ids::{HostId, NodeId};
use dibs_net::routing::Fib;
use dibs_net::topology::Topology;

/// A snapshot of offered load: `(src, dst, rate_bps)` triples.
#[derive(Debug, Clone, Default)]
pub struct DemandMatrix {
    /// Demands; multiple entries for the same pair accumulate.
    pub demands: Vec<(HostId, HostId, f64)>,
}

/// The four synthetic workload families standing in for the Flyways traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadFamily {
    /// Web-search-like partition-aggregate: a few hot aggregators fan in
    /// from many workers (IndexSrv).
    PartitionAggregate,
    /// Map-reduce-like shuffle among a random subset of hosts (3Cars).
    MapReduceShuffle,
    /// Nearest-neighbor HPC exchange over a random ring (Neon).
    HpcNeighbor,
    /// Storage replication: skewed writers each streaming to 3 random
    /// replicas (Cosmos).
    StorageReplication,
}

impl WorkloadFamily {
    /// All four families, in display order.
    pub const ALL: [WorkloadFamily; 4] = [
        WorkloadFamily::PartitionAggregate,
        WorkloadFamily::MapReduceShuffle,
        WorkloadFamily::HpcNeighbor,
        WorkloadFamily::StorageReplication,
    ];

    /// Display label for figure output.
    pub fn label(&self) -> &'static str {
        match self {
            WorkloadFamily::PartitionAggregate => "IndexSrv-like",
            WorkloadFamily::MapReduceShuffle => "3Cars-like",
            WorkloadFamily::HpcNeighbor => "Neon-like",
            WorkloadFamily::StorageReplication => "Cosmos-like",
        }
    }

    /// Draws one demand-matrix snapshot for `num_hosts` hosts.
    ///
    /// `unit_rate` scales all demands (bits/second per elemental demand).
    pub fn sample(&self, num_hosts: usize, unit_rate: f64, rng: &mut SimRng) -> DemandMatrix {
        let mut m = DemandMatrix::default();
        match self {
            WorkloadFamily::PartitionAggregate => {
                // 1-3 concurrent aggregations, each with ~num_hosts/4 workers.
                let n_agg = 1 + rng.below(3);
                for _ in 0..n_agg {
                    let target = rng.below(num_hosts);
                    let degree = (num_hosts / 4).max(2);
                    for w in rng.sample_distinct(num_hosts - 1, degree.min(num_hosts - 1)) {
                        let src = if w >= target { w + 1 } else { w };
                        m.push(src, target, unit_rate);
                    }
                }
            }
            WorkloadFamily::MapReduceShuffle => {
                // A random subset of ~1/4 of hosts doing all-to-all shuffle.
                let k = (num_hosts / 4).max(2);
                let members = rng.sample_distinct(num_hosts, k);
                for &a in &members {
                    for &b in &members {
                        if a != b {
                            m.push(a, b, unit_rate / k as f64);
                        }
                    }
                }
            }
            WorkloadFamily::HpcNeighbor => {
                // A neighbor-exchange ring over the currently active job's
                // nodes — a random ~quarter of the cluster, with per-rank
                // exchange volumes skewed by the job's phase (snapshots of
                // HPC traffic are bursty: only some ranks communicate hard
                // at any instant).
                let k = (num_hosts / 4).max(3);
                let members = rng.sample_distinct(num_hosts, k);
                for i in 0..k {
                    let rate = unit_rate * rng.exponential(1.0);
                    m.push(members[i], members[(i + 1) % k], rate);
                }
            }
            WorkloadFamily::StorageReplication => {
                // Zipf-skewed writers, each streaming to 3 distinct replicas.
                let writers = (num_hosts / 8).max(1);
                for w in 0..writers {
                    // Zipf-ish skew: writer w has weight 1/(w+1).
                    let rate = unit_rate * 3.0 / (w + 1) as f64;
                    let src = rng.below(num_hosts);
                    for r in rng.sample_distinct(num_hosts - 1, 3.min(num_hosts - 1)) {
                        let dst = if r >= src { r + 1 } else { r };
                        m.push(src, dst, rate);
                    }
                }
            }
        }
        m
    }
}

impl DemandMatrix {
    /// Adds a demand by host index.
    pub fn push(&mut self, src: usize, dst: usize, rate: f64) {
        debug_assert_ne!(src, dst);
        self.demands
            .push((HostId::from_index(src), HostId::from_index(dst), rate));
    }

    /// Total offered load.
    pub fn total_rate(&self) -> f64 {
        self.demands.iter().map(|d| d.2).sum()
    }
}

/// Routes a demand matrix over the topology with equal ECMP splitting and
/// returns the utilization of every directed edge, indexed as
/// `(node, port)` flattened in [`Topology::directed_edges`] order.
pub fn link_utilization(topo: &Topology, fib: &Fib, matrix: &DemandMatrix) -> Vec<f64> {
    // Map (node, port) -> flat index.
    let mut offsets = Vec::with_capacity(topo.num_nodes());
    let mut total_ports = 0usize;
    for n in 0..topo.num_nodes() {
        offsets.push(total_ports);
        total_ports += topo.num_ports(NodeId::from_index(n));
    }
    let mut load = vec![0.0f64; total_ports];

    // Fluid splitting: at each node the flow divides equally among the
    // FIB's equal-cost next hops. Distances strictly decrease toward the
    // destination, so a simple worklist terminates.
    let mut node_flow: Vec<f64> = vec![0.0; topo.num_nodes()];
    for &(src, dst, rate) in &matrix.demands {
        if src == dst || rate <= 0.0 {
            continue;
        }
        // Collect reachable nodes sorted by descending distance to dst.
        let src_node = topo.host_node(src);
        let dst_node = topo.host_node(dst);
        let mut order: Vec<NodeId> = Vec::new();
        {
            // BFS forward along FIB edges from src.
            let mut seen = vec![false; topo.num_nodes()];
            let mut stack = vec![src_node];
            seen[src_node.index()] = true;
            while let Some(u) = stack.pop() {
                if u == dst_node {
                    continue;
                }
                order.push(u);
                for &p in fib.next_hops(u, dst) {
                    let v = topo.port(u, usize::from(p)).peer;
                    if !seen[v.index()] {
                        seen[v.index()] = true;
                        stack.push(v);
                    }
                }
            }
        }
        order.sort_by_key(|&n| std::cmp::Reverse(fib.distance(n, dst)));
        for &n in &order {
            node_flow[n.index()] = 0.0;
        }
        node_flow[src_node.index()] = rate;
        for &u in &order {
            let f = node_flow[u.index()];
            if f <= 0.0 {
                continue;
            }
            let hops = fib.next_hops(u, dst);
            if hops.is_empty() {
                continue;
            }
            let share = f / hops.len() as f64;
            for &p in hops {
                let p = usize::from(p);
                load[offsets[u.index()] + p] += share;
                let v = topo.port(u, p).peer;
                if v != dst_node {
                    node_flow[v.index()] += share;
                }
            }
            node_flow[u.index()] = 0.0;
        }
    }

    // Convert to utilization.
    let mut util = vec![0.0f64; total_ports];
    for (idx, (_, port)) in topo.directed_edges().enumerate() {
        util[idx] = load[idx] / port.rate_bps as f64;
    }
    util
}

/// Fraction of links "hot" under the Flyways definition: utilization at
/// least `frac_of_max` of the most-loaded link (Fig 3 uses 0.5).
///
/// Returns 0 when no link carries load.
pub fn hot_fraction_relative(utils: &[f64], frac_of_max: f64) -> f64 {
    let max = utils.iter().cloned().fold(0.0f64, f64::max);
    if max <= 0.0 {
        return 0.0;
    }
    let hot = utils.iter().filter(|&&u| u >= frac_of_max * max).count();
    hot as f64 / utils.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use dibs_net::builders::{fat_tree, FatTreeParams};

    fn k4() -> (Topology, Fib) {
        let topo = fat_tree(FatTreeParams {
            k: 4,
            ..FatTreeParams::paper_default()
        });
        let fib = Fib::compute(&topo);
        (topo, fib)
    }

    #[test]
    fn single_demand_loads_a_path() {
        let (topo, fib) = k4();
        let mut m = DemandMatrix::default();
        m.push(0, 15, 1e9); // Cross-pod, full line rate.
        let utils = link_utilization(&topo, &fib, &m);
        // Conservation: the host uplink carries exactly the demand.
        let hot_links = utils.iter().filter(|&&u| u > 1e-9).count();
        assert!(hot_links >= 6, "a 6-hop path must be loaded: {hot_links}");
        // ECMP split: no interior link exceeds the demand.
        assert!(utils.iter().all(|&u| u <= 1.0 + 1e-9));
        let max = utils.iter().cloned().fold(0.0f64, f64::max);
        assert!((max - 1.0).abs() < 1e-9, "first hop is at line rate");
    }

    #[test]
    fn ecmp_fluid_split_halves_load() {
        let (topo, fib) = k4();
        let mut m = DemandMatrix::default();
        m.push(0, 15, 1e9);
        let utils = link_utilization(&topo, &fib, &m);
        // Between edge and aggregation there are 2 equal-cost choices, so
        // some links carry exactly half the demand.
        let halves = utils.iter().filter(|&&u| (u - 0.5).abs() < 1e-9).count();
        assert!(halves >= 2, "expected 0.5-utilization links, got {halves}");
    }

    #[test]
    fn incast_concentrates_on_destination_downlink() {
        let (topo, fib) = k4();
        let mut m = DemandMatrix::default();
        for s in 1..9 {
            m.push(s, 0, 1e8);
        }
        let utils = link_utilization(&topo, &fib, &m);
        let max = utils.iter().cloned().fold(0.0f64, f64::max);
        // All 8 demands converge on host 0's downlink: 0.8 utilization.
        assert!((max - 0.8).abs() < 1e-9, "max {max}");
        // Hotspot sparsity: few links are near the max.
        let hot = hot_fraction_relative(&utils, 0.99);
        assert!(hot < 0.05, "incast hotspot should be sparse: {hot}");
    }

    #[test]
    fn hot_fraction_edge_cases() {
        assert_eq!(hot_fraction_relative(&[], 0.5), 0.0);
        assert_eq!(hot_fraction_relative(&[0.0, 0.0], 0.5), 0.0);
        assert!((hot_fraction_relative(&[1.0, 0.6, 0.4], 0.5) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn families_generate_sane_matrices() {
        let mut rng = SimRng::new(11);
        for fam in WorkloadFamily::ALL {
            let m = fam.sample(64, 1e8, &mut rng);
            assert!(!m.demands.is_empty(), "{fam:?} empty");
            assert!(m.demands.iter().all(|&(s, d, r)| s != d && r > 0.0));
            assert!(m.total_rate() > 0.0);
        }
    }

    #[test]
    fn hotspots_are_sparse_across_families() {
        // The qualitative Fig 3 property: most of the time, a small
        // fraction of links is hot.
        let (topo, fib) = k4();
        let mut rng = SimRng::new(13);
        for fam in WorkloadFamily::ALL {
            let mut sparse_snapshots = 0;
            let n = 20;
            for _ in 0..n {
                let m = fam.sample(topo.num_hosts(), 1e8, &mut rng);
                let utils = link_utilization(&topo, &fib, &m);
                if hot_fraction_relative(&utils, 0.5) < 0.4 {
                    sparse_snapshots += 1;
                }
            }
            assert!(
                sparse_snapshots >= n / 2,
                "{fam:?}: only {sparse_snapshots}/{n} sparse"
            );
        }
    }
}
