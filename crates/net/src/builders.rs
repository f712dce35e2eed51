//! Topology generators.
//!
//! The paper's evaluation uses a K=8 fat-tree (128 hosts) for the NS-3
//! simulations and a small 2-aggregation / 3-edge testbed for the Click
//! experiments. The discussion section (§7) additionally motivates Jellyfish
//! and HyperX as detour-friendly topologies, and footnote 10 mentions that
//! DIBS functions even on a linear topology; generators for all of these are
//! provided here.

use crate::ids::NodeId;
use crate::topology::{LinkSpec, SwitchLayer, Topology, TopologyBuilder};
use dibs_engine::rng::SimRng;

/// Parameters for [`fat_tree`].
#[derive(Debug, Clone, Copy)]
pub struct FatTreeParams {
    /// Fat-tree arity; must be even and at least 2. K=8 gives 128 hosts.
    pub k: usize,
    /// Host-to-edge links.
    pub host_link: LinkSpec,
    /// Switch-to-switch links. Divide the rate to oversubscribe (§5.5.4).
    pub fabric_link: LinkSpec,
}

impl FatTreeParams {
    /// The paper's default fabric: K=8, 1 Gbps everywhere, 1 µs hops.
    pub fn paper_default() -> Self {
        FatTreeParams {
            k: 8,
            host_link: LinkSpec::gbit(1),
            fabric_link: LinkSpec::gbit(1),
        }
    }

    /// Number of hosts this fat-tree will have.
    pub fn num_hosts(&self) -> usize {
        self.k * self.k * self.k / 4
    }
}

/// Builds a K-ary fat-tree [Al-Fares et al., SIGCOMM'08].
///
/// Layout: `k` pods; each pod has `k/2` edge and `k/2` aggregation switches;
/// `(k/2)^2` core switches. Edge switch `e` of a pod serves `k/2` hosts and
/// connects to every aggregation switch in its pod; aggregation switch `a`
/// connects to core switches `a*(k/2) .. (a+1)*(k/2)`.
///
/// Host ids are assigned pod-major, so host `h` lives in pod
/// `h / (k^2/4)` under edge switch `(h % (k^2/4)) / (k/2)`.
///
/// # Panics
///
/// Panics if `k` is odd or less than 2.
pub fn fat_tree(params: FatTreeParams) -> Topology {
    let k = params.k;
    assert!(
        k >= 2 && k.is_multiple_of(2),
        "fat-tree arity must be even, got {k}"
    );
    let half = k / 2;
    let mut b = TopologyBuilder::new();

    // Core switches first so their SwitchIds are stable regardless of pods.
    let cores: Vec<NodeId> = (0..half * half)
        .map(|c| b.add_switch(SwitchLayer::Core, format!("core[{c}]")))
        .collect();

    for pod in 0..k {
        let aggrs: Vec<NodeId> = (0..half)
            .map(|a| b.add_switch(SwitchLayer::Aggregation, format!("aggr[{pod}][{a}]")))
            .collect();
        let edges: Vec<NodeId> = (0..half)
            .map(|e| b.add_switch(SwitchLayer::Edge, format!("edge[{pod}][{e}]")))
            .collect();
        // Hosts and host-edge links.
        for (e, &edge) in edges.iter().enumerate() {
            for h in 0..half {
                let host = b.add_host(format!("h[{pod}][{e}][{h}]"));
                b.connect(host, edge, params.host_link);
            }
        }
        // Edge-aggregation full bipartite within the pod.
        for &edge in &edges {
            for &aggr in &aggrs {
                b.connect(edge, aggr, params.fabric_link);
            }
        }
        // Aggregation-core.
        for (a, &aggr) in aggrs.iter().enumerate() {
            for c in 0..half {
                b.connect(aggr, cores[a * half + c], params.fabric_link);
            }
        }
    }
    let topo = b.build();
    debug_assert_eq!(topo.num_hosts(), params.num_hosts());
    debug_assert!(topo.validate().is_ok());
    topo
}

/// The Emulab/Click testbed of §5.2: two aggregation switches, three edge
/// switches (each connected to both aggregations), and two servers per edge
/// switch.
pub fn mini_testbed(link: LinkSpec) -> Topology {
    let mut b = TopologyBuilder::new();
    let aggrs: Vec<NodeId> = (0..2)
        .map(|a| b.add_switch(SwitchLayer::Aggregation, format!("aggr[{a}]")))
        .collect();
    for e in 0..3 {
        let edge = b.add_switch(SwitchLayer::Edge, format!("edge[{e}]"));
        for &aggr in &aggrs {
            b.connect(edge, aggr, link);
        }
        for h in 0..2 {
            let host = b.add_host(format!("h[{e}][{h}]"));
            b.connect(host, edge, link);
        }
    }
    let topo = b.build();
    debug_assert!(topo.validate().is_ok());
    topo
}

/// `n` hosts hanging off a single switch (useful for transport unit tests
/// and pure incast microbenchmarks).
pub fn single_switch(n_hosts: usize, link: LinkSpec) -> Topology {
    let mut b = TopologyBuilder::new();
    let s = b.add_switch(SwitchLayer::Edge, "s0");
    for i in 0..n_hosts {
        let h = b.add_host(format!("h{i}"));
        b.connect(h, s, link);
    }
    b.build()
}

/// A chain of `n_switches` switches with `hosts_per_switch` hosts each
/// (footnote 10: DIBS works even here, detouring along the reverse path).
pub fn linear(n_switches: usize, hosts_per_switch: usize, link: LinkSpec) -> Topology {
    assert!(n_switches >= 1);
    let mut b = TopologyBuilder::new();
    let mut prev: Option<NodeId> = None;
    for s in 0..n_switches {
        let sw = b.add_switch(SwitchLayer::Other, format!("s{s}"));
        if let Some(p) = prev {
            b.connect(p, sw, link);
        }
        for h in 0..hosts_per_switch {
            let host = b.add_host(format!("h[{s}][{h}]"));
            b.connect(host, sw, link);
        }
        prev = Some(sw);
    }
    b.build()
}

/// Classic dumbbell: `n_left` senders and `n_right` receivers joined by a
/// two-switch bottleneck.
pub fn dumbbell(n_left: usize, n_right: usize, link: LinkSpec, bottleneck: LinkSpec) -> Topology {
    let mut b = TopologyBuilder::new();
    let sl = b.add_switch(SwitchLayer::Other, "left");
    let sr = b.add_switch(SwitchLayer::Other, "right");
    b.connect(sl, sr, bottleneck);
    for i in 0..n_left {
        let h = b.add_host(format!("l{i}"));
        b.connect(h, sl, link);
    }
    for i in 0..n_right {
        let h = b.add_host(format!("r{i}"));
        b.connect(h, sr, link);
    }
    b.build()
}

/// Parameters for [`jellyfish`].
#[derive(Debug, Clone, Copy)]
pub struct JellyfishParams {
    /// Number of switches.
    pub switches: usize,
    /// Switch-to-switch ports per switch (the random-regular-graph degree).
    pub degree: usize,
    /// Hosts attached to each switch.
    pub hosts_per_switch: usize,
    /// Host links.
    pub host_link: LinkSpec,
    /// Switch-to-switch links.
    pub fabric_link: LinkSpec,
}

/// Builds a Jellyfish topology [Singla et al., NSDI'12]: a random
/// `degree`-regular graph over the switches with `hosts_per_switch` hosts
/// each.
///
/// Uses the incremental construction from the Jellyfish paper: repeatedly
/// join random switches with free ports; when progress stalls, break an
/// existing link to free ports up. Falls back gracefully (leaving a port
/// free) only if the parameters make a regular graph impossible.
///
/// # Panics
///
/// Panics if `switches * degree` is odd or `degree >= switches`.
pub fn jellyfish(params: JellyfishParams, rng: &mut SimRng) -> Topology {
    let n = params.switches;
    let d = params.degree;
    assert!(d < n, "degree {d} must be < switches {n}");
    assert!((n * d).is_multiple_of(2), "switches*degree must be even");

    let mut b = TopologyBuilder::new();
    let sws: Vec<NodeId> = (0..n)
        .map(|s| b.add_switch(SwitchLayer::Other, format!("s{s}")))
        .collect();
    for (s, &sw) in sws.iter().enumerate() {
        for h in 0..params.hosts_per_switch {
            let host = b.add_host(format!("h[{s}][{h}]"));
            b.connect(host, sw, params.host_link);
        }
    }

    // Adjacency over switch indices.
    let mut free: Vec<usize> = vec![d; n];
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut edges: Vec<(usize, usize)> = Vec::new();
    let connected = |adj: &Vec<Vec<usize>>, a: usize, c: usize| adj[a].contains(&c);

    let mut stall = 0usize;
    while free.iter().sum::<usize>() >= 2 {
        let open: Vec<usize> = (0..n).filter(|&i| free[i] > 0).collect();
        if open.len() == 1 || stall > 50 * n {
            // One switch left with >= 2 free ports (or stalled): break a
            // random existing edge not incident to it and rewire.
            let Some(&lone) = open.first() else { break };
            if free[lone] < 2 || edges.is_empty() {
                break;
            }
            let ei = rng.below(edges.len());
            let (a, c) = edges[ei];
            if a == lone || c == lone || connected(&adj, lone, a) || connected(&adj, lone, c) {
                stall += 1;
                continue;
            }
            edges.swap_remove(ei);
            adj[a].retain(|&x| x != c);
            adj[c].retain(|&x| x != a);
            for (x, y) in [(lone, a), (lone, c)] {
                adj[x].push(y);
                adj[y].push(x);
                edges.push((x, y));
            }
            free[lone] -= 2;
            stall = 0;
            continue;
        }
        let a = open[rng.below(open.len())];
        let c = open[rng.below(open.len())];
        if a == c || connected(&adj, a, c) {
            stall += 1;
            continue;
        }
        adj[a].push(c);
        adj[c].push(a);
        edges.push((a, c));
        free[a] -= 1;
        free[c] -= 1;
        stall = 0;
    }

    for &(a, c) in &edges {
        b.connect(sws[a], sws[c], params.fabric_link);
    }
    b.build()
}

/// Parameters for [`hyperx`].
#[derive(Debug, Clone, Copy)]
pub struct HyperXParams<'a> {
    /// Lattice shape: one entry per dimension, e.g. `&[4, 4]` for a 4x4
    /// HyperX. Switches in each dimension form a full mesh.
    pub shape: &'a [usize],
    /// Hosts attached to each switch.
    pub hosts_per_switch: usize,
    /// Host links.
    pub host_link: LinkSpec,
    /// Switch-to-switch links.
    pub fabric_link: LinkSpec,
}

/// Builds a regular HyperX topology [Ahn et al., SC'09]: switches at the
/// points of a multidimensional lattice, fully meshed along each dimension.
///
/// # Panics
///
/// Panics on an empty shape or any dimension smaller than 1.
pub fn hyperx(params: HyperXParams<'_>) -> Topology {
    let shape = params.shape;
    assert!(!shape.is_empty(), "HyperX needs at least one dimension");
    assert!(shape.iter().all(|&s| s >= 1), "dimensions must be >= 1");
    let total: usize = shape.iter().product();

    let mut b = TopologyBuilder::new();
    let sws: Vec<NodeId> = (0..total)
        .map(|i| b.add_switch(SwitchLayer::Other, format!("x{i}")))
        .collect();
    for (i, &sw) in sws.iter().enumerate() {
        for h in 0..params.hosts_per_switch {
            let host = b.add_host(format!("h[{i}][{h}]"));
            b.connect(host, sw, params.host_link);
        }
    }

    // Mixed-radix coordinates; connect each pair differing in one coordinate.
    let coord = |mut i: usize| -> Vec<usize> {
        shape
            .iter()
            .map(|&s| {
                let c = i % s;
                i /= s;
                c
            })
            .collect()
    };
    for i in 0..total {
        let ci = coord(i);
        for j in (i + 1)..total {
            let cj = coord(j);
            let diff = ci.iter().zip(&cj).filter(|(a, b)| a != b).count();
            if diff == 1 {
                b.connect(sws[i], sws[j], params.fabric_link);
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::SwitchLayer;

    #[test]
    fn fat_tree_k4_shape() {
        let t = fat_tree(FatTreeParams {
            k: 4,
            host_link: LinkSpec::gbit(1),
            fabric_link: LinkSpec::gbit(1),
        });
        assert_eq!(t.num_hosts(), 16);
        assert_eq!(t.num_switches(), 4 + 8 + 8); // 4 core, 8 aggr, 8 edge.
        assert!(t.validate().is_ok());
        // Every switch in a K=4 fat-tree has exactly 4 ports.
        for &sw in t.switch_nodes() {
            assert_eq!(t.num_ports(sw), 4, "switch {} port count", t.node(sw).name);
        }
    }

    #[test]
    fn fat_tree_k8_matches_paper() {
        let t = fat_tree(FatTreeParams::paper_default());
        assert_eq!(t.num_hosts(), 128);
        assert_eq!(t.num_switches(), 80);
        // 128 host links + 8 pods * (16 edge-aggr + 16 aggr-core).
        assert_eq!(t.links().len(), 128 + 8 * 32);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn fat_tree_layers() {
        let t = fat_tree(FatTreeParams {
            k: 4,
            host_link: LinkSpec::gbit(1),
            fabric_link: LinkSpec::gbit(1),
        });
        let mut edge = 0;
        let mut aggr = 0;
        let mut core = 0;
        for &sw in t.switch_nodes() {
            match t.layer(sw) {
                SwitchLayer::Edge => edge += 1,
                SwitchLayer::Aggregation => aggr += 1,
                SwitchLayer::Core => core += 1,
                SwitchLayer::Other => panic!("unexpected layer"),
            }
        }
        assert_eq!((edge, aggr, core), (8, 8, 4));
    }

    #[test]
    fn fat_tree_oversubscription_lowers_fabric_only() {
        let t = fat_tree(FatTreeParams {
            fabric_link: LinkSpec::gbit(1).slower_by(4),
            ..FatTreeParams::paper_default()
        });
        for (pr, port) in t.directed_edges() {
            let host_side = t.is_host(pr.node) || port.peer_is_host;
            if host_side {
                assert_eq!(port.rate_bps, 1_000_000_000);
            } else {
                assert_eq!(port.rate_bps, 250_000_000);
            }
        }
    }

    #[test]
    fn mini_testbed_shape() {
        let t = mini_testbed(LinkSpec::gbit(1));
        assert_eq!(t.num_hosts(), 6);
        assert_eq!(t.num_switches(), 5);
        assert_eq!(t.links().len(), 6 + 6); // 6 host links, 3 edges * 2 aggrs.
        assert!(t.validate().is_ok());
    }

    #[test]
    fn linear_and_dumbbell() {
        let t = linear(4, 2, LinkSpec::gbit(1));
        assert_eq!(t.num_hosts(), 8);
        assert_eq!(t.num_switches(), 4);
        assert!(t.validate().is_ok());

        let d = dumbbell(3, 3, LinkSpec::gbit(1), LinkSpec::gbit(5));
        assert_eq!(d.num_hosts(), 6);
        assert_eq!(d.num_switches(), 2);
        assert!(d.validate().is_ok());
    }

    #[test]
    fn jellyfish_is_regular() {
        let mut rng = SimRng::new(42);
        let t = jellyfish(
            JellyfishParams {
                switches: 20,
                degree: 4,
                hosts_per_switch: 2,
                host_link: LinkSpec::gbit(1),
                fabric_link: LinkSpec::gbit(1),
            },
            &mut rng,
        );
        assert_eq!(t.num_hosts(), 40);
        assert_eq!(t.num_switches(), 20);
        assert!(t.validate().is_ok());
        // Each switch: 2 host ports + exactly `degree` fabric ports.
        for &sw in t.switch_nodes() {
            assert_eq!(t.num_ports(sw), 6, "switch {}", t.node(sw).name);
        }
    }

    #[test]
    fn jellyfish_deterministic_per_seed() {
        let build = |seed| {
            let mut rng = SimRng::new(seed);
            let t = jellyfish(
                JellyfishParams {
                    switches: 12,
                    degree: 3,
                    hosts_per_switch: 1,
                    host_link: LinkSpec::gbit(1),
                    fabric_link: LinkSpec::gbit(1),
                },
                &mut rng,
            );
            t.links()
                .iter()
                .map(|l| (l.a.node.0, l.b.node.0))
                .collect::<Vec<_>>()
        };
        assert_eq!(build(7), build(7));
    }

    #[test]
    fn hyperx_2d_shape() {
        let t = hyperx(HyperXParams {
            shape: &[3, 3],
            hosts_per_switch: 2,
            host_link: LinkSpec::gbit(1),
            fabric_link: LinkSpec::gbit(1),
        });
        assert_eq!(t.num_switches(), 9);
        assert_eq!(t.num_hosts(), 18);
        // Each switch meshes with 2 others per dimension: 4 fabric + 2 host ports.
        for &sw in t.switch_nodes() {
            assert_eq!(t.num_ports(sw), 6);
        }
        assert!(t.validate().is_ok());
    }

    #[test]
    fn hyperx_1d_is_full_mesh() {
        let t = hyperx(HyperXParams {
            shape: &[5],
            hosts_per_switch: 1,
            host_link: LinkSpec::gbit(1),
            fabric_link: LinkSpec::gbit(1),
        });
        // 5 host links + C(5,2) = 10 fabric links.
        assert_eq!(t.links().len(), 15);
    }
}
