//! The topology graph: nodes, ports, and duplex links.

use crate::ids::{HostId, LinkId, NodeId, PortRef, SwitchId};
use dibs_engine::time::SimDuration;
use std::fmt;

/// Which tier of the data-center fabric a switch belongs to.
///
/// Used for routing-free diagnostics (e.g. grouping the detour timeline of
/// Figure 2 by layer); routing itself never consults the layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SwitchLayer {
    /// Top-of-rack / edge switch, directly connected to hosts.
    Edge,
    /// Pod aggregation switch.
    Aggregation,
    /// Core (spine) switch.
    Core,
    /// Anything else (random topologies, test rigs).
    Other,
}

/// What a node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// An end host; `HostId` indexes the topology's host table.
    Host(HostId),
    /// A switch; `SwitchId` indexes the topology's switch table.
    Switch(SwitchId, SwitchLayer),
}

/// One directed attachment point of a node to a link.
#[derive(Debug, Clone, Copy)]
pub struct Port {
    /// The node on the far end of this port's link.
    pub peer: NodeId,
    /// The far node's port index for the same link.
    pub peer_port: usize,
    /// Transmission rate out of this port, bits per second.
    pub rate_bps: u64,
    /// One-way propagation delay to the peer.
    pub delay: SimDuration,
    /// The undirected link this port belongs to.
    pub link: LinkId,
    /// Whether the peer is a host (cached; DIBS must not detour to hosts).
    pub peer_is_host: bool,
}

/// A node: its kind plus its ports.
#[derive(Debug, Clone)]
pub struct Node {
    /// Host or switch.
    pub kind: NodeKind,
    /// Attached ports, densely indexed.
    pub ports: Vec<Port>,
    /// Optional human-readable name (e.g. `edge[2][1]`).
    pub name: String,
}

/// An undirected link record (for link-level statistics).
#[derive(Debug, Clone, Copy)]
pub struct Link {
    /// One endpoint.
    pub a: PortRef,
    /// The other endpoint.
    pub b: PortRef,
    /// Rate of each direction, bits per second.
    pub rate_bps: u64,
    /// One-way propagation delay.
    pub delay: SimDuration,
}

/// Rate and delay for a class of links.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkSpec {
    /// Bits per second in each direction.
    pub rate_bps: u64,
    /// One-way propagation delay.
    pub delay: SimDuration,
}

impl LinkSpec {
    /// 1 Gbps with the given propagation delay in microseconds.
    pub fn gbit(delay_us: u64) -> Self {
        LinkSpec {
            rate_bps: 1_000_000_000,
            delay: SimDuration::from_micros(delay_us),
        }
    }

    /// Returns the spec with the rate divided by `divisor` (for
    /// oversubscribed fabrics).
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn slower_by(self, divisor: u64) -> Self {
        assert!(divisor > 0, "divisor must be positive");
        LinkSpec {
            rate_bps: self.rate_bps / divisor,
            delay: self.delay,
        }
    }
}

/// An immutable network graph.
///
/// Build one with [`TopologyBuilder`] or one of the generators in
/// [`crate::builders`].
#[derive(Debug, Clone)]
pub struct Topology {
    nodes: Vec<Node>,
    links: Vec<Link>,
    hosts: Vec<NodeId>,
    switches: Vec<NodeId>,
}

impl Topology {
    /// All nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The node record for `id`.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// All undirected links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Node ids of all switches, ordered by `SwitchId`.
    pub fn switch_nodes(&self) -> &[NodeId] {
        &self.switches
    }

    /// Number of hosts.
    pub fn num_hosts(&self) -> usize {
        self.hosts.len()
    }

    /// Number of switches.
    pub fn num_switches(&self) -> usize {
        self.switches.len()
    }

    /// Number of nodes (hosts + switches).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The node id of a host.
    pub fn host_node(&self, h: HostId) -> NodeId {
        self.hosts[h.index()]
    }

    /// The node id of a switch.
    pub fn switch_node(&self, s: SwitchId) -> NodeId {
        self.switches[s.index()]
    }

    /// The host id of a node, if it is a host.
    pub fn as_host(&self, n: NodeId) -> Option<HostId> {
        match self.node(n).kind {
            NodeKind::Host(h) => Some(h),
            NodeKind::Switch(..) => None,
        }
    }

    /// The switch id of a node, if it is a switch.
    pub fn as_switch(&self, n: NodeId) -> Option<SwitchId> {
        match self.node(n).kind {
            NodeKind::Switch(s, _) => Some(s),
            NodeKind::Host(_) => None,
        }
    }

    /// The layer of a switch node (`Other` for hosts).
    pub fn layer(&self, n: NodeId) -> SwitchLayer {
        match self.node(n).kind {
            NodeKind::Switch(_, l) => l,
            NodeKind::Host(_) => SwitchLayer::Other,
        }
    }

    /// Whether the node is a host.
    pub fn is_host(&self, n: NodeId) -> bool {
        matches!(self.node(n).kind, NodeKind::Host(_))
    }

    /// The port record at `(node, port)`.
    pub fn port(&self, node: NodeId, port: usize) -> &Port {
        &self.nodes[node.index()].ports[port]
    }

    /// Number of ports on a node.
    pub fn num_ports(&self, node: NodeId) -> usize {
        self.nodes[node.index()].ports.len()
    }

    /// The single uplink port of a host.
    ///
    /// # Panics
    ///
    /// Panics if the node is not a host with exactly one port.
    pub fn host_uplink(&self, h: HostId) -> &Port {
        let n = self.host_node(h);
        let ports = &self.nodes[n.index()].ports;
        assert_eq!(ports.len(), 1, "host {h} must have exactly one port");
        &ports[0]
    }

    /// Iterates over all directed edges as `(PortRef, &Port)`.
    pub fn directed_edges(&self) -> impl Iterator<Item = (PortRef, &Port)> + '_ {
        self.nodes.iter().enumerate().flat_map(|(ni, node)| {
            node.ports.iter().enumerate().map(move |(pi, p)| {
                (
                    PortRef {
                        node: NodeId::from_index(ni),
                        port: pi,
                    },
                    p,
                )
            })
        })
    }

    /// Verifies structural invariants: port symmetry and full connectivity.
    ///
    /// Returns a description of the first violation found.
    pub fn validate(&self) -> Result<(), String> {
        for (pr, port) in self.directed_edges() {
            let back = self.port(port.peer, port.peer_port);
            if back.peer != pr.node || back.peer_port != pr.port {
                return Err(format!("asymmetric link at {pr}"));
            }
            if back.rate_bps != port.rate_bps || back.delay != port.delay {
                return Err(format!("mismatched link parameters at {pr}"));
            }
            if port.peer_is_host != self.is_host(port.peer) {
                return Err(format!("stale peer_is_host cache at {pr}"));
            }
        }
        // Connectivity via BFS from node 0.
        if !self.nodes.is_empty() {
            let mut seen = vec![false; self.nodes.len()];
            let mut stack = vec![0usize];
            seen[0] = true;
            while let Some(n) = stack.pop() {
                for p in &self.nodes[n].ports {
                    let m = p.peer.index();
                    if !seen[m] {
                        seen[m] = true;
                        stack.push(m);
                    }
                }
            }
            if let Some(i) = seen.iter().position(|&s| !s) {
                return Err(format!("node {i} unreachable from node 0"));
            }
        }
        Ok(())
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Topology({} hosts, {} switches, {} links)",
            self.num_hosts(),
            self.num_switches(),
            self.links.len()
        )
    }
}

/// Incremental topology construction.
///
/// # Examples
///
/// ```
/// use dibs_net::topology::{TopologyBuilder, LinkSpec, SwitchLayer};
///
/// let mut b = TopologyBuilder::new();
/// let s = b.add_switch(SwitchLayer::Edge, "tor0");
/// let h0 = b.add_host("h0");
/// let h1 = b.add_host("h1");
/// b.connect(h0, s, LinkSpec::gbit(1));
/// b.connect(h1, s, LinkSpec::gbit(1));
/// let topo = b.build();
/// assert_eq!(topo.num_hosts(), 2);
/// assert!(topo.validate().is_ok());
/// ```
#[derive(Debug, Default)]
pub struct TopologyBuilder {
    nodes: Vec<Node>,
    links: Vec<Link>,
    hosts: Vec<NodeId>,
    switches: Vec<NodeId>,
}

impl TopologyBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a host; returns its node id.
    pub fn add_host(&mut self, name: impl Into<String>) -> NodeId {
        let node = NodeId::from_index(self.nodes.len());
        let host = HostId::from_index(self.hosts.len());
        self.nodes.push(Node {
            kind: NodeKind::Host(host),
            ports: Vec::new(),
            name: name.into(),
        });
        self.hosts.push(node);
        node
    }

    /// Adds a switch; returns its node id.
    pub fn add_switch(&mut self, layer: SwitchLayer, name: impl Into<String>) -> NodeId {
        let node = NodeId::from_index(self.nodes.len());
        let sw = SwitchId::from_index(self.switches.len());
        self.nodes.push(Node {
            kind: NodeKind::Switch(sw, layer),
            ports: Vec::new(),
            name: name.into(),
        });
        self.switches.push(node);
        node
    }

    /// Connects two nodes with a duplex link; returns the link id.
    ///
    /// # Panics
    ///
    /// Panics on self-links.
    pub fn connect(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) -> LinkId {
        assert_ne!(a, b, "self-links are not allowed");
        let link = LinkId::from_index(self.links.len());
        let pa = self.nodes[a.index()].ports.len();
        let pb = self.nodes[b.index()].ports.len();
        let a_is_host = matches!(self.nodes[a.index()].kind, NodeKind::Host(_));
        let b_is_host = matches!(self.nodes[b.index()].kind, NodeKind::Host(_));
        self.nodes[a.index()].ports.push(Port {
            peer: b,
            peer_port: pb,
            rate_bps: spec.rate_bps,
            delay: spec.delay,
            link,
            peer_is_host: b_is_host,
        });
        self.nodes[b.index()].ports.push(Port {
            peer: a,
            peer_port: pa,
            rate_bps: spec.rate_bps,
            delay: spec.delay,
            link,
            peer_is_host: a_is_host,
        });
        self.links.push(Link {
            a: PortRef { node: a, port: pa },
            b: PortRef { node: b, port: pb },
            rate_bps: spec.rate_bps,
            delay: spec.delay,
        });
        link
    }

    /// Finalizes the topology.
    pub fn build(self) -> Topology {
        Topology {
            nodes: self.nodes,
            links: self.links,
            hosts: self.hosts,
            switches: self.switches,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn star(n: usize) -> Topology {
        let mut b = TopologyBuilder::new();
        let s = b.add_switch(SwitchLayer::Edge, "s");
        for i in 0..n {
            let h = b.add_host(format!("h{i}"));
            b.connect(h, s, LinkSpec::gbit(1));
        }
        b.build()
    }

    #[test]
    fn star_structure() {
        let t = star(4);
        assert_eq!(t.num_hosts(), 4);
        assert_eq!(t.num_switches(), 1);
        assert_eq!(t.links().len(), 4);
        assert_eq!(t.num_ports(t.switch_node(SwitchId(0))), 4);
        assert!(t.validate().is_ok());
        // Host uplinks point at the switch and are flagged as switch-facing.
        for h in 0..4 {
            let up = t.host_uplink(HostId(h));
            assert_eq!(up.peer, t.switch_node(SwitchId(0)));
            assert!(!up.peer_is_host);
        }
        // Switch ports face hosts.
        for p in 0..4 {
            assert!(t.port(t.switch_node(SwitchId(0)), p).peer_is_host);
        }
    }

    #[test]
    fn validate_detects_disconnection() {
        let mut b = TopologyBuilder::new();
        let s0 = b.add_switch(SwitchLayer::Other, "s0");
        let s1 = b.add_switch(SwitchLayer::Other, "s1");
        let h = b.add_host("h");
        b.connect(h, s0, LinkSpec::gbit(1));
        let _ = s1; // s1 left unconnected.
        let t = b.build();
        assert!(t.validate().is_err());
    }

    #[test]
    fn directed_edges_count() {
        let t = star(3);
        assert_eq!(t.directed_edges().count(), 6);
    }

    #[test]
    fn link_spec_oversubscription() {
        let spec = LinkSpec::gbit(1).slower_by(4);
        assert_eq!(spec.rate_bps, 250_000_000);
    }

    #[test]
    #[should_panic(expected = "self-links")]
    fn self_link_panics() {
        let mut b = TopologyBuilder::new();
        let s = b.add_switch(SwitchLayer::Other, "s");
        b.connect(s, s, LinkSpec::gbit(1));
    }
}
