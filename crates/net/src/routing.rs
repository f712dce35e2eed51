//! Destination-based forwarding tables with flow-level ECMP.
//!
//! Following the paper's requirements (§3): switches forward on FIBs
//! computed over all shortest paths, picking among equal-cost next hops with
//! a flow-level hash. Crucially, the FIB answers "next hop toward host H"
//! from *any* node, so a packet that DIBS detoured off its shortest path
//! still routes correctly from wherever it lands.

use crate::ids::{FlowId, HostId, NodeId};
use crate::topology::Topology;
use dibs_engine::rng::splitmix64;
use std::collections::VecDeque;

/// All-pairs shortest-path forwarding state.
///
/// For every `(node, destination host)` pair the FIB stores the set of ports
/// that lie on *some* shortest path, plus the distance in hops.
///
/// Storage is CSR (compressed sparse row): one contiguous pool of port
/// numbers indexed by per-`(node, dst)` offsets, plus a flat distance
/// array. A lookup is two array reads and a slice — no pointer chasing
/// through nested `Vec`s — and the whole table lives in three allocations,
/// so the hot forwarding path stays cache-resident.
///
/// # Examples
///
/// ```
/// use dibs_net::builders::{fat_tree, FatTreeParams};
/// use dibs_net::routing::Fib;
/// use dibs_net::ids::HostId;
///
/// let topo = fat_tree(FatTreeParams { k: 4, ..FatTreeParams::paper_default() });
/// let fib = Fib::compute(&topo);
/// // Fat-tree diameter is 6 host-to-host hops.
/// assert_eq!(fib.distance(topo.host_node(HostId(0)), HostId(15)), 6);
/// ```
#[derive(Debug, Clone)]
pub struct Fib {
    /// Hosts per row; `(node, dst)` flattens to `node * num_hosts + dst`.
    num_hosts: usize,
    /// Concatenated equal-cost out-port lists, node-major then dst-minor,
    /// each list ascending by port index.
    port_pool: Vec<u16>,
    /// `offsets[i]..offsets[i + 1]` bounds entry `i`'s slice of
    /// `port_pool` (length `num_nodes * num_hosts + 1`).
    offsets: Vec<u32>,
    /// Shortest hop count per entry (`u16::MAX` if unreachable).
    dist: Vec<u16>,
    /// Per-instance ECMP salt so distinct simulations hash differently.
    salt: u64,
}

impl Fib {
    /// Computes the FIB with the default salt.
    pub fn compute(topo: &Topology) -> Self {
        Self::compute_salted(topo, 0)
    }

    /// Computes the FIB; `salt` perturbs the ECMP hash (used to decorrelate
    /// repeated runs).
    pub fn compute_salted(topo: &Topology, salt: u64) -> Self {
        Self::compute_masked(topo, salt, &[])
    }

    /// Computes the FIB over the topology minus a set of disabled links.
    ///
    /// `disabled` is indexed by [`LinkId`](crate::ids::LinkId); links past
    /// its end (or an empty slice) count as up. Ports on a disabled link
    /// are skipped in both the BFS and the equal-cost port assembly, so the
    /// result is exactly what [`Fib::compute_salted`] would produce on the
    /// degraded topology. Fault injection recomputes the FIB through this
    /// on every link state change; destinations cut off entirely simply get
    /// empty next-hop sets.
    pub fn compute_masked(topo: &Topology, salt: u64, disabled: &[bool]) -> Self {
        let n = topo.num_nodes();
        let h = topo.num_hosts();
        let link_up =
            |link: crate::ids::LinkId| !disabled.get(link.index()).copied().unwrap_or(false);
        let mut dist = vec![u16::MAX; n * h];

        // One reverse BFS per destination host. Distances are from each node
        // *to* the destination; a port is usable iff its peer is strictly
        // closer.
        let mut queue = VecDeque::new();
        for dst in 0..h {
            let dst_host = HostId::from_index(dst);
            let dst_node = topo.host_node(dst_host);
            dist[dst_node.index() * h + dst] = 0;
            queue.clear();
            queue.push_back(dst_node);
            while let Some(u) = queue.pop_front() {
                let du = dist[u.index() * h + dst];
                // Hosts other than the destination do not forward traffic.
                if topo.is_host(u) && u != dst_node {
                    continue;
                }
                for p in &topo.node(u).ports {
                    if !link_up(p.link) {
                        continue;
                    }
                    let v = p.peer;
                    if dist[v.index() * h + dst] == u16::MAX {
                        dist[v.index() * h + dst] = du + 1;
                        queue.push_back(v);
                    }
                }
            }
        }

        // CSR assembly: walk entries node-major/dst-minor (the same order
        // lookups use) appending each equal-cost port list — ascending by
        // construction of the port iteration — to the shared pool.
        let mut offsets = Vec::with_capacity(n * h + 1);
        let mut port_pool = Vec::new();
        offsets.push(0u32);
        for node in 0..n {
            let ports = &topo.node(NodeId::from_index(node)).ports;
            for dst in 0..h {
                let dn = dist[node * h + dst];
                if dn != u16::MAX && dn != 0 {
                    for (i, p) in ports.iter().enumerate() {
                        if link_up(p.link) && dist[p.peer.index() * h + dst] == dn - 1 {
                            port_pool.push(u16::try_from(i).expect("port index fits u16"));
                        }
                    }
                }
                offsets.push(u32::try_from(port_pool.len()).expect("port pool fits u32"));
            }
        }
        Fib {
            num_hosts: h,
            port_pool,
            offsets,
            dist,
            salt,
        }
    }

    /// Flat index of the `(node, dst)` entry.
    #[inline]
    fn entry(&self, node: NodeId, dst: HostId) -> usize {
        node.index() * self.num_hosts + dst.index()
    }

    /// Shortest-path distance from `node` to host `dst`, in hops.
    ///
    /// Returns `u16::MAX` when unreachable.
    pub fn distance(&self, node: NodeId, dst: HostId) -> u16 {
        self.dist[self.entry(node, dst)]
    }

    /// All equal-cost out-ports from `node` toward `dst`.
    pub fn next_hops(&self, node: NodeId, dst: HostId) -> &[u16] {
        let i = self.entry(node, dst);
        // u32 -> usize is a widening cast on every supported target.
        #[allow(clippy::cast_possible_truncation)]
        {
            &self.port_pool[self.offsets[i] as usize..self.offsets[i + 1] as usize]
        }
    }

    /// The ECMP-selected out-port for a given flow, or `None` if the
    /// destination is unreachable from `node`.
    ///
    /// Selection is flow-level: all packets of `flow` leaving `node` toward
    /// `dst` pick the same port.
    pub fn select_port(&self, node: NodeId, dst: HostId, flow: FlowId) -> Option<usize> {
        let hops = self.next_hops(node, dst);
        match hops.len() {
            0 => None,
            1 => Some(usize::from(hops[0])),
            n => {
                let h = ecmp_hash(flow, node, dst, self.salt);
                // `h % n` is < n, which is a usize (the port count).
                #[allow(clippy::cast_possible_truncation)]
                Some(usize::from(hops[(h % n as u64) as usize]))
            }
        }
    }

    /// [`Fib::select_port`] through an [`EcmpMemo`]: the ECMP hash and
    /// port choice are computed once per `(flow, node, dst)` and replayed
    /// from the memo for every later packet of the flow at that node.
    ///
    /// Behaviorally identical to `select_port` (flow-level ECMP is a pure
    /// function of the key), so memoization never perturbs a run.
    #[inline]
    pub fn select_port_memo(
        &self,
        memo: &mut EcmpMemo,
        node: NodeId,
        dst: HostId,
        flow: FlowId,
    ) -> Option<usize> {
        let v = memo.get_or_insert_with(flow, node, dst, || {
            match self.select_port(node, dst, flow) {
                // Encode `Some(port)` as `port + 1`, `None` as 0.
                Some(p) => u64::try_from(p).expect("port index fits u64") + 1,
                None => 0,
            }
        });
        if v == 0 {
            None
        } else {
            Some(usize::try_from(v - 1).expect("port index fits usize"))
        }
    }

    /// The ECMP salt in use.
    pub fn salt(&self) -> u64 {
        self.salt
    }

    /// Packet-level ECMP (§6): picks among equal-cost ports using
    /// per-packet entropy instead of the flow hash, spraying one flow's
    /// packets across all shortest paths.
    pub fn select_port_per_packet(
        &self,
        node: NodeId,
        dst: HostId,
        packet_entropy: u64,
    ) -> Option<usize> {
        let hops = self.next_hops(node, dst);
        match hops.len() {
            0 => None,
            1 => Some(usize::from(hops[0])),
            n => {
                let h = splitmix64(packet_entropy ^ self.salt ^ (u64::from(node.0) << 32));
                // `h % n` is < n, which is a usize (the port count).
                #[allow(clippy::cast_possible_truncation)]
                Some(usize::from(hops[(h % n as u64) as usize]))
            }
        }
    }
}

/// Flow-level ECMP hash.
///
/// Stable across packets of one flow at one node; well mixed across flows
/// and nodes.
pub fn ecmp_hash(flow: FlowId, node: NodeId, dst: HostId, salt: u64) -> u64 {
    let mut x = salt ^ 0xECB9_55C0_11EC_0DD5;
    x = splitmix64(x ^ u64::from(flow.0));
    x = splitmix64(x ^ (u64::from(node.0) << 32) ^ u64::from(dst.0));
    splitmix64(x)
}

/// One direct-mapped memo slot; `node == u32::MAX` marks it empty (no
/// real topology reaches four billion nodes).
#[derive(Debug, Clone, Copy)]
struct MemoSlot {
    flow: u32,
    node: u32,
    dst: u32,
    value: u64,
}

impl MemoSlot {
    const EMPTY: MemoSlot = MemoSlot {
        flow: u32::MAX,
        node: u32::MAX,
        dst: u32::MAX,
        value: 0,
    };
}

/// Direct-mapped memo for per-flow ECMP decisions.
///
/// Flow-level ECMP is a pure function of `(flow, node, dst)` (plus the
/// FIB's fixed salt), yet the hot path recomputes the three-round
/// `splitmix64` chain for every packet at every hop. This cache keys a
/// `u64` result on that triple: [`Fib::select_port_memo`] stores the
/// chosen port, and the switch detour path stores the raw flow hash. On a
/// collision the old entry is simply replaced — the memo is a pure
/// accelerator, never a source of nondeterminism, because the cached value
/// is always exactly what recomputation would produce.
#[derive(Debug, Clone, Default)]
pub struct EcmpMemo {
    /// Power-of-two slot table (lazily sized if constructed via `default`).
    slots: Vec<MemoSlot>,
    hits: u64,
    misses: u64,
}

impl EcmpMemo {
    /// Creates a memo with `slots` entries, rounded up to a power of two.
    ///
    /// Size it to the expected working set: one entry per concurrently
    /// active `(flow, node)` pair. The simulator core uses a few thousand
    /// slots for the whole fabric; a per-switch detour memo needs far
    /// fewer.
    pub fn with_slots(slots: usize) -> Self {
        EcmpMemo {
            slots: vec![MemoSlot::EMPTY; slots.next_power_of_two().max(64)],
            hits: 0,
            misses: 0,
        }
    }

    /// Cached lookups served without recomputing.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that fell through to `compute`.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Forgets every cached entry (the hit/miss counters survive).
    ///
    /// Required whenever the function being memoized changes — e.g. the
    /// FIB was recomputed after a link failure — since stale entries would
    /// otherwise replay port choices that no longer match recomputation.
    pub fn clear(&mut self) {
        for slot in &mut self.slots {
            *slot = MemoSlot::EMPTY;
        }
    }

    /// Returns the cached value for `(flow, node, dst)`, computing and
    /// caching it on a miss (or on a direct-mapped collision, which simply
    /// evicts the previous occupant).
    #[inline]
    pub fn get_or_insert_with(
        &mut self,
        flow: FlowId,
        node: NodeId,
        dst: HostId,
        compute: impl FnOnce() -> u64,
    ) -> u64 {
        if self.slots.is_empty() {
            // `default()`-constructed memo: pick a mid-size table.
            self.slots = vec![MemoSlot::EMPTY; 1024];
        }
        debug_assert!(
            node.0 != u32::MAX || flow.0 != u32::MAX || dst.0 != u32::MAX,
            "the all-MAX key is reserved as the empty-slot marker",
        );
        // One multiply-shift over the packed key; table sizes stay well
        // below 2^24 so the masked high bits index every slot.
        let key = u64::from(flow.0)
            ^ u64::from(node.0).rotate_left(21)
            ^ u64::from(dst.0).rotate_left(42);
        let mixed = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let idx =
            usize::try_from(mixed >> 40).expect("24-bit index fits usize") & (self.slots.len() - 1);
        let slot = &mut self.slots[idx];
        if slot.flow == flow.0 && slot.node == node.0 && slot.dst == dst.0 {
            self.hits += 1;
            return slot.value;
        }
        let value = compute();
        *slot = MemoSlot {
            flow: flow.0,
            node: node.0,
            dst: dst.0,
            value,
        };
        self.misses += 1;
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{fat_tree, linear, mini_testbed, FatTreeParams};
    use crate::topology::LinkSpec;

    fn k4() -> (Topology, Fib) {
        let topo = fat_tree(FatTreeParams {
            k: 4,
            ..FatTreeParams::paper_default()
        });
        let fib = Fib::compute(&topo);
        (topo, fib)
    }

    #[test]
    fn distances_in_fat_tree() {
        let (topo, fib) = k4();
        // Same edge switch: 2 hops. Same pod, different edge: 4. Cross-pod: 6.
        let h0 = topo.host_node(HostId(0));
        assert_eq!(fib.distance(h0, HostId(0)), 0);
        assert_eq!(fib.distance(h0, HostId(1)), 2);
        assert_eq!(fib.distance(h0, HostId(2)), 4);
        assert_eq!(fib.distance(h0, HostId(4)), 6);
        assert_eq!(fib.distance(h0, HostId(15)), 6);
    }

    #[test]
    fn every_switch_reaches_every_host() {
        let (topo, fib) = k4();
        for &sw in topo.switch_nodes() {
            for h in 0..topo.num_hosts() {
                let dst = HostId::from_index(h);
                assert!(
                    !fib.next_hops(sw, dst).is_empty(),
                    "{} has no route to {dst}",
                    topo.node(sw).name
                );
            }
        }
    }

    #[test]
    fn multipath_exists_cross_pod() {
        let (topo, fib) = k4();
        // From an edge switch, a cross-pod destination should have 2 uplinks
        // (both aggregation switches).
        let h0_edge = topo.host_uplink(HostId(0)).peer;
        assert_eq!(fib.next_hops(h0_edge, HostId(15)).len(), 2);
        // And a same-rack destination exactly one (the host port).
        assert_eq!(fib.next_hops(h0_edge, HostId(1)).len(), 1);
    }

    #[test]
    fn routes_never_traverse_third_party_hosts() {
        let (topo, fib) = k4();
        // Walk a route greedily from every host to every other host; each
        // intermediate node must be a switch.
        for s in 0..topo.num_hosts() {
            for d in 0..topo.num_hosts() {
                if s == d {
                    continue;
                }
                let dst = HostId::from_index(d);
                let mut at = topo.host_node(HostId::from_index(s));
                let mut hops = 0;
                while topo.as_host(at) != Some(dst) {
                    let port = fib
                        .select_port(at, dst, FlowId(7))
                        .expect("route must exist");
                    at = topo.port(at, port).peer;
                    hops += 1;
                    assert!(hops <= 6, "route too long");
                    if topo.is_host(at) {
                        assert_eq!(topo.as_host(at), Some(dst), "route hit a third-party host");
                    }
                }
            }
        }
    }

    #[test]
    fn ecmp_is_flow_stable_and_spreads() {
        let (topo, fib) = k4();
        let edge = topo.host_uplink(HostId(0)).peer;
        let dst = HostId(15);
        // Stability.
        let p1 = fib.select_port(edge, dst, FlowId(3)).unwrap();
        let p2 = fib.select_port(edge, dst, FlowId(3)).unwrap();
        assert_eq!(p1, p2);
        // Spread: over many flows both uplinks are used, roughly evenly.
        let mut counts = std::collections::BTreeMap::new();
        for f in 0..1000 {
            let p = fib.select_port(edge, dst, FlowId(f)).unwrap();
            *counts.entry(p).or_insert(0usize) += 1;
        }
        assert_eq!(counts.len(), 2);
        for &c in counts.values() {
            assert!((350..=650).contains(&c), "imbalanced ECMP: {counts:?}");
        }
    }

    #[test]
    fn mini_testbed_routes() {
        let topo = mini_testbed(LinkSpec::gbit(1));
        let fib = Fib::compute(&topo);
        // Hosts on different edge switches are 4 hops apart (host-edge-aggr-edge-host).
        let h0 = topo.host_node(HostId(0));
        assert_eq!(fib.distance(h0, HostId(2)), 4);
        // Two equal-cost aggregation choices from each edge switch.
        let edge = topo.host_uplink(HostId(0)).peer;
        assert_eq!(fib.next_hops(edge, HostId(4)).len(), 2);
    }

    #[test]
    fn linear_topology_routes() {
        let topo = linear(4, 1, LinkSpec::gbit(1));
        let fib = Fib::compute(&topo);
        let h0 = topo.host_node(HostId(0));
        assert_eq!(fib.distance(h0, HostId(3)), 5);
        // Single path everywhere.
        for &sw in topo.switch_nodes() {
            for h in 0..topo.num_hosts() {
                assert!(fib.next_hops(sw, HostId::from_index(h)).len() <= 1);
            }
        }
    }

    #[test]
    fn memoized_select_matches_direct() {
        let (topo, fib) = k4();
        let mut memo = EcmpMemo::with_slots(256);
        for f in 0..200 {
            for &sw in topo.switch_nodes() {
                for d in [0u32, 7, 15] {
                    let dst = HostId(d);
                    let direct = fib.select_port(sw, dst, FlowId(f));
                    let via_memo = fib.select_port_memo(&mut memo, sw, dst, FlowId(f));
                    assert_eq!(direct, via_memo);
                    // And again, now served from the cache.
                    assert_eq!(direct, fib.select_port_memo(&mut memo, sw, dst, FlowId(f)));
                }
            }
        }
        assert!(memo.hits() > 0, "repeat lookups must hit");
        assert!(memo.misses() > 0);
    }

    #[test]
    fn memo_collisions_just_recompute() {
        let (topo, fib) = k4();
        // A deliberately tiny memo forces constant evictions; results must
        // still match the direct computation every time.
        let mut memo = EcmpMemo::with_slots(1);
        let edge = topo.host_uplink(HostId(0)).peer;
        for f in 0..500 {
            let dst = HostId(15);
            assert_eq!(
                fib.select_port(edge, dst, FlowId(f)),
                fib.select_port_memo(&mut memo, edge, dst, FlowId(f)),
            );
        }
    }

    #[test]
    fn default_memo_lazily_allocates() {
        let mut memo = EcmpMemo::default();
        let v = memo.get_or_insert_with(FlowId(1), NodeId(2), HostId(3), || 42);
        assert_eq!(v, 42);
        let again = memo.get_or_insert_with(FlowId(1), NodeId(2), HostId(3), || 7);
        assert_eq!(again, 42, "second lookup must come from the cache");
        assert_eq!(memo.hits(), 1);
    }

    #[test]
    fn masked_fib_routes_around_disabled_links() {
        let topo = mini_testbed(LinkSpec::gbit(1));
        let full = Fib::compute(&topo);
        // Disable one of edge0's two aggregation uplinks.
        let edge = topo.host_uplink(HostId(0)).peer;
        let up_ports: Vec<usize> = full
            .next_hops(edge, HostId(4))
            .iter()
            .map(|&p| usize::from(p))
            .collect();
        assert_eq!(up_ports.len(), 2);
        let dead_link = topo.port(edge, up_ports[0]).link;
        let mut disabled = vec![false; topo.links().len()];
        disabled[dead_link.index()] = true;
        let masked = Fib::compute_masked(&topo, 0, &disabled);
        // The surviving uplink carries everything; distances are unchanged.
        assert_eq!(
            masked.next_hops(edge, HostId(4)),
            &[u16::try_from(up_ports[1]).unwrap()]
        );
        assert_eq!(masked.distance(topo.host_node(HostId(0)), HostId(4)), 4);
        // An empty mask reproduces the full FIB's routing exactly.
        let unmasked = Fib::compute_masked(&topo, 0, &[]);
        for &sw in topo.switch_nodes() {
            for hh in 0..topo.num_hosts() {
                let dst = HostId::from_index(hh);
                assert_eq!(unmasked.next_hops(sw, dst), full.next_hops(sw, dst));
                assert_eq!(unmasked.distance(sw, dst), full.distance(sw, dst));
            }
        }
    }

    #[test]
    fn fully_masked_destination_is_unreachable() {
        let topo = linear(2, 1, LinkSpec::gbit(1));
        // Cut the single inter-switch link: host 0 cannot reach host 1.
        let mut disabled = vec![false; topo.links().len()];
        for (i, l) in topo.links().iter().enumerate() {
            if !topo.is_host(l.a.node) && !topo.is_host(l.b.node) {
                disabled[i] = true;
            }
        }
        let fib = Fib::compute_masked(&topo, 0, &disabled);
        let s0 = topo.host_uplink(HostId(0)).peer;
        assert!(fib.next_hops(s0, HostId(1)).is_empty());
        assert_eq!(fib.distance(s0, HostId(1)), u16::MAX);
        assert_eq!(fib.select_port(s0, HostId(1), FlowId(1)), None);
        // Local delivery still works.
        assert_eq!(fib.next_hops(s0, HostId(0)).len(), 1);
    }

    #[test]
    fn memo_clear_forgets_entries() {
        let mut memo = EcmpMemo::with_slots(64);
        let v = memo.get_or_insert_with(FlowId(1), NodeId(2), HostId(3), || 10);
        assert_eq!(v, 10);
        memo.clear();
        let again = memo.get_or_insert_with(FlowId(1), NodeId(2), HostId(3), || 20);
        assert_eq!(again, 20, "cleared memo must recompute");
        assert_eq!(memo.hits(), 0);
        assert_eq!(memo.misses(), 2, "counters survive the clear");
    }

    #[test]
    fn salt_changes_hash() {
        assert_ne!(
            ecmp_hash(FlowId(1), NodeId(2), HostId(3), 0),
            ecmp_hash(FlowId(1), NodeId(2), HostId(3), 1)
        );
    }
}
