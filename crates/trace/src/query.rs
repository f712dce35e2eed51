//! Post-hoc queries over a captured event stream: packet lifecycles and
//! delivered paths, per-flow hop lists, detour-loop detection, occupancy
//! folding.
//!
//! All helpers take a plain `&[TraceEvent]` slice (as held by a
//! `TraceReport`), assume it is in emission order — which equals
//! non-decreasing `t_ns` order, since sinks record synchronously — and
//! use only ordered containers so results are deterministic.

use crate::event::{TraceEvent, TraceKind};
use crate::export::is_queue_transition;
use std::collections::{BTreeMap, BTreeSet};

/// One stop on a packet's path through the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    /// Simulated time of the queue admission, nanoseconds.
    pub t_ns: u64,
    /// Topology node id of the switch.
    pub node: u32,
    /// Output port the packet was queued on.
    pub port: u16,
    /// Whether this hop was a DIBS detour rather than the desired port.
    pub detour: bool,
}

/// Every event mentioning `packet`, in time order. The full lifecycle:
/// send, per-switch enqueue/detour/mark/dequeue, and the terminal
/// deliver/drop/ttl-expire.
pub fn packet_lifecycle(events: &[TraceEvent], packet: u64) -> Vec<TraceEvent> {
    events
        .iter()
        .filter(|e| e.packet == packet)
        .copied()
        .collect()
}

/// The packet's hop sequence: one [`Hop`] per switch queue admission
/// (`Enqueue` or `Detour` event), in path order.
pub fn packet_hops(events: &[TraceEvent], packet: u64) -> Vec<Hop> {
    events
        .iter()
        .filter(|e| e.packet == packet)
        .filter_map(|e| match e.kind {
            TraceKind::Enqueue | TraceKind::Detour => Some(Hop {
                t_ns: e.t_ns,
                node: e.node,
                port: e.port,
                detour: e.kind == TraceKind::Detour,
            }),
            _ => None,
        })
        .collect()
}

/// One node on a delivered packet's path (see [`delivered_path`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathNode {
    /// Topology node id (host or switch).
    pub node: u32,
    /// Whether the packet reached this node via a detour, i.e. the
    /// previous node's switch detoured it ([`Hop::detour`] flags the
    /// decision *at* a hop; this flags the arc *into* the node).
    pub via_detour: bool,
}

/// The node path of a delivered packet: its emitting host (from the
/// `Send`/`Retransmit`/`Ack` event), one node per [`packet_hops`] entry,
/// and the receiving host (from the `Deliver` event). `None` when the
/// slice lacks the emission or the delivery, e.g. because the capture
/// filtered those kinds out.
pub fn delivered_path(events: &[TraceEvent], packet: u64) -> Option<Vec<PathNode>> {
    let life = packet_lifecycle(events, packet);
    let src = life.iter().find(|e| {
        matches!(
            e.kind,
            TraceKind::Send | TraceKind::Retransmit | TraceKind::Ack
        )
    })?;
    let dst = life.iter().find(|e| e.kind == TraceKind::Deliver)?;
    let mut path = vec![PathNode {
        node: src.node,
        via_detour: false,
    }];
    let mut via_detour = false;
    for hop in packet_hops(&life, packet) {
        path.push(PathNode {
            node: hop.node,
            via_detour,
        });
        via_detour = hop.detour;
    }
    path.push(PathNode {
        node: dst.node,
        via_detour,
    });
    Some(path)
}

/// Distinct packet ids observed for `flow`, in first-appearance order.
pub fn flow_packets(events: &[TraceEvent], flow: u32) -> Vec<u64> {
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    for e in events.iter().filter(|e| e.flow == flow) {
        if e.packet != 0 && seen.insert(e.packet) {
            out.push(e.packet);
        }
    }
    out
}

/// Per-packet hop lists for every packet of `flow`, keyed by packet id.
pub fn per_flow_hops(events: &[TraceEvent], flow: u32) -> BTreeMap<u64, Vec<Hop>> {
    let mut out: BTreeMap<u64, Vec<Hop>> = BTreeMap::new();
    for e in events.iter().filter(|e| e.flow == flow) {
        let detour = match e.kind {
            TraceKind::Enqueue => false,
            TraceKind::Detour => true,
            _ => continue,
        };
        out.entry(e.packet).or_default().push(Hop {
            t_ns: e.t_ns,
            node: e.node,
            port: e.port,
            detour,
        });
    }
    out
}

/// Packets that revisited a switch they had already been queued at,
/// with at least one detour in between — the detour-loop signature the
/// paper's TTL bound exists to break (§4.3). Returns packet ids in
/// ascending order.
pub fn detour_loop_packets(events: &[TraceEvent]) -> Vec<u64> {
    let mut visited: BTreeMap<u64, BTreeSet<u32>> = BTreeMap::new();
    let mut detoured: BTreeSet<u64> = BTreeSet::new();
    let mut looped: BTreeSet<u64> = BTreeSet::new();
    for e in events {
        match e.kind {
            TraceKind::Detour => {
                detoured.insert(e.packet);
            }
            TraceKind::Enqueue => {}
            _ => continue,
        }
        let nodes = visited.entry(e.packet).or_default();
        if !nodes.insert(e.node) && detoured.contains(&e.packet) {
            looped.insert(e.packet);
        }
    }
    looped.into_iter().collect()
}

/// Folds queue-transition events into per-switch total occupancy.
///
/// Each `Enqueue`/`Detour`/`Dequeue` event carries the *per-port* depth
/// after the transition; the tracker integrates those into a running
/// per-node total (the quantity DBA bounds). Feed events in order via
/// [`OccupancyTracker::apply`]; it returns the node's updated total on
/// every queue transition.
#[derive(Debug, Default)]
pub struct OccupancyTracker {
    per_port: BTreeMap<(u32, u16), u32>,
    per_node: BTreeMap<u32, u32>,
}

impl OccupancyTracker {
    /// Creates an empty tracker.
    pub fn new() -> OccupancyTracker {
        OccupancyTracker::default()
    }

    /// Applies one event; returns `(node, new_total)` when the event is
    /// a queue transition, `None` otherwise.
    pub fn apply(&mut self, ev: &TraceEvent) -> Option<(u32, u32)> {
        if !is_queue_transition(ev.kind) {
            return None;
        }
        let key = (ev.node, ev.port);
        let new = u32::from(ev.qlen);
        let old = self.per_port.insert(key, new).unwrap_or(0);
        let total = self.per_node.entry(ev.node).or_insert(0);
        *total = total.wrapping_add(new).wrapping_sub(old);
        Some((ev.node, *total))
    }

    /// The current total depth at `node` (0 if never seen).
    pub fn total(&self, node: u32) -> u32 {
        self.per_node.get(&node).copied().unwrap_or(0)
    }

    /// Iterates current `(node, total)` pairs in node order.
    pub fn totals(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.per_node.iter().map(|(&n, &t)| (n, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64, packet: u64, flow: u32, node: u32, port: u16, kind: TraceKind) -> TraceEvent {
        TraceEvent {
            t_ns: t,
            packet,
            flow,
            node,
            port,
            qlen: 1,
            detours: 0,
            kind,
        }
    }

    #[test]
    fn lifecycle_and_hops_reconstruct_a_path() {
        let events = vec![
            ev(0, 1, 9, 100, 0, TraceKind::Send),
            ev(10, 1, 9, 20, 2, TraceKind::Enqueue),
            ev(20, 1, 9, 20, 2, TraceKind::Dequeue),
            ev(30, 1, 9, 21, 1, TraceKind::Detour),
            ev(40, 1, 9, 21, 1, TraceKind::Dequeue),
            ev(50, 1, 9, 101, 0, TraceKind::Deliver),
            // A different packet interleaved.
            ev(15, 2, 9, 20, 0, TraceKind::Enqueue),
        ];
        let life = packet_lifecycle(&events, 1);
        assert_eq!(life.len(), 6);
        assert_eq!(life[0].kind, TraceKind::Send);
        assert_eq!(life[5].kind, TraceKind::Deliver);
        let hops = packet_hops(&events, 1);
        assert_eq!(hops.len(), 2);
        assert_eq!((hops[0].node, hops[0].detour), (20, false));
        assert_eq!((hops[1].node, hops[1].detour), (21, true));
    }

    #[test]
    fn delivered_path_flags_the_arc_into_each_node() {
        let events = vec![
            ev(0, 1, 9, 100, 0, TraceKind::Send),
            ev(10, 1, 9, 20, 2, TraceKind::Detour),
            ev(20, 1, 9, 21, 1, TraceKind::Enqueue),
            ev(30, 1, 9, 22, 1, TraceKind::Detour),
            ev(50, 1, 9, 101, 0, TraceKind::Deliver),
            // Packet 2 is still in flight: no path yet.
            ev(5, 2, 9, 100, 0, TraceKind::Send),
        ];
        let path = delivered_path(&events, 1).expect("delivered");
        let got: Vec<(u32, bool)> = path.iter().map(|n| (n.node, n.via_detour)).collect();
        assert_eq!(
            got,
            vec![
                (100, false),
                (20, false),
                (21, true),
                (22, false),
                (101, true)
            ]
        );
        assert_eq!(delivered_path(&events, 2), None);
        assert_eq!(delivered_path(&events, 3), None);
    }

    #[test]
    fn flow_queries_group_by_packet() {
        let events = vec![
            ev(0, 1, 7, 20, 0, TraceKind::Enqueue),
            ev(1, 2, 7, 20, 0, TraceKind::Enqueue),
            ev(2, 1, 7, 21, 0, TraceKind::Detour),
            ev(3, 5, 8, 20, 0, TraceKind::Enqueue),
        ];
        assert_eq!(flow_packets(&events, 7), vec![1, 2]);
        let hops = per_flow_hops(&events, 7);
        assert_eq!(hops[&1].len(), 2);
        assert_eq!(hops[&2].len(), 1);
        assert!(!hops.contains_key(&5));
    }

    #[test]
    fn detour_loops_require_revisit_after_detour() {
        let events = vec![
            // Packet 1: 20 -> detour 21 -> back to 20 (a loop).
            ev(0, 1, 0, 20, 0, TraceKind::Enqueue),
            ev(1, 1, 0, 21, 0, TraceKind::Detour),
            ev(2, 1, 0, 20, 0, TraceKind::Enqueue),
            // Packet 2: straight path, no revisit.
            ev(0, 2, 0, 20, 0, TraceKind::Enqueue),
            ev(1, 2, 0, 21, 0, TraceKind::Enqueue),
        ];
        assert_eq!(detour_loop_packets(&events), vec![1]);
    }

    #[test]
    fn occupancy_tracker_integrates_per_port_depths() {
        let mut t = OccupancyTracker::new();
        let mut e1 = ev(0, 1, 0, 20, 0, TraceKind::Enqueue);
        e1.qlen = 3;
        assert_eq!(t.apply(&e1), Some((20, 3)));
        let mut e2 = ev(1, 2, 0, 20, 1, TraceKind::Enqueue);
        e2.qlen = 2;
        assert_eq!(t.apply(&e2), Some((20, 5)));
        let mut e3 = ev(2, 1, 0, 20, 0, TraceKind::Dequeue);
        e3.qlen = 2;
        assert_eq!(t.apply(&e3), Some((20, 4)));
        assert_eq!(t.total(20), 4);
        assert_eq!(t.total(99), 0);
        let e4 = ev(3, 1, 0, 20, 0, TraceKind::Deliver);
        assert_eq!(t.apply(&e4), None);
    }
}
