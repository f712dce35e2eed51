//! What the benchmark learns from a traced run.
//!
//! The trace records every packet transition at the layer where it
//! happens: the transport emits `send`/`retransmit`/`ack`/`timeout`, the
//! switch `enqueue`/`detour`/`ecn`/`dequeue`/`drop`, the host `deliver`.
//! [`consistent`] checks those counts against the simulator's own
//! counters. The switch-side arrivals are also the exact stream of routing
//! lookups the run made, which [`fib_replay`] feeds back through the FIB to
//! time that layer alone.

use dibs::RunResults;
use dibs_net::ids::{FlowId, HostId, NodeId};
use dibs_net::routing::{EcmpMemo, Fib};
use dibs_net::topology::Topology;
use dibs_trace::{TraceEvent, TraceKind};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Slots of the per-flow ECMP memo the simulator routes through.
const ECMP_MEMO_SLOTS: usize = 1 << 14;

/// One routing lookup: the switch, the packet's destination, its flow.
pub type Lookup = (NodeId, HostId, FlowId);

/// Counts the trace's events per kind, indexed by `TraceKind as usize`,
/// and extracts the run's routing lookups in the order they were made.
pub fn analyse(
    events: &[TraceEvent],
    topo: &Topology,
    results: &RunResults,
) -> ([u64; TraceKind::ALL.len()], Vec<Lookup>) {
    let mut by_kind = [0u64; TraceKind::ALL.len()];
    let mut lookups = Vec::new();
    // Destination of every packet, learned from the host event that
    // emitted it: data travels src -> dst, acks dst -> src.
    let mut dst_of: HashMap<u64, HostId> = HashMap::new();
    for ev in events {
        by_kind[ev.kind as usize] += 1;
        let flow = &results.flows[ev.flow as usize];
        match ev.kind {
            TraceKind::Send | TraceKind::Retransmit => {
                dst_of.insert(ev.packet, flow.dst);
            }
            TraceKind::Ack => {
                dst_of.insert(ev.packet, flow.src);
            }
            TraceKind::Enqueue | TraceKind::Detour | TraceKind::Drop
                if topo.as_switch(NodeId(ev.node)).is_some() =>
            {
                lookups.push((NodeId(ev.node), dst_of[&ev.packet], FlowId(ev.flow)));
            }
            TraceKind::Deliver => {
                dst_of.remove(&ev.packet);
            }
            _ => {}
        }
    }
    (by_kind, lookups)
}

/// Checks the trace's event counts against the run's own counters: each
/// layer's trace events must match what the simulator counted.
pub fn consistent(by_kind: &[u64], results: &RunResults) -> Result<(), String> {
    let c = &results.counters;
    let of = |kind: TraceKind| by_kind[kind as usize];
    let host_emitted = of(TraceKind::Send) + of(TraceKind::Retransmit) + of(TraceKind::Ack);
    let pairs = [
        ("host packets sent", host_emitted, c.packets_sent),
        ("delivered", of(TraceKind::Deliver), c.packets_delivered),
        ("detours", of(TraceKind::Detour), c.detours),
        ("ecn marks", of(TraceKind::EcnMark), c.ecn_marks),
        ("ttl expiries", of(TraceKind::TtlExpire), c.drops_ttl),
        ("timeouts", of(TraceKind::Timeout), c.rto_timeouts),
    ];
    for (what, traced, counted) in pairs {
        if traced != counted {
            return Err(format!("trace has {traced} {what}, counters {counted}"));
        }
    }
    Ok(())
}

/// Nanoseconds per lookup when `lookups` are replayed through `fib` and a
/// fresh ECMP memo, the path the simulator's switches route through.
pub fn fib_replay(fib: &Fib, lookups: &[Lookup]) -> f64 {
    let mut memo = EcmpMemo::with_slots(ECMP_MEMO_SLOTS);
    let start = Instant::now();
    let mut acc = 0usize;
    for &(node, dst, flow) in lookups {
        acc = acc.wrapping_add(
            fib.select_port_memo(&mut memo, node, dst, flow)
                .unwrap_or(0),
        );
    }
    black_box(acc);
    start.elapsed().as_nanos() as f64 / lookups.len().max(1) as f64
}
