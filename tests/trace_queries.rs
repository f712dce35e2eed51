//! End-to-end checks on the trace itself: a traced incast exports valid
//! Chrome-trace JSON, and the post-hoc query helpers can reconstruct a
//! detoured packet's full hop sequence from the event stream.

use dibs::presets::single_incast_sim;
use dibs::{RunDescriptor, SimConfig, TraceSpec, Tracer};
use dibs_net::builders::{fat_tree, FatTreeParams};
use dibs_net::ids::NodeId;
use dibs_switch::BufferConfig;
use dibs_trace::{
    detour_loop_packets, flow_packets, is_chrome_trace, packet_hops, packet_lifecycle,
    per_flow_hops, TraceKind, TraceReport,
};

/// The k=4 fat-tree the traced incast runs on.
fn params() -> FatTreeParams {
    FatTreeParams {
        k: 4,
        ..FatTreeParams::paper_default()
    }
}

/// The golden buffer-sweep point: 25-packet buffers force heavy
/// detouring, so the trace is guaranteed to contain detoured packets.
fn traced_incast() -> TraceReport {
    let d = RunDescriptor::new("golden_buffer_sweep", "dibs", 25, 0);
    let mut cfg = SimConfig::dctcp_dibs().with_seed(d.seed(0xD1B5_2014));
    cfg.switch.buffer = BufferConfig::StaticPerPort { packets: 25 };
    cfg.switch.ecn_threshold = Some(20);
    let mut sim = single_incast_sim(params(), cfg, 8, 20_000);
    let spec: TraceSpec = "all".parse().expect("valid spec");
    sim.set_tracer(Tracer::from_spec(&spec));
    sim.run().trace.expect("tracer was installed")
}

#[test]
fn traced_incast_exports_valid_chrome_json() {
    let report = traced_incast();
    assert!(
        !report.events.is_empty(),
        "full trace of an incast is never empty"
    );

    let json = report.chrome_trace();
    assert!(
        is_chrome_trace(&json),
        "exporter emitted a non-Chrome shape"
    );

    // Round-trip: the rendered text must re-parse as JSON and keep shape.
    let rendered = json.render_pretty();
    let reparsed = dibs_json::Json::parse(&rendered).expect("rendered Chrome JSON re-parses");
    assert!(is_chrome_trace(&reparsed));

    // The text dump and its fingerprint are deterministic over the report.
    assert_eq!(report.fingerprint(), report.fingerprint());
    assert!(report.text_dump().starts_with("trace mode"));
}

#[test]
fn packet_lifecycle_reconstructs_a_detoured_packet() {
    let report = traced_incast();
    let events = &report.events;

    // Find a detoured data packet that was eventually delivered.
    let detoured: Vec<u64> = events
        .iter()
        .filter(|e| e.kind == TraceKind::Detour)
        .map(|e| e.packet)
        .collect();
    assert!(!detoured.is_empty(), "25-packet buffers must detour");
    let delivered = detoured
        .iter()
        .copied()
        .find(|&p| {
            let life = packet_lifecycle(events, p);
            life.first().is_some_and(|e| e.kind == TraceKind::Send)
                && life.last().is_some_and(|e| e.kind == TraceKind::Deliver)
        })
        .expect("some detoured packet was sent and delivered");

    let life = packet_lifecycle(events, delivered);
    assert!(life.iter().any(|e| e.kind == TraceKind::Detour));
    assert!(
        life.windows(2).all(|w| w[0].t_ns <= w[1].t_ns),
        "lifecycle must be time-ordered"
    );

    // The hop list covers every switch the packet visited, in order, and
    // marks which hops were detours.
    let hops = packet_hops(events, delivered);
    assert!(hops.len() >= 2, "a detoured packet crosses several queues");
    assert!(hops.iter().any(|h| h.detour), "detour hop must be marked");
    assert!(hops.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));

    // The hops are connected: each hop's output port leads to the next
    // hop's switch, and the last one to the delivering host.
    let topo = fat_tree(params());
    let deliver = life.last().expect("nonempty lifecycle");
    let next_nodes = hops.iter().skip(1).map(|h| h.node).chain([deliver.node]);
    for (hop, next) in hops.iter().zip(next_nodes) {
        let peer = topo.port(NodeId(hop.node), usize::from(hop.port)).peer;
        assert_eq!(
            peer,
            NodeId(next),
            "hop {hop:?} does not lead to node {next}"
        );
    }
    // Every detour decision shows up as exactly one detour hop.
    let detour_hops = hops.iter().filter(|h| h.detour).count();
    assert_eq!(detour_hops, usize::from(deliver.detours));

    // Flow-level views agree with the packet-level ones.
    let flow = life[0].flow;
    let pkts = flow_packets(events, flow);
    assert!(pkts.contains(&delivered));
    let by_pkt = per_flow_hops(events, flow);
    assert_eq!(by_pkt.get(&delivered), Some(&hops));

    // Loop detection only ever reports packets that actually detoured.
    let loopers = detour_loop_packets(events);
    assert!(loopers.iter().all(|p| detoured.contains(p)));
}

/// Each switch buffer drop is counted once: the traced `Drop` events at
/// switches and the run's `drops_buffer` agree, on a droptail incast whose
/// 25-packet buffers overflow.
#[test]
fn switch_drop_events_match_the_buffer_drop_count() {
    let mut cfg = SimConfig::dctcp_baseline();
    cfg.switch.buffer = BufferConfig::StaticPerPort { packets: 25 };
    let mut sim = single_incast_sim(params(), cfg, 8, 20_000);
    let spec: TraceSpec = "drop".parse().expect("valid spec");
    sim.set_tracer(Tracer::from_spec(&spec));
    let topo = fat_tree(params());
    let results = sim.run();
    let report = results.trace.as_ref().expect("tracer was installed");
    let switch_drops = report
        .events
        .iter()
        .filter(|e| e.kind == TraceKind::Drop && topo.as_switch(NodeId(e.node)).is_some())
        .count();
    assert_eq!(
        u64::try_from(switch_drops).expect("count fits u64"),
        results.counters.drops_buffer
    );
    assert!(switch_drops > 0, "25-packet droptail buffers must drop");
}
