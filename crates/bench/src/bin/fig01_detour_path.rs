//! Figure 1: the path of one heavily detoured packet on the K=8 fat-tree.
//!
//! Runs a single large incast under a `dibs-trace` capture, picks the
//! most-detoured delivered packet, rebuilds its path from the trace, and
//! prints its hop sequence and the arc-weight summary the paper draws (how
//! often each directed arc was traversed, with detour arcs flagged).
//!
//! Exits non-zero when no delivered packet detoured, so a broken capture
//! cannot pass for a figure. Pass `--trace SPEC` to change the capture
//! (it must keep the send/ack, queue and deliver kinds) and also dump the
//! Chrome-viewable JSON.

use dibs::presets::single_incast_sim;
use dibs::SimConfig;
use dibs_bench::Harness;
use dibs_net::builders::{fat_tree, FatTreeParams};
use dibs_net::ids::NodeId;
use dibs_stats::{ExperimentRecord, SeriesPoint};
use dibs_trace::{delivered_path, TraceKind};
use std::collections::BTreeMap;

fn main() {
    let h = Harness::from_env();
    let mut cfg = SimConfig::dctcp_dibs();
    cfg.seed = 12;
    let mut sim = single_incast_sim(FatTreeParams::paper_default(), cfg, 100, 20_000);
    // Every packet kind a path is rebuilt from: the emitting host, each
    // switch admission, and the delivery.
    sim.set_tracer(h.tracer_or("send,retransmit,ack,enqueue,detour,deliver"));
    let results = sim.run();
    let topo = fat_tree(FatTreeParams::paper_default());
    let Some(trace) = &results.trace else {
        eprintln!("fig01: tracer captured nothing (was --trace off?); no figure");
        std::process::exit(1);
    };
    let events = &trace.events;

    // Delivered packets that detoured, in delivery order; the last of the
    // most-detoured ones is the figure's packet.
    let detoured: Vec<_> = events
        .iter()
        .filter(|e| e.kind == TraceKind::Deliver && e.detours > 0)
        .collect();
    let Some(delivery) = detoured.iter().max_by_key(|e| e.detours) else {
        eprintln!("fig01: no delivered packet detoured — increase the incast degree");
        std::process::exit(1);
    };
    let Some(path) = delivered_path(events, delivery.packet) else {
        eprintln!(
            "fig01: the trace lacks packet {}'s emission",
            delivery.packet
        );
        std::process::exit(1);
    };
    let name = |node: u32| &topo.node(NodeId(node)).name;

    println!(
        "# fig01_detour_path — most-detoured packet: {} detours, {} hops",
        delivery.detours,
        path.len()
    );
    println!("# hop sequence (d = arrived via detour):");
    let names: Vec<String> = path
        .iter()
        .map(|n| format!("{}{}", name(n.node), if n.via_detour { "(d)" } else { "" }))
        .collect();
    println!("#   {}", names.join(" -> "));

    // Arc weights, as in the figure.
    let mut arcs: BTreeMap<(String, String, bool), u32> = BTreeMap::new();
    for w in path.windows(2) {
        let arc = (
            name(w[0].node).clone(),
            name(w[1].node).clone(),
            w[1].via_detour,
        );
        *arcs.entry(arc).or_insert(0) += 1;
    }
    println!("{:>24} {:>24} {:>8} {:>7}", "from", "to", "detour", "count");
    for ((from, to, det), count) in &arcs {
        println!("{from:>24} {to:>24} {det:>8} {count:>7}");
    }

    // Also persist summary statistics.
    let mut rec = ExperimentRecord::new(
        "fig01_detour_path",
        "Most-detoured packet path (Fig 1)",
        "metric",
    );
    rec.param("incast_degree", 100).param("response_kb", 20);
    rec.push(
        SeriesPoint::at(0.0)
            .with("max_detours", f64::from(delivery.detours))
            .with("hops", path.len() as f64)
            .with("traced_paths", detoured.len() as f64)
            .with("total_detour_events", results.counters.detours as f64)
            .with("drops", results.counters.total_drops() as f64),
    );
    h.export_trace("fig01_detour_path", &results);
    h.finish(&rec);
}
