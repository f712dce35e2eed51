//! Trace a single detoured packet through the fabric (Figure 1).
//!
//! Runs one 100-way incast on the K=8 fat-tree under a `dibs-trace`
//! capture, then rebuilds the full hop-by-hop journey of the most-detoured
//! delivered packet from the trace — the reproduction of the paper's
//! Figure 1 walkthrough. Exits non-zero when no delivered packet detoured.
//!
//! ```text
//! cargo run --release --example detour_trace
//! ```

use dibs::presets::single_incast_sim;
use dibs::{SimConfig, TraceSpec, Tracer};
use dibs_net::builders::{fat_tree, FatTreeParams};
use dibs_net::ids::NodeId;
use dibs_trace::{delivered_path, TraceKind};

fn main() {
    let mut cfg = SimConfig::dctcp_dibs();
    cfg.seed = 12;
    let mut sim = single_incast_sim(FatTreeParams::paper_default(), cfg, 100, 20_000);
    let spec: TraceSpec = "send,retransmit,ack,enqueue,detour,deliver"
        .parse()
        .expect("valid trace spec");
    sim.set_tracer(Tracer::from_spec(&spec));
    let results = sim.run();
    let topo = fat_tree(FatTreeParams::paper_default());
    let events = &results.trace.as_ref().expect("tracer was installed").events;

    println!(
        "incast degree 100, 20 KB responses: {} packets detoured at least once, {} detour events, {} drops\n",
        results.counters.delivered_detoured,
        results.counters.detours,
        results.counters.total_drops()
    );

    // The last of the most-detoured delivered packets, in delivery order.
    let Some(delivery) = events
        .iter()
        .filter(|e| e.kind == TraceKind::Deliver && e.detours > 0)
        .max_by_key(|e| e.detours)
    else {
        eprintln!("no delivered packet detoured");
        std::process::exit(1);
    };
    let path = delivered_path(events, delivery.packet).expect("the capture holds the emission");
    println!(
        "most-detoured packet: {} detours over {} hops",
        delivery.detours,
        path.len() - 1
    );
    for (i, n) in path.iter().enumerate() {
        println!(
            "  {:>3}  {}{}",
            i,
            topo.node(NodeId(n.node)).name,
            if n.via_detour {
                "   <- detoured onto this hop"
            } else {
                ""
            }
        );
    }

    // Detour depth distribution, as discussed in §5.4.4.
    println!("\ndetour-count distribution over all delivered packets:");
    let total: u64 = results.detour_histogram.iter().sum();
    for (k, &count) in results.detour_histogram.iter().enumerate() {
        if count > 0 && k > 0 {
            println!(
                "  {:>3} detours: {:>9} packets ({:.3}%)",
                k,
                count,
                100.0 * count as f64 / total as f64
            );
        }
    }
}
