//! Figure 2: (a) which switches detour, over time, during a burst into one
//! pod; (b) buffer occupancy of the destination pod's switches at three
//! instants t1 < t2 < t3.
//!
//! Paper shape: detouring starts at the destination's edge switch, spreads
//! to all four aggregation switches at the burst peak, and collapses back
//! to just the edge switch as the burst drains — all within ~10 ms, with no
//! drops or timeouts.
//!
//! Both panels are reconstructed post-hoc from a `dibs-trace` event trace
//! (queue transitions + detours) rather than from in-run sampling, so the
//! figure shares one accounting path with `--trace` and the flight
//! recorder. Pass `--trace SPEC` to widen the capture and also dump the
//! Chrome-viewable JSON.

use dibs::presets::single_incast_sim;
use dibs::{RunDescriptor, SimConfig};
use dibs_bench::Harness;
use dibs_net::builders::{fat_tree, FatTreeParams};
use dibs_net::ids::NodeId;
use dibs_net::topology::SwitchLayer;
use dibs_stats::{ExperimentRecord, SeriesPoint};
use dibs_trace::{OccupancyTracker, TraceKind};
use std::collections::BTreeMap;

fn main() {
    let h = Harness::from_env();
    let mut cfg = SimConfig::dctcp_dibs();
    cfg.seed = RunDescriptor::new("fig02_detour_timeline", "dibs", 0, 0).seed(h.master_seed);
    let mut sim = single_incast_sim(FatTreeParams::paper_default(), cfg, 100, 20_000);
    // The figure needs every queue transition; a user --trace spec widens
    // (or narrows) the capture at their own risk.
    sim.set_tracer(h.tracer_or("enqueue,dequeue,detour"));
    let results = sim.run();
    let Some(trace) = &results.trace else {
        eprintln!("fig02: tracer captured nothing (was --trace off?); no figure");
        return;
    };
    let events = &trace.events;
    let topo = fat_tree(FatTreeParams::paper_default());

    // (a) detour scatter, bucketed per 0.5 ms per layer, straight from the
    // Detour trace events.
    println!("# fig02a — detour events per 0.5 ms bucket per layer");
    println!("{:>10} {:>8} {:>8} {:>8}", "t_ms", "edge", "aggr", "core");
    let bucket_ms = 0.5;
    let mut buckets: Vec<[u32; 3]> = Vec::new();
    let mut last_detour_ms = 0.0_f64;
    for ev in events.iter().filter(|e| e.kind == TraceKind::Detour) {
        let t_ms = ev.t_ns as f64 / 1e6;
        last_detour_ms = t_ms;
        // Event times are nonnegative and bounded by the horizon.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let b = (t_ms / bucket_ms) as usize;
        if buckets.len() <= b {
            buckets.resize(b + 1, [0; 3]);
        }
        let layer = match topo.layer(NodeId(ev.node)) {
            SwitchLayer::Edge => 0,
            SwitchLayer::Aggregation => 1,
            SwitchLayer::Core => 2,
            SwitchLayer::Other => continue,
        };
        buckets[b][layer] += 1;
    }
    for (b, counts) in buckets.iter().enumerate() {
        if counts.iter().any(|&c| c > 0) {
            println!(
                "{:>10.2} {:>8} {:>8} {:>8}",
                b as f64 * bucket_ms,
                counts[0],
                counts[1],
                counts[2]
            );
        }
    }

    // (b) buffer occupancy: integrate the queue transitions, then pick
    // t1 (queues building), t2 (peak), t3 (draining) as the instants with
    // 25%, 100%, and 35% of the peak total occupancy.
    let mut occ = OccupancyTracker::new();
    // (event index, t_ns, total queued packets) after each transition.
    let mut series: Vec<(usize, u64, u64)> = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        if occ.apply(ev).is_some() {
            let total: u64 = occ.totals().map(|(_, v)| u64::from(v)).sum();
            series.push((i, ev.t_ns, total));
        }
    }
    let snapshot_upto = |idx: usize| -> BTreeMap<u32, u32> {
        let mut occ = OccupancyTracker::new();
        for ev in &events[..=idx] {
            occ.apply(ev);
        }
        occ.totals().collect()
    };
    if let Some((peak_pos, &(_, peak_ns, peak))) = series
        .iter()
        .enumerate()
        .max_by_key(|(_, (_, _, total))| *total)
    {
        let pick = |frac: f64, after: bool| -> usize {
            // frac in [0,1] keeps the product within the peak count.
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let target = (peak as f64 * frac) as u64;
            if after {
                (peak_pos..series.len())
                    .find(|&i| series[i].2 <= target)
                    .unwrap_or(series.len() - 1)
            } else {
                (0..=peak_pos)
                    .find(|&i| series[i].2 >= target)
                    .unwrap_or(peak_pos)
            }
        };
        let t1 = pick(0.25, false);
        let t3 = pick(0.35, true);
        let snaps: Vec<BTreeMap<u32, u32>> = [t1, peak_pos, t3]
            .iter()
            .map(|&pos| snapshot_upto(series[pos].0))
            .collect();
        println!("\n# fig02b — total queued packets per switch node at t1/t2/t3");
        println!(
            "# t1={:.2}ms t2={:.2}ms t3={:.2}ms (peak total {} pkts)",
            series[t1].1 as f64 / 1e6,
            peak_ns as f64 / 1e6,
            series[t3].1 as f64 / 1e6,
            peak
        );
        println!("{:>8} {:>8} {:>8} {:>8}", "node", "t1", "t2", "t3");
        let nodes: std::collections::BTreeSet<u32> =
            snaps.iter().flat_map(|s| s.keys().copied()).collect();
        for node in nodes {
            let at = |i: usize| -> u32 { snaps[i].get(&node).copied().unwrap_or(0) };
            if at(0) + at(1) + at(2) > 0 {
                println!("{:>8} {:>8} {:>8} {:>8}", node, at(0), at(1), at(2));
            }
        }
    }

    let mut rec = ExperimentRecord::new(
        "fig02_detour_timeline",
        "Detours and buffer occupancy during a burst (Fig 2)",
        "metric",
    );
    rec.param("incast_degree", 100).param("response_kb", 20);
    let switches_detouring = results
        .detours_per_switch
        .iter()
        .filter(|&&d| d > 0)
        .count();
    rec.push(
        SeriesPoint::at(0.0)
            .with("detour_events", results.counters.detours as f64)
            .with("switches_detouring", switches_detouring as f64)
            .with("drops", results.counters.total_drops() as f64)
            .with("timeouts", results.counters.rto_timeouts as f64)
            .with("burst_len_ms", last_detour_ms)
            .with("trace_events", trace.events.len() as f64),
    );
    h.export_trace("fig02_detour_timeline", &results);
    h.finish(&rec);
}
