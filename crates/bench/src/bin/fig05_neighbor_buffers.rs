//! Figure 5: spare buffer capacity near hot links.
//!
//! For the baseline / heavy / extreme workloads of Fig 4, measures at each
//! sample tick the mean fraction of free buffer among the 1-hop and 2-hop
//! switch neighborhoods of hot (>= 90 % utilized) links.
//!
//! Paper shape: ~80 % of neighboring buffers stay empty in all but the
//! extreme scenario — the headroom DIBS borrows.

use dibs::presets::{mixed_workload_sim, MixedWorkload};
use dibs::{RunDescriptor, SimConfig};
use dibs_bench::Harness;
use dibs_engine::time::SimDuration;
use dibs_net::builders::FatTreeParams;
use dibs_stats::{ExperimentRecord, SeriesPoint};

fn main() {
    let h = Harness::from_env();
    let mut rec = ExperimentRecord::new(
        "fig05_neighbor_buffers",
        "Free buffer fraction near hot links, CDF over time (Fig 5)",
        "free_buffer_fraction",
    );
    rec.param("workloads", "300 / 2000 / 10000 qps")
        .param("sample_interval_ms", 1)
        .param("duration_ms", h.scale.heavy_duration().as_millis_f64());

    let (scale, master) = (h.scale, h.master_seed);
    let labelled: Vec<(&str, u32)> = vec![("baseline", 300), ("heavy", 2000), ("extreme", 10000)];
    let series = h.executor().map(labelled, |(label, qps)| {
        let wl = MixedWorkload {
            qps: f64::from(qps),
            duration: scale.heavy_duration(),
            drain: scale.drain(),
            ..MixedWorkload::paper_default()
        };
        let mut cfg = SimConfig::dctcp_dibs().with_seed(
            RunDescriptor::new("fig05_neighbor_buffers", "paired", u64::from(qps), 0)
                .paired_seed(master),
        );
        cfg.sample_interval = Some(SimDuration::from_millis(1));
        let results = mixed_workload_sim(FatTreeParams::paper_default(), cfg, wl).run();
        (
            label,
            results.neighbor_free_1hop,
            results.neighbor_free_2hop,
        )
    });

    // CDF over ticks of the mean free fraction (1 - x would be occupancy).
    for frac in [0.0, 0.2, 0.4, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0] {
        let mut point = SeriesPoint::at(frac);
        for (label, hop1, hop2) in &series {
            let c1 = hop1.iter().filter(|&&v| v <= frac).count();
            let c2 = hop2.iter().filter(|&&v| v <= frac).count();
            point = point
                .with(
                    &format!("cum_{label}_1hop"),
                    c1 as f64 / hop1.len().max(1) as f64,
                )
                .with(
                    &format!("cum_{label}_2hop"),
                    c2 as f64 / hop2.len().max(1) as f64,
                );
        }
        rec.push(point);
    }
    h.finish(&rec);
}
