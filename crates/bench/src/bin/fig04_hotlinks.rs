//! Figure 4: fraction of links at >= 90 % utilization over time, for
//! baseline (300 qps), heavy (2000 qps), and extreme (10000 qps) workloads.
//!
//! Paper shape: even under extreme load, only a handful of links are hot at
//! any instant — congestion is localized, which is what gives DIBS spare
//! buffers nearby.

use dibs::presets::{mixed_workload_sim, MixedWorkload};
use dibs::SimConfig;
use dibs_bench::Harness;
use dibs_engine::time::SimDuration;
use dibs_net::builders::FatTreeParams;
use dibs_stats::{ExperimentRecord, SeriesPoint};

fn main() {
    let h = Harness::from_env();
    let mut rec = ExperimentRecord::new(
        "fig04_hotlinks",
        "Fraction of links >= 90% utilized, CDF over time (Fig 4)",
        "hot_link_fraction",
    );
    rec.param("workloads", "300 / 2000 / 10000 qps")
        .param("sample_interval_ms", 1)
        .param("duration_ms", h.scale.heavy_duration().as_millis_f64());

    let scale = h.scale;
    let labelled: Vec<(&str, f64)> =
        vec![("baseline", 300.0), ("heavy", 2000.0), ("extreme", 10000.0)];
    let series = h.executor().map(labelled, |(label, qps)| {
        let wl = MixedWorkload {
            qps,
            duration: scale.heavy_duration(),
            drain: scale.drain(),
            ..MixedWorkload::paper_default()
        };
        let mut cfg = SimConfig::dctcp_dibs();
        cfg.sample_interval = Some(SimDuration::from_millis(1));
        let results = mixed_workload_sim(FatTreeParams::paper_default(), cfg, wl).run();
        (label, results.hot_fraction_samples)
    });

    for frac in [0.0, 0.005, 0.01, 0.02, 0.05, 0.10, 0.20, 0.50, 1.0] {
        let mut point = SeriesPoint::at(frac);
        for (label, samples) in &series {
            let below = samples.iter().filter(|&&v| v <= frac).count();
            point = point.with(
                &format!("cum_{label}"),
                below as f64 / samples.len().max(1) as f64,
            );
        }
        rec.push(point);
    }
    h.finish(&rec);
}
