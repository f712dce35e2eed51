//! Figure 3: sparsity of hotspots in four workload families.
//!
//! The paper reproduces the Flyways measurement over four proprietary
//! traces; per the substitution rule we synthesize four demand-matrix
//! families with the documented qualitative structure, route them over the
//! K=8 fat-tree with fluid ECMP, and compute the same statistic: the CDF
//! over snapshots of the fraction of links running at >= 50 % of the
//! hottest link's utilization.
//!
//! Paper shape: for every family, in at least ~60 % of snapshots fewer than
//! 10 % of links are hot.

use dibs::RunDescriptor;
use dibs_bench::Harness;
use dibs_engine::rng::SimRng;
use dibs_net::builders::{fat_tree, FatTreeParams};
use dibs_net::routing::Fib;
use dibs_stats::{ExperimentRecord, Samples, SeriesPoint};
use dibs_workload::matrices::{hot_fraction_relative, link_utilization, WorkloadFamily};

fn main() {
    let h = Harness::from_env();
    let snapshots = match h.scale {
        dibs_bench::Scale::Quick => 40,
        _ => 200,
    };
    let topo = fat_tree(FatTreeParams::paper_default());
    let fib = Fib::compute(&topo);
    let mut rng = SimRng::new(
        RunDescriptor::new("fig03_hotspot_sparsity", "matrices", 0, 0).seed(h.master_seed),
    );

    let mut rec = ExperimentRecord::new(
        "fig03_hotspot_sparsity",
        "Hot-link sparsity across four workload families (Fig 3)",
        "hot_link_fraction",
    );
    rec.param("snapshots", snapshots)
        .param("hot_definition", "util >= 0.5 * max link util");

    let mut per_family: Vec<(String, Samples)> = Vec::new();
    for fam in WorkloadFamily::ALL {
        let mut samples = Samples::new();
        for _ in 0..snapshots {
            let m = fam.sample(topo.num_hosts(), 1e8, &mut rng);
            let utils = link_utilization(&topo, &fib, &m);
            samples.push(hot_fraction_relative(&utils, 0.5));
        }
        per_family.push((fam.label().to_string(), samples));
    }

    // CDF rows: x = hot-link fraction, y = cumulative fraction of snapshots.
    for frac in [0.01, 0.02, 0.05, 0.10, 0.20, 0.30, 0.50, 0.80, 1.0] {
        let mut point = SeriesPoint::at(frac);
        for (label, samples) in &per_family {
            let below = samples.values().iter().filter(|&&v| v <= frac).count();
            point = point.with(
                &format!("cum_{}", label.replace('-', "_")),
                below as f64 / samples.len() as f64,
            );
        }
        rec.push(point);
    }
    h.finish(&rec);
}
