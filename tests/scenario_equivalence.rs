//! One experiment language: a `dibs-cli` scenario draws its background
//! flows and queries from the same streams as `presets::mixed_workload_sim`,
//! which the figures and the benchmark build on. Given the same seed and
//! window, the two build the same simulation, so `dibs-sim` re-runs any
//! sweep point.

use dibs::presets::{mixed_workload_sim, MixedWorkload};
use dibs::{RunDigest, SimConfig};
use dibs_cli::Scenario;
use dibs_engine::time::SimDuration;
use dibs_net::builders::FatTreeParams;

const SEED: u64 = 11;

#[test]
fn scenario_and_preset_give_the_same_digest() {
    let tree = FatTreeParams {
        k: 4,
        ..FatTreeParams::paper_default()
    };
    let workload = MixedWorkload {
        bg_interarrival: SimDuration::from_millis(10),
        qps: 400.0,
        incast_degree: 8,
        response_bytes: 20_000,
        duration: SimDuration::from_millis(20),
        drain: SimDuration::from_millis(40),
    };
    for (scheme, config) in [
        ("dctcp", SimConfig::dctcp_baseline()),
        ("dctcp_dibs", SimConfig::dctcp_dibs()),
    ] {
        let scenario = Scenario::from_json(&format!(
            r#"{{
                "seed": {SEED},
                "topology": {{ "type": "fat_tree", "k": 4 }},
                "scheme": "{scheme}",
                "duration_ms": 20,
                "drain_ms": 40,
                "workloads": [
                    {{ "type": "background", "interarrival_ms": 10 }},
                    {{ "type": "query", "qps": 400, "degree": 8, "response_bytes": 20000 }}
                ]
            }}"#
        ))
        .expect("well-formed scenario");
        let from_scenario = scenario.build().expect("scenario builds").run();
        let from_preset = mixed_workload_sim(tree, config.with_seed(SEED), workload).run();
        assert!(
            !from_preset.queries.is_empty() && from_preset.flows.len() > from_preset.queries.len(),
            "{scheme}: the window drew no mixed traffic"
        );
        assert_eq!(
            RunDigest::of(&from_scenario),
            RunDigest::of(&from_preset),
            "{scheme}: the scenario and the preset diverge"
        );
    }
}
