//! One experiment language: a `dibs-cli` scenario draws its background
//! flows and queries from the same streams as `presets::mixed_workload_sim`,
//! which the benchmark builds on, and its target-less incasts from the
//! same stream as `presets::single_incast_sim`. Given the same seed and
//! window, each pair builds the same simulation, so `dibs-sim` re-runs any
//! point of the experiment table.

use dibs::presets::{mixed_workload_sim, single_incast_sim, MixedWorkload};
use dibs::{RunDigest, SimConfig};
use dibs_cli::Scenario;
use dibs_engine::time::SimDuration;
use dibs_net::builders::FatTreeParams;

const SEED: u64 = 11;

fn k4() -> FatTreeParams {
    FatTreeParams {
        k: 4,
        ..FatTreeParams::paper_default()
    }
}

/// The two schemes each equivalence is checked under.
fn schemes() -> [(&'static str, SimConfig); 2] {
    [
        ("dctcp", SimConfig::dctcp_baseline()),
        ("dctcp_dibs", SimConfig::dctcp_dibs()),
    ]
}

#[test]
fn scenario_and_preset_give_the_same_digest() {
    let workload = MixedWorkload {
        bg_interarrival: SimDuration::from_millis(10),
        qps: 400.0,
        incast_degree: 8,
        response_bytes: 20_000,
        duration: SimDuration::from_millis(20),
        drain: SimDuration::from_millis(40),
    };
    for (scheme, config) in schemes() {
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
        let from_preset = mixed_workload_sim(k4(), config.with_seed(SEED), workload).run();
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

#[test]
fn targetless_incast_and_single_incast_give_the_same_digest() {
    for (scheme, config) in schemes() {
        let scenario = Scenario::from_json(&format!(
            r#"{{
                "seed": {SEED},
                "topology": {{ "type": "fat_tree", "k": 4 }},
                "scheme": "{scheme}",
                "duration_ms": 0,
                "drain_ms": 5000,
                "workloads": [ {{ "type": "incast", "degree": 8, "response_bytes": 20000 }} ]
            }}"#
        ))
        .expect("well-formed scenario");
        let from_scenario = scenario.build().expect("scenario builds").run();
        let from_preset = single_incast_sim(k4(), config.with_seed(SEED), 8, 20_000).run();
        assert_eq!(from_preset.flows.len(), 8, "{scheme}");
        assert_eq!(
            RunDigest::of(&from_scenario),
            RunDigest::of(&from_preset),
            "{scheme}: the scenario and the preset diverge"
        );
    }
}

#[test]
fn sampled_scenario_and_sampled_preset_give_the_same_samples() {
    let workload = MixedWorkload {
        bg_interarrival: SimDuration::from_millis(10),
        qps: 400.0,
        incast_degree: 8,
        response_bytes: 20_000,
        duration: SimDuration::from_millis(20),
        drain: SimDuration::from_millis(40),
    };
    for (scheme, mut config) in schemes() {
        let scenario = Scenario::from_json(&format!(
            r#"{{
                "seed": {SEED},
                "topology": {{ "type": "fat_tree", "k": 4 }},
                "scheme": "{scheme}",
                "duration_ms": 20,
                "drain_ms": 40,
                "sample_interval_ms": 1,
                "workloads": [
                    {{ "type": "background", "interarrival_ms": 10 }},
                    {{ "type": "query", "qps": 400, "degree": 8, "response_bytes": 20000 }}
                ]
            }}"#
        ))
        .expect("well-formed scenario");
        let from_scenario = scenario.build().expect("scenario builds").run();
        config.sample_interval = Some(SimDuration::from_millis(1));
        let from_preset = mixed_workload_sim(k4(), config.with_seed(SEED), workload).run();
        assert_eq!(
            from_preset.hot_fraction_samples.len(),
            60,
            "{scheme}: one sample per millisecond of the horizon"
        );
        assert_eq!(
            RunDigest::of(&from_scenario),
            RunDigest::of(&from_preset),
            "{scheme}: the scenario and the preset diverge"
        );
        // `RunDigest` does not print the samples.
        assert_eq!(
            from_scenario.hot_fraction_samples, from_preset.hot_fraction_samples,
            "{scheme}"
        );
        assert_eq!(
            from_scenario.neighbor_free_1hop, from_preset.neighbor_free_1hop,
            "{scheme}"
        );
        assert_eq!(
            from_scenario.neighbor_free_2hop, from_preset.neighbor_free_2hop,
            "{scheme}"
        );
    }
}
