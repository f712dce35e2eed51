//! `dibs-sim` rejects bad input with a message and a non-zero exit, never
//! a panic: a malformed command line exits 2 before anything runs, and a
//! scenario that cannot be built exits 1.

use std::process::{Command, Output};

fn dibs_sim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dibs-sim"))
        .args(args)
        .env_remove("DIBS_TRACE")
        .env_remove("DIBS_FAULT")
        .env_remove("DIBS_JOBS")
        .output()
        .expect("run the dibs-sim binary")
}

fn assert_fails(args: &[&str], code: i32, needle: &str) {
    let out = dibs_sim(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(code), "{args:?}: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed a report");
}

/// Writes a scenario file under the target directory, so no run writes
/// into the source tree.
fn scenario_file(name: &str, json: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, json).expect("write scenario file");
    path.to_string_lossy().into_owned()
}

const TINY: &str = r#"{
    "topology": { "type": "single_switch", "hosts": 3 },
    "duration_ms": 1,
    "drain_ms": 10,
    "workloads": [ { "type": "flow", "src": 1, "dst": 0, "bytes": 1000 } ]
}"#;

#[test]
fn malformed_command_lines_exit_2() {
    let ok = scenario_file("dibs_sim_cli_tiny.json", TINY);
    assert_fails(&["--seed", "x", &ok], 2, "--seed needs a number");
    assert_fails(&[&ok, "--seed"], 2, "--seed needs a number");
    assert_fails(&[&ok, "--trace"], 2, "--trace needs a spec");
    assert_fails(&[&ok, "--fault"], 2, "--fault needs a spec");
    assert_fails(&["--trace", "sideways", &ok], 2, "bad trace spec");
    assert_fails(&["--fault", "drop:p=2", &ok], 2, "bad fault spec");
    assert_fails(&["--bogus", &ok], 2, "unknown option `--bogus`");
    assert_fails(&["--jobs", "0", &ok], 2, "--jobs");
    assert_fails(&[], 2, "no scenario file given");
}

#[test]
fn unbuildable_scenarios_exit_1_with_a_message() {
    let odd = scenario_file(
        "dibs_sim_cli_fat_tree_k3.json",
        r#"{ "topology": { "type": "fat_tree", "k": 3 }, "workloads": [] }"#,
    );
    assert_fails(&[&odd], 1, "fat_tree k must be even");
    // Rejected from its parameters, before routing tables of 61 GB are
    // allocated (which aborted the process).
    let huge = scenario_file(
        "dibs_sim_cli_fat_tree_k88.json",
        r#"{ "topology": { "type": "fat_tree", "k": 88 }, "workloads": [] }"#,
    );
    assert_fails(&[&huge], 1, "nodes × hosts is 30674417664");
    // A query rate of infinity has a zero mean gap, which tripped an
    // assert in the traffic generator.
    let infinite_qps = scenario_file(
        "dibs_sim_cli_infinite_qps.json",
        r#"{ "topology": { "type": "mini_testbed" }, "workloads": [
            { "type": "query", "qps": 1e999, "degree": 2, "response_bytes": 1000 } ] }"#,
    );
    assert_fails(&[&infinite_qps], 1, "qps must be positive and finite");
    let truncated = scenario_file("dibs_sim_cli_truncated.json", "{");
    assert_fails(&[&truncated], 1, "dibs_sim_cli_truncated.json");
    // pFabric switches displace by priority before any detour policy
    // could act, so a policy there is refused rather than ignored.
    let policy = |scheme: &str| {
        format!(
            r#"{{ "topology": {{ "type": "single_switch", "hosts": 3 }}, "scheme": "{scheme}",
                 "overrides": {{ "dibs_policy": "random" }}, "workloads": [] }}"#
        )
    };
    let pfabric_policy = scenario_file("dibs_sim_cli_pfabric_policy.json", &policy("pfabric"));
    assert_fails(&[&pfabric_policy], 1, "dibs_policy `random`");
    // Under --compare the same refusal comes from the pfabric arm, before
    // the other arms run and print.
    let dibs_policy = scenario_file("dibs_sim_cli_dibs_policy.json", &policy("dctcp_dibs"));
    assert_fails(&["--compare", &dibs_policy], 1, "scheme pfabric");
}

#[test]
fn a_good_scenario_still_runs() {
    let ok = scenario_file("dibs_sim_cli_ok.json", TINY);
    let out = dibs_sim(&["--digest", &ok]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("digest "));
}

/// Golden pin for the `Scenario::build` traffic path: `scenarios/incast.json`
/// is a round-robin `incast` workload on the mini testbed. Any change to how
/// the CLI maps responders around the target, or to the simulation it
/// feeds, changes these digests. `--compare` runs all three schemes, so the
/// pin covers the DCTCP baseline and the pFabric host stack and switch too.
#[test]
fn incast_scenario_digest_is_pinned() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios/incast.json");
    let out = dibs_sim(&["--digest", "--compare", &path.to_string_lossy()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for pin in [
        "Dctcp 0xbedfba0252eda8cd",
        "DctcpDibs 0x8b49127ce0458072",
        "Pfabric 0x1b883271d3c1a2f9",
    ] {
        assert!(stdout.contains(pin), "digest moved ({pin}):\n{stdout}");
    }
}
