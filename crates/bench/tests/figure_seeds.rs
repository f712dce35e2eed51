//! The experiment table derives every run's seed from the master seed
//! (`--seed` / `DIBS_SEED`): the same master seed writes the same record,
//! and a different one writes a different record.

use std::path::Path;
use std::process::Command;

/// Runs `sweep fig06_testbed_incast --quick --seed <seed>` into a fresh
/// results directory under the target directory and returns its JSON
/// record.
fn fig06_record(seed: &str, dir: &str) -> String {
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(dir);
    let _ = std::fs::remove_dir_all(&out_dir);
    let out = Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args(["fig06_testbed_incast", "--quick", "--seed", seed])
        .env("DIBS_RESULTS_DIR", &out_dir)
        .env_remove("DIBS_SEED")
        .env_remove("DIBS_SCALE")
        .env_remove("DIBS_TRACE")
        .output()
        .expect("run sweep fig06_testbed_incast");
    assert!(
        out.status.success(),
        "fig06 --seed {seed}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::read_to_string(out_dir.join("fig06_testbed_incast.json"))
        .expect("fig06 wrote its record")
}

#[test]
fn fig06_follows_the_master_seed() {
    let first = fig06_record("1", "figure_seeds_a");
    let again = fig06_record("1", "figure_seeds_b");
    let other = fig06_record("2", "figure_seeds_c");
    assert_eq!(first, again, "the same --seed wrote different records");
    assert_ne!(first, other, "--seed 2 wrote the same record as --seed 1");
}
