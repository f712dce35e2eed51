//! The `sweep` binary rejects bad input with exit status 2 and a message,
//! before running anything, and a row whose runs make no figure exits 1
//! without writing a record.

use std::path::Path;
use std::process::{Command, Output};

fn sweep(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args(args)
        .output()
        .expect("run the sweep binary")
}

fn assert_usage_error(args: &[&str], needle: &str) {
    let out = sweep(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed a record");
}

#[test]
fn missing_or_unknown_id_exits_2_listing_the_ids() {
    assert_usage_error(&[], "missing sweep id; valid ids: fig01_detour_path");
    assert_usage_error(&["--quick"], "unknown sweep id `--quick`");
    assert_usage_error(&["no_such_id", "--quick"], "abl_ecmp");
}

#[test]
fn malformed_flags_exit_2() {
    assert_usage_error(&["fig09_query_rate", "--jobs", "0"], "--jobs `0`");
    assert_usage_error(&["fig09_query_rate", "--seed", "x"], "--seed `x`");
}

#[test]
fn traced_figures_without_a_capture_exit_1_and_write_nothing() {
    for id in ["fig01_detour_path", "fig02_detour_timeline"] {
        let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("no_capture_{id}"));
        let _ = std::fs::remove_dir_all(&out_dir);
        let out = Command::new(env!("CARGO_BIN_EXE_sweep"))
            .args([id, "--quick", "--trace", "off"])
            .env("DIBS_RESULTS_DIR", &out_dir)
            .env_remove("DIBS_TRACE")
            .output()
            .expect("run the sweep binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{id}: {stderr}");
        assert!(stderr.contains("tracer captured nothing"), "{id}: {stderr}");
        assert!(!stderr.contains("panicked"), "{id}: {stderr}");
        let json = std::fs::read_dir(&out_dir).into_iter().flatten().flatten();
        let json: Vec<_> = json
            .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
            .collect();
        assert!(json.is_empty(), "{id} wrote {json:?}");
    }
}
