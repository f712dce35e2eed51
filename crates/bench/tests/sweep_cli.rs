//! The `sweep` binary rejects bad input with exit status 2 and a message,
//! before running anything.

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
    assert_usage_error(&[], "missing sweep id; valid ids: fig07_buffer_sweep");
    assert_usage_error(&["--quick"], "unknown sweep id `--quick`");
    assert_usage_error(&["no_such_id", "--quick"], "abl_ecmp");
}

#[test]
fn malformed_flags_exit_2() {
    assert_usage_error(&["fig09_query_rate", "--jobs", "0"], "--jobs `0`");
    assert_usage_error(&["fig09_query_rate", "--seed", "x"], "--seed `x`");
}
