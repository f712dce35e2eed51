//! `simtest` rejects a malformed command line with exit status 2, a
//! message and the usage line, before running any case.

use std::process::{Command, Output};

fn simtest(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_simtest"))
        .args(args)
        .env_remove("DIBS_JOBS")
        .output()
        .expect("run the simtest binary")
}

fn assert_usage_error(args: &[&str], needle: &str) {
    let out = simtest(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: {stderr}");
    assert!(stderr.contains("Usage: simtest"), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} ran cases");
}

#[test]
fn malformed_command_lines_exit_2() {
    assert_usage_error(&["--seeds", "x"], "--seeds needs a positive number");
    assert_usage_error(&["--seeds", "0"], "--seeds needs a positive number");
    assert_usage_error(&["--seeds"], "--seeds needs a positive number");
    assert_usage_error(&["--bogus"], "unknown option `--bogus`");
    assert_usage_error(&["--jobs", "0"], "--jobs `0`");
    assert_usage_error(&["--jobs", "two"], "--jobs `two`");
}

#[test]
fn a_well_formed_command_line_runs() {
    let out = simtest(&["--seeds", "1", "--jobs", "1"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("all invariants held"), "{stdout}");
}
