//! `simtest`: randomized fault-injection soak harness.
//!
//! ```text
//! Usage: simtest [--smoke] [--seeds N] [--jobs N]
//!
//! Options:
//!   --smoke     run the 64-seed smoke tier (the check.sh --full gate)
//!   --seeds N   run exactly N seeded cases (overrides --smoke)
//!   --jobs N    worker threads (default: DIBS_JOBS or all cores)
//! ```
//!
//! Each seeded case draws a random topology, workload, and fault schedule,
//! runs it three times (traced parallel, untraced sequential, untraced
//! parallel re-execution), and checks four invariants: packet conservation,
//! no post-TTL detour loops, clock monotonicity, and byte-identical digests
//! across all three executions. Exit status is 1 if any case fails and 2
//! on a malformed command line.

use dibs_harness::simtest::{run_soak, SoakConfig};
use std::process::ExitCode;

const USAGE: &str = "Usage: simtest [--smoke] [--seeds N] [--jobs N]";

/// Reports a malformed command line and yields exit status 2.
fn usage_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}\n{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    let jobs = match dibs_harness::jobs(&mut raw, |key| std::env::var(key).ok()) {
        Ok(n) => n,
        Err(e) => return usage_error(&e),
    };

    let mut cfg = SoakConfig::full(jobs);
    let mut args = raw.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => cfg = SoakConfig::smoke(jobs),
            "--seeds" => match args.next().map(|s| s.parse::<u64>()) {
                Some(Ok(n)) if n >= 1 => cfg.seeds = n,
                _ => return usage_error("--seeds needs a positive number"),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown option `{other}`")),
        }
    }

    eprintln!(
        "simtest: {} seeded cases x 3 executions, {} jobs",
        cfg.seeds, cfg.jobs
    );
    let started = std::time::Instant::now();
    let report = run_soak(&cfg);
    let wall = started.elapsed();

    println!(
        "simtest: {} cases, {} packets sent, {} delivered, {} fault drops ({wall:.2?})",
        report.cases, report.packets_sent, report.packets_delivered, report.fault_drops
    );
    if report.ok() {
        println!("simtest: all invariants held");
        ExitCode::SUCCESS
    } else {
        for f in &report.failures {
            eprintln!("FAIL {f}");
        }
        eprintln!("simtest: {} invariant failure(s)", report.failures.len());
        ExitCode::FAILURE
    }
}
