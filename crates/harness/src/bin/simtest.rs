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
//! across all three executions. Exit status is nonzero if any case fails.

use dibs_harness::simtest::{run_soak, SoakConfig};
use std::process::ExitCode;

const USAGE: &str = "Usage: simtest [--smoke] [--seeds N] [--jobs N]";

fn main() -> ExitCode {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    let jobs = match dibs_harness::jobs(&mut raw, |key| std::env::var(key).ok()) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let mut cfg = SoakConfig::full(jobs);
    let mut args = raw.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => cfg = SoakConfig::smoke(jobs),
            "--seeds" => match args.next().map(|s| s.parse::<u64>()) {
                Some(Ok(n)) if n >= 1 => cfg.seeds = n,
                _ => {
                    eprintln!("--seeds needs a positive number\n{USAGE}");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown option `{other}`\n{USAGE}");
                return ExitCode::FAILURE;
            }
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
