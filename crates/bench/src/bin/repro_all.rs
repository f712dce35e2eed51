//! Runs `sweep <id>` for every row of the experiment table (Figs 1–16,
//! the §5.5–§5.6 tables and the §6/§7 ablations), writing all records
//! under `results/`. Children run in parallel across `--jobs N` workers
//! (default: all cores); each child's output is captured and printed in
//! table order, so the transcript is identical regardless of scheduling.
//! Use `--quick` for a fast smoke pass.
//!
//! This is the one-command regeneration entry point referenced by
//! EXPERIMENTS.md:
//!
//! ```text
//! cargo run -p dibs-bench --release --bin repro_all            # default scale
//! cargo run -p dibs-bench --release --bin repro_all -- --quick # smoke
//! cargo run -p dibs-bench --release --bin repro_all -- --full  # paper-length
//! cargo run -p dibs-bench --release --bin repro_all -- --jobs 8
//! ```
//!
//! Other flags (e.g. `--seed 7`, `--trace all`) and `DIBS_TRACE` reach
//! every child; Figs 1–2 then capture under that spec and write
//! `results/trace_<id>.json`. Tracing never changes the records (DESIGN.md
//! §2d).

use dibs_bench::sweep;
use dibs_harness::Executor;
use std::process::Command;
use std::time::Instant;

/// Last `throughput:` summary line a child printed (emitted by
/// `Harness::finish`), with the prefix stripped for the roll-up table.
fn throughput_line(stdout: &str) -> Option<String> {
    stdout
        .lines()
        .rev()
        .find_map(|l| l.trim().strip_prefix("throughput: "))
        .map(str::to_owned)
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let jobs = dibs_harness::jobs(&mut args, |key| std::env::var(key).ok()).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let sweep_exe = std::env::current_exe()
        .expect("own path")
        .with_file_name("sweep");
    let total = Instant::now();

    let runs = Executor::new(jobs).map(sweep::ids(), |id| {
        let started = Instant::now();
        let mut cmd = Command::new(&sweep_exe);
        cmd.arg(id).args(&args);
        if jobs > 1 {
            // Rows already run one-per-worker here; nested parallelism
            // would oversubscribe the host.
            cmd.env(dibs_harness::JOBS_ENV, "1");
        }
        (id, cmd.output(), started.elapsed().as_secs_f64())
    });

    // Replayed in table order.
    let mut failures = Vec::new();
    let mut throughputs: Vec<(&str, String)> = Vec::new();
    for (id, output, secs) in runs {
        println!("\n=== {id} ===");
        let verdict = match output {
            Ok(out) => {
                let stdout = String::from_utf8_lossy(&out.stdout);
                print!("{stdout}");
                eprint!("{}", String::from_utf8_lossy(&out.stderr));
                if let Some(line) = throughput_line(&stdout) {
                    throughputs.push((id, line));
                }
                if out.status.success() {
                    Ok(())
                } else {
                    Err(format!("FAILED: {}", out.status))
                }
            }
            Err(e) => Err(format!(
                "could not start `sweep` ({e}); build it first: \
                 cargo build -p dibs-bench --release --bins"
            )),
        };
        match verdict {
            Ok(()) => println!("=== {id} done in {secs:.1}s ==="),
            Err(why) => {
                eprintln!("=== {id} {why} ===");
                failures.push(id);
            }
        }
    }
    if !throughputs.is_empty() {
        println!("\n--- simulation throughput per row ---");
        for (id, line) in &throughputs {
            println!("{id:>22}: {line}");
        }
    }
    println!(
        "\nAll experiments finished in {:.1}s with {} jobs; {} failures{}",
        total.elapsed().as_secs_f64(),
        jobs,
        failures.len(),
        if failures.is_empty() {
            String::new()
        } else {
            format!(": {failures:?}")
        }
    );
    if !failures.is_empty() {
        std::process::exit(1);
    }
}
