//! Runs every figure binary (`fig01`–`fig06`) and then `sweep <id>` for
//! every row of the sweep table, writing all records under `results/`.
//! Children run in parallel across `--jobs N` workers (default: all
//! cores); each child's output is captured and printed in the fixed order
//! below, so the transcript is identical regardless of scheduling. Use
//! `--quick` for a fast smoke pass.
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
//! Unrecognized flags (e.g. `--trace all`) are forwarded verbatim to every
//! child binary, and the `DIBS_TRACE` environment variable is inherited,
//! so one invocation can trace the whole reproduction. Children that wire
//! a tracer through [`dibs_bench::Harness::export_trace`] (e.g.
//! `fig02_detour_timeline`) then write a Chrome-viewable
//! `results/trace_<id>.json` next to their record. Tracing never changes
//! the records themselves (see DESIGN.md §2d).

use dibs_bench::sweep;
use dibs_harness::Executor;
use std::process::Command;
use std::time::Instant;

/// The figures that are binaries of their own; the sweeps follow them.
const FIGURES: &[&str] = &[
    "fig01_detour_path",
    "fig02_detour_timeline",
    "fig03_hotspot_sparsity",
    "fig04_hotlinks",
    "fig05_neighbor_buffers",
    "fig06_testbed_incast",
];

/// Last `throughput:` summary line a child printed (emitted by
/// `Harness::finish`), with the prefix stripped for the roll-up table.
fn throughput_line(stdout: &str) -> Option<String> {
    stdout
        .lines()
        .rev()
        .find_map(|l| l.trim().strip_prefix("throughput: "))
        .map(str::to_owned)
}

/// Outcome of one child, replayed in table order after the sweep.
struct BinRun {
    /// The figure binary's name or the sweep id.
    bin: &'static str,
    stdout: Vec<u8>,
    stderr: Vec<u8>,
    verdict: Result<f64, String>,
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let jobs = dibs_harness::jobs(&mut args, |key| std::env::var(key).ok()).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let exe_dir = std::env::current_exe()
        .expect("own path")
        .parent()
        .expect("bin dir")
        .to_path_buf();
    let total = Instant::now();

    // (label, binary, leading argument)
    let children: Vec<(&str, &str, Option<&str>)> = FIGURES
        .iter()
        .map(|&bin| (bin, bin, None))
        .chain(sweep::ids().into_iter().map(|id| (id, "sweep", Some(id))))
        .collect();
    let runs = Executor::new(jobs).map(children, |(bin, exe, id)| {
        let started = Instant::now();
        let mut cmd = Command::new(exe_dir.join(exe));
        cmd.args(id).args(&args);
        if jobs > 1 {
            // Figure binaries already run one-per-worker here; nested
            // parallelism would oversubscribe the host.
            cmd.env(dibs_harness::JOBS_ENV, "1");
        }
        match cmd.output() {
            Ok(out) if out.status.success() => BinRun {
                bin,
                stdout: out.stdout,
                stderr: out.stderr,
                verdict: Ok(started.elapsed().as_secs_f64()),
            },
            Ok(out) => BinRun {
                bin,
                stdout: out.stdout,
                stderr: out.stderr,
                verdict: Err(format!("FAILED: {}", out.status)),
            },
            Err(e) => BinRun {
                bin,
                stdout: Vec::new(),
                stderr: Vec::new(),
                verdict: Err(format!(
                    "could not start ({e}); build all bins first: \
                     cargo build -p dibs-bench --release --bins"
                )),
            },
        }
    });

    let mut failures = Vec::new();
    let mut throughputs: Vec<(&'static str, String)> = Vec::new();
    for run in runs {
        println!("\n=== {} ===", run.bin);
        let stdout = String::from_utf8_lossy(&run.stdout).into_owned();
        print!("{stdout}");
        eprint!("{}", String::from_utf8_lossy(&run.stderr));
        if let Some(line) = throughput_line(&stdout) {
            throughputs.push((run.bin, line));
        }
        match run.verdict {
            Ok(secs) => println!("=== {} done in {secs:.1}s ===", run.bin),
            Err(why) => {
                eprintln!("=== {} {why} ===", run.bin);
                failures.push(run.bin);
            }
        }
    }
    if !throughputs.is_empty() {
        println!("\n--- simulation throughput per binary ---");
        for (bin, line) in &throughputs {
            println!("{bin:>22}: {line}");
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
