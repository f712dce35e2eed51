//! `dibs-sim`: run JSON scenarios through the DIBS simulator.
//!
//! ```text
//! Usage: dibs-sim [OPTIONS] <scenario.json>...
//!
//! Options:
//!   --json          emit a JSON report instead of text
//!   --compare       run each scenario under dctcp, dctcp_dibs, and pfabric
//!                   (a scenario that sets a `dibs_policy` other than
//!                   `disabled` fails on its pfabric arm before any run)
//!   --seed <N>      override the scenarios' seed
//!   --jobs <N>      worker threads for independent runs (default: all cores)
//!   --trace <SPEC>  capture an event trace; SPEC is `off`, `all`, a kind
//!                   list (`enqueue,detour`), or `flight[:CAP][:kinds]`.
//!                   Defaults to the DIBS_TRACE env var. Chrome-viewable
//!                   JSON is written under results/.
//!   --fault <SPEC>  inject faults; SPEC is `off` or `;`-separated clauses
//!                   like `link-down:t=2ms:edge3-aggr1:dur=500us`,
//!                   `switch-crash:t=5ms:core0`, `drop:p=1e-4:kind=detoured`,
//!                   `corrupt:p=1e-5`, or `random:<budget>`. Defaults to
//!                   the DIBS_FAULT env var.
//!   --digest        print one `digest <file> <scheme> <fingerprint>` line
//!                   per run (tracing never changes these lines)
//!   --help          show this message
//! ```
//!
//! Independent runs (each scenario file × scheme) fan out across the
//! deterministic sweep executor; reports are printed in argument order, so
//! output is identical for every `--jobs` value.
//!
//! Exit status: 0 on success, 2 on a malformed command line (unknown
//! option, missing or malformed flag value, bad `--trace`/`--fault` spec,
//! no scenario), and 1 when a scenario cannot be read, parsed, or built.

use dibs::{FaultSpec, RunDigest, TraceReport, TraceSpec, Tracer};
use dibs_cli::{Report, Scenario, Scheme};
use dibs_harness::Executor;
use std::process::ExitCode;

const USAGE: &str = "Usage: dibs-sim [--json] [--compare] [--seed N] [--jobs N] \
                     [--trace SPEC] [--fault SPEC] [--digest] <scenario.json>...";

/// Prints `msg` and the usage line; a malformed command line exits 2.
fn usage_error(msg: &str) -> ExitCode {
    eprintln!("{msg}\n{USAGE}");
    ExitCode::from(2)
}

/// Writes one run's Chrome trace to `results/trace_<stem>_<scheme>.json`.
fn export_chrome_trace(trace: &TraceReport, path: &str, scheme: Scheme) {
    let stem = std::path::Path::new(path).file_stem().map_or_else(
        || "scenario".to_string(),
        |s| s.to_string_lossy().into_owned(),
    );
    let scheme_tag = format!("{scheme:?}").to_lowercase();
    let out = format!("results/trace_{stem}_{scheme_tag}.json");
    match trace.write_chrome_trace(out.as_ref()) {
        Ok(line) | Err(line) => eprintln!("{line}"),
    }
}

fn main() -> ExitCode {
    let mut json = false;
    let mut compare = false;
    let mut digest = false;
    let mut seed: Option<u64> = None;
    let mut trace_arg: Option<String> = None;
    let mut fault_arg: Option<String> = None;
    let mut paths: Vec<String> = Vec::new();

    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    let jobs = match dibs_harness::jobs(&mut raw, |key| std::env::var(key).ok()) {
        Ok(n) => n,
        Err(e) => return usage_error(&format!("error: {e}")),
    };

    let mut args = raw.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--compare" => compare = true,
            "--digest" => digest = true,
            "--seed" => match args.next().map(|s| s.parse::<u64>()) {
                Some(Ok(s)) => seed = Some(s),
                _ => return usage_error("--seed needs a number"),
            },
            "--trace" => match args.next() {
                Some(s) => trace_arg = Some(s),
                None => {
                    return usage_error("--trace needs a spec (off|all|kinds|flight[:CAP][:kinds])")
                }
            },
            "--fault" => match args.next() {
                Some(s) => fault_arg = Some(s),
                None => return usage_error("--fault needs a spec (off or `;`-separated clauses)"),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                return usage_error(&format!("unknown option `{other}`"));
            }
            other => paths.push(other.to_string()),
        }
    }
    if paths.is_empty() {
        return usage_error("no scenario file given");
    }
    let many_files = paths.len() > 1;

    // --trace beats DIBS_TRACE; absent both, tracing stays off.
    let trace_spec = {
        let raw_spec = trace_arg.or_else(|| std::env::var("DIBS_TRACE").ok());
        match raw_spec.as_deref().map(str::parse::<TraceSpec>) {
            None => TraceSpec::off(),
            Some(Ok(spec)) => spec,
            Some(Err(e)) => return usage_error(&format!("bad trace spec: {e}")),
        }
    };

    // --fault beats DIBS_FAULT; absent both, no faults are injected.
    // Syntax and consistency errors fail here; name-binding errors
    // surface per scenario (they depend on the topology).
    let fault_spec = {
        let raw_spec = fault_arg.or_else(|| std::env::var("DIBS_FAULT").ok());
        match raw_spec.as_deref().map(str::parse::<FaultSpec>) {
            None => FaultSpec::off(),
            Some(Ok(spec)) => spec,
            Some(Err(e)) => return usage_error(&format!("bad fault spec: {e}")),
        }
    };

    // Parse every scenario and resolve each of its arms up front, so bad
    // input fails before any run prints.
    let mut runs: Vec<(String, Scenario)> = Vec::new();
    for path in &paths {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let mut scenario = match Scenario::from_json(&text) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Some(s) = seed {
            scenario.seed = s;
        }
        let schemes: Vec<Scheme> = if compare {
            vec![Scheme::Dctcp, Scheme::DctcpDibs, Scheme::Pfabric]
        } else {
            vec![scenario.scheme]
        };
        for scheme in schemes {
            let mut arm = scenario.clone();
            arm.scheme = scheme;
            if let Err(e) = arm.sim_config() {
                eprintln!("{path}: {e}");
                return ExitCode::FAILURE;
            }
            runs.push((path.clone(), arm));
        }
    }

    // Each (file, scheme) run is independent; fan out and report in input
    // order.
    let outcomes = Executor::new(jobs).map(runs, move |(path, scenario)| {
        let scheme = scenario.scheme;
        let mut sim = match scenario.build() {
            Ok(sim) => sim,
            Err(e) => return (path, scheme, Err(e)),
        };
        sim.set_tracer(Tracer::from_spec(&trace_spec));
        if let Err(e) = sim.set_faults(&fault_spec) {
            return (
                path,
                scheme,
                Err(dibs_cli::scenario::ScenarioError(format!(
                    "fault spec: {e}"
                ))),
            );
        }
        let started = std::time::Instant::now();
        let mut results = sim.run();
        let wall = started.elapsed();
        let fp = digest.then(|| RunDigest::of(&results).fingerprint());
        let trace = results.trace.take();
        (
            path,
            scheme,
            Ok((Report::from_results(&mut results), wall, fp, trace)),
        )
    });

    let mut per_file: Vec<(String, Vec<(Scheme, Report)>)> = Vec::new();
    for (path, scheme, outcome) in outcomes {
        match outcome {
            Ok((report, wall, fp, trace)) => {
                if !json {
                    if many_files {
                        println!("=== {path} · scheme: {scheme:?} (wall {wall:.2?}) ===");
                    } else {
                        println!("=== scheme: {scheme:?} (wall {wall:.2?}) ===");
                    }
                    print!("{}", report.render_text());
                    println!();
                }
                if let Some(fp) = fp {
                    println!("digest {path} {scheme:?} {fp:#018x}");
                }
                if let Some(trace) = &trace {
                    export_chrome_trace(trace, &path, scheme);
                }
                match per_file.last_mut() {
                    Some((p, reports)) if *p == path => reports.push((scheme, report)),
                    _ => per_file.push((path, vec![(scheme, report)])),
                }
            }
            Err(e) => {
                eprintln!("{path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if json {
        let file_obj = |reports: Vec<(Scheme, Report)>| {
            dibs_json::Json::Obj(
                reports
                    .into_iter()
                    .map(|(scheme, r)| {
                        (
                            format!("{scheme:?}").to_lowercase(),
                            dibs_json::ToJson::to_json(&r),
                        )
                    })
                    .collect(),
            )
        };
        let out = if many_files {
            dibs_json::Json::Obj(
                per_file
                    .into_iter()
                    .map(|(path, reports)| (path, file_obj(reports)))
                    .collect(),
            )
        } else {
            let (_, reports) = per_file.pop().expect("at least one scenario ran");
            file_obj(reports)
        };
        println!("{}", out.render_pretty());
    }
    ExitCode::SUCCESS
}
