#![warn(missing_docs)]

//! Shared harness for the experiment table.
//!
//! Every figure and table of the evaluation (Figs 1–16, §5.5–§5.6, and
//! the §6/§7 ablations) is a row of the [`sweep`] table, run as
//! `sweep <id>`; `repro_all` runs every row. Each row runs its
//! simulations (in parallel when cores allow), assembles an
//! [`ExperimentRecord`], prints it as an aligned table, and persists it as
//! JSON under `results/`.
//!
//! Both binaries accept `--quick` (shorter traffic windows, for smoke runs)
//! and `--full` (paper-length windows); the default sits in between so the
//! whole suite finishes in tens of minutes on one core. The scale can also
//! be set via the `DIBS_SCALE` environment variable (`quick`, `default`,
//! `full`).

pub mod sweep;
pub mod timing;

use dibs::RunResults;
use dibs_engine::time::SimDuration;
use dibs_harness::Executor;
use dibs_stats::ExperimentRecord;
use std::path::PathBuf;

/// Master seed used by the sweep binaries unless `--seed` / `DIBS_SEED`
/// overrides it. Every run derives its own stream from this via its
/// `dibs::RunDescriptor`, so one number pins the whole suite.
pub const DEFAULT_MASTER_SEED: u64 = 0xD1B5_2014;

/// How long the traffic windows run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Smoke-test: tiny windows, coarse percentiles.
    Quick,
    /// Suite default: 400 ms windows. That is only about 120 queries at
    /// 300 qps, so a p99 QCT falls between the two largest samples and
    /// moves with the seed; single-seed tails are indicative, not stable.
    Default,
    /// Paper-length windows.
    Full,
}

impl Scale {
    /// Traffic generation window for mixed workloads.
    pub fn duration(self) -> SimDuration {
        match self {
            Scale::Quick => SimDuration::from_millis(120),
            Scale::Default => SimDuration::from_millis(400),
            Scale::Full => SimDuration::from_millis(1000),
        }
    }

    /// Drain time appended after the generation window.
    pub fn drain(self) -> SimDuration {
        match self {
            Scale::Quick => SimDuration::from_millis(300),
            Scale::Default => SimDuration::from_millis(600),
            Scale::Full => SimDuration::from_millis(1000),
        }
    }

    /// A short window for the very heavy experiments (10 ms background
    /// inter-arrival, extreme qps).
    pub fn heavy_duration(self) -> SimDuration {
        match self {
            Scale::Quick => SimDuration::from_millis(80),
            Scale::Default => SimDuration::from_millis(200),
            Scale::Full => SimDuration::from_millis(500),
        }
    }
}

/// Execution context of one `sweep` run.
#[derive(Debug, Clone)]
pub struct Harness {
    /// Chosen scale.
    pub scale: Scale,
    /// Where JSON records land.
    pub out_dir: PathBuf,
    /// Worker threads for the sweep executor (`--jobs` / `DIBS_JOBS`).
    pub jobs: usize,
    /// Master seed for run-descriptor stream derivation (`--seed` /
    /// `DIBS_SEED`).
    pub master_seed: u64,
    /// Event-trace spec from `--trace` / `DIBS_TRACE`, if any.
    pub trace: Option<dibs::TraceSpec>,
}

impl Harness {
    /// Builds a harness from `args` (the flags after `sweep <id>`) and
    /// the environment (see [`Harness::parse`]). A malformed value is
    /// reported and the process exits with status 2 rather than running
    /// with a default the user did not ask for.
    pub fn from_args(args: &[String]) -> Self {
        match Harness::parse(args, |key| std::env::var(key).ok()) {
            Ok(h) => {
                timing::meter_start();
                h
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
    }

    /// Parses the flags `--quick` / `--full` / `--default` / `--jobs N` /
    /// `--seed N` / `--trace SPEC` out of `args`, over the `DIBS_SCALE` /
    /// `DIBS_JOBS` / `DIBS_SEED` / `DIBS_TRACE` / `DIBS_RESULTS_DIR`
    /// variables that `env` looks up (argv wins; an empty variable counts
    /// as unset). Reads no process state.
    ///
    /// A malformed seed, scale, worker count, or trace spec, or a flag
    /// missing its value, is an error. Unknown arguments only warn, because
    /// `repro_all` forwards its own argv to every row.
    pub fn parse(args: &[String], env: impl Fn(&str) -> Option<String>) -> Result<Harness, String> {
        let env = |key: &str| env(key).filter(|v| !v.trim().is_empty());
        let mut args = args.to_vec();
        let jobs = dibs_harness::jobs(&mut args, env)?;

        let parse_scale = |v: &str| match v {
            "quick" => Ok(Scale::Quick),
            "default" => Ok(Scale::Default),
            "full" => Ok(Scale::Full),
            other => Err(format!(
                "DIBS_SCALE=`{other}` is not one of quick, default, full"
            )),
        };
        let parse_seed = |what: &str, v: &str| {
            v.trim()
                .parse::<u64>()
                .map_err(|_| format!("{what} `{v}` is not an unsigned 64-bit integer"))
        };
        let parse_trace = |what: &str, v: &str| {
            v.parse::<dibs::TraceSpec>()
                .map_err(|e| format!("{what} `{v}`: {e}"))
        };

        let mut scale = env("DIBS_SCALE").map_or(Ok(Scale::Default), |v| parse_scale(&v))?;
        let mut master_seed =
            env("DIBS_SEED").map_or(Ok(DEFAULT_MASTER_SEED), |v| parse_seed("DIBS_SEED", &v))?;
        let mut trace = env("DIBS_TRACE")
            .map(|v| parse_trace("DIBS_TRACE", &v))
            .transpose()?;

        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
            match arg.as_str() {
                "--quick" => scale = Scale::Quick,
                "--full" => scale = Scale::Full,
                "--default" => scale = Scale::Default,
                "--seed" => master_seed = parse_seed("--seed", value()?)?,
                "--trace" => trace = Some(parse_trace("--trace", value()?)?),
                other => {
                    eprintln!(
                        "warning: unrecognized argument `{other}` \
                         (expected --quick/--full/--jobs N/--seed N/--trace SPEC)"
                    );
                }
            }
        }
        let out_dir =
            env("DIBS_RESULTS_DIR").map_or_else(|| PathBuf::from("results"), PathBuf::from);
        Ok(Harness {
            scale,
            out_dir,
            jobs,
            master_seed,
            trace,
        })
    }

    /// The tracer requested via `--trace` / `DIBS_TRACE`, falling back to
    /// `default` when neither was given (the capture a row such as
    /// `fig02_detour_timeline` needs). A user spec was validated by
    /// [`Harness::parse`]; `default` is the table's own literal and must
    /// parse.
    pub fn tracer_or(&self, default: &str) -> dibs::Tracer {
        let spec = self.trace.unwrap_or_else(|| {
            default
                .parse()
                .unwrap_or_else(|e| panic!("built-in trace spec `{default}`: {e}"))
        });
        dibs::Tracer::from_spec(&spec)
    }

    /// Writes a captured trace as Chrome-viewable JSON next to the
    /// records, but only when the user explicitly asked to trace (a row's
    /// own default tracer stays internal).
    pub fn export_trace(&self, id: &str, results: &RunResults) {
        let (Some(_), Some(trace)) = (&self.trace, &results.trace) else {
            return;
        };
        match trace.write_chrome_trace(&self.out_dir.join(format!("trace_{id}.json"))) {
            Ok(line) | Err(line) => eprintln!("{line}"),
        }
    }

    /// The deterministic sweep executor at this harness's `--jobs` width.
    pub fn executor(&self) -> Executor {
        Executor::new(self.jobs)
    }

    /// Prints the record and writes `results/<id>.json`.
    pub fn finish(&self, record: &ExperimentRecord) {
        print!("{}", record.to_table());
        if let Err(e) = std::fs::create_dir_all(&self.out_dir) {
            eprintln!("warning: cannot create {}: {e}", self.out_dir.display());
            return;
        }
        let path = self.out_dir.join(format!("{}.json", record.id));
        match std::fs::write(&path, record.to_json()) {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        }
        // An eyeball-comparison chart next to the raw series. Milliseconds
        // span orders of magnitude across sweeps, so use a log axis.
        let chart = dibs_stats::LineChart::from_record(record, "value", true);
        let svg_path = self.out_dir.join(format!("{}.svg", record.id));
        if let Err(e) = std::fs::write(&svg_path, chart.render()) {
            eprintln!("warning: cannot write {}: {e}", svg_path.display());
        }
        // Cumulative simulation throughput for this process so far;
        // `repro_all` surfaces the final line per row.
        if let Some(line) = timing::meter_summary() {
            println!("{line}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str], env: &[(&str, &str)]) -> Result<Harness, String> {
        let args: Vec<String> = args.iter().map(|a| (*a).to_string()).collect();
        Harness::parse(&args, |key| {
            env.iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| (*v).to_string())
        })
    }

    #[test]
    fn parse_defaults_without_flags_or_env() {
        let h = parse(&[], &[]).unwrap();
        assert_eq!(h.scale, Scale::Default);
        assert_eq!(h.master_seed, DEFAULT_MASTER_SEED);
        assert_eq!(h.trace, None);
        assert_eq!(h.out_dir, PathBuf::from("results"));
    }

    #[test]
    fn malformed_seed_flag_is_an_error() {
        let err = parse(&["--seed", "x"], &[]).unwrap_err();
        assert!(err.contains("--seed `x`"), "{err}");
        let err = parse(&["--seed"], &[]).unwrap_err();
        assert!(err.contains("--seed needs a value"), "{err}");
    }

    #[test]
    fn malformed_seed_env_is_an_error() {
        let err = parse(&[], &[("DIBS_SEED", "12ab")]).unwrap_err();
        assert!(err.contains("DIBS_SEED `12ab`"), "{err}");
    }

    #[test]
    fn malformed_jobs_is_an_error() {
        let err = parse(&["--jobs", "0"], &[]).unwrap_err();
        assert!(err.contains("--jobs `0`"), "{err}");
        let err = parse(&[], &[("DIBS_JOBS", "two")]).unwrap_err();
        assert!(err.contains("DIBS_JOBS `two`"), "{err}");
        assert_eq!(parse(&["--jobs=3"], &[("DIBS_JOBS", "")]).unwrap().jobs, 3);
    }

    #[test]
    fn unknown_scale_env_is_an_error() {
        let err = parse(&[], &[("DIBS_SCALE", "huge")]).unwrap_err();
        assert!(err.contains("DIBS_SCALE=`huge`"), "{err}");
    }

    #[test]
    fn malformed_trace_spec_is_an_error() {
        let err = parse(&["--trace", "bogus"], &[]).unwrap_err();
        assert!(err.contains("--trace `bogus`"), "{err}");
        let err = parse(&[], &[("DIBS_TRACE", "flight:lots")]).unwrap_err();
        assert!(err.contains("DIBS_TRACE `flight:lots`"), "{err}");
        let err = parse(&["--trace"], &[]).unwrap_err();
        assert!(err.contains("--trace needs a value"), "{err}");
    }

    #[test]
    fn valid_flags_override_env() {
        let env = [
            ("DIBS_SCALE", "full"),
            ("DIBS_SEED", "5"),
            ("DIBS_TRACE", "all"),
            ("DIBS_RESULTS_DIR", "elsewhere"),
        ];
        let from_env = parse(&[], &env).unwrap();
        assert_eq!(from_env.scale, Scale::Full);
        assert_eq!(from_env.master_seed, 5);
        assert_eq!(from_env.trace, Some("all".parse().unwrap()));
        assert_eq!(from_env.out_dir, PathBuf::from("elsewhere"));

        let h = parse(&["--quick", "--seed", "7", "--trace", "detour"], &env).unwrap();
        assert_eq!(h.scale, Scale::Quick);
        assert_eq!(h.master_seed, 7);
        assert_eq!(h.trace, Some("detour".parse().unwrap()));
    }

    #[test]
    fn unknown_flags_only_warn() {
        let h = parse(&["--frobnicate", "--seed", "3"], &[]).unwrap();
        assert_eq!(h.master_seed, 3);
    }

    #[test]
    fn scale_windows_are_ordered() {
        assert!(Scale::Quick.duration() < Scale::Default.duration());
        assert!(Scale::Default.duration() < Scale::Full.duration());
        assert!(Scale::Quick.heavy_duration() < Scale::Full.heavy_duration());
    }
}

#[cfg(test)]
mod finish_tests {
    use super::*;
    use dibs_stats::{ExperimentRecord, SeriesPoint};

    #[test]
    fn finish_writes_json_and_svg() {
        let dir = std::env::temp_dir().join(format!("dibs-bench-test-{}", std::process::id()));
        let h = Harness {
            scale: Scale::Quick,
            out_dir: dir.clone(),
            jobs: 1,
            master_seed: DEFAULT_MASTER_SEED,
            trace: None,
        };
        let mut rec = ExperimentRecord::new("unit_test_record", "t", "x");
        rec.push(SeriesPoint::at(1.0).with("m", 2.0));
        h.finish(&rec);
        let json = dir.join("unit_test_record.json");
        let svg = dir.join("unit_test_record.svg");
        assert!(json.exists());
        assert!(svg.exists());
        let svg_text = std::fs::read_to_string(&svg).unwrap();
        assert!(svg_text.starts_with("<svg"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
