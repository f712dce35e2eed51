//! End-to-end and per-layer benchmark of the DIBS simulator.
//!
//! ```text
//! dibs-perfbench --workload <paper|droptail> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run derives [`INPUTS`] simulations of the workload from `--seed`
//! and simulates them round after round until `--seconds` have passed
//! (every simulation at least twice). Every simulation is checked: packets
//! are conserved, a flow counts as complete exactly when all its bytes
//! arrived, and a repeated simulation reproduces its first run's digest
//! exactly.
//!
//! With `--trace 0` it reports what a user of the simulator waits for,
//! with tracing off: host wall time per simulation, the simulated packets
//! delivered per host second, and the set-up time before a run. Each
//! simulation's time is the fastest of its repeats (see [`fastest`]). With
//! `--trace 1` it also runs every simulation with full tracing, checks the
//! trace against the simulator's counters, and reports per-layer host
//! times: topology construction, routing lookups replayed alone on the
//! run's own lookup stream (see `layers.rs`), simulation set-up, the run,
//! its cost per dispatched event, the digest, and the tracing overhead.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod layers;
mod workload;

use dibs::{RunDigest, RunResults, TraceSpec, Tracer};
use dibs_net::routing::Fib;
use dibs_net::topology::Topology;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::Workload;

/// Distinct simulations per run. Each carries 50 ms of Poisson traffic
/// with heavy-tailed flow sizes, so a run averages over many of them.
const INPUTS: usize = 144;
/// Every simulation runs at least twice, so determinism is always checked.
/// A traced round already runs each simulation twice, untraced and traced.
const MIN_ROUNDS: usize = 2;
/// Replays of the routing lookup stream per traced simulation.
const FIB_REPLAYS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::find(&value).ok_or_else(|| {
                    let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                    bad(&format!("expected one of {}", names.join(", ")))
                })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&s: &u64| s > 0)
                        .ok_or_else(|| bad("expected a positive integer"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One simulation and everything measured on it.
#[derive(Default)]
struct Case {
    seed: u64,
    /// Digest fingerprint of its first run; later runs must match it.
    digest: Option<u64>,
    events: u64,
    delivered: u64,
    fast_retransmits: u64,
    timeouts: u64,
    detours: u64,
    drops: u64,
    /// Host time of each span, one sample per round.
    setup_s: Vec<f64>,
    run_s: Vec<f64>,
    topology_s: Vec<f64>,
    traced_run_s: Vec<f64>,
    digest_s: Vec<f64>,
    fib_ns: Vec<f64>,
}

impl Case {
    /// Checks one run's results and records its digest.
    fn check(&mut self, results: &RunResults) -> Result<(), String> {
        let c = &results.counters;
        let accounted = c.packets_delivered + c.total_drops() + results.packets_in_flight;
        if c.packets_sent != accounted {
            return Err(format!(
                "{} packets sent but {accounted} delivered, dropped or in flight",
                c.packets_sent
            ));
        }
        // A flow completes exactly when its receiver has every byte. Heavy
        // background flows may still be running at the horizon.
        if let Some((i, f)) = results
            .flows
            .iter()
            .enumerate()
            .find(|(_, f)| f.fct.is_some() != (f.bytes_delivered >= f.size))
        {
            return Err(format!(
                "flow {i} delivered {} of {} bytes but its completion is {:?}",
                f.bytes_delivered, f.size, f.fct
            ));
        }
        let started = Instant::now();
        let digest = RunDigest::of(results).fingerprint();
        self.digest_s.push(started.elapsed().as_secs_f64());
        match self.digest {
            Some(first) if first != digest => {
                return Err(format!("digest {digest:016x} differs from {first:016x}"));
            }
            _ => self.digest = Some(digest),
        }
        self.events = results.events_dispatched;
        self.delivered = c.packets_delivered;
        self.fast_retransmits = c.fast_retransmits;
        self.timeouts = c.rto_timeouts;
        self.detours = c.detours;
        self.drops = c.total_drops();
        Ok(())
    }
}

/// Times `f`, returning its result and the elapsed host seconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The fastest of one case's repeated timings. Other tenants of the
/// machine only ever add time, in bursts, so the fastest repeat is the
/// steadiest estimate of what the code itself costs.
fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Mean over the cases of each case's fastest sample.
fn mean_of_fastest(cases: &[Case], samples: impl Fn(&Case) -> &[f64]) -> f64 {
    cases.iter().map(|c| fastest(samples(c))).sum::<f64>() / cases.len() as f64
}

/// Builds and runs one case untraced, recording set-up and run time.
fn run_plain(w: &Workload, case: &mut Case) -> Result<(), String> {
    let (sim, setup_s) = timed(|| w.build(case.seed));
    let (results, run_s) = timed(|| sim.run());
    case.setup_s.push(setup_s);
    case.run_s.push(run_s);
    case.check(&results)
}

/// Runs one case untraced and traced, timing each call into the
/// simulator separately, checks the trace against the counters, and times
/// the routing layer alone on the run's own lookup stream.
fn run_traced(w: &Workload, case: &mut Case, topo: &Topology, fib: &Fib) -> Result<(), String> {
    run_plain(w, case)?;
    let (_, topology_s) = timed(workload::topology);
    case.topology_s.push(topology_s);

    let mut sim = w.build(case.seed);
    sim.set_tracer(Tracer::from_spec(
        &TraceSpec::parse("all").expect("`all` is a valid trace spec"),
    ));
    let (results, traced_run_s) = timed(|| sim.run());
    case.traced_run_s.push(traced_run_s);
    // Tracing must not change what is simulated.
    case.check(&results)?;
    let report = results
        .trace
        .as_ref()
        .ok_or("traced run returned no trace")?;
    let (by_kind, lookups) = layers::analyse(&report.events, topo, &results);
    layers::consistent(&by_kind, &results)?;
    let fib_ns: Vec<f64> = (0..FIB_REPLAYS)
        .map(|_| layers::fib_replay(fib, &lookups))
        .collect();
    case.fib_ns.push(median(&fib_ns));
    Ok(())
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn end_to_end(cases: &[Case]) -> Vec<Metric> {
    let run_s: f64 = cases.iter().map(|c| fastest(&c.run_s)).sum();
    let delivered: u64 = cases.iter().map(|c| c.delivered).sum();
    let setups: Vec<f64> = cases.iter().map(|c| fastest(&c.setup_s)).collect();
    vec![
        Metric {
            name: "wall_ms",
            value: 1e3 * run_s / cases.len() as f64,
            unit: "ms",
        },
        Metric {
            name: "packets_per_s",
            value: delivered as f64 / run_s,
            unit: "1/s",
        },
        Metric {
            name: "setup_s",
            value: median(&setups),
            unit: "s",
        },
    ]
}

fn per_layer(cases: &[Case]) -> Vec<Metric> {
    let run_ms = 1e3 * mean_of_fastest(cases, |c| &c.run_s);
    let events: u64 = cases.iter().map(|c| c.events).sum();
    let traced_ms = 1e3 * mean_of_fastest(cases, |c| &c.traced_run_s);
    vec![
        Metric {
            name: "net_topology_ms",
            value: 1e3 * mean_of_fastest(cases, |c| &c.topology_s),
            unit: "ms",
        },
        Metric {
            name: "net_fib_lookup_ns",
            value: mean_of_fastest(cases, |c| &c.fib_ns),
            unit: "ns",
        },
        Metric {
            name: "core_build_ms",
            value: 1e3 * mean_of_fastest(cases, |c| &c.setup_s),
            unit: "ms",
        },
        Metric {
            name: "core_run_ms",
            value: run_ms,
            unit: "ms",
        },
        Metric {
            name: "core_ns_per_event",
            value: 1e6 * run_ms * cases.len() as f64 / events as f64,
            unit: "ns",
        },
        Metric {
            name: "core_digest_ms",
            value: 1e3 * mean_of_fastest(cases, |c| &c.digest_s),
            unit: "ms",
        },
        Metric {
            name: "trace_run_ms",
            value: traced_ms,
            unit: "ms",
        },
        Metric {
            name: "trace_overhead_pct",
            value: 100.0 * (traced_ms / run_ms - 1.0),
            unit: "%",
        },
    ]
}

fn render(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "{} is {}", m.name, m.value);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dibs-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let topo = workload::topology();
    let fib = Fib::compute(&topo);
    let mut cases: Vec<Case> = workload::seeds(args.seed, INPUTS)
        .into_iter()
        .map(|seed| Case {
            seed,
            ..Case::default()
        })
        .collect();

    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let min_rounds = if args.trace { 1 } else { MIN_ROUNDS };
    let mut rounds = 0;
    'rounds: while rounds < min_rounds || started.elapsed() < budget {
        for (i, case) in cases.iter_mut().enumerate() {
            if rounds >= min_rounds && started.elapsed() >= budget {
                break 'rounds;
            }
            attempted += 1;
            let outcome = if args.trace {
                run_traced(&w, case, &topo, &fib)
            } else {
                run_plain(&w, case)
            };
            if let Err(e) = outcome {
                failed += 1;
                eprintln!("dibs-perfbench: {} simulation {i}: {e}", w.name);
            }
        }
        rounds += 1;
    }
    let total = |f: fn(&Case) -> u64| cases.iter().map(f).sum::<u64>();
    eprintln!(
        "dibs-perfbench: {} seed {}: {rounds} rounds of {INPUTS} simulations in {:.1} s; \
         per round {} events, {} packets delivered, {} dropped, {} detoured, \
         {} RTO timeouts, {} fast retransmits",
        w.name,
        args.seed,
        started.elapsed().as_secs_f64(),
        total(|c| c.events),
        total(|c| c.delivered),
        total(|c| c.drops),
        total(|c| c.detours),
        total(|c| c.timeouts),
        total(|c| c.fast_retransmits),
    );

    let metrics = if failed > 0 {
        Vec::new()
    } else if args.trace {
        per_layer(&cases)
    } else {
        end_to_end(&cases)
    };
    println!("{}", render(failed == 0, attempted, failed, &metrics));
    ExitCode::SUCCESS
}
