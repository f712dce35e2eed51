//! Byte-mutation fuzz of the boundary parsers: every external input must
//! come back as `Ok` or `Err`, never a panic or an aborted allocation.
//!
//! Mutated copies of `scenarios/*.json` and of [`TIMED`] go through
//! `Scenario::from_json`, `Scenario::sim_config` (which rejects every time
//! field past the nanosecond clock, a sampling period of 0, every traffic
//! rate with no finite, positive mean gap, a target-less incast with no
//! fewer hosts than responders and traffic expected to exceed its flow
//! budget) and
//! `TopologySpec::check` (which
//! rejects a shape too large to build, from its parameters alone);
//! mutated `--fault` and `--trace` strings go through `FaultSpec::parse`
//! and `TraceSpec::parse`. `Scenario::build` is not fuzzed: a mutant
//! that passes these checks may still ask for hours of traffic.
//! Inputs come from `dibs_engine::testkit`, so a failure names an input
//! that replays identically everywhere.

use dibs::{FaultSpec, TraceSpec};
use dibs_cli::Scenario;
use dibs_engine::rng::SimRng;
use dibs_engine::testkit::cases_n;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Mutated inputs per seed input.
const MUTANTS: usize = 5_000;

/// Numbers at the edges of every integer and float type the parsers read.
const NUMBERS: &[&str] = &[
    "0",
    "1",
    "-1",
    "3",
    "88",
    "0.5",
    "1e308",
    "1e999",
    "1e-320",
    "-0",
    "4294967296",
    "18446744073710",
    "18446744073709551615",
    "99999999999999999999",
];

/// Fragments a mutation splices in: JSON structure, spec separators and
/// words the grammars use.
const FRAGMENTS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    "\"",
    ",",
    ":",
    ";",
    "=",
    "-",
    ".",
    "e",
    " ",
    "NaN",
    "\"fat_tree\"",
    "\"k\"",
    "null",
    "true",
    "ms",
    "us",
    "kind=",
    "flight",
    "\u{00e9}",
];

/// Applies one to three random edits: swap a number for an extreme one,
/// overwrite, delete or insert a byte, splice in a fragment, duplicate a
/// span, or truncate.
fn mutate(rng: &mut SimRng, seed: &str) -> String {
    let mut b = seed.as_bytes().to_vec();
    for _ in 0..=rng.below(3) {
        let at = rng.below(b.len() + 1);
        match rng.below(8) {
            0..=1 => {
                // The digit run at or after `at`, if any.
                let Some(start) = (at..b.len()).find(|&i| b[i].is_ascii_digit()) else {
                    continue;
                };
                let end = (start..b.len())
                    .find(|&i| !b[i].is_ascii_digit())
                    .unwrap_or(b.len());
                let num = NUMBERS[rng.below(NUMBERS.len())].as_bytes();
                b.splice(start..end, num.iter().copied());
            }
            2 if at < b.len() => b[at] = u8::try_from(rng.below(256)).expect("below 256"),
            3 if at < b.len() => {
                b.remove(at);
            }
            4 => b.insert(at, b"{}[]\",:;=-.0123456789"[rng.below(21)]),
            5 => {
                let frag = FRAGMENTS[rng.below(FRAGMENTS.len())].as_bytes();
                b.splice(at..at, frag.iter().copied());
            }
            6 if at < b.len() => {
                let end = (at + 1 + rng.below(16)).min(b.len());
                let span = b[at..end].to_vec();
                b.splice(at..at, span);
            }
            _ => b.truncate(at),
        }
    }
    String::from_utf8_lossy(&b).into_owned()
}

/// Runs `f`, turning a panic into a failure that names the input.
fn no_panic(what: &str, input: &str, f: impl FnOnce()) {
    assert!(
        catch_unwind(AssertUnwindSafe(f)).is_ok(),
        "{what} panicked on {input:?}"
    );
}

/// Every stage a scenario file goes through before anything is built.
/// Returns whether the text parsed as a scenario.
fn read_scenario(text: &str) -> bool {
    let mut parsed = false;
    no_panic("scenario reader", text, || {
        if let Ok(s) = Scenario::from_json(text) {
            let _ = s.sim_config();
            let _ = s.topology.check();
            parsed = true;
        }
    });
    parsed
}

/// A seed input with every time field a scenario has, each at the
/// largest value the nanosecond clock holds, so that mutations land on
/// both sides of the limit; `scenarios/*.json` has no `at_ms`,
/// `min_rto_us` or `sample_interval_ms`. Its target-less incast has one
/// responder fewer than the testbed has hosts, the most it may draw.
/// (JSON numbers are `f64`s: 18446744073709548 is the largest one at or
/// below `u64::MAX / 1000`.)
const TIMED: &str = r#"{
  "topology": { "type": "mini_testbed" },
  "overrides": { "min_rto_us": 18446744073709548 },
  "duration_ms": 18446744073709,
  "drain_ms": 0,
  "sample_interval_ms": 18446744073709,
  "workloads": [
    { "type": "background", "interarrival_ms": 18446744073709 },
    { "type": "incast", "target": 0, "degree": 1, "response_bytes": 1, "at_ms": 18446744073709 },
    { "type": "incast", "degree": 5, "response_bytes": 1, "at_ms": 18446744073709 },
    { "type": "flow", "src": 0, "dst": 1, "bytes": 1, "at_ms": 18446744073709 }
  ]
}"#;

fn scenario_seeds() -> Vec<(String, String)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let mut seeds: Vec<(String, String)> = std::fs::read_dir(&dir)
        .expect("read scenarios/")
        .map(|e| e.expect("scenario dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .map(|p| {
            let text = std::fs::read_to_string(&p).expect("read scenario");
            let name = p.file_name().expect("file name").to_string_lossy();
            (name.into_owned(), text)
        })
        .collect();
    seeds.sort();
    assert!(!seeds.is_empty(), "no scenarios/*.json to mutate");
    seeds.push(("timed".into(), TIMED.into()));
    seeds
}

#[test]
fn mutated_scenarios_never_panic() {
    // Fixed case: a fat-tree whose routing tables alone would take 61 GB
    // used to abort the process instead of returning an error.
    let huge = r#"{ "topology": { "type": "fat_tree", "k": 88 }, "workloads": [] }"#;
    let s = Scenario::from_json(huge).expect("well-formed scenario");
    let err = s
        .topology
        .check()
        .expect_err("k=88 exceeds the size budget");
    assert!(err.0.contains("30674417664"), "{err}");
    assert!(read_scenario(huge));
    // Fixed cases: a time past the nanosecond clock overflowed (a debug
    // panic, a wrapped time in release) instead of being rejected.
    for (field, fields) in [
        (
            "duration_ms + drain_ms",
            r#""duration_ms": 18446744073709551615, "workloads": []"#,
        ),
        (
            "duration_ms + drain_ms",
            r#""drain_ms": 18446744073710, "workloads": []"#,
        ),
        (
            "at_ms",
            r#""workloads": [{ "type": "flow", "src": 0, "dst": 1, "bytes": 1, "at_ms": 18446744073709551615 }]"#,
        ),
        (
            "at_ms",
            r#""workloads": [{ "type": "incast", "target": 0, "degree": 1, "response_bytes": 1, "at_ms": 18446744073710 }]"#,
        ),
        (
            "interarrival_ms",
            r#""workloads": [{ "type": "background", "interarrival_ms": 18446744073710 }]"#,
        ),
        (
            "min_rto_us",
            r#""overrides": { "min_rto_us": 18446744073709552 }, "workloads": []"#,
        ),
        (
            "sample_interval_ms",
            r#""sample_interval_ms": 18446744073710, "workloads": []"#,
        ),
    ] {
        let text = format!(r#"{{ "topology": {{ "type": "mini_testbed" }}, {fields} }}"#);
        let s = Scenario::from_json(&text).expect("well-formed scenario");
        let err = s.sim_config().expect_err("the time overflows");
        assert!(
            err.0.contains(&format!("{field} must be at most")),
            "{text}: {err}"
        );
        assert!(read_scenario(&text));
    }
    // Fixed cases: a traffic rate with no finite, positive mean gap
    // tripped an assert in the traffic generators instead of being
    // rejected (1e999 parses to infinity; 1e-320 has an infinite
    // reciprocal).
    let background = r#"{ "type": "background", "interarrival_ms": 0 }"#.to_string();
    let query = |qps: &str| {
        format!(r#"{{ "type": "query", "qps": {qps}, "degree": 1, "response_bytes": 1 }}"#)
    };
    for (field, workload) in [
        ("interarrival_ms must be at least 1 ms", background),
        ("qps must be positive", query("0")),
        ("qps must be positive", query("-1")),
        ("qps must be positive", query("1e999")),
        ("qps must be positive", query("1e-320")),
    ] {
        let text =
            format!(r#"{{ "topology": {{ "type": "mini_testbed" }}, "workloads": [{workload}] }}"#);
        let s = Scenario::from_json(&text).expect("well-formed scenario");
        let err = s.sim_config().expect_err("the rate is rejected");
        assert!(err.0.contains(field), "{text}: {err}");
        no_panic("Scenario::build", &text, || assert!(s.build().is_err()));
    }
    // Fixed cases: traffic expected to need unbounded memory or time was
    // handed to the generators. An incast of 2^64 - 1 responders and
    // 2^64 - 1 long-lived flows per pair aborted the process allocating
    // them; a finite but huge query rate (with responders or without)
    // or background window looped without bound.
    let workload = |json: &str| format!(r#""workloads": [{json}]"#);
    for (field, fields) in [
        (
            "incast degree",
            workload(
                r#"{ "type": "incast", "target": 0, "degree": 18446744073709551615, "response_bytes": 1 }"#,
            ),
        ),
        (
            "long_lived flows_per_pair",
            workload(r#"{ "type": "long_lived", "flows_per_pair": 18446744073709551615 }"#),
        ),
        ("query qps", workload(&query("1e300"))),
        (
            "query qps",
            workload(r#"{ "type": "query", "qps": 1e300, "degree": 0, "response_bytes": 1 }"#),
        ),
        (
            "background interarrival_ms",
            format!(
                r#""duration_ms": 1000000000, {}"#,
                workload(r#"{ "type": "background", "interarrival_ms": 1 }"#)
            ),
        ),
    ] {
        let text = format!(r#"{{ "topology": {{ "type": "mini_testbed" }}, {fields} }}"#);
        let s = Scenario::from_json(&text).expect("well-formed scenario");
        let err = s.sim_config().expect_err("the traffic is over the budget");
        assert!(
            err.0
                .contains(&format!("{field}: the workloads would generate")),
            "{text}: {err}"
        );
        no_panic("Scenario::build", &text, || assert!(s.build().is_err()));
    }
    // Fixed cases: a sampling period of 0 never re-armed the sampler and
    // was silently ignored, and a target-less incast with no fewer hosts
    // than responders panicked drawing distinct responders.
    for (problem, fields) in [
        (
            "sample_interval_ms must be at least 1 ms",
            r#""sample_interval_ms": 0, "workloads": []"#,
        ),
        (
            "incast degree 6 without a target needs more than 6 hosts",
            r#""workloads": [{ "type": "incast", "degree": 6, "response_bytes": 1 }]"#,
        ),
    ] {
        let text = format!(r#"{{ "topology": {{ "type": "mini_testbed" }}, {fields} }}"#);
        let s = Scenario::from_json(&text).expect("well-formed scenario");
        let err = s.sim_config().expect_err("the input is rejected");
        assert!(err.0.contains(problem), "{text}: {err}");
        no_panic("Scenario::build", &text, || assert!(s.build().is_err()));
    }
    // The largest times the clock holds are accepted.
    let s = Scenario::from_json(TIMED).expect("well-formed scenario");
    s.sim_config().expect("the largest times fit");

    for (name, seed) in scenario_seeds() {
        assert!(read_scenario(&seed), "{name} does not parse");
        let mut parsed = 0;
        cases_n(&format!("fuzz/scenario/{name}"), MUTANTS, |rng, _| {
            parsed += usize::from(read_scenario(&mutate(rng, &seed)));
        });
        // Enough mutants get past the JSON reader to reach the later stages.
        assert!(
            parsed > MUTANTS / 20,
            "{name}: only {parsed} mutants parsed"
        );
    }
}

#[test]
fn mutated_fault_specs_never_panic() {
    for seed in [
        "link-down:t=2ms:edge0-aggr1:dur=500us;drop:p=1e-3:kind=detoured",
        "switch-crash:t=5ms:core[0]",
        "corrupt:p=1e-5:kind=data",
        "random:4",
        "off",
    ] {
        cases_n(&format!("fuzz/fault/{seed}"), MUTANTS, |rng, _| {
            let spec = mutate(rng, seed);
            no_panic("FaultSpec::parse", &spec, || {
                let _ = FaultSpec::parse(&spec);
            });
        });
    }
}

#[test]
fn mutated_trace_specs_never_panic() {
    for seed in [
        "all",
        "off",
        "flight:4096:drop,detour",
        "send,ack,ecn-mark,ttl-expire",
    ] {
        cases_n(&format!("fuzz/trace/{seed}"), MUTANTS, |rng, _| {
            let spec = mutate(rng, seed);
            no_panic("TraceSpec::parse", &spec, || {
                let _ = TraceSpec::parse(&spec);
            });
        });
    }
}
