//! Randomized simulation-test soak harness (`simtest`).
//!
//! Each soak *case* is a seeded random draw of a small topology, a small
//! workload, and a fault schedule (timed link flaps, switch crashes, and
//! probabilistic drop/corrupt profiles — see `dibs_fault`). Every case is
//! executed three times:
//!
//! 1. traced, across the parallel [`Executor`](crate::Executor);
//! 2. untraced, sequentially;
//! 3. untraced again, across the parallel executor (re-execution).
//!
//! and four invariants are asserted per case:
//!
//! * **Packet conservation** — `packets_sent == packets_delivered +
//!   total_drops() + packets_in_flight`, even with switches crashing
//!   mid-run and frames cut on downed links.
//! * **TTL bound / no runaway detour loops** — via `dibs-trace` queries:
//!   no packet visits more switches than its initial TTL allows, and
//!   every packet the detour-loop query flags really detoured.
//! * **Clock monotonicity** — trace timestamps never go backwards and the
//!   run never finishes past its horizon.
//! * **Determinism** — the [`RunDigest`] fingerprint is byte-identical
//!   across all three executions (tracing, thread count, and re-execution
//!   are invisible to results).
//!
//! The binary front-end lives in `src/bin/simtest.rs`; `scripts/check.sh
//! --full` runs the smoke tier (64 seeds) on every full check.

use crate::Executor;
use dibs::{FaultSpec, RunDigest, RunResults, SimConfig, Simulation, TraceSpec, Tracer};
use dibs_engine::rng::SimRng;
use dibs_engine::time::SimTime;
use dibs_net::builders::{dumbbell, fat_tree, linear, mini_testbed, single_switch, FatTreeParams};
use dibs_net::ids::HostId;
use dibs_net::topology::{LinkSpec, Topology};
use dibs_trace::{query, TraceKind};
use dibs_workload::{FlowClass, FlowSpec, QuerySpec};

/// Seeded cases in a full soak (the ISSUE's acceptance tier).
pub const DEFAULT_SEEDS: u64 = 256;
/// Seeded cases in the `--smoke` tier run by `scripts/check.sh --full`.
pub const SMOKE_SEEDS: u64 = 64;
/// Master seed the soak derives every case seed from (the same master the
/// workspace determinism tests use).
pub const MASTER_SEED: u64 = 0xD1B5_2014;

/// Soak parameters.
#[derive(Debug, Clone, Copy)]
pub struct SoakConfig {
    /// Number of seeded cases to run.
    pub seeds: u64,
    /// Worker threads for the parallel passes.
    pub jobs: usize,
    /// Master seed; each case's seed is a pure function of this and the
    /// case index.
    pub master_seed: u64,
}

impl SoakConfig {
    /// The full soak at `jobs` workers.
    pub fn full(jobs: usize) -> Self {
        SoakConfig {
            seeds: DEFAULT_SEEDS,
            jobs,
            master_seed: MASTER_SEED,
        }
    }

    /// The smoke tier at `jobs` workers.
    pub fn smoke(jobs: usize) -> Self {
        SoakConfig {
            seeds: SMOKE_SEEDS,
            ..Self::full(jobs)
        }
    }
}

/// One violated invariant.
#[derive(Debug, Clone)]
pub struct SoakFailure {
    /// Label of the case that failed (`simtest/<index> <topology>`).
    pub case: String,
    /// Which invariant was violated.
    pub invariant: &'static str,
    /// Human-readable evidence.
    pub detail: String,
}

impl std::fmt::Display for SoakFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {} — {}", self.case, self.invariant, self.detail)
    }
}

/// Outcome of a whole soak.
#[derive(Debug)]
pub struct SoakReport {
    /// Cases executed (each runs three times).
    pub cases: u64,
    /// Packets injected across all traced runs.
    pub packets_sent: u64,
    /// Packets delivered across all traced runs.
    pub packets_delivered: u64,
    /// Packets destroyed by injected faults across all traced runs.
    pub fault_drops: u64,
    /// Every invariant violation observed.
    pub failures: Vec<SoakFailure>,
}

impl SoakReport {
    /// Whether every invariant held in every case.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The identity of one soak case; everything else is derived from it.
#[derive(Debug, Clone, Copy)]
struct Case {
    index: u64,
    seed: u64,
}

/// One case fully materialized: ready-to-run inputs plus the bounds the
/// invariants check against.
struct Materialized {
    label: String,
    topo: Topology,
    config: SimConfig,
    flows: Vec<FlowSpec>,
    queries: Vec<QuerySpec>,
    faults: FaultSpec,
}

const TOPOLOGY_FAMILIES: usize = 5;

/// Derives a case's topology, workload, and fault schedule from its seed.
/// Pure: called once per execution pass, and every pass must see the
/// identical inputs for the determinism invariant to be meaningful.
fn materialize(case: Case) -> Materialized {
    let mut rng = SimRng::new(case.seed).fork("simtest/gen");
    let gbit = LinkSpec::gbit(1);
    #[allow(clippy::cast_possible_truncation)] // modulo a tiny constant
    let family = (case.index % TOPOLOGY_FAMILIES as u64) as usize;
    let (name, topo) = match family {
        0 => ("single_switch", single_switch(6, gbit)),
        1 => ("linear", linear(3, 2, gbit)),
        2 => ("dumbbell", dumbbell(4, 4, gbit, gbit)),
        3 => ("mini_testbed", mini_testbed(gbit)),
        _ => (
            "fat_tree_k4",
            fat_tree(FatTreeParams {
                k: 4,
                host_link: gbit,
                fabric_link: gbit,
            }),
        ),
    };

    let mut config = SimConfig::dctcp_dibs();
    config.seed = case.seed;
    config.horizon = SimTime::from_millis(30);

    let hosts = topo.num_hosts();
    let mut flows = Vec::new();
    let mut queries = Vec::new();

    // One partition-aggregate incast per case (buffer pressure), degree
    // scaled to the topology.
    let target = HostId::from_index(rng.below(hosts));
    let max_degree = (hosts - 1).min(8);
    let degree = 2.max(rng.below(max_degree) + 1);
    let responders = dibs_workload::distinct_responders(hosts, target, degree, &mut rng);
    queries.push(QuerySpec {
        start: SimTime::from_micros(rng.range_u64(0, 500)),
        target,
        responders,
        response_bytes: 4_000 + 8_000 * rng.range_u64(0, 4),
    });

    // A few background pairs so acks, retransmissions, and cross traffic
    // interleave with the incast.
    for _ in 0..(1 + rng.below(3)) {
        let src = rng.below(hosts);
        let mut dst = rng.below(hosts - 1);
        if dst >= src {
            dst += 1;
        }
        flows.push(FlowSpec {
            start: SimTime::from_micros(rng.range_u64(0, 2_000)),
            src: HostId::from_index(src),
            dst: HostId::from_index(dst),
            size: 2_000 + rng.range_u64(0, 30_000),
            class: FlowClass::Background,
        });
    }

    // Fault schedule: seeded random link flaps, plus (sometimes)
    // probabilistic drop/corrupt profiles and a timed switch crash
    // addressed by its topology name.
    let mut clauses: Vec<String> = vec![format!("random:{}", 1 + rng.below(3))];
    if rng.chance(0.6) {
        let kind = *rng.pick(&["any", "detoured", "data", "ack"]);
        clauses.push(format!("drop:p=1e-3:kind={kind}"));
    }
    if rng.chance(0.3) {
        clauses.push("corrupt:p=5e-4".to_string());
    }
    if rng.chance(0.25) {
        let sw = topo.switch_nodes()[rng.below(topo.num_switches())];
        let name = topo.node(sw).name.clone();
        let t_us = rng.range_u64(2_000, 20_000);
        clauses.push(format!("switch-crash:t={t_us}us:{name}"));
    }
    let spec = clauses.join(";");
    let faults: FaultSpec = spec
        .parse()
        .unwrap_or_else(|e| panic!("generated fault spec `{spec}` must parse: {e}"));

    Materialized {
        label: format!("simtest/{} {}", case.index, name),
        topo,
        config,
        flows,
        queries,
        faults,
    }
}

/// One executed case: the run plus the bounds its invariants check.
struct CaseRun {
    label: String,
    initial_ttl: u8,
    horizon: SimTime,
    results: RunResults,
}

/// Runs one materialized case once. `traced` installs a full-capture
/// tracer so the trace-based invariants can run; results must be
/// byte-identical either way.
fn run_case(case: Case, traced: bool) -> CaseRun {
    let m = materialize(case);
    let initial_ttl = m.config.tcp.initial_ttl;
    let horizon = m.config.horizon;
    let mut sim = Simulation::new(m.topo, m.config);
    sim.add_flows(m.flows);
    sim.add_queries(&m.queries);
    sim.set_faults(&m.faults)
        .unwrap_or_else(|e| panic!("{}: generated fault spec must resolve: {e}", m.label));
    if traced {
        sim.set_tracer(Tracer::from_spec(
            &TraceSpec::parse("all").expect("`all` is a valid trace spec"),
        ));
    }
    CaseRun {
        label: m.label,
        initial_ttl,
        horizon,
        results: sim.run(),
    }
}

/// Invariants 1–3 on one traced run.
fn check_invariants(
    label: &str,
    initial_ttl: u8,
    horizon: SimTime,
    results: &RunResults,
) -> Vec<SoakFailure> {
    let mut failures = Vec::new();
    let fail = |invariant, detail: String| SoakFailure {
        case: label.to_string(),
        invariant,
        detail,
    };

    // 1. Packet conservation.
    let c = &results.counters;
    let accounted = c.packets_delivered + c.total_drops() + results.packets_in_flight;
    if c.packets_sent != accounted {
        failures.push(fail(
            "packet-conservation",
            format!(
                "sent {} != delivered {} + drops {} + in_flight {}",
                c.packets_sent,
                c.packets_delivered,
                c.total_drops(),
                results.packets_in_flight
            ),
        ));
    }

    // 3. Finish bound (checked even without a trace).
    if results.finished_at > horizon {
        failures.push(fail(
            "clock-monotonicity",
            format!(
                "finished at {} ns, past the {} ns horizon",
                results.finished_at.as_nanos(),
                horizon.as_nanos()
            ),
        ));
    }

    let Some(trace) = &results.trace else {
        failures.push(fail(
            "clock-monotonicity",
            "traced run produced no trace report".to_string(),
        ));
        return failures;
    };

    // 3. Trace timestamps never go backwards (full capture preserves
    // dispatch order).
    let mut prev = 0u64;
    for e in &trace.events {
        if e.t_ns < prev {
            failures.push(fail(
                "clock-monotonicity",
                format!("trace time went backwards: {} ns after {} ns", e.t_ns, prev),
            ));
            break;
        }
        prev = e.t_ns;
    }

    // 2. TTL bound: a packet visits a switch queue (Enqueue or Detour) at
    // most once per TTL decrement, so no packet may exceed its initial
    // TTL — detour loops exist but the TTL bound cuts them.
    let mut visits: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    for e in &trace.events {
        if matches!(e.kind, TraceKind::Enqueue | TraceKind::Detour) {
            *visits.entry(e.packet).or_insert(0) += 1;
        }
    }
    for (&pkt, &n) in &visits {
        if n > u64::from(initial_ttl) {
            failures.push(fail(
                "ttl-bound",
                format!("packet {pkt} was queued {n} times but initial TTL is {initial_ttl}"),
            ));
        }
    }

    // 2b. Detour-loop query sanity: every flagged packet really detoured.
    for pkt in query::detour_loop_packets(&trace.events) {
        let lifecycle = query::packet_lifecycle(&trace.events, pkt);
        if !lifecycle.iter().any(|e| e.kind == TraceKind::Detour) {
            failures.push(fail(
                "ttl-bound",
                format!("loop query flagged packet {pkt} which never detoured"),
            ));
        }
    }

    failures
}

/// Runs the full soak: `cfg.seeds` cases × three executions each, and
/// returns every invariant violation found.
pub fn run_soak(cfg: &SoakConfig) -> SoakReport {
    let cases: Vec<Case> = (0..cfg.seeds)
        .map(|i| Case {
            index: i,
            seed: dibs::RunDescriptor::new("simtest", "fault-soak", i, 0).seed(cfg.master_seed),
        })
        .collect();

    // Pass 1: traced, parallel. Invariants 1–3 run on these results.
    let traced = Executor::new(cfg.jobs).map(cases.clone(), |c| {
        let run = run_case(c, true);
        let fp = RunDigest::of(&run.results).fingerprint();
        let failures = check_invariants(&run.label, run.initial_ttl, run.horizon, &run.results);
        (
            run.label,
            fp,
            failures,
            run.results.counters.packets_sent,
            run.results.counters.packets_delivered,
            run.results.counters.drops_fault,
        )
    });

    // Pass 2: untraced, sequential — the digest baseline.
    let sequential = Executor::sequential().map(cases.clone(), |c| {
        let run = run_case(c, false);
        (run.label, RunDigest::of(&run.results).fingerprint())
    });

    // Pass 3: untraced, parallel re-execution.
    let reexecuted = Executor::new(cfg.jobs).map(cases, |c| {
        RunDigest::of(&run_case(c, false).results).fingerprint()
    });

    let mut report = SoakReport {
        cases: cfg.seeds,
        packets_sent: 0,
        packets_delivered: 0,
        fault_drops: 0,
        failures: Vec::new(),
    };
    for (((label, fp, failures, sent, delivered, faulted), (label2, fp_seq)), fp_re) in
        traced.into_iter().zip(sequential).zip(reexecuted)
    {
        debug_assert_eq!(label, label2, "executor must preserve input order");
        report.packets_sent += sent;
        report.packets_delivered += delivered;
        report.fault_drops += faulted;
        report.failures.extend(failures);
        // 4. Determinism across tracing, thread count, and re-execution.
        if fp != fp_seq || fp != fp_re {
            report.failures.push(SoakFailure {
                case: label,
                invariant: "determinism",
                detail: format!(
                    "digest diverged: traced/parallel {fp:#018x}, \
                     untraced/sequential {fp_seq:#018x}, re-executed {fp_re:#018x}"
                ),
            });
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_soak_holds_all_invariants() {
        let report = run_soak(&SoakConfig {
            seeds: 10,
            jobs: 2,
            master_seed: MASTER_SEED,
        });
        assert!(
            report.ok(),
            "soak failures:\n{}",
            report
                .failures
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert_eq!(report.cases, 10);
        assert!(report.packets_sent > 0);
        assert!(report.packets_delivered > 0);
    }

    #[test]
    fn cases_cover_every_topology_family_and_inject_faults() {
        // Over a handful of consecutive indices the generator must hit
        // every topology family and produce at least one fault drop
        // somewhere (probabilistic profiles plus random flaps make a
        // fault-free 10-case soak astronomically unlikely).
        let report = run_soak(&SoakConfig {
            seeds: 10,
            jobs: 1,
            master_seed: MASTER_SEED,
        });
        assert!(report.fault_drops > 0, "no injected fault ever dropped");
    }
}
