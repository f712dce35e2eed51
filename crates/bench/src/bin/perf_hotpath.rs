//! Hot-path throughput suite: event-queue ops, FIB lookups, the §5.1
//! NetFPGA forward-versus-detour decision, and end-to-end incast
//! simulation rate, emitted as `BENCH_hotpath.json`.
//!
//! This binary seeds the repository's perf trajectory: it pins the pre-PR
//! baseline numbers (measured on the heap-based event queue and the
//! nested-`Vec` FIB at commit `eb3fc25`) next to the current tree's
//! numbers so every future change can be judged against both.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p dibs-bench --bin perf_hotpath            # full suite
//! cargo run --release -p dibs-bench --bin perf_hotpath -- --smoke # CI smoke
//! ```
//!
//! The full suite writes `BENCH_hotpath.json` in the working directory
//! (committed at the repo root); `--smoke` runs a trimmed workload and
//! writes `results/BENCH_hotpath_smoke.json` instead so CI runs never
//! clobber the committed record.

use dibs::presets::testbed_incast_sim;
use dibs::SimConfig;
use dibs_bench::timing::{CaseMeasurement, Group};
use dibs_engine::queue::EventQueue;
use dibs_engine::rng::SimRng;
use dibs_engine::time::{SimDuration, SimTime};
use dibs_json::{Json, ObjBuilder};
use dibs_net::builders::{fat_tree, FatTreeParams};
use dibs_net::ids::{FlowId, HostId, NodeId};
use dibs_net::routing::Fib;
use dibs_switch::lookup::{decide, PortBitmap};
use std::hint::black_box;

/// Pre-PR hot-path baseline, measured at commit `eb3fc25` (binary heap
/// event queue, nested-`Vec` FIB, no ECMP memo) with the same workloads
/// this binary runs. Pinned so the committed `BENCH_hotpath.json` always
/// records both sides of the comparison.
///
/// The shared build machine's absolute throughput drifts by tens of
/// percent across time windows (the same binary has measured anywhere
/// from ~4.9M to ~7.1M baseline events/sec), so absolute rates are only
/// comparable *within* a window. All three baselines below were
/// therefore measured with a paired protocol: a pristine `eb3fc25`
/// worktree ran probes replicating each case's exact workload and
/// measurement statistic (calibrated ~30 ms batches, best of 5)
/// immediately before the suite run that produced the committed
/// `BENCH_hotpath.json`, and a second e2e probe immediately after
/// confirmed the window held (4.81M events/sec). Across 12 paired A/B
/// runs the per-pair e2e speedup ratio ranged 1.45-1.74 while absolute
/// rates drifted, so the committed speedup figure is representative,
/// not a lucky window.
mod baseline {
    /// `e2e/incast_dibs` events per second (paired probe run in the
    /// same window as the committed suite run).
    pub const E2E_INCAST_EVENTS_PER_SEC: f64 = 4_987_516.0;
    /// `event_queue/push_pop_hot` nanoseconds per op.
    pub const QUEUE_PUSH_POP_NS_PER_OP: f64 = 36.40;
    /// `fib/select_port` nanoseconds per lookup.
    pub const FIB_SELECT_NS_PER_LOOKUP: f64 = 12.25;
    /// Commit the numbers were measured at.
    pub const COMMIT: &str = "eb3fc25";
}

struct Suite {
    smoke: bool,
    cases: Vec<CaseMeasurement>,
}

impl Suite {
    fn find(&self, group: &str, case: &str) -> Option<&CaseMeasurement> {
        self.cases
            .iter()
            .find(|m| m.group == group && m.case == case)
    }
}

fn bench_event_queue(s: &mut Suite) {
    let g = Group::new("event_queue");

    // Steady-state churn at a realistic pending-set size (~1k events, the
    // regime an incast run keeps the queue in): one pop + one reschedule
    // per iteration = 2 queue ops.
    {
        let mut q = EventQueue::new();
        for i in 0..1000u64 {
            q.push(SimTime::from_nanos(i * 100), i);
        }
        let mut t = 0u64;
        let m = g.case_rate("push_pop_hot", "ops", || {
            t += 97;
            let (head, _) = q.pop().expect("queue stays nonempty");
            q.push(head + SimDuration::from_nanos(t % 100_000), t);
            black_box(head);
            2
        });
        s.cases.push(m);
    }

    // Bulk fill + drain with scattered timestamps (the schedule-heavy
    // start-of-run regime).
    let n: u64 = if s.smoke { 8_192 } else { 65_536 };
    let cap = usize::try_from(n).expect("fill size fits usize");
    let m = g.case_rate("fill_drain_64k", "ops", move || {
        let mut q = EventQueue::with_capacity(cap);
        for i in 0..n {
            q.push(SimTime::from_nanos((i * 2_654_435_761) % 1_000_000), i);
        }
        while let Some(e) = q.pop() {
            black_box(e);
        }
        2 * n
    });
    s.cases.push(m);
}

fn bench_fib(s: &mut Suite) {
    let g = Group::new("fib");
    let topo = fat_tree(FatTreeParams::paper_default());

    if !s.smoke {
        let m = g.case("compute_k8", || black_box(Fib::compute(&topo)));
        s.cases.push(m);
    }

    let fib = Fib::compute(&topo);
    // Deterministic lookup batch: switch nodes x random (dst, flow).
    let mut rng = SimRng::new(0xF1B);
    let switches = topo.switch_nodes().to_vec();
    let batch: Vec<(NodeId, HostId, FlowId)> = (0..1024)
        .map(|_| {
            let node = switches[rng.below(switches.len())];
            let dst = HostId::from_index(rng.below(topo.num_hosts()));
            let flow = FlowId(u32::try_from(rng.below(4096)).expect("flow id fits u32"));
            (node, dst, flow)
        })
        .collect();
    let lookups = u64::try_from(batch.len()).expect("batch size fits u64");
    let m = g.case_rate("select_port", "lookups", || {
        let mut acc = 0usize;
        for &(node, dst, flow) in &batch {
            acc = acc.wrapping_add(fib.select_port(node, dst, flow).unwrap_or(0));
        }
        black_box(acc);
        lookups
    });
    s.cases.push(m);
}

/// The §5.1 hardware-substitution case: the NetFPGA output-port-lookup
/// stage as a bitmap decision. The paper's claim is that the DIBS detour
/// decision completes in the same clock cycle as the plain lookup; the
/// software model reproduces it when `detour_decision` costs about what
/// `forward_hit` does, a few nanoseconds either way.
fn bench_netfpga(s: &mut Suite) {
    let g = Group::new("netfpga_lookup");
    let desired = PortBitmap::single(3);
    let eligible = PortBitmap::from_ports(4..8);
    for (case, available) in [
        // Desired port has room: plain forwarding.
        ("forward_hit", PortBitmap::from_ports(0..8)),
        // Desired port full: the DIBS detour path (the "extra" logic).
        (
            "detour_decision",
            PortBitmap::from_ports([0, 1, 2, 4, 5, 6, 7]),
        ),
    ] {
        let mut entropy = 0u64;
        let m = g.case(case, || {
            entropy = entropy.wrapping_add(0x9E37_79B9);
            black_box(decide(
                black_box(desired),
                black_box(available),
                black_box(eligible),
                entropy,
            ))
        });
        s.cases.push(m);
    }
}

fn bench_e2e(s: &mut Suite) {
    let g = Group::new("e2e");
    // One full testbed incast per iteration.
    let (senders, bytes) = if s.smoke { (4, 32_000) } else { (10, 32_000) };
    for (name, cfg) in [
        ("incast_dibs", SimConfig::dctcp_dibs()),
        ("incast_droptail", SimConfig::dctcp_baseline()),
    ] {
        let m = g.case_rate(name, "events", || {
            let results = testbed_incast_sim(cfg, 5, senders, bytes).run();
            // The measured path IS the trace-disabled path: the default
            // Tracer::Off must record nothing and attach no report.
            assert!(
                results.trace.is_none(),
                "default build must run with tracing fully disabled"
            );
            black_box(results.events_dispatched)
        });
        s.cases.push(m);
    }
}

/// `--smoke`: compare the just-measured trace-disabled event-loop rate to
/// the committed full-suite record and warn loudly on a >2% shortfall.
///
/// A warning, not a gate: the shared build machine's absolute throughput
/// drifts by tens of percent across time windows (see the `baseline`
/// docs), and smoke runs a trimmed workload (4 senders vs the full
/// suite's 10), so only a paired A/B run on one machine can convict a
/// commit. The warning tells CI eyeballs where to point that protocol.
fn warn_if_smoke_regressed(e2e_rate: f64) {
    const COMMITTED: &str = "BENCH_hotpath.json";
    let Ok(text) = std::fs::read_to_string(COMMITTED) else {
        eprintln!("note: no committed {COMMITTED} here; skipping the smoke rate check");
        return;
    };
    let committed_rate = Json::parse(&text).ok().and_then(|j| {
        j.get("current")
            .and_then(|c| c.get("e2e_incast_events_per_sec").and_then(Json::as_f64))
    });
    let Some(committed_rate) = committed_rate else {
        eprintln!("note: {COMMITTED} has no current.e2e_incast_events_per_sec; skipping");
        return;
    };
    if committed_rate <= 0.0 {
        return;
    }
    let ratio = e2e_rate / committed_rate;
    if ratio < 0.98 {
        eprintln!(
            "\nWARNING: smoke e2e event rate is {ratio:.2}x the committed record\n\
             ({e2e_rate:.0} vs {committed_rate:.0} events/sec in {COMMITTED}).\n\
             This machine's absolute throughput drifts across time windows and\n\
             smoke runs a trimmed incast (4 senders vs 10), so this is a HINT,\n\
             not a verdict. Before reverting anything, run the paired-baseline\n\
             protocol from DESIGN.md §2c: benchmark the suspect commit and its\n\
             parent back-to-back in one window and compare those two numbers."
        );
    } else {
        println!("smoke e2e rate is {ratio:.2}x the committed record (>= 0.98x, ok)");
    }
}

fn report(s: &Suite) -> Json {
    let e2e = s.find("e2e", "incast_dibs").expect("e2e case ran");
    let queue = s.find("event_queue", "push_pop_hot").expect("queue case");
    let fib = s.find("fib", "select_port").expect("fib case");
    let e2e_rate = e2e.items_per_sec();
    let speedup = if baseline::E2E_INCAST_EVENTS_PER_SEC > 0.0 {
        e2e_rate / baseline::E2E_INCAST_EVENTS_PER_SEC
    } else {
        f64::NAN
    };

    let baseline_obj = ObjBuilder::new()
        .field("commit", baseline::COMMIT)
        .field(
            "e2e_incast_events_per_sec",
            baseline::E2E_INCAST_EVENTS_PER_SEC,
        )
        .field(
            "event_queue_push_pop_ns_per_op",
            baseline::QUEUE_PUSH_POP_NS_PER_OP,
        )
        .field(
            "fib_select_port_ns_per_lookup",
            baseline::FIB_SELECT_NS_PER_LOOKUP,
        )
        .build();

    let current_obj = ObjBuilder::new()
        .field("e2e_incast_events_per_sec", e2e_rate)
        .field(
            "event_queue_push_pop_ns_per_op",
            queue.ns_per_iter / queue.items_per_iter,
        )
        .field(
            "fib_select_port_ns_per_lookup",
            fib.ns_per_iter / fib.items_per_iter,
        )
        .build();

    let cases = Json::Arr(s.cases.iter().map(CaseMeasurement::to_json).collect());
    ObjBuilder::new()
        .field("bench", "hotpath")
        .field("mode", if s.smoke { "smoke" } else { "full" })
        .field("baseline", baseline_obj)
        .field("current", current_obj)
        .field("e2e_speedup_vs_baseline", speedup)
        .field("cases", cases)
        .build()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut suite = Suite {
        smoke,
        cases: Vec::new(),
    };

    bench_event_queue(&mut suite);
    bench_fib(&mut suite);
    bench_netfpga(&mut suite);
    bench_e2e(&mut suite);

    let json = report(&suite);
    let path = if smoke {
        let _ = std::fs::create_dir_all("results");
        "results/BENCH_hotpath_smoke.json".to_string()
    } else {
        "BENCH_hotpath.json".to_string()
    };
    match std::fs::write(&path, json.render_pretty()) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("warning: cannot write {path}: {e}"),
    }
    if let Some(speedup) = json.get("e2e_speedup_vs_baseline").and_then(Json::as_f64) {
        if speedup.is_finite() {
            println!("e2e incast speedup vs pre-PR baseline: {speedup:.2}x");
        }
    }
    if smoke {
        if let Some(e2e) = suite.find("e2e", "incast_dibs") {
            warn_if_smoke_regressed(e2e.items_per_sec());
        }
    }
}
