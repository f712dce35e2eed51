//! The experiment table: every figure and table of the evaluation as one
//! row of data, run by one driver (`sweep <id>`).
//!
//! A row names the figure and its fixed parameters and is one of two
//! kinds. A **sweep** (Figs 7–16, §5.5–§5.6 and the §6/§7 ablations) gives
//! the point's base [`Scenario`] (the value `dibs-sim` reads from JSON) at
//! each swept x, the arms compared at each x (DCTCP, DIBS, and sometimes
//! infinite buffers, pFabric, PFC, packet-level ECMP or other detour
//! policies) as a scheme plus overrides layered over the base, and the
//! columns reported per point. All arms at a point share one seed, so they
//! see identical traffic. A **probe** (Figs 1–6) lists labelled scenarios,
//! each with its own seed, and measures the record from the finished runs;
//! Figs 1–2 run under a default trace spec that `--trace` overrides, and
//! return their human-readable extras as text for `sweep` to print. Every
//! run takes one path: [`Scenario::build`], the optional tracer, the
//! harness's executor and [`timing::note_run`].

use crate::{timing, Harness, Scale};
use dibs::{RunDescriptor, RunResults, TraceReport, Tracer};
use dibs_cli::scenario::{Overrides, Scenario, Scheme, TopologySpec, WorkloadSpec};
use dibs_engine::rng::SimRng;
use dibs_engine::time::SimDuration;
use dibs_net::ids::{HostId, NodeId};
use dibs_net::routing::Fib;
use dibs_net::topology::SwitchLayer;
use dibs_stats::{ExperimentRecord, Samples, SeriesPoint};
use dibs_trace::{delivered_path, OccupancyTracker, TraceKind};
use dibs_workload::matrices::{hot_fraction_relative, link_utilization, WorkloadFamily};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// A row's scenario at one point, from `(x, seed, scale)`: the topology,
/// window, workloads and overrides all of the point's arms share.
type Base = fn(f64, u64, Scale) -> Scenario;

/// Reads one number out of a finished run. Takes `&mut` because the
/// percentile accessors sort their samples lazily.
type Metric = fn(&mut RunResults) -> f64;

/// One configuration compared at every x of a row: a scheme, plus
/// overrides layered over the point's base scenario.
struct Arm {
    /// Name the row's columns refer to.
    name: &'static str,
    /// The arm's base scheme.
    scheme: Scheme,
    /// Overrides that win over the base scenario's.
    overrides: Overrides,
}

/// One reported value per point: `metric` applied to arm `arm`'s run.
#[derive(Clone)]
struct Column {
    /// Metric name in the record.
    name: String,
    /// Name of the arm whose run the metric reads.
    arm: &'static str,
    /// The metric.
    metric: Metric,
}

/// The scale-dependent window a row records among its params: the
/// param's name and its length in milliseconds at a scale.
type Window = fn(Scale) -> (&'static str, u64);

/// `duration_ms`: [`Scale::duration`].
const MIXED: Window = |s| ("duration_ms", ms(s.duration()));
/// `duration_ms`: [`Scale::heavy_duration`].
const HEAVY: Window = |s| ("duration_ms", ms(s.heavy_duration()));
/// `horizon_ms`: the fairness run length.
const FAIRNESS: Window = |s| ("horizon_ms", fairness_horizon_ms(s));

/// One figure or table as data.
pub struct Row {
    /// Record id, also the `sweep <id>` argument.
    id: &'static str,
    /// Human title.
    title: &'static str,
    /// Name of the record's x axis.
    x_label: &'static str,
    /// Fixed parameters, as recorded.
    params: &'static [(&'static str, &'static str)],
    /// The scale-dependent window param, if the row has one.
    window: Option<Window>,
    /// What the row runs.
    kind: Kind,
}

/// The two kinds of row.
enum Kind {
    /// Arms compared at every swept x.
    Sweep(Sweep),
    /// Labelled runs measured together.
    Probe {
        /// The scenarios to run.
        runs: Runs,
        /// Trace spec every run is captured under unless `--trace` says
        /// otherwise; `None` runs untraced.
        trace: Option<&'static str>,
        /// The record from the finished runs.
        measure: Measure,
    },
}

/// A parameter sweep: arms compared at every x.
struct Sweep {
    /// Swept values: whole, non-negative and distinct, because each one
    /// names its point's seed.
    xs: &'static [f64],
    /// The scenario at each x, before an arm's scheme and overrides.
    base: Base,
    /// Configurations compared at each x.
    arms: Vec<Arm>,
    /// Values reported at each x.
    columns: Vec<Column>,
}

impl Sweep {
    /// The scenario arm `arm` runs at `x`: the point's base scenario under
    /// the arm's scheme, with the arm's overrides layered on top.
    fn scenario(&self, x: f64, arm: &Arm, seed: u64, scale: Scale) -> Scenario {
        let base = (self.base)(x, seed, scale);
        let overrides = arm.overrides.clone().over(&base.overrides);
        Scenario {
            scheme: arm.scheme,
            overrides,
            ..base
        }
    }
}

/// A probe's runs, from `(row id, scale, master seed)`: labelled
/// scenarios, each carrying its own seed. Labels may repeat (replicates).
type Runs = fn(&'static str, Scale, u64) -> Vec<(&'static str, Scenario)>;

/// Pushes a probe's points and run-dependent params onto its record from
/// the finished runs.
type Measure = fn(&Harness, Finished, &mut ExperimentRecord) -> Text;

/// A probe's human-readable text, or why its runs make no figure.
type Text = Result<String, String>;

/// A probe's finished runs, labelled, in the order [`Runs`] listed them.
type Finished = Vec<(&'static str, RunResults)>;

/// A probe row's kind.
fn probe(runs: Runs, trace: Option<&'static str>, measure: Measure) -> Kind {
    Kind::Probe {
        runs,
        trace,
        measure,
    }
}

/// Runs `row` through the harness's executor and returns its record for
/// [`Harness::finish`] and the text to print above it, or why a probe's
/// runs make no figure (then nothing should be written).
///
/// # Panics
///
/// Panics if a scenario does not build; the table tests check every
/// scenario's topology and configuration at every scale.
pub fn run(row: &Row, h: &Harness) -> Result<(ExperimentRecord, String), String> {
    let mut rec = ExperimentRecord::new(row.id, row.title, row.x_label);
    for (key, value) in row.params {
        rec.param(key, value);
    }
    if let Some(window) = row.window {
        let (key, ms) = window(h.scale);
        rec.param(key, ms);
    }
    let (scale, master) = (h.scale, h.master_seed);
    match &row.kind {
        Kind::Sweep(sweep) => {
            let runs: Vec<(f64, &Arm)> = sweep
                .xs
                .iter()
                .flat_map(|&x| sweep.arms.iter().map(move |arm| (x, arm)))
                .collect();
            let values = h.executor().map(runs, |(x, arm)| {
                let seed = point_seed(row.id, whole(x), 0, master);
                let scenario = sweep.scenario(x, arm, seed, scale);
                let mut results =
                    simulate(&scenario, None, &format!("{} x={x} {}", row.id, arm.name));
                sweep
                    .columns
                    .iter()
                    .filter(|c| c.arm == arm.name)
                    .map(|c| (c.name.as_str(), (c.metric)(&mut results)))
                    .collect::<Vec<_>>()
            });
            for (&x, point) in sweep.xs.iter().zip(values.chunks(sweep.arms.len())) {
                let point = point.iter().flatten();
                rec.push(point.fold(SeriesPoint::at(x), |p, &(name, v)| p.with(name, v)));
            }
            Ok((rec, String::new()))
        }
        Kind::Probe {
            runs: scenarios,
            trace,
            measure,
        } => {
            let runs = h
                .executor()
                .map(scenarios(row.id, scale, master), |(label, scenario)| {
                    let tracer = trace.map(|spec| h.tracer_or(spec));
                    let what = format!("{} {label}", row.id);
                    (label, simulate(&scenario, tracer, &what))
                });
            for (_, results) in &runs {
                h.export_trace(row.id, results);
            }
            let text = measure(h, runs, &mut rec)?;
            Ok((rec, text))
        }
    }
}

/// The one path every run takes: builds `scenario`, installs `tracer` if
/// given, runs it and credits it to the throughput meter. `what` names
/// the run in the panic of a scenario that does not build.
fn simulate(scenario: &Scenario, tracer: Option<Tracer>, what: &str) -> RunResults {
    let mut sim = scenario.build().unwrap_or_else(|e| panic!("{what}: {e}"));
    if let Some(tracer) = tracer {
        sim.set_tracer(tracer);
    }
    let results = sim.run();
    timing::note_run(&results);
    results
}

/// The seed all runs at point `x`, replicate `replicate` of row `id` share.
fn point_seed(id: &str, x: u64, replicate: u64, master: u64) -> u64 {
    RunDescriptor::new(id, "paired", x, replicate).paired_seed(master)
}

/// A sweep x as the integer it is. The table tests check that every x is
/// whole, non-negative and far below 2^53, so the conversion is exact.
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
fn whole(x: f64) -> u64 {
    x as u64
}

/// [`whole`] as a count or index.
fn count(x: f64) -> usize {
    usize::try_from(whole(x)).unwrap_or(usize::MAX)
}

/// The ids of every row, in table order.
pub fn ids() -> Vec<&'static str> {
    table().iter().map(|s| s.id).collect()
}

/// The row named `id`, or an error listing the valid ids.
pub fn find(id: &str) -> Result<Row, String> {
    table()
        .into_iter()
        .find(|s| s.id == id)
        .ok_or_else(|| format!("unknown sweep id `{id}`; valid ids: {}", ids().join(", ")))
}

// ---- scenarios and arms -----------------------------------------------------

/// Table 2's bold defaults, as a row records them among its params.
const QPS: (&str, &str) = ("qps", "300");
const DEGREE: (&str, &str) = ("incast_degree", "40");
const RESPONSE: (&str, &str) = ("response_kb", "20");
const BG: (&str, &str) = ("bg_interarrival_ms", "120");

/// The paper's K=8 fat-tree (128 hosts).
const K8: TopologySpec = TopologySpec::FatTree {
    k: 8,
    oversubscription: 1,
};

/// `d` in whole milliseconds; every scale window is whole.
fn ms(d: SimDuration) -> u64 {
    d.as_nanos() / 1_000_000
}

/// Table 2 traffic: background flows every `bg_ms` per host plus `qps`
/// queries of `degree` responses of `kb` KB each.
fn traffic(bg_ms: u64, qps: f64, degree: usize, kb: u64) -> Vec<WorkloadSpec> {
    vec![
        WorkloadSpec::Background {
            interarrival_ms: bg_ms,
        },
        WorkloadSpec::Query {
            qps,
            degree,
            response_bytes: kb * 1000,
        },
    ]
}

/// The Table 2 mixed workload (bold defaults) on the K=8 fat-tree at this
/// scale's window, under the point's `seed`.
fn table2(seed: u64, scale: Scale) -> Scenario {
    Scenario {
        seed,
        topology: K8,
        scheme: Scheme::Dctcp,
        overrides: Overrides::default(),
        duration_ms: ms(scale.duration()),
        drain_ms: ms(scale.drain()),
        sample_interval_ms: None,
        workloads: traffic(120, 300.0, 40, 20),
    }
}

/// [`table2`] at `qps` queries per second.
fn at_rate(qps: f64, seed: u64, scale: Scale) -> Scenario {
    Scenario {
        workloads: traffic(120, qps, 40, 20),
        ..table2(seed, scale)
    }
}

/// The heavy-background (10 ms inter-arrival) workload of Figs 12–13, on
/// the short window that keeps it tractable.
fn heavy_background(seed: u64, scale: Scale) -> Scenario {
    Scenario {
        duration_ms: ms(scale.heavy_duration()),
        workloads: traffic(10, 300.0, 40, 20),
        ..table2(seed, scale)
    }
}

/// The extreme-load window of Figs 14–15: short, with a generous drain
/// (under collapse, completions trickle in late).
fn extreme(seed: u64, scale: Scale) -> Scenario {
    Scenario {
        duration_ms: ms(scale.heavy_duration()),
        drain_ms: 2 * ms(scale.drain()),
        ..table2(seed, scale)
    }
}

/// One incast at time 0 of `degree` responses of `bytes` each into host
/// `target` (drawn from the seed with distinct responders when `None`),
/// under `scheme` with nothing else running, for 5 s.
fn lone_incast(
    seed: u64,
    scheme: Scheme,
    topology: TopologySpec,
    target: Option<u32>,
    degree: usize,
    bytes: u64,
) -> Scenario {
    Scenario {
        seed,
        topology,
        scheme,
        overrides: Overrides::default(),
        duration_ms: 0,
        drain_ms: 5000,
        sample_interval_ms: None,
        workloads: vec![WorkloadSpec::Incast {
            target,
            degree,
            response_bytes: bytes,
            at_ms: 0,
        }],
    }
}

/// Length of each §5.6 fairness run, in milliseconds.
fn fairness_horizon_ms(scale: Scale) -> u64 {
    match scale {
        Scale::Quick => 120,
        Scale::Default => 250,
        Scale::Full => 500,
    }
}

/// `pkts`-packet static per-port buffers, with the DCTCP marking threshold
/// kept below the buffer limit.
fn per_port_buffer(pkts: f64) -> Overrides {
    let pkts = count(pkts);
    Overrides {
        buffer_packets: Some(pkts),
        ecn_threshold: Some(20.min(pkts.saturating_sub(1).max(1))),
        ..Overrides::default()
    }
}

/// An arm named `name`: `scheme` with no overrides of its own.
fn plain(name: &'static str, scheme: Scheme) -> Arm {
    Arm {
        name,
        scheme,
        overrides: Overrides::default(),
    }
}

/// The paper's paired comparison: a `dctcp` and a `dibs` arm.
fn paired() -> Vec<Arm> {
    vec![
        plain("dctcp", Scheme::Dctcp),
        plain("dibs", Scheme::DctcpDibs),
    ]
}

/// DIBS under the detour policy `policy` (a scenario `dibs_policy`).
fn policy(name: &'static str, policy: &str) -> Arm {
    Arm {
        name,
        scheme: Scheme::DctcpDibs,
        overrides: Overrides {
            dibs_policy: Some(policy.into()),
            ..Overrides::default()
        },
    }
}

// ---- metrics and columns --------------------------------------------------

const QCT_P99: (&str, Metric) = ("qct_p99_ms", |r| r.qct_p99_ms().unwrap_or(f64::NAN));
const BG_FCT_P99: (&str, Metric) = ("bg_fct_p99_ms", |r| r.bg_fct_p99_ms().unwrap_or(f64::NAN));
const DROPS: (&str, Metric) = ("drops", |r| r.counters.total_drops() as f64);
const DETOURS: (&str, Metric) = ("detours", |r| r.counters.detours as f64);
const DONE_FRAC: (&str, Metric) = ("qct_done_frac", |r| r.query_completion_rate());

/// A column named `name` reading `metric` off arm `arm`.
fn col(name: &str, arm: &'static str, metric: Metric) -> Column {
    Column {
        name: name.to_string(),
        arm,
        metric,
    }
}

/// One `{metric}_{arm}` column per metric per arm.
fn per_arm(arms: &[&'static str], metrics: &[(&str, Metric)]) -> Vec<Column> {
    metrics
        .iter()
        .flat_map(|&(metric, f)| {
            arms.iter()
                .map(move |&arm| col(&format!("{metric}_{arm}"), arm, f))
        })
        .collect()
}

/// The paper's headline comparison: p99 QCT, p99 short-background FCT and
/// drops for `dctcp` and `dibs`, plus the fraction of packets DIBS
/// detoured.
fn headline(extra: Vec<Column>) -> Vec<Column> {
    let mut columns = per_arm(&["dctcp", "dibs"], &[QCT_P99, BG_FCT_P99, DROPS]);
    columns.push(col("detoured_frac_dibs", "dibs", |r| {
        r.counters.detoured_fraction()
    }));
    columns.extend(extra);
    columns
}

// ---- probes -----------------------------------------------------------------

/// The Fig 1/2 run: DIBS under one incast of 100 distinct 20 KB responses
/// into a random target of the K=8 fat-tree.
fn detour_incast(id: &'static str, _: Scale, master: u64) -> Vec<(&'static str, Scenario)> {
    let seed = RunDescriptor::new(id, "dibs", 0, 0).seed(master);
    let incast = lone_incast(seed, Scheme::DctcpDibs, K8, None, 100, 20_000);
    vec![("dibs", incast)]
}

/// The Fig 4/5 runs: the Table 2 mix under DIBS at 300, 2000 and 10000 qps
/// on the heavy window with the 1 ms sampler on, each seeded as a point at
/// x = qps.
fn sampled_mixed(id: &'static str, scale: Scale, master: u64) -> Vec<(&'static str, Scenario)> {
    [("baseline", 300), ("heavy", 2000), ("extreme", 10_000)]
        .into_iter()
        .map(|(label, qps)| {
            let scenario = Scenario {
                scheme: Scheme::DctcpDibs,
                duration_ms: ms(scale.heavy_duration()),
                sample_interval_ms: Some(1),
                ..at_rate(qps as f64, point_seed(id, qps, 0, master), scale)
            };
            (label, scenario)
        })
        .collect()
}

/// Fig 6 repetitions per configuration.
fn testbed_reps(scale: Scale) -> u64 {
    if scale == Scale::Quick {
        10
    } else {
        50
    }
}

/// The Fig 6 runs: on the §5.2 testbed, host 5 receives 10 flows of 32 KB
/// from each of the other 5 hosts under infinite buffers, droptail
/// 100-packet buffers and DIBS. Repetition r has the same seed in every
/// configuration, so all three see identical incasts.
fn testbed_runs(id: &'static str, scale: Scale, master: u64) -> Vec<(&'static str, Scenario)> {
    let mut runs = Vec::new();
    for (label, scheme, buffer_packets) in [
        ("infinite_buf", Scheme::Dctcp, Some(0)),
        ("droptail_100", Scheme::Dctcp, None),
        ("dibs", Scheme::DctcpDibs, None),
    ] {
        for r in 0..testbed_reps(scale) {
            let seed = point_seed(id, 0, r, master);
            let mut incast =
                lone_incast(seed, scheme, TopologySpec::MiniTestbed, Some(5), 50, 32_000);
            incast.overrides.buffer_packets = buffer_packets;
            runs.push((label, incast));
        }
    }
    runs
}

/// One point per x of `xs`: for each named sample set, the fraction of
/// its samples at or below x (0 when it has none).
fn cdf_rows<S: AsRef<[f64]>>(rec: &mut ExperimentRecord, xs: &[f64], sets: &[(String, S)]) {
    for &x in xs {
        rec.push(sets.iter().fold(SeriesPoint::at(x), |p, (name, s)| {
            let s = s.as_ref();
            let below = s.iter().filter(|&&v| v <= x).count();
            p.with(name, below as f64 / s.len().max(1) as f64)
        }));
    }
}

/// The one run of a traced probe and its capture.
fn captured<'a>(runs: &'a Finished, id: &str) -> Result<(&'a RunResults, &'a TraceReport), String> {
    runs.first()
        .and_then(|(_, r)| Some((r, r.trace.as_ref()?)))
        .ok_or_else(|| format!("{id}: tracer captured nothing (was --trace off?); no figure"))
}

/// Fig 1: the most-detoured delivered packet's hop sequence and the
/// arc-weight summary the paper draws (how often each directed arc was
/// traversed, with detour arcs flagged), rebuilt from the capture.
fn detour_path(_: &Harness, runs: Finished, rec: &mut ExperimentRecord) -> Text {
    let (results, trace) = captured(&runs, &rec.id)?;
    let events = &trace.events;
    // Delivered packets that detoured, in delivery order; the last of the
    // most-detoured ones is the figure's packet.
    let detoured: Vec<_> = events
        .iter()
        .filter(|e| e.kind == TraceKind::Deliver && e.detours > 0)
        .collect();
    let Some(delivery) = detoured.iter().max_by_key(|e| e.detours) else {
        return Err(format!(
            "{}: no delivered packet detoured; raise the degree",
            rec.id
        ));
    };
    let Some(path) = delivered_path(events, delivery.packet) else {
        return Err(format!(
            "{}: no emission of packet {}",
            rec.id, delivery.packet
        ));
    };
    let topo = K8.build(0).map_err(|e| e.to_string())?;
    let name = |node: u32| &topo.node(NodeId(node)).name;

    let (detours, hops) = (delivery.detours, path.len());
    let mut text = format!(
        "# {} — most-detoured packet: {detours} detours, {hops} hops\n",
        rec.id
    );
    let names: Vec<String> = path
        .iter()
        .map(|n| format!("{}{}", name(n.node), if n.via_detour { "(d)" } else { "" }))
        .collect();
    let _ = writeln!(
        text,
        "# hop sequence (d = arrived via detour):\n#   {}",
        names.join(" -> ")
    );
    // Arc weights, as in the figure.
    let mut arcs: BTreeMap<(&String, &String, bool), u32> = BTreeMap::new();
    for w in path.windows(2) {
        *arcs
            .entry((name(w[0].node), name(w[1].node), w[1].via_detour))
            .or_insert(0) += 1;
    }
    let _ = writeln!(text, "{:>24} {:>24}   detour   count", "from", "to");
    for ((from, to, det), count) in &arcs {
        let _ = writeln!(text, "{from:>24} {to:>24} {det:>8} {count:>7}");
    }

    rec.push(
        SeriesPoint::at(0.0)
            .with("max_detours", f64::from(detours))
            .with("hops", hops as f64)
            .with("traced_paths", detoured.len() as f64)
            .with("total_detour_events", results.counters.detours as f64)
            .with("drops", results.counters.total_drops() as f64),
    );
    Ok(text)
}

/// Fig 2: (a) detour events per 0.5 ms per switch layer and (b) queued
/// packets per switch at t1 < t2 < t3, both from the capture's queue
/// transitions and detours.
fn detour_timeline(_: &Harness, runs: Finished, rec: &mut ExperimentRecord) -> Text {
    let (results, trace) = captured(&runs, &rec.id)?;
    let events = &trace.events;
    let topo = K8.build(0).map_err(|e| e.to_string())?;

    // (a) detour scatter, bucketed per 0.5 ms per layer, straight from the
    // Detour trace events.
    let mut text = String::from("# fig02a — detour events per 0.5 ms bucket per layer\n");
    text.push_str("      t_ms     edge     aggr     core\n");
    let bucket_ms = 0.5;
    let mut buckets: Vec<[u32; 3]> = Vec::new();
    let mut last_detour_ms = 0.0_f64;
    for ev in events.iter().filter(|e| e.kind == TraceKind::Detour) {
        let t_ms = ev.t_ns as f64 / 1e6;
        last_detour_ms = t_ms;
        // Event times are nonnegative and bounded by the horizon.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let b = (t_ms / bucket_ms) as usize;
        if buckets.len() <= b {
            buckets.resize(b + 1, [0; 3]);
        }
        let layer = match topo.layer(NodeId(ev.node)) {
            SwitchLayer::Edge => 0,
            SwitchLayer::Aggregation => 1,
            SwitchLayer::Core => 2,
            SwitchLayer::Other => continue,
        };
        buckets[b][layer] += 1;
    }
    for (b, [edge, aggr, core]) in buckets.iter().enumerate() {
        if edge + aggr + core > 0 {
            let t = b as f64 * bucket_ms;
            let _ = writeln!(text, "{t:>10.2} {edge:>8} {aggr:>8} {core:>8}");
        }
    }

    // (b) buffer occupancy: integrate the queue transitions, then pick
    // t1 (queues building), t2 (peak), t3 (draining) as the instants with
    // 25%, 100%, and 35% of the peak total occupancy.
    let mut occ = OccupancyTracker::new();
    // (event index, t_ns, total queued packets) after each transition.
    let mut series: Vec<(usize, u64, u64)> = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        if occ.apply(ev).is_some() {
            series.push((i, ev.t_ns, occ.totals().map(|(_, v)| u64::from(v)).sum()));
        }
    }
    let snapshot_upto = |idx: usize| -> BTreeMap<u32, u32> {
        let mut occ = OccupancyTracker::new();
        for ev in &events[..=idx] {
            occ.apply(ev);
        }
        occ.totals().collect()
    };
    let peak = series
        .iter()
        .enumerate()
        .max_by_key(|(_, (_, _, total))| *total);
    if let Some((peak_pos, &(_, _, peak))) = peak {
        // frac in [0,1] keeps the product within the peak count.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let target = |frac: f64| (peak as f64 * frac) as u64;
        let t1 = (0..=peak_pos)
            .find(|&i| series[i].2 >= target(0.25))
            .unwrap_or(peak_pos);
        let t3 = (peak_pos..series.len())
            .find(|&i| series[i].2 <= target(0.35))
            .unwrap_or(series.len() - 1);
        let snaps = [t1, peak_pos, t3].map(|pos| snapshot_upto(series[pos].0));
        let [t1_ms, t2_ms, t3_ms] = [t1, peak_pos, t3].map(|pos| series[pos].1 as f64 / 1e6);
        let _ = writeln!(
            text,
            "\n# fig02b — total queued packets per switch node at t1/t2/t3\n\
             # t1={t1_ms:.2}ms t2={t2_ms:.2}ms t3={t3_ms:.2}ms (peak total {peak} pkts)\n    \
             node       t1       t2       t3"
        );
        let nodes: BTreeSet<u32> = snaps.iter().flat_map(|s| s.keys().copied()).collect();
        for node in nodes {
            let [a, b, c] = snaps.each_ref().map(|s| s.get(&node).copied().unwrap_or(0));
            if a + b + c > 0 {
                let _ = writeln!(text, "{node:>8} {a:>8} {b:>8} {c:>8}");
            }
        }
    }

    let switches_detouring = results
        .detours_per_switch
        .iter()
        .filter(|&&d| d > 0)
        .count();
    rec.push(
        SeriesPoint::at(0.0)
            .with("detour_events", results.counters.detours as f64)
            .with("switches_detouring", switches_detouring as f64)
            .with("drops", results.counters.total_drops() as f64)
            .with("timeouts", results.counters.rto_timeouts as f64)
            .with("burst_len_ms", last_detour_ms)
            .with("trace_events", events.len() as f64),
    );
    Ok(text)
}

/// Fig 3: the paper reproduces the Flyways measurement over four
/// proprietary traces; this synthesizes four demand-matrix families with
/// their documented structure, routes them over the K=8 fat-tree with
/// fluid ECMP, and reports the CDF over snapshots of the fraction of links
/// at >= 50 % of the hottest link's utilization. No packet simulation.
fn hotspot_sparsity(h: &Harness, _: Finished, rec: &mut ExperimentRecord) -> Text {
    let snapshots = if h.scale == Scale::Quick { 40 } else { 200 };
    rec.param("snapshots", snapshots);
    let topo = K8.build(0).map_err(|e| e.to_string())?;
    let fib = Fib::compute(&topo);
    let mut rng = SimRng::new(RunDescriptor::new(&rec.id, "matrices", 0, 0).seed(h.master_seed));
    let families: Vec<(String, Vec<f64>)> = WorkloadFamily::ALL
        .iter()
        .map(|fam| {
            let name = format!("cum_{}", fam.label().replace('-', "_"));
            let samples = (0..snapshots).map(|_| {
                let m = fam.sample(topo.num_hosts(), 1e8, &mut rng);
                hot_fraction_relative(&link_utilization(&topo, &fib, &m), 0.5)
            });
            (name, samples.collect())
        })
        .collect();
    // x = hot-link fraction, y = cumulative fraction of snapshots.
    let xs = [0.01, 0.02, 0.05, 0.10, 0.20, 0.30, 0.50, 0.80, 1.0];
    cdf_rows(rec, &xs, &families);
    Ok(String::new())
}

/// Fig 4: the CDF over sample ticks of the fraction of links at >= 90 %
/// utilization, per workload.
fn hot_links(_: &Harness, runs: Finished, rec: &mut ExperimentRecord) -> Text {
    let sets: Vec<_> = runs
        .iter()
        .map(|(label, r)| (format!("cum_{label}"), &r.hot_fraction_samples[..]))
        .collect();
    cdf_rows(
        rec,
        &[0.0, 0.005, 0.01, 0.02, 0.05, 0.10, 0.20, 0.50, 1.0],
        &sets,
    );
    Ok(String::new())
}

/// Fig 5: the CDF over sample ticks of the mean free buffer fraction
/// among the 1-hop and 2-hop switch neighborhoods of hot links, per
/// workload.
fn neighbor_buffers(_: &Harness, runs: Finished, rec: &mut ExperimentRecord) -> Text {
    let sets: Vec<_> = runs
        .iter()
        .flat_map(|(label, r)| {
            [
                (format!("cum_{label}_1hop"), &r.neighbor_free_1hop[..]),
                (format!("cum_{label}_2hop"), &r.neighbor_free_2hop[..]),
            ]
        })
        .collect();
    cdf_rows(rec, &[0.0, 0.2, 0.4, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0], &sets);
    Ok(String::new())
}

/// Fig 6: the QCT and per-flow duration of every configuration at fixed
/// percentiles over its repetitions, and its total drops.
fn testbed_incast(h: &Harness, runs: Finished, rec: &mut ExperimentRecord) -> Text {
    rec.param("repetitions", testbed_reps(h.scale));
    let mut configs: Vec<(&str, Samples, Samples)> = Vec::new();
    for reps in runs.chunk_by(|a, b| a.0 == b.0) {
        let (mut qct, mut flow, mut drops) = (Samples::new(), Samples::new(), 0);
        for (_, r) in reps {
            let q = r.queries.first().and_then(|q| q.qct);
            qct.push(q.map_or(f64::NAN, |d| d.as_millis_f64()));
            for d in r.flows.iter().filter_map(|f| f.fct) {
                flow.push(d.as_millis_f64());
            }
            drops += r.counters.total_drops();
        }
        rec.param(&format!("total_drops_{}", reps[0].0), drops);
        configs.push((reps[0].0, qct, flow));
    }
    for pct in [0.0, 0.10, 0.25, 0.50, 0.75, 0.90, 0.99, 1.0] {
        let mut point = SeriesPoint::at(pct);
        for (label, qct, flow) in &mut configs {
            let at = |s: &mut Samples| s.percentile(pct).unwrap_or(f64::NAN);
            point = point
                .with(&format!("qct_ms_{label}"), at(qct))
                .with(&format!("flow_ms_{label}"), at(flow));
        }
        rec.push(point);
    }
    Ok(String::new())
}

// ---- the table --------------------------------------------------------------

/// Every row, in `repro_all` order.
fn table() -> Vec<Row> {
    vec![
        // Fig 1: a packet can detour many times on its way through a
        // congested pod and still be delivered. Exits non-zero when no
        // delivered packet detoured, so a broken capture cannot pass for a
        // figure.
        Row {
            id: "fig01_detour_path",
            title: "Most-detoured packet path (Fig 1)",
            x_label: "metric",
            params: &[("incast_degree", "100"), RESPONSE],
            window: None,
            // Every packet kind a path is rebuilt from: the emitting
            // host, each switch admission, and the delivery.
            kind: probe(
                detour_incast,
                Some("send,retransmit,ack,enqueue,detour,deliver"),
                detour_path,
            ),
        },
        // Fig 2: detouring starts at the destination's edge switch, spreads
        // to all four aggregation switches at the burst peak, and collapses
        // back to the edge switch as the burst drains — all within ~10 ms,
        // with no drops or timeouts.
        Row {
            id: "fig02_detour_timeline",
            title: "Detours and buffer occupancy during a burst (Fig 2)",
            x_label: "metric",
            params: &[("incast_degree", "100"), RESPONSE],
            window: None,
            // Every queue transition; a user --trace spec widens (or
            // narrows) the capture at their own risk.
            kind: probe(
                detour_incast,
                Some("enqueue,dequeue,detour"),
                detour_timeline,
            ),
        },
        // Fig 3: for every family, in at least ~60 % of snapshots fewer than
        // 10 % of links are hot.
        Row {
            id: "fig03_hotspot_sparsity",
            title: "Hot-link sparsity across four workload families (Fig 3)",
            x_label: "hot_link_fraction",
            params: &[("hot_definition", "util >= 0.5 * max link util")],
            window: None,
            kind: probe(|_, _, _| Vec::new(), None, hotspot_sparsity),
        },
        // Fig 4: even under extreme load only a handful of links are hot at
        // any instant; congestion is localized, which gives DIBS spare
        // buffers nearby.
        Row {
            id: "fig04_hotlinks",
            title: "Fraction of links >= 90% utilized, CDF over time (Fig 4)",
            x_label: "hot_link_fraction",
            params: &[
                ("workloads", "300 / 2000 / 10000 qps"),
                ("sample_interval_ms", "1"),
            ],
            window: Some(HEAVY),
            kind: probe(sampled_mixed, None, hot_links),
        },
        // Fig 5: ~80 % of neighboring buffers stay empty in all but the
        // extreme scenario: the headroom DIBS borrows.
        Row {
            id: "fig05_neighbor_buffers",
            title: "Free buffer fraction near hot links, CDF over time (Fig 5)",
            x_label: "free_buffer_fraction",
            params: &[
                ("workloads", "300 / 2000 / 10000 qps"),
                ("sample_interval_ms", "1"),
            ],
            window: Some(HEAVY),
            kind: probe(sampled_mixed, None, neighbor_buffers),
        },
        // Fig 6: infinite buffers complete every query in ~25 ms and DIBS
        // in ~27 ms; droptail spans 26–51 ms because ~9 % of flows take a
        // retransmission timeout and every query waits for at least one.
        Row {
            id: "fig06_testbed_incast",
            title: "Testbed incast: QCT and per-flow durations over 50 runs (Fig 6)",
            x_label: "percentile",
            params: &[
                ("senders", "5"),
                ("flows_per_sender", "10"),
                ("flow_kb", "32"),
            ],
            window: None,
            kind: probe(testbed_runs, None, testbed_incast),
        },
        // Fig 7: DIBS tracks the infinite-buffer line at every buffer size,
        // and its advantage over plain DCTCP grows as buffers shrink.
        Row {
            id: "fig07_buffer_sweep",
            title: "QCT vs buffer size: DCTCP / DCTCP+infinite / DCTCP+DIBS (Fig 7)",
            x_label: "buffer_pkts",
            params: &[QPS, DEGREE, RESPONSE, BG],
            window: Some(MIXED),
            kind: Kind::Sweep(Sweep {
                xs: &[25.0, 100.0, 300.0, 500.0, 700.0],
                base: |pkts, seed, s| Scenario {
                    overrides: per_port_buffer(pkts),
                    ..table2(seed, s)
                },
                arms: vec![
                    plain("dctcp", Scheme::Dctcp),
                    plain("dibs", Scheme::DctcpDibs),
                    // Size-independent, but rerun per point so the series
                    // aligns and the ECN threshold matches.
                    Arm {
                        name: "dctcp_inf",
                        scheme: Scheme::Dctcp,
                        overrides: Overrides {
                            buffer_packets: Some(0),
                            ..Overrides::default()
                        },
                    },
                ],
                columns: [
                    per_arm(&["dctcp", "dctcp_inf", "dibs"], &[QCT_P99]),
                    per_arm(&["dctcp", "dibs"], &[DROPS]),
                ]
                .concat(),
            }),
        },
        // Fig 8: DIBS cuts p99 QCT by ~20 ms at every background intensity;
        // background FCT rises by under ~2 ms.
        Row {
            id: "fig08_bg_interarrival",
            title: "Variable background traffic (Fig 8)",
            x_label: "bg_interarrival_ms",
            params: &[QPS, DEGREE, RESPONSE],
            window: Some(MIXED),
            kind: Kind::Sweep(Sweep {
                xs: &[10.0, 20.0, 40.0, 80.0, 120.0],
                base: |ia, seed, s| Scenario {
                    // Heavy background needs the shorter window.
                    duration_ms: ms(if ia <= 20.0 {
                        s.heavy_duration()
                    } else {
                        s.duration()
                    }),
                    workloads: traffic(whole(ia), 300.0, 40, 20),
                    ..table2(seed, s)
                },
                arms: paired(),
                columns: headline(vec![]),
            }),
        },
        // Fig 9: DIBS improves p99 QCT by ~20 ms across the sweep; at the
        // highest rates it also improves background FCT.
        Row {
            id: "fig09_query_rate",
            title: "Variable query arrival rate (Fig 9)",
            x_label: "qps",
            params: &[BG, DEGREE, RESPONSE],
            window: Some(MIXED),
            kind: Kind::Sweep(Sweep {
                xs: &[300.0, 500.0, 1000.0, 1500.0, 2000.0],
                base: at_rate,
                arms: paired(),
                columns: headline(vec![]),
            }),
        },
        // Fig 10: the QCT advantage shrinks as responses grow (more detours,
        // occasional spurious timeouts); DIBS still never drops.
        Row {
            id: "fig10_response_size",
            title: "Variable query response size (Fig 10)",
            x_label: "response_kb",
            params: &[BG, DEGREE, QPS],
            window: Some(MIXED),
            kind: Kind::Sweep(Sweep {
                xs: &[20.0, 30.0, 40.0, 50.0],
                base: |kb, seed, s| Scenario {
                    workloads: traffic(120, 300.0, 40, whole(kb)),
                    ..table2(seed, s)
                },
                arms: paired(),
                columns: headline(vec![]),
            }),
        },
        // Fig 11: the advantage grows with degree (burstier first RTT); at
        // degree 100 around 1 % of packets take 40+ detours.
        Row {
            id: "fig11_incast_degree",
            title: "Variable incast degree (Fig 11)",
            x_label: "incast_degree",
            params: &[BG, QPS, RESPONSE],
            window: Some(MIXED),
            kind: Kind::Sweep(Sweep {
                xs: &[40.0, 60.0, 80.0, 100.0],
                base: |deg, seed, s| Scenario {
                    workloads: traffic(120, 300.0, count(deg), 20),
                    ..table2(seed, s)
                },
                arms: paired(),
                columns: headline(vec![col("dibs_frac_40plus_detours", "dibs", |r| {
                    r.detoured_at_least(40)
                })]),
            }),
        },
        // Fig 12: no background-FCT damage at any buffer size; DIBS wins on
        // QCT at small buffers and the two converge at large ones.
        Row {
            id: "fig12_buffer_size",
            title: "Variable buffer size under heavy background (Fig 12)",
            x_label: "buffer_pkts",
            params: &[("bg_interarrival_ms", "10"), QPS, DEGREE, RESPONSE],
            window: Some(HEAVY),
            kind: Kind::Sweep(Sweep {
                xs: &[1.0, 5.0, 10.0, 25.0, 40.0, 100.0, 200.0],
                base: |pkts, seed, s| Scenario {
                    overrides: per_port_buffer(pkts),
                    ..heavy_background(seed, s)
                },
                arms: paired(),
                columns: headline(per_arm(&["dctcp", "dibs"], &[DONE_FRAC])),
            }),
        },
        // Fig 13: DIBS QCT improves as TTL grows (each backward detour costs
        // 2 TTL); TTL has no effect on plain DCTCP. TTL 24 can be worse than
        // 12: packets linger longer only to die anyway.
        Row {
            id: "fig13_ttl",
            title: "Variable max TTL (Fig 13)",
            x_label: "ttl",
            params: &[("bg_interarrival_ms", "10"), QPS, DEGREE, RESPONSE],
            window: Some(HEAVY),
            kind: Kind::Sweep(Sweep {
                xs: &[12.0, 24.0, 36.0, 48.0, 255.0],
                base: |ttl, seed, s| Scenario {
                    overrides: Overrides {
                        ttl: Some(u8::try_from(whole(ttl)).unwrap_or(u8::MAX)),
                        ..Overrides::default()
                    },
                    ..heavy_background(seed, s)
                },
                arms: paired(),
                columns: headline(vec![col("ttl_drops_dibs", "dibs", |r| {
                    r.counters.drops_ttl as f64
                })]),
            }),
        },
        // Fig 14: past ~10 k qps detoured packets no longer drain before new
        // bursts arrive and DIBS's completion times explode; below the
        // tipping point DIBS still wins.
        Row {
            id: "fig14_extreme_qps",
            title: "Extreme query intensity — the DIBS breaking point (Fig 14)",
            x_label: "qps",
            params: &[BG, DEGREE, RESPONSE],
            window: Some(HEAVY),
            kind: Kind::Sweep(Sweep {
                xs: &[6000.0, 8000.0, 10000.0, 12000.0, 14000.0],
                base: |qps, seed, s| Scenario {
                    workloads: traffic(120, qps, 40, 20),
                    ..extreme(seed, s)
                },
                arms: paired(),
                columns: headline(per_arm(&["dctcp", "dibs"], &[DONE_FRAC])),
            }),
        },
        // Fig 15: large responses take several RTTs, so DCTCP's ECN loop
        // throttles the senders and DIBS never reaches a tipping point.
        Row {
            id: "fig15_large_response",
            title: "Large query response sizes at 2000 qps (Fig 15)",
            x_label: "response_kb",
            params: &[BG, DEGREE, ("qps", "2000")],
            window: Some(HEAVY),
            kind: Kind::Sweep(Sweep {
                xs: &[60.0, 80.0, 100.0, 120.0, 160.0],
                base: |kb, seed, s| Scenario {
                    workloads: traffic(120, 2000.0, 40, whole(kb)),
                    ..extreme(seed, s)
                },
                arms: paired(),
                columns: headline(per_arm(&["dibs"], &[DONE_FRAC])),
            }),
        },
        // Fig 16: pFabric starves large background flows at high query rate
        // while DIBS leaves them flat; at high qps DIBS even edges out
        // pFabric on QCT (its 24-packet buffers shed many packets).
        Row {
            id: "fig16_pfabric",
            title: "DIBS vs pFabric, variable query rate (Fig 16)",
            x_label: "qps",
            params: &[
                BG,
                DEGREE,
                RESPONSE,
                ("pfabric_buffer_pkts", "24"),
                ("pfabric_rto_us", "350"),
            ],
            window: Some(MIXED),
            kind: Kind::Sweep(Sweep {
                xs: &[300.0, 500.0, 1000.0, 1500.0, 2000.0],
                base: at_rate,
                arms: vec![
                    plain("dibs", Scheme::DctcpDibs),
                    plain("pfabric", Scheme::Pfabric),
                ],
                // Fig 16(a) looks at all background flows: pFabric's starvation
                // shows up in the large-flow tail.
                columns: per_arm(
                    &["dibs", "pfabric"],
                    &[
                        QCT_P99,
                        ("bg_all_fct_p99_ms", |r| {
                            r.bg_all_fct_ms.percentile(0.99).unwrap_or(f64::NAN)
                        }),
                        DROPS,
                        ("timeouts", |r| r.counters.rto_timeouts as f64),
                    ],
                ),
            }),
        },
        // §5.5.2: on an Arista-7050QX-like shared-memory switch (1.7 MB,
        // Choudhury–Hahne thresholds) DCTCP starts dropping past ~150
        // responders; DIBS stays lossless and cuts p99 QCT.
        Row {
            id: "tab_shared_buffer",
            title: "Shared-memory (DBA) switches vs incast degree (§5.5.2)",
            x_label: "incast_degree",
            params: &[("shared_bytes", "1700000"), ("alpha", "1"), RESPONSE],
            window: None,
            kind: Kind::Sweep(Sweep {
                xs: &[40.0, 100.0, 150.0, 200.0, 300.0, 400.0],
                // One incast of `degree` 20 KB responses at time 0 to a random
                // target, repeating responders (multiple connections per
                // server) once `degree` exceeds the host count.
                base: |degree, seed, _| {
                    let target =
                        HostId::from_index(SimRng::new(seed).fork("big-incast").below(128));
                    Scenario {
                        overrides: Overrides {
                            shared_buffer_bytes: Some(1_700_000),
                            ..Overrides::default()
                        },
                        ..lone_incast(
                            seed,
                            Scheme::Dctcp,
                            K8,
                            Some(target.0),
                            count(degree),
                            20_000,
                        )
                    }
                },
                arms: vec![
                    plain("dctcp_dba", Scheme::Dctcp),
                    plain("dibs_dba", Scheme::DctcpDibs),
                ],
                columns: [
                    per_arm(&["dctcp_dba", "dibs_dba"], &[QCT_P99, DROPS]),
                    vec![col("detours_dibs", "dibs_dba", DETOURS.1)],
                ]
                .concat(),
            }),
        },
        // §5.5.4: inter-switch capacity divided by 1–4 (1:1 to 1:16
        // end-to-end). The QCT win persists at every level without hurting
        // background FCT: the last hop stays the query bottleneck.
        Row {
            id: "tab_oversubscription",
            title: "Oversubscribed fabrics (§5.5.4)",
            x_label: "fabric_rate_divisor",
            params: &[QPS, DEGREE, RESPONSE, BG],
            window: Some(MIXED),
            kind: Kind::Sweep(Sweep {
                xs: &[1.0, 2.0, 3.0, 4.0],
                base: |div, seed, s| Scenario {
                    topology: TopologySpec::FatTree {
                        k: 8,
                        oversubscription: whole(div),
                    },
                    ..table2(seed, s)
                },
                arms: paired(),
                columns: headline(vec![]),
            }),
        },
        // §5.6: Jain's index over per-flow goodput (after a warmup) for N
        // long-lived flows each way across 64 node-disjoint pairs. DIBS must
        // not reduce it relative to DCTCP; flow-level ECMP collisions cap it
        // below 1.0 at small N (see EXPERIMENTS.md).
        Row {
            id: "tab_fairness",
            title: "Jain's fairness index for long-lived flows (§5.6)",
            x_label: "flows_per_pair",
            params: &[("pairs", "64")],
            window: Some(FAIRNESS),
            kind: Kind::Sweep(Sweep {
                xs: &[1.0, 2.0, 4.0, 8.0, 16.0],
                // Goodput is measured past a warmup of a quarter of the run.
                base: |n, seed, s| Scenario {
                    duration_ms: 0,
                    drain_ms: fairness_horizon_ms(s),
                    workloads: vec![WorkloadSpec::LongLived {
                        flows_per_pair: count(n),
                    }],
                    ..table2(seed, s)
                },
                arms: paired(),
                columns: per_arm(
                    &["dibs", "dctcp"],
                    &[
                        ("jain", |r| r.jain().unwrap_or(0.0)),
                        ("total_goodput_gbps", |r| {
                            r.long_lived_throughput_bps.iter().sum::<f64>() / 1e9
                        }),
                    ],
                ),
            }),
        },
        // §7: parameterless random detouring captures nearly all of the
        // benefit of the load-aware, flow-based and probabilistic policies.
        Row {
            id: "abl_detour_policies",
            title: "Ablation: detour policies at three query intensities (§7)",
            x_label: "qps",
            params: &[DEGREE, RESPONSE, BG],
            window: Some(MIXED),
            kind: Kind::Sweep(Sweep {
                xs: &[300.0, 1000.0, 2000.0],
                base: at_rate,
                arms: vec![
                    policy("droptail", "disabled"),
                    policy("random", "random"),
                    policy("loadaware", "load_aware"),
                    policy("flowbased", "flow_based"),
                    policy("prob85", "probabilistic:0.85"),
                ],
                columns: per_arm(
                    &["droptail", "random", "loadaware", "flowbased", "prob85"],
                    &[QCT_P99, BG_FCT_P99, DROPS, DETOURS],
                ),
            }),
        },
        // §7 and footnote 10: richer neighborhoods (HyperX, Jellyfish) suit
        // DIBS at least as well as the fat-tree; on the linear chain the
        // congestion is persistent and DIBS stops helping.
        Row {
            id: "abl_topologies",
            title: "Ablation: DIBS across topology families (§7)",
            x_label: "topology_index",
            params: &[
                ("qps", "1000"),
                DEGREE,
                RESPONSE,
                ("topology_0", "fat_tree_k8"),
                ("topology_1", "jellyfish"),
                ("topology_2", "hyperx_4x4"),
                ("topology_3", "linear_x8"),
            ],
            window: Some(MIXED),
            kind: Kind::Sweep(Sweep {
                xs: &[0.0, 1.0, 2.0, 3.0],
                // Incast (1000 qps, degree 40, 20 KB) over light background on
                // ~128 hosts, with comparable switch counts.
                base: |index, seed, s| Scenario {
                    topology: match count(index) {
                        0 => K8,
                        1 => TopologySpec::Jellyfish {
                            switches: 43,
                            degree: 8,
                            hosts_per_switch: 3,
                        },
                        2 => TopologySpec::Hyperx {
                            shape: vec![4, 4],
                            hosts_per_switch: 8,
                        },
                        _ => TopologySpec::Linear {
                            switches: 8,
                            hosts_per_switch: 16,
                        },
                    },
                    ..at_rate(1000.0, seed, s)
                },
                arms: paired(),
                columns: [
                    per_arm(&["dctcp", "dibs"], &[QCT_P99, DROPS]),
                    per_arm(&["dibs"], &[DETOURS, DONE_FRAC]),
                ]
                .concat(),
            }),
        },
        // §6: PFC is lossless too, but head-of-line blocking makes its p99
        // QCT far worse than DIBS and at high load it damages background
        // FCT.
        Row {
            id: "abl_flow_control",
            title: "Ablation: DIBS vs Ethernet flow control (§6)",
            x_label: "qps",
            params: &[DEGREE, RESPONSE, BG, ("pfc_xoff", "12"), ("pfc_xon", "6")],
            window: Some(MIXED),
            kind: Kind::Sweep(Sweep {
                xs: &[300.0, 1000.0, 2000.0],
                base: at_rate,
                arms: vec![
                    plain("droptail", Scheme::Dctcp),
                    // Sized for the 100-packet buffers: with up to ~7
                    // switch-facing ingresses feeding one output queue, XOFF
                    // must keep `ingresses × xoff + headroom < 100` (the PFC
                    // headroom calculation the paper calls "difficult to
                    // tune", §6).
                    Arm {
                        name: "pfc",
                        scheme: Scheme::Dctcp,
                        overrides: Overrides {
                            pfc: Some([12, 6]),
                            ..Overrides::default()
                        },
                    },
                    plain("dibs", Scheme::DctcpDibs),
                ],
                columns: [
                    per_arm(&["droptail", "pfc", "dibs"], &[QCT_P99, BG_FCT_P99, DROPS]),
                    vec![col("pause_events_pfc", "pfc", |r| {
                        r.pfc_pause_events as f64
                    })],
                ]
                .concat(),
            }),
        },
        // §6: packet-level ECMP spraying does not help incast (the
        // destination link still overflows); better multipath routing is
        // no substitute for DIBS.
        Row {
            id: "abl_ecmp",
            title: "Ablation: flow-level vs packet-level ECMP vs DIBS (§6)",
            x_label: "qps",
            params: &[DEGREE, RESPONSE, BG],
            window: Some(MIXED),
            kind: Kind::Sweep(Sweep {
                xs: &[300.0, 1000.0, 2000.0],
                base: at_rate,
                arms: vec![
                    plain("flow_ecmp", Scheme::Dctcp),
                    // Spraying reorders, so it gets the same dupack
                    // forbearance DIBS gets.
                    Arm {
                        name: "pkt_ecmp",
                        scheme: Scheme::Dctcp,
                        overrides: Overrides {
                            ecmp: Some("packet".into()),
                            fast_retransmit: Some(0),
                            ..Overrides::default()
                        },
                    },
                    plain("dibs", Scheme::DctcpDibs),
                ],
                columns: per_arm(&["flow_ecmp", "pkt_ecmp", "dibs"], &[QCT_P99, DROPS]),
            }),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The table's sweep rows.
    fn sweeps() -> Vec<(&'static str, Sweep)> {
        table()
            .into_iter()
            .filter_map(|row| match row.kind {
                Kind::Sweep(sweep) => Some((row.id, sweep)),
                Kind::Probe { .. } => None,
            })
            .collect()
    }

    #[test]
    fn sweep_ids_are_unique() {
        let ids = ids();
        let unique: BTreeSet<_> = ids.iter().collect();
        assert_eq!(unique.len(), ids.len(), "{ids:?}");
        assert_eq!(ids.len(), 23);
    }

    #[test]
    fn xs_are_distinct_whole_non_negative_numbers() {
        for (id, s) in sweeps() {
            assert!(!s.xs.is_empty(), "{id}");
            for &x in s.xs {
                assert!(
                    x >= 0.0 && x.fract() == 0.0 && x < 2f64.powi(53),
                    "{id}: x = {x}"
                );
                assert_eq!(whole(x) as f64, x, "{id}: x = {x}");
            }
            let seeds: BTreeSet<u64> = s.xs.iter().map(|&x| whole(x)).collect();
            assert_eq!(seeds.len(), s.xs.len(), "{id}: duplicate x");
        }
    }

    #[test]
    fn column_names_are_unique_and_name_an_arm() {
        for (id, s) in sweeps() {
            assert!(!s.arms.is_empty(), "{id}");
            let arms: BTreeSet<&str> = s.arms.iter().map(|a| a.name).collect();
            assert_eq!(arms.len(), s.arms.len(), "{id}: duplicate arm");
            let names: BTreeSet<&str> = s.columns.iter().map(|c| c.name.as_str()).collect();
            assert_eq!(names.len(), s.columns.len(), "{id}: duplicate column");
            for c in &s.columns {
                assert!(arms.contains(c.arm), "{id}: {} reads arm {}", c.name, c.arm);
            }
        }
    }

    #[test]
    fn every_point_is_a_valid_scenario_at_every_scale() {
        let valid = |s: &Scenario| s.topology.check().and(s.sim_config());
        for row in table() {
            for scale in [Scale::Quick, Scale::Default, Scale::Full] {
                match &row.kind {
                    Kind::Sweep(s) => {
                        for &x in s.xs {
                            for arm in &s.arms {
                                if let Err(e) = valid(&s.scenario(x, arm, 1, scale)) {
                                    panic!("{} x={x} {} at {scale:?}: {e}", row.id, arm.name);
                                }
                            }
                        }
                    }
                    Kind::Probe { runs, .. } => {
                        for (label, scenario) in runs(row.id, scale, 1) {
                            if let Err(e) = valid(&scenario) {
                                panic!("{} {label} at {scale:?}: {e}", row.id);
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn probe_trace_specs_parse() {
        for row in table() {
            if let Kind::Probe {
                trace: Some(spec), ..
            } = row.kind
            {
                let parsed = spec.parse::<dibs::TraceSpec>();
                assert!(parsed.is_ok(), "{}: `{spec}`: {parsed:?}", row.id);
            }
        }
    }

    #[test]
    fn unknown_id_lists_the_valid_ids() {
        assert_eq!(find("fig13_ttl").map(|s| s.id), Ok("fig13_ttl"));
        assert_eq!(
            find("fig06_testbed_incast").map(|s| s.id),
            Ok("fig06_testbed_incast")
        );
        let err = find("fig99_nope").map(|s| s.id).unwrap_err();
        assert!(err.contains("unknown sweep id `fig99_nope`"), "{err}");
        for id in ids() {
            assert!(err.contains(id), "{err} omits {id}");
        }
    }
}
