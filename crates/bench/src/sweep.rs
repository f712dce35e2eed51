//! The sweep table: every parameter sweep of the evaluation (Figs 7–16,
//! §5.5–§5.6, and the §6/§7 ablations) as one row of data, run by one
//! driver (`sweep <id>`).
//!
//! A row names the figure and its fixed parameters, lists the swept x
//! values, gives the point's base [`Scenario`] at each x (the value
//! `dibs-sim` reads from JSON), lists the arms compared at each x (DCTCP,
//! DIBS, and sometimes infinite buffers, pFabric, PFC, packet-level ECMP
//! or other detour policies) as a scheme plus overrides layered over the
//! base, and declares the columns reported per point. Every arm runs
//! through [`Scenario::build`]. All arms at a point share one seed,
//! derived from the row id, the x value and the master seed, so every arm
//! sees identical traffic.

use crate::{timing, Harness, Scale};
use dibs::{RunDescriptor, RunResults};
use dibs_cli::scenario::{Overrides, Scenario, Scheme, TopologySpec, WorkloadSpec};
use dibs_engine::rng::SimRng;
use dibs_engine::time::SimDuration;
use dibs_net::ids::HostId;
use dibs_stats::{ExperimentRecord, SeriesPoint};

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

/// The scale-dependent traffic window a row records among its params.
#[derive(Clone, Copy)]
enum Window {
    /// `duration_ms`: [`Scale::duration`].
    Mixed,
    /// `duration_ms`: [`Scale::heavy_duration`].
    Heavy,
    /// `horizon_ms`: the fairness run length.
    Fairness,
}

impl Window {
    fn param(self, scale: Scale) -> (&'static str, f64) {
        match self {
            Window::Mixed => ("duration_ms", scale.duration().as_millis_f64()),
            Window::Heavy => ("duration_ms", scale.heavy_duration().as_millis_f64()),
            Window::Fairness => ("horizon_ms", fairness_horizon_ms(scale) as f64),
        }
    }
}

/// One figure or table as data.
pub struct Sweep {
    /// Record id, also the `sweep <id>` argument.
    id: &'static str,
    /// Human title.
    title: &'static str,
    /// Name of the swept parameter.
    x_label: &'static str,
    /// Fixed parameters, as recorded.
    params: &'static [(&'static str, &'static str)],
    /// The scale-dependent window param, if the row has one.
    window: Option<Window>,
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

/// Runs every arm of `sweep` at every x through the harness's executor
/// and returns the record for [`Harness::finish`].
///
/// # Panics
///
/// Panics if a point's scenario does not build; the table tests check
/// every point's topology and configuration at every scale.
pub fn run(sweep: &Sweep, h: &Harness) -> ExperimentRecord {
    let mut rec = ExperimentRecord::new(sweep.id, sweep.title, sweep.x_label);
    for (key, value) in sweep.params {
        rec.param(key, value);
    }
    if let Some(window) = sweep.window {
        let (key, ms) = window.param(h.scale);
        rec.param(key, ms);
    }
    let (scale, master) = (h.scale, h.master_seed);
    let runs: Vec<(f64, &Arm)> = sweep
        .xs
        .iter()
        .flat_map(|&x| sweep.arms.iter().map(move |arm| (x, arm)))
        .collect();
    let values = h.executor().map(runs, |(x, arm)| {
        let seed = RunDescriptor::new(sweep.id, "paired", whole(x), 0).paired_seed(master);
        let sim = sweep.scenario(x, arm, seed, scale).build();
        let sim = sim.unwrap_or_else(|e| panic!("{} x={x} {}: {e}", sweep.id, arm.name));
        let mut results = sim.run();
        timing::note_run(&results);
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
    rec
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
pub fn find(id: &str) -> Result<Sweep, String> {
    table()
        .into_iter()
        .find(|s| s.id == id)
        .ok_or_else(|| format!("unknown sweep id `{id}`; valid ids: {}", ids().join(", ")))
}

// ---- scenarios and arms -----------------------------------------------------

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

// ---- the table --------------------------------------------------------------

/// Every sweep, in `repro_all` order.
fn table() -> Vec<Sweep> {
    vec![
        // Fig 7: DIBS tracks the infinite-buffer line at every buffer size,
        // and its advantage over plain DCTCP grows as buffers shrink.
        Sweep {
            id: "fig07_buffer_sweep",
            title: "QCT vs buffer size: DCTCP / DCTCP+infinite / DCTCP+DIBS (Fig 7)",
            x_label: "buffer_pkts",
            params: &[
                ("qps", "300"),
                ("incast_degree", "40"),
                ("response_kb", "20"),
                ("bg_interarrival_ms", "120"),
            ],
            window: Some(Window::Mixed),
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
        },
        // Fig 8: DIBS cuts p99 QCT by ~20 ms at every background intensity;
        // background FCT rises by under ~2 ms.
        Sweep {
            id: "fig08_bg_interarrival",
            title: "Variable background traffic (Fig 8)",
            x_label: "bg_interarrival_ms",
            params: &[
                ("qps", "300"),
                ("incast_degree", "40"),
                ("response_kb", "20"),
            ],
            window: Some(Window::Mixed),
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
        },
        // Fig 9: DIBS improves p99 QCT by ~20 ms across the sweep; at the
        // highest rates it also improves background FCT.
        Sweep {
            id: "fig09_query_rate",
            title: "Variable query arrival rate (Fig 9)",
            x_label: "qps",
            params: &[
                ("bg_interarrival_ms", "120"),
                ("incast_degree", "40"),
                ("response_kb", "20"),
            ],
            window: Some(Window::Mixed),
            xs: &[300.0, 500.0, 1000.0, 1500.0, 2000.0],
            base: at_rate,
            arms: paired(),
            columns: headline(vec![]),
        },
        // Fig 10: the QCT advantage shrinks as responses grow (more detours,
        // occasional spurious timeouts); DIBS still never drops.
        Sweep {
            id: "fig10_response_size",
            title: "Variable query response size (Fig 10)",
            x_label: "response_kb",
            params: &[
                ("bg_interarrival_ms", "120"),
                ("incast_degree", "40"),
                ("qps", "300"),
            ],
            window: Some(Window::Mixed),
            xs: &[20.0, 30.0, 40.0, 50.0],
            base: |kb, seed, s| Scenario {
                workloads: traffic(120, 300.0, 40, whole(kb)),
                ..table2(seed, s)
            },
            arms: paired(),
            columns: headline(vec![]),
        },
        // Fig 11: the advantage grows with degree (burstier first RTT); at
        // degree 100 around 1 % of packets take 40+ detours.
        Sweep {
            id: "fig11_incast_degree",
            title: "Variable incast degree (Fig 11)",
            x_label: "incast_degree",
            params: &[
                ("bg_interarrival_ms", "120"),
                ("qps", "300"),
                ("response_kb", "20"),
            ],
            window: Some(Window::Mixed),
            xs: &[40.0, 60.0, 80.0, 100.0],
            base: |deg, seed, s| Scenario {
                workloads: traffic(120, 300.0, count(deg), 20),
                ..table2(seed, s)
            },
            arms: paired(),
            columns: headline(vec![col("dibs_frac_40plus_detours", "dibs", |r| {
                r.detoured_at_least(40)
            })]),
        },
        // Fig 12: no background-FCT damage at any buffer size; DIBS wins on
        // QCT at small buffers and the two converge at large ones.
        Sweep {
            id: "fig12_buffer_size",
            title: "Variable buffer size under heavy background (Fig 12)",
            x_label: "buffer_pkts",
            params: &[
                ("bg_interarrival_ms", "10"),
                ("qps", "300"),
                ("incast_degree", "40"),
                ("response_kb", "20"),
            ],
            window: Some(Window::Heavy),
            xs: &[1.0, 5.0, 10.0, 25.0, 40.0, 100.0, 200.0],
            base: |pkts, seed, s| Scenario {
                overrides: per_port_buffer(pkts),
                ..heavy_background(seed, s)
            },
            arms: paired(),
            columns: headline(per_arm(&["dctcp", "dibs"], &[DONE_FRAC])),
        },
        // Fig 13: DIBS QCT improves as TTL grows (each backward detour costs
        // 2 TTL); TTL has no effect on plain DCTCP. TTL 24 can be worse than
        // 12: packets linger longer only to die anyway.
        Sweep {
            id: "fig13_ttl",
            title: "Variable max TTL (Fig 13)",
            x_label: "ttl",
            params: &[
                ("bg_interarrival_ms", "10"),
                ("qps", "300"),
                ("incast_degree", "40"),
                ("response_kb", "20"),
            ],
            window: Some(Window::Heavy),
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
        },
        // Fig 14: past ~10 k qps detoured packets no longer drain before new
        // bursts arrive and DIBS's completion times explode; below the
        // tipping point DIBS still wins.
        Sweep {
            id: "fig14_extreme_qps",
            title: "Extreme query intensity — the DIBS breaking point (Fig 14)",
            x_label: "qps",
            params: &[
                ("bg_interarrival_ms", "120"),
                ("incast_degree", "40"),
                ("response_kb", "20"),
            ],
            window: Some(Window::Heavy),
            xs: &[6000.0, 8000.0, 10000.0, 12000.0, 14000.0],
            base: |qps, seed, s| Scenario {
                workloads: traffic(120, qps, 40, 20),
                ..extreme(seed, s)
            },
            arms: paired(),
            columns: headline(per_arm(&["dctcp", "dibs"], &[DONE_FRAC])),
        },
        // Fig 15: large responses take several RTTs, so DCTCP's ECN loop
        // throttles the senders and DIBS never reaches a tipping point.
        Sweep {
            id: "fig15_large_response",
            title: "Large query response sizes at 2000 qps (Fig 15)",
            x_label: "response_kb",
            params: &[
                ("bg_interarrival_ms", "120"),
                ("incast_degree", "40"),
                ("qps", "2000"),
            ],
            window: Some(Window::Heavy),
            xs: &[60.0, 80.0, 100.0, 120.0, 160.0],
            base: |kb, seed, s| Scenario {
                workloads: traffic(120, 2000.0, 40, whole(kb)),
                ..extreme(seed, s)
            },
            arms: paired(),
            columns: headline(per_arm(&["dibs"], &[DONE_FRAC])),
        },
        // Fig 16: pFabric starves large background flows at high query rate
        // while DIBS leaves them flat; at high qps DIBS even edges out
        // pFabric on QCT (its 24-packet buffers shed many packets).
        Sweep {
            id: "fig16_pfabric",
            title: "DIBS vs pFabric, variable query rate (Fig 16)",
            x_label: "qps",
            params: &[
                ("bg_interarrival_ms", "120"),
                ("incast_degree", "40"),
                ("response_kb", "20"),
                ("pfabric_buffer_pkts", "24"),
                ("pfabric_rto_us", "350"),
            ],
            window: Some(Window::Mixed),
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
        },
        // §5.5.2: on an Arista-7050QX-like shared-memory switch (1.7 MB,
        // Choudhury–Hahne thresholds) DCTCP starts dropping past ~150
        // responders; DIBS stays lossless and cuts p99 QCT.
        Sweep {
            id: "tab_shared_buffer",
            title: "Shared-memory (DBA) switches vs incast degree (§5.5.2)",
            x_label: "incast_degree",
            params: &[
                ("shared_bytes", "1700000"),
                ("alpha", "1"),
                ("response_kb", "20"),
            ],
            window: None,
            xs: &[40.0, 100.0, 150.0, 200.0, 300.0, 400.0],
            // One incast of `degree` 20 KB responses at time 0 to a random
            // target, repeating responders (multiple connections per
            // server) once `degree` exceeds the host count.
            base: |degree, seed, s| Scenario {
                overrides: Overrides {
                    shared_buffer_bytes: Some(1_700_000),
                    ..Overrides::default()
                },
                duration_ms: 0,
                drain_ms: 5000,
                workloads: vec![WorkloadSpec::Incast {
                    target: HostId::from_index(SimRng::new(seed).fork("big-incast").below(128)).0,
                    degree: count(degree),
                    response_bytes: 20_000,
                    at_ms: 0,
                }],
                ..table2(seed, s)
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
        },
        // §5.5.4: inter-switch capacity divided by 1–4 (1:1 to 1:16
        // end-to-end). The QCT win persists at every level without hurting
        // background FCT: the last hop stays the query bottleneck.
        Sweep {
            id: "tab_oversubscription",
            title: "Oversubscribed fabrics (§5.5.4)",
            x_label: "fabric_rate_divisor",
            params: &[
                ("qps", "300"),
                ("incast_degree", "40"),
                ("response_kb", "20"),
                ("bg_interarrival_ms", "120"),
            ],
            window: Some(Window::Mixed),
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
        },
        // §5.6: Jain's index over per-flow goodput (after a warmup) for N
        // long-lived flows each way across 64 node-disjoint pairs. DIBS must
        // not reduce it relative to DCTCP; flow-level ECMP collisions cap it
        // below 1.0 at small N (see EXPERIMENTS.md).
        Sweep {
            id: "tab_fairness",
            title: "Jain's fairness index for long-lived flows (§5.6)",
            x_label: "flows_per_pair",
            params: &[("pairs", "64")],
            window: Some(Window::Fairness),
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
        },
        // §7: parameterless random detouring captures nearly all of the
        // benefit of the load-aware, flow-based and probabilistic policies.
        Sweep {
            id: "abl_detour_policies",
            title: "Ablation: detour policies at three query intensities (§7)",
            x_label: "qps",
            params: &[
                ("incast_degree", "40"),
                ("response_kb", "20"),
                ("bg_interarrival_ms", "120"),
            ],
            window: Some(Window::Mixed),
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
        },
        // §7 and footnote 10: richer neighborhoods (HyperX, Jellyfish) suit
        // DIBS at least as well as the fat-tree; on the linear chain the
        // congestion is persistent and DIBS stops helping.
        Sweep {
            id: "abl_topologies",
            title: "Ablation: DIBS across topology families (§7)",
            x_label: "topology_index",
            params: &[
                ("qps", "1000"),
                ("incast_degree", "40"),
                ("response_kb", "20"),
                ("topology_0", "fat_tree_k8"),
                ("topology_1", "jellyfish"),
                ("topology_2", "hyperx_4x4"),
                ("topology_3", "linear_x8"),
            ],
            window: Some(Window::Mixed),
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
        },
        // §6: PFC is lossless too, but head-of-line blocking makes its p99
        // QCT far worse than DIBS and at high load it damages background
        // FCT.
        Sweep {
            id: "abl_flow_control",
            title: "Ablation: DIBS vs Ethernet flow control (§6)",
            x_label: "qps",
            params: &[
                ("incast_degree", "40"),
                ("response_kb", "20"),
                ("bg_interarrival_ms", "120"),
                ("pfc_xoff", "12"),
                ("pfc_xon", "6"),
            ],
            window: Some(Window::Mixed),
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
        },
        // §6: packet-level ECMP spraying does not help incast (the
        // destination link still overflows); better multipath routing is
        // no substitute for DIBS.
        Sweep {
            id: "abl_ecmp",
            title: "Ablation: flow-level vs packet-level ECMP vs DIBS (§6)",
            x_label: "qps",
            params: &[
                ("incast_degree", "40"),
                ("response_kb", "20"),
                ("bg_interarrival_ms", "120"),
            ],
            window: Some(Window::Mixed),
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
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn sweep_ids_are_unique() {
        let ids = ids();
        let unique: BTreeSet<_> = ids.iter().collect();
        assert_eq!(unique.len(), ids.len(), "{ids:?}");
        assert_eq!(ids.len(), 17);
    }

    #[test]
    fn xs_are_distinct_whole_non_negative_numbers() {
        for s in table() {
            assert!(!s.xs.is_empty(), "{}", s.id);
            for &x in s.xs {
                assert!(
                    x >= 0.0 && x.fract() == 0.0 && x < 2f64.powi(53),
                    "{}: x = {x}",
                    s.id
                );
                assert_eq!(whole(x) as f64, x, "{}: x = {x}", s.id);
            }
            let seeds: BTreeSet<u64> = s.xs.iter().map(|&x| whole(x)).collect();
            assert_eq!(seeds.len(), s.xs.len(), "{}: duplicate x", s.id);
        }
    }

    #[test]
    fn column_names_are_unique_and_name_an_arm() {
        for s in table() {
            assert!(!s.arms.is_empty(), "{}", s.id);
            let arms: BTreeSet<&str> = s.arms.iter().map(|a| a.name).collect();
            assert_eq!(arms.len(), s.arms.len(), "{}: duplicate arm", s.id);
            let names: BTreeSet<&str> = s.columns.iter().map(|c| c.name.as_str()).collect();
            assert_eq!(names.len(), s.columns.len(), "{}: duplicate column", s.id);
            for c in &s.columns {
                assert!(
                    arms.contains(c.arm),
                    "{}: {} reads arm {}",
                    s.id,
                    c.name,
                    c.arm
                );
            }
        }
    }

    #[test]
    fn every_point_is_a_valid_scenario_at_every_scale() {
        for s in table() {
            for scale in [Scale::Quick, Scale::Default, Scale::Full] {
                for &x in s.xs {
                    for arm in &s.arms {
                        let scenario = s.scenario(x, arm, 1, scale);
                        let valid = scenario.topology.check().and(scenario.sim_config());
                        if let Err(e) = valid {
                            panic!("{} x={x} {} at {scale:?}: {e}", s.id, arm.name);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn unknown_id_lists_the_valid_ids() {
        assert_eq!(find("fig13_ttl").map(|s| s.id), Ok("fig13_ttl"));
        let err = find("fig99_nope").map(|s| s.id).unwrap_err();
        assert!(err.contains("unknown sweep id `fig99_nope`"), "{err}");
        for id in ids() {
            assert!(err.contains(id), "{err} omits {id}");
        }
    }
}
