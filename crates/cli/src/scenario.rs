//! JSON scenario schema for the `dibs-sim` command-line runner.
//!
//! A scenario bundles a topology, a scheme (switch + host configuration),
//! traffic, and output options:
//!
//! ```json
//! {
//!   "seed": 1,
//!   "topology": { "type": "fat_tree", "k": 8 },
//!   "scheme": "dctcp_dibs",
//!   "duration_ms": 400,
//!   "drain_ms": 600,
//!   "workloads": [
//!     { "type": "background", "interarrival_ms": 120 },
//!     { "type": "query", "qps": 300, "degree": 40, "response_bytes": 20000 }
//!   ]
//! }
//! ```
//!
//! The sweep table of `dibs-bench` declares every figure point as a
//! `Scenario` too, so `dibs-sim` re-runs any point: background flows and
//! queries come from the same `workload/background` and `workload/query`
//! streams ([`dibs::presets::traffic_rngs`]) the presets draw from. A
//! scenario therefore holds at most one `background` and one `query`
//! workload; target-less incasts share one stream too
//! ([`WorkloadSpec::Incast`]). One with `long_lived` flows measures their
//! goodput after a warmup of the first quarter of its horizon.

use dibs_engine::rng::SimRng;
use dibs_engine::time::{SimDuration, SimTime};
use dibs_json::{FromJson, Json, JsonError, ObjReader};
use dibs_net::builders::{
    dumbbell, fat_tree, hyperx, jellyfish, linear, mini_testbed, single_switch, FatTreeParams,
    HyperXParams, JellyfishParams,
};
use dibs_net::ids::HostId;
use dibs_net::topology::{LinkSpec, Topology};
use dibs_switch::{BufferConfig, DibsPolicy};
use dibs_transport::FastRetransmit;
use dibs_workload::{
    round_robin_responders, BackgroundTraffic, FlowClass, FlowSpec, QuerySpec, QueryTraffic,
};

/// Top-level scenario file. Unknown fields are rejected so typos in
/// scenario files fail loudly instead of silently using defaults.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Root random seed (default 1).
    pub seed: u64,
    /// The network to simulate.
    pub topology: TopologySpec,
    /// Base scheme: `dctcp`, `dctcp_dibs`, or `pfabric`.
    pub scheme: Scheme,
    /// Fine-grained overrides applied on top of the scheme.
    pub overrides: Overrides,
    /// Traffic-generation window in milliseconds.
    pub duration_ms: u64,
    /// Drain time after the generation window, in milliseconds.
    pub drain_ms: u64,
    /// Link-utilization and neighbor-buffer sampling period in
    /// milliseconds (default: no sampling).
    pub sample_interval_ms: Option<u64>,
    /// Traffic to offer.
    pub workloads: Vec<WorkloadSpec>,
}

impl FromJson for Scenario {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let mut r = ObjReader::new(v, "scenario")?;
        let s = Scenario {
            seed: r.optional("seed", 1)?,
            topology: r.required("topology")?,
            scheme: r.optional("scheme", Scheme::default())?,
            overrides: r.optional("overrides", Overrides::default())?,
            duration_ms: r.optional("duration_ms", 400)?,
            drain_ms: r.optional("drain_ms", 600)?,
            sample_interval_ms: r.optional("sample_interval_ms", None)?,
            workloads: r.required("workloads")?,
        };
        r.deny_unknown()?;
        Ok(s)
    }
}

/// Topology selection, tagged by a `"type"` field in JSON.
#[derive(Debug, Clone)]
pub enum TopologySpec {
    /// K-ary fat-tree (K even).
    FatTree {
        /// Arity (8 = the paper's 128-host fabric).
        k: usize,
        /// Divide inter-switch capacity by this factor (default 1).
        oversubscription: u64,
    },
    /// The §5.2 testbed: 2 aggregation, 3 edge, 6 hosts.
    MiniTestbed,
    /// `hosts` hosts on one switch.
    SingleSwitch {
        /// Number of hosts.
        hosts: usize,
    },
    /// Random regular graph.
    Jellyfish {
        /// Switch count.
        switches: usize,
        /// Inter-switch degree.
        degree: usize,
        /// Hosts per switch.
        hosts_per_switch: usize,
    },
    /// Full mesh along each lattice dimension.
    Hyperx {
        /// Lattice shape, e.g. `[4, 4]`.
        shape: Vec<usize>,
        /// Hosts per switch.
        hosts_per_switch: usize,
    },
    /// A chain of switches.
    Linear {
        /// Switch count.
        switches: usize,
        /// Hosts per switch.
        hosts_per_switch: usize,
    },
    /// Two switches joined by a bottleneck link.
    Dumbbell {
        /// Hosts on each side.
        hosts_per_side: usize,
        /// Bottleneck rate in Gbit/s (default 1).
        bottleneck_gbps: u64,
    },
}

impl FromJson for TopologySpec {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let mut r = ObjReader::new(v, "topology")?;
        let kind: String = r.required("type")?;
        let spec = match kind.as_str() {
            "fat_tree" => TopologySpec::FatTree {
                k: r.required("k")?,
                oversubscription: r.optional("oversubscription", 1)?,
            },
            "mini_testbed" => TopologySpec::MiniTestbed,
            "single_switch" => TopologySpec::SingleSwitch {
                hosts: r.required("hosts")?,
            },
            "jellyfish" => TopologySpec::Jellyfish {
                switches: r.required("switches")?,
                degree: r.required("degree")?,
                hosts_per_switch: r.required("hosts_per_switch")?,
            },
            "hyperx" => TopologySpec::Hyperx {
                shape: r.required("shape")?,
                hosts_per_switch: r.required("hosts_per_switch")?,
            },
            "linear" => TopologySpec::Linear {
                switches: r.required("switches")?,
                hosts_per_switch: r.required("hosts_per_switch")?,
            },
            "dumbbell" => TopologySpec::Dumbbell {
                hosts_per_side: r.required("hosts_per_side")?,
                bottleneck_gbps: r.optional("bottleneck_gbps", 1)?,
            },
            other => {
                return Err(JsonError::msg(format!("unknown topology type `{other}`")));
            }
        };
        r.deny_unknown()?;
        Ok(spec)
    }
}

/// Most `nodes × hosts` a topology may have. Routing keeps a distance and
/// a next-hop offset for every (node, destination host) pair, so this
/// bounds its tables near 1 GB; a K=32 fat-tree (78M) fits.
const MAX_NODES_TIMES_HOSTS: u128 = 1 << 27;

impl TopologySpec {
    /// `nodes × hosts` of the shape, computed from its parameters alone
    /// (saturating, so absurd inputs stay comparable). A jellyfish counts
    /// its degree in place of hosts when that is larger, since it wires
    /// `switches × degree` ports.
    fn nodes_times_hosts(&self) -> u128 {
        let (switches, mut hosts) = self.switches_and_hosts();
        if let TopologySpec::Jellyfish { degree, .. } = *self {
            hosts = hosts.max(degree as u128);
        }
        switches.saturating_add(hosts).saturating_mul(hosts.max(1))
    }

    /// The shape's switch and host counts, from its parameters alone
    /// (saturating).
    fn switches_and_hosts(&self) -> (u128, u128) {
        let n = |x: usize| x as u128;
        match *self {
            TopologySpec::FatTree { k, .. } => {
                let k = n(k);
                ((k * k / 4).saturating_mul(5), k.saturating_mul(k * k) / 4)
            }
            TopologySpec::MiniTestbed => (5, 6),
            TopologySpec::SingleSwitch { hosts } => (1, n(hosts)),
            TopologySpec::Jellyfish {
                switches,
                hosts_per_switch,
                ..
            } => (n(switches), n(switches).saturating_mul(n(hosts_per_switch))),
            TopologySpec::Hyperx {
                ref shape,
                hosts_per_switch,
            } => {
                let switches = shape.iter().fold(1, |p: u128, &d| p.saturating_mul(n(d)));
                (switches, switches.saturating_mul(n(hosts_per_switch)))
            }
            TopologySpec::Linear {
                switches,
                hosts_per_switch,
            } => (n(switches), n(switches).saturating_mul(n(hosts_per_switch))),
            TopologySpec::Dumbbell { hosts_per_side, .. } => (2, 2 * n(hosts_per_side)),
        }
    }

    /// Checks the builder's preconditions and the size budget, so a bad
    /// shape is a scenario error instead of a panic or an aborted
    /// allocation inside the builder. Runs on the spec's parameters alone,
    /// before anything is built.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError`] naming the violated precondition, or the
    /// shape's size when it exceeds the budget.
    pub fn check(&self) -> Result<(), ScenarioError> {
        let size = self.nodes_times_hosts();
        if size > MAX_NODES_TIMES_HOSTS {
            return Err(ScenarioError(format!(
                "topology too large: nodes × hosts is {size}, above the limit of \
                 {MAX_NODES_TIMES_HOSTS}"
            )));
        }
        let problem = match *self {
            TopologySpec::FatTree { k, .. } if k < 2 || !k.is_multiple_of(2) => {
                format!("fat_tree k must be even and at least 2, got {k}")
            }
            TopologySpec::FatTree {
                oversubscription: 0,
                ..
            } => "fat_tree oversubscription must be at least 1".into(),
            TopologySpec::Jellyfish {
                switches, degree, ..
            } if degree >= switches => {
                format!("jellyfish degree {degree} must be below switches {switches}")
            }
            TopologySpec::Jellyfish {
                switches, degree, ..
            } if switches % 2 == 1 && degree % 2 == 1 => {
                format!("jellyfish switches*degree must be even, got {switches}*{degree}")
            }
            TopologySpec::Hyperx { ref shape, .. } if shape.is_empty() => {
                "hyperx shape needs at least one dimension".into()
            }
            TopologySpec::Hyperx { ref shape, .. } if shape.contains(&0) => {
                format!("hyperx dimensions must be at least 1, got {shape:?}")
            }
            TopologySpec::Linear { switches: 0, .. } => "linear needs at least one switch".into(),
            TopologySpec::Dumbbell {
                bottleneck_gbps: 0, ..
            } => "dumbbell bottleneck_gbps must be at least 1".into(),
            _ => return Ok(()),
        };
        Err(ScenarioError(problem))
    }

    /// Builds the topology (deterministic given `seed` for random families).
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError`] when the shape violates the builder's
    /// preconditions (an odd fat-tree `k`, a jellyfish degree not below the
    /// switch count, an empty hyperx shape, a linear chain of no switches,
    /// a zero-rate link) or is too large to route (see
    /// [`TopologySpec::check`]).
    pub fn build(&self, seed: u64) -> Result<Topology, ScenarioError> {
        self.check()?;
        let gbit = LinkSpec::gbit(1);
        Ok(match *self {
            TopologySpec::FatTree {
                k,
                oversubscription,
            } => fat_tree(FatTreeParams {
                k,
                host_link: gbit,
                fabric_link: gbit.slower_by(oversubscription),
            }),
            TopologySpec::MiniTestbed => mini_testbed(gbit),
            TopologySpec::SingleSwitch { hosts } => single_switch(hosts, gbit),
            TopologySpec::Jellyfish {
                switches,
                degree,
                hosts_per_switch,
            } => {
                let mut rng = SimRng::new(seed).fork("cli/jellyfish");
                jellyfish(
                    JellyfishParams {
                        switches,
                        degree,
                        hosts_per_switch,
                        host_link: gbit,
                        fabric_link: gbit,
                    },
                    &mut rng,
                )
            }
            TopologySpec::Hyperx {
                ref shape,
                hosts_per_switch,
            } => hyperx(HyperXParams {
                shape,
                hosts_per_switch,
                host_link: gbit,
                fabric_link: gbit,
            }),
            TopologySpec::Linear {
                switches,
                hosts_per_switch,
            } => linear(switches, hosts_per_switch, gbit),
            TopologySpec::Dumbbell {
                hosts_per_side,
                bottleneck_gbps,
            } => dumbbell(
                hosts_per_side,
                hosts_per_side,
                gbit,
                LinkSpec {
                    rate_bps: bottleneck_gbps * 1_000_000_000,
                    delay: gbit.delay,
                },
            ),
        })
    }
}

/// Base scheme presets.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Scheme {
    /// DCTCP without detouring (droptail baseline).
    Dctcp,
    /// DCTCP with random DIBS detouring (the paper's system).
    #[default]
    DctcpDibs,
    /// pFabric switches and host stack.
    Pfabric,
}

impl FromJson for Scheme {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match String::from_json(v)?.as_str() {
            "dctcp" => Ok(Scheme::Dctcp),
            "dctcp_dibs" => Ok(Scheme::DctcpDibs),
            "pfabric" => Ok(Scheme::Pfabric),
            other => Err(JsonError::msg(format!("unknown scheme `{other}`"))),
        }
    }
}

/// Optional parameter overrides.
#[derive(Debug, Clone, Default)]
pub struct Overrides {
    /// Per-port buffer in packets (`0` = infinite buffers).
    pub buffer_packets: Option<usize>,
    /// Shared-memory (DBA) buffer in bytes instead of per-port buffers.
    pub shared_buffer_bytes: Option<u64>,
    /// ECN marking threshold in packets (`0` disables marking).
    pub ecn_threshold: Option<usize>,
    /// Detour policy: `disabled`, `random`, `load_aware`, `flow_based`, or
    /// `probabilistic:<onset>` (e.g. `probabilistic:0.85`). Under
    /// `pfabric` only `disabled` is accepted: a full pFabric queue
    /// displaces by priority before any detour policy could act.
    pub dibs_policy: Option<String>,
    /// Minimum RTO in microseconds; under `pfabric`, the fixed RTO.
    pub min_rto_us: Option<u64>,
    /// Initial TTL.
    pub ttl: Option<u8>,
    /// Dupack threshold for fast retransmit (`0` disables it).
    pub fast_retransmit: Option<u32>,
    /// Receiver ack coalescing factor.
    pub ack_every: Option<u32>,
    /// `flow` or `packet` level ECMP.
    pub ecmp: Option<String>,
    /// Enable PFC with `[xoff, xon]` per-ingress thresholds.
    pub pfc: Option<[usize; 2]>,
}

impl FromJson for Overrides {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let mut r = ObjReader::new(v, "overrides")?;
        let o = Overrides {
            buffer_packets: r.optional("buffer_packets", None)?,
            shared_buffer_bytes: r.optional("shared_buffer_bytes", None)?,
            ecn_threshold: r.optional("ecn_threshold", None)?,
            dibs_policy: r.optional("dibs_policy", None)?,
            min_rto_us: r.optional("min_rto_us", None)?,
            ttl: r.optional("ttl", None)?,
            fast_retransmit: r.optional("fast_retransmit", None)?,
            ack_every: r.optional("ack_every", None)?,
            ecmp: r.optional("ecmp", None)?,
            pfc: r.optional("pfc", None)?,
        };
        r.deny_unknown()?;
        Ok(o)
    }
}

impl Overrides {
    /// These overrides layered over `base`: each field set here wins, and
    /// the others keep `base`'s value.
    pub fn over(self, base: &Overrides) -> Overrides {
        let base = base.clone();
        Overrides {
            buffer_packets: self.buffer_packets.or(base.buffer_packets),
            shared_buffer_bytes: self.shared_buffer_bytes.or(base.shared_buffer_bytes),
            ecn_threshold: self.ecn_threshold.or(base.ecn_threshold),
            dibs_policy: self.dibs_policy.or(base.dibs_policy),
            min_rto_us: self.min_rto_us.or(base.min_rto_us),
            ttl: self.ttl.or(base.ttl),
            fast_retransmit: self.fast_retransmit.or(base.fast_retransmit),
            ack_every: self.ack_every.or(base.ack_every),
            ecmp: self.ecmp.or(base.ecmp),
            pfc: self.pfc.or(base.pfc),
        }
    }
}

/// One traffic component, tagged by a `"type"` field in JSON.
#[derive(Debug, Clone)]
pub enum WorkloadSpec {
    /// DCTCP-paper background traffic.
    Background {
        /// Mean per-host flow inter-arrival in milliseconds.
        interarrival_ms: u64,
    },
    /// Partition-aggregate query traffic.
    Query {
        /// Queries per second.
        qps: f64,
        /// Responders per query.
        degree: usize,
        /// Bytes per response.
        response_bytes: u64,
    },
    /// One incast at a fixed time.
    Incast {
        /// Target host index. With a target, responders cycle round-robin
        /// over the other hosts (repeating once `degree` exceeds them).
        /// Without one, the target and `degree` distinct responders are
        /// drawn from the seed's `workload/single-incast` stream
        /// ([`dibs::presets::random_incast`]); all target-less incasts draw
        /// from that one stream in workload order, so the first matches
        /// [`dibs::presets::single_incast_sim`].
        target: Option<u32>,
        /// Number of responders.
        degree: usize,
        /// Bytes per response.
        response_bytes: u64,
        /// Start time in milliseconds (default 0).
        at_ms: u64,
    },
    /// §5.6 long-lived node-disjoint pair flows.
    LongLived {
        /// Flows per pair per direction.
        flows_per_pair: usize,
    },
    /// A single explicit flow.
    Flow {
        /// Source host index.
        src: u32,
        /// Destination host index.
        dst: u32,
        /// Bytes to transfer.
        bytes: u64,
        /// Start time in milliseconds (default 0).
        at_ms: u64,
    },
}

impl FromJson for WorkloadSpec {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let mut r = ObjReader::new(v, "workload")?;
        let kind: String = r.required("type")?;
        let spec = match kind.as_str() {
            "background" => WorkloadSpec::Background {
                interarrival_ms: r.required("interarrival_ms")?,
            },
            "query" => WorkloadSpec::Query {
                qps: r.required("qps")?,
                degree: r.required("degree")?,
                response_bytes: r.required("response_bytes")?,
            },
            "incast" => WorkloadSpec::Incast {
                target: r.optional("target", None)?,
                degree: r.required("degree")?,
                response_bytes: r.required("response_bytes")?,
                at_ms: r.optional("at_ms", 0)?,
            },
            "long_lived" => WorkloadSpec::LongLived {
                flows_per_pair: r.required("flows_per_pair")?,
            },
            "flow" => WorkloadSpec::Flow {
                src: r.required("src")?,
                dst: r.required("dst")?,
                bytes: r.required("bytes")?,
                at_ms: r.optional("at_ms", 0)?,
            },
            other => {
                return Err(JsonError::msg(format!("unknown workload type `{other}`")));
            }
        };
        r.deny_unknown()?;
        Ok(spec)
    }
}

/// The largest millisecond count the nanosecond clock holds.
const MAX_MS: u64 = u64::MAX / 1_000_000;
/// The largest microsecond count the nanosecond clock holds.
const MAX_US: u64 = u64::MAX / 1_000;

/// Most flows a scenario's workloads may be expected to generate, in
/// total: 2^20, about 600 MB of flow state. The heaviest sweep point at
/// `--full` (Fig 14: 14,000 qps for 500 ms with 40 responders) expects
/// 280,000.
const MAX_EXPECTED_FLOWS: u64 = 1 << 20;

/// A scenario error with context.
#[derive(Debug)]
pub struct ScenarioError(pub String);

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "scenario error: {}", self.0)
    }
}
impl std::error::Error for ScenarioError {}

impl Scenario {
    /// Parses a scenario from JSON text.
    pub fn from_json(s: &str) -> Result<Self, ScenarioError> {
        let v = Json::parse(s).map_err(|e| ScenarioError(e.0))?;
        FromJson::from_json(&v).map_err(|e| ScenarioError(e.0))
    }

    /// The configured horizon, saturating at [`SimTime::MAX`] (which
    /// [`Scenario::sim_config`] rejects).
    pub fn horizon(&self) -> SimTime {
        let ms = self.duration_ms.saturating_add(self.drain_ms);
        SimTime::from_nanos(ms.saturating_mul(1_000_000))
    }

    /// Resolves scheme + overrides into a `SimConfig`, rejecting every
    /// time field that would overflow the nanosecond clock, every traffic
    /// rate whose mean gap is not positive and finite, a second
    /// `background` or `query` workload, workloads expected to generate
    /// more than 2^20 flows in total (checked from the parameters, before
    /// anything is generated), a target-less incast whose degree is not
    /// below the host count, a sampling period of 0 ms, and a detour policy
    /// under `pfabric`.
    pub fn sim_config(&self) -> Result<dibs::SimConfig, ScenarioError> {
        let too_long = |field: &str, ms: u64| {
            if ms > MAX_MS {
                Err(ScenarioError(format!(
                    "{field} must be at most {MAX_MS} ms"
                )))
            } else {
                Ok(())
            }
        };
        let total_ms = self.duration_ms.saturating_add(self.drain_ms);
        too_long("duration_ms + drain_ms", total_ms)?;
        if self.sample_interval_ms == Some(0) {
            return Err(ScenarioError(
                "sample_interval_ms must be at least 1 ms".into(),
            ));
        }
        too_long("sample_interval_ms", self.sample_interval_ms.unwrap_or(0))?;
        let (mut backgrounds, mut queries, mut long_lived) = (0, 0, false);
        let host_count = self.topology.switches_and_hosts().1;
        let hosts = host_count as f64;
        let duration_ms = self.duration_ms as f64;
        let mut expected_flows = 0.0;
        for wl in &self.workloads {
            let (field, flows) = match *wl {
                WorkloadSpec::Background { interarrival_ms } => {
                    backgrounds += 1;
                    if interarrival_ms == 0 {
                        return Err(ScenarioError(
                            "interarrival_ms must be at least 1 ms".into(),
                        ));
                    }
                    too_long("interarrival_ms", interarrival_ms)?;
                    (
                        "background interarrival_ms",
                        hosts * duration_ms / interarrival_ms as f64,
                    )
                }
                WorkloadSpec::Query { qps, degree, .. } => {
                    queries += 1;
                    // Queries arrive with a mean gap of 1/qps seconds,
                    // which must itself be positive and finite.
                    if !(qps.is_finite() && qps > 0.0 && qps.recip().is_finite()) {
                        return Err(ScenarioError(format!(
                            "qps must be positive and finite with a finite reciprocal, got \
                             {qps:?}"
                        )));
                    }
                    // A query without responders still costs an entry.
                    let per_query = degree.max(1) as f64;
                    ("query qps", qps * duration_ms / 1000.0 * per_query)
                }
                WorkloadSpec::Incast {
                    target,
                    at_ms,
                    degree,
                    ..
                } => {
                    too_long("at_ms", at_ms)?;
                    if target.is_none() && degree as u128 >= host_count {
                        return Err(ScenarioError(format!(
                            "incast degree {degree} without a target needs more than \
                             {host_count} hosts"
                        )));
                    }
                    ("incast degree", degree as f64)
                }
                WorkloadSpec::LongLived { flows_per_pair } => {
                    long_lived = true;
                    ("long_lived flows_per_pair", flows_per_pair as f64 * hosts)
                }
                WorkloadSpec::Flow { at_ms, .. } => {
                    too_long("at_ms", at_ms)?;
                    ("flow", 1.0)
                }
            };
            expected_flows += flows;
            if expected_flows > MAX_EXPECTED_FLOWS as f64 {
                return Err(ScenarioError(format!(
                    "{field}: the workloads would generate about {expected_flows:.3e} flows, \
                     above the limit of {MAX_EXPECTED_FLOWS}"
                )));
            }
        }
        if backgrounds > 1 || queries > 1 {
            return Err(ScenarioError(
                "a scenario holds at most one background and one query workload".into(),
            ));
        }
        if self.overrides.min_rto_us.is_some_and(|us| us > MAX_US) {
            return Err(ScenarioError(format!(
                "min_rto_us must be at most {MAX_US} us"
            )));
        }
        let mut cfg = match self.scheme {
            Scheme::Dctcp => dibs::SimConfig::dctcp_baseline(),
            Scheme::DctcpDibs => dibs::SimConfig::dctcp_dibs(),
            Scheme::Pfabric => dibs::SimConfig::pfabric(),
        };
        cfg.seed = self.seed;
        cfg.horizon = self.horizon();
        cfg.sample_interval = self.sample_interval_ms.map(SimDuration::from_millis);
        // Long-lived flows start together; their goodput is measured past
        // that transient (§5.6).
        if long_lived {
            cfg.throughput_warmup = Some(SimTime::from_millis(total_ms / 4));
        }
        let o = &self.overrides;
        if let Some(pkts) = o.buffer_packets {
            cfg.switch.buffer = if pkts == 0 {
                BufferConfig::Infinite
            } else {
                BufferConfig::StaticPerPort { packets: pkts }
            };
        }
        if let Some(bytes) = o.shared_buffer_bytes {
            cfg.switch.buffer = BufferConfig::DynamicShared {
                total_bytes: bytes,
                alpha: 1.0,
                per_port_reserve_bytes: 2 * 1500,
            };
        }
        if let Some(k) = o.ecn_threshold {
            cfg.switch.ecn_threshold = if k == 0 { None } else { Some(k) };
        }
        if let Some(ref p) = o.dibs_policy {
            cfg.switch.dibs = parse_policy(p)?;
            if self.scheme == Scheme::Pfabric && cfg.switch.dibs != DibsPolicy::Disabled {
                return Err(ScenarioError(format!(
                    "dibs_policy `{p}` does not run under scheme pfabric: a full pFabric queue \
                     displaces by priority before any detour policy acts; use `disabled`"
                )));
            }
        }
        if let Some(us) = o.min_rto_us {
            cfg.tcp.min_rto = SimDuration::from_micros(us);
        }
        if let Some(ttl) = o.ttl {
            cfg.tcp.initial_ttl = ttl;
        }
        if let Some(k) = o.fast_retransmit {
            cfg.tcp.fast_retransmit = if k == 0 {
                FastRetransmit::Disabled
            } else {
                FastRetransmit::DupAckThreshold(k)
            };
        }
        if let Some(m) = o.ack_every {
            if m == 0 {
                return Err(ScenarioError("ack_every must be >= 1".into()));
            }
            cfg.tcp.ack_every = m;
        }
        if let Some(ref e) = o.ecmp {
            cfg.ecmp = match e.as_str() {
                "flow" => dibs::EcmpMode::FlowLevel,
                "packet" => dibs::EcmpMode::PacketLevel,
                other => return Err(ScenarioError(format!("unknown ecmp mode `{other}`"))),
            };
        }
        if let Some([xoff, xon]) = o.pfc {
            if xon >= xoff {
                return Err(ScenarioError("pfc xon must be below xoff".into()));
            }
            cfg.pfc = Some(dibs::PfcConfig {
                xoff,
                xon,
                control_delay: SimDuration::from_micros(1),
            });
        }
        Ok(cfg)
    }

    /// Builds the fully wired simulation.
    pub fn build(&self) -> Result<dibs::Simulation, ScenarioError> {
        let topo = self.topology.build(self.seed)?;
        topo.validate().map_err(ScenarioError)?;
        let hosts = topo.num_hosts();
        if hosts < 2 {
            return Err(ScenarioError("topology needs at least 2 hosts".into()));
        }
        let cfg = self.sim_config()?;
        let mut sim = dibs::Simulation::new(topo, cfg);
        let duration = SimDuration::from_millis(self.duration_ms);
        let (mut bg_rng, mut q_rng) = dibs::presets::traffic_rngs(self.seed);
        let mut incast_rng = dibs::presets::incast_rng(self.seed);
        for wl in &self.workloads {
            match *wl {
                WorkloadSpec::Background { interarrival_ms } => {
                    sim.add_flows(
                        BackgroundTraffic::paper(SimDuration::from_millis(interarrival_ms))
                            .generate(hosts, duration, &mut bg_rng),
                    );
                }
                WorkloadSpec::Query {
                    qps,
                    degree,
                    response_bytes,
                } => {
                    if degree >= hosts {
                        return Err(ScenarioError(format!(
                            "query degree {degree} needs more than {hosts} hosts"
                        )));
                    }
                    let queries = QueryTraffic {
                        qps,
                        degree,
                        response_bytes,
                    }
                    .generate(hosts, duration, &mut q_rng);
                    sim.add_queries(&queries);
                }
                WorkloadSpec::Incast {
                    target,
                    degree,
                    response_bytes,
                    at_ms,
                } => {
                    let (target, responders) = match target {
                        None => dibs::presets::random_incast(&mut incast_rng, hosts, degree),
                        Some(t) if t as usize >= hosts => {
                            return Err(ScenarioError(format!("incast target {t} out of range")));
                        }
                        Some(t) => (HostId(t), round_robin_responders(hosts, HostId(t), degree)),
                    };
                    sim.add_queries(&[QuerySpec {
                        start: SimTime::from_millis(at_ms),
                        target,
                        responders,
                        response_bytes,
                    }]);
                }
                WorkloadSpec::LongLived { flows_per_pair } => {
                    if !hosts.is_multiple_of(2) {
                        return Err(ScenarioError("long_lived needs an even host count".into()));
                    }
                    sim.add_flows(dibs_workload::long_lived_pairs(hosts, flows_per_pair));
                }
                WorkloadSpec::Flow {
                    src,
                    dst,
                    bytes,
                    at_ms,
                } => {
                    if src == dst || src as usize >= hosts || dst as usize >= hosts {
                        return Err(ScenarioError(format!("bad flow endpoints {src}->{dst}")));
                    }
                    sim.add_flows([FlowSpec {
                        start: SimTime::from_millis(at_ms),
                        src: HostId(src),
                        dst: HostId(dst),
                        size: bytes,
                        class: FlowClass::Background,
                    }]);
                }
            }
        }
        Ok(sim)
    }
}

fn parse_policy(s: &str) -> Result<DibsPolicy, ScenarioError> {
    match s {
        "disabled" => Ok(DibsPolicy::Disabled),
        "random" => Ok(DibsPolicy::Random),
        "load_aware" => Ok(DibsPolicy::LoadAware),
        "flow_based" => Ok(DibsPolicy::FlowBased),
        other => {
            if let Some(onset) = other.strip_prefix("probabilistic:") {
                let onset: f64 = onset
                    .parse()
                    .map_err(|e| ScenarioError(format!("bad probabilistic onset: {e}")))?;
                if !(0.0..1.0).contains(&onset) {
                    return Err(ScenarioError("onset must be in [0, 1)".into()));
                }
                Ok(DibsPolicy::Probabilistic { onset })
            } else {
                Err(ScenarioError(format!("unknown dibs policy `{other}`")))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_scenario() {
        let s = Scenario::from_json(
            r#"{
                "topology": { "type": "mini_testbed" },
                "workloads": [
                    { "type": "incast", "target": 5, "degree": 50, "response_bytes": 32000 }
                ]
            }"#,
        )
        .unwrap();
        assert_eq!(s.seed, 1);
        assert_eq!(s.scheme, Scheme::DctcpDibs);
        assert_eq!(s.duration_ms, 400);
        let sim = s.build().unwrap();
        assert_eq!(sim.topology().num_hosts(), 6);
    }

    #[test]
    fn rejects_unknown_fields() {
        let err = Scenario::from_json(
            r#"{ "topology": { "type": "mini_testbed" }, "workloads": [], "bogus": 1 }"#,
        )
        .unwrap_err();
        assert!(err.0.contains("bogus"), "{err}");
    }

    #[test]
    fn parses_all_topologies() {
        for (json, hosts) in [
            (r#"{ "type": "fat_tree", "k": 4 }"#, 16),
            (
                r#"{ "type": "fat_tree", "k": 4, "oversubscription": 4 }"#,
                16,
            ),
            (r#"{ "type": "mini_testbed" }"#, 6),
            (r#"{ "type": "single_switch", "hosts": 7 }"#, 7),
            (
                r#"{ "type": "jellyfish", "switches": 10, "degree": 3, "hosts_per_switch": 2 }"#,
                20,
            ),
            (
                r#"{ "type": "hyperx", "shape": [3, 3], "hosts_per_switch": 2 }"#,
                18,
            ),
            (
                r#"{ "type": "linear", "switches": 3, "hosts_per_switch": 2 }"#,
                6,
            ),
            (r#"{ "type": "dumbbell", "hosts_per_side": 4 }"#, 8),
        ] {
            let spec = TopologySpec::from_json(&Json::parse(json).unwrap()).unwrap();
            let topo = spec.build(7).unwrap();
            assert_eq!(topo.num_hosts(), hosts, "{json}");
            // The size check counts what the builder makes.
            let size = u128::try_from(topo.num_nodes() * hosts).unwrap();
            assert_eq!(spec.nodes_times_hosts(), size, "{json}");
            assert!(topo.validate().is_ok());
        }
    }

    #[test]
    fn rejects_shapes_the_builders_cannot_make() {
        for (json, needle) in [
            (r#"{ "type": "fat_tree", "k": 3 }"#, "even"),
            (r#"{ "type": "fat_tree", "k": 0 }"#, "even"),
            (
                r#"{ "type": "fat_tree", "k": 4, "oversubscription": 0 }"#,
                "oversubscription",
            ),
            (
                r#"{ "type": "jellyfish", "switches": 4, "degree": 4, "hosts_per_switch": 1 }"#,
                "below switches",
            ),
            (
                r#"{ "type": "jellyfish", "switches": 5, "degree": 3, "hosts_per_switch": 1 }"#,
                "even",
            ),
            (
                r#"{ "type": "hyperx", "shape": [], "hosts_per_switch": 1 }"#,
                "at least one dimension",
            ),
            (
                r#"{ "type": "hyperx", "shape": [3, 0], "hosts_per_switch": 1 }"#,
                "at least 1",
            ),
            (
                r#"{ "type": "linear", "switches": 0, "hosts_per_switch": 2 }"#,
                "at least one switch",
            ),
            (
                r#"{ "type": "dumbbell", "hosts_per_side": 2, "bottleneck_gbps": 0 }"#,
                "bottleneck_gbps",
            ),
            // 180,048 nodes × 170,368 hosts: its routing distance table
            // alone would need 61 GB.
            (
                r#"{ "type": "fat_tree", "k": 88 }"#,
                "nodes × hosts is 30674417664",
            ),
            (
                r#"{ "type": "fat_tree", "k": 18446744073709551614 }"#,
                "too large",
            ),
            (
                r#"{ "type": "single_switch", "hosts": 18446744073709551615 }"#,
                "too large",
            ),
            (
                r#"{ "type": "jellyfish", "switches": 100000, "degree": 99999, "hosts_per_switch": 0 }"#,
                "too large",
            ),
        ] {
            let spec = TopologySpec::from_json(&Json::parse(json).unwrap()).unwrap();
            let err = spec.build(7).unwrap_err();
            assert!(err.0.contains(needle), "{json}: {err}");
        }
        // The same check surfaces through a whole scenario, as does a
        // topology the builder makes but cannot route (degree-1 jellyfish
        // pairs switches off into islands).
        for topology in [
            r#"{ "type": "fat_tree", "k": 3 }"#,
            r#"{ "type": "jellyfish", "switches": 4, "degree": 1, "hosts_per_switch": 1 }"#,
        ] {
            let s =
                Scenario::from_json(&format!(r#"{{ "topology": {topology}, "workloads": [] }}"#))
                    .unwrap();
            assert!(s.build().is_err(), "{topology}");
        }
    }

    #[test]
    fn overrides_apply() {
        let s = Scenario::from_json(
            r#"{
                "topology": { "type": "single_switch", "hosts": 4 },
                "scheme": "dctcp",
                "overrides": {
                    "buffer_packets": 50,
                    "ecn_threshold": 10,
                    "dibs_policy": "load_aware",
                    "min_rto_us": 2000,
                    "ttl": 32,
                    "fast_retransmit": 0,
                    "ack_every": 2,
                    "ecmp": "packet",
                    "pfc": [12, 6]
                },
                "workloads": []
            }"#,
        )
        .unwrap();
        let cfg = s.sim_config().unwrap();
        assert_eq!(
            cfg.switch.buffer,
            BufferConfig::StaticPerPort { packets: 50 }
        );
        assert_eq!(cfg.switch.ecn_threshold, Some(10));
        assert_eq!(cfg.switch.dibs, DibsPolicy::LoadAware);
        assert_eq!(cfg.tcp.min_rto, SimDuration::from_micros(2000));
        assert_eq!(cfg.tcp.initial_ttl, 32);
        assert_eq!(cfg.tcp.fast_retransmit, FastRetransmit::Disabled);
        assert_eq!(cfg.tcp.ack_every, 2);
        assert_eq!(cfg.ecmp, dibs::EcmpMode::PacketLevel);
        assert!(cfg.pfc.is_some());
    }

    #[test]
    fn pfabric_rejects_detour_policies_and_fixes_its_rto_at_min_rto() {
        let pfabric = |overrides: &str| {
            Scenario::from_json(&format!(
                r#"{{ "topology": {{ "type": "single_switch", "hosts": 4 }},
                     "scheme": "pfabric", "overrides": {overrides}, "workloads": [] }}"#
            ))
            .unwrap()
            .sim_config()
        };
        for policy in ["random", "load_aware", "flow_based", "probabilistic:0.5"] {
            let err = pfabric(&format!(r#"{{ "dibs_policy": "{policy}" }}"#)).unwrap_err();
            assert!(err.0.contains("dibs_policy"), "{policy}: {err}");
        }
        let cfg = pfabric(r#"{ "dibs_policy": "disabled", "min_rto_us": 500 }"#).unwrap();
        assert_eq!(cfg.switch.dibs, DibsPolicy::Disabled);
        assert_eq!(cfg.tcp.cc, dibs_transport::CcAlgorithm::Pfabric);
        assert_eq!(cfg.tcp.min_rto, SimDuration::from_micros(500));
    }

    #[test]
    fn policy_parsing() {
        assert_eq!(parse_policy("random").unwrap(), DibsPolicy::Random);
        assert_eq!(parse_policy("disabled").unwrap(), DibsPolicy::Disabled);
        assert!(matches!(
            parse_policy("probabilistic:0.8").unwrap(),
            DibsPolicy::Probabilistic { .. }
        ));
        assert!(parse_policy("probabilistic:1.5").is_err());
        assert!(parse_policy("sideways").is_err());
    }

    #[test]
    fn validation_catches_bad_workloads() {
        let s = Scenario::from_json(
            r#"{
                "topology": { "type": "single_switch", "hosts": 4 },
                "workloads": [ { "type": "query", "qps": 10, "degree": 10, "response_bytes": 1 } ]
            }"#,
        )
        .unwrap();
        assert!(s.build().is_err());

        let s = Scenario::from_json(
            r#"{
                "topology": { "type": "single_switch", "hosts": 4 },
                "workloads": [ { "type": "flow", "src": 2, "dst": 2, "bytes": 5 } ]
            }"#,
        )
        .unwrap();
        assert!(s.build().is_err());
    }

    #[test]
    fn a_second_background_or_query_workload_is_an_error() {
        for (kind, workload) in [
            (
                "background",
                r#"{ "type": "background", "interarrival_ms": 50 }"#,
            ),
            (
                "query",
                r#"{ "type": "query", "qps": 10, "degree": 2, "response_bytes": 1 }"#,
            ),
        ] {
            let s = Scenario::from_json(&format!(
                r#"{{ "topology": {{ "type": "single_switch", "hosts": 4 }},
                     "workloads": [ {workload}, {workload} ] }}"#
            ))
            .unwrap();
            let err = s.sim_config().unwrap_err();
            assert!(
                err.0.contains("at most one background and one query"),
                "{kind}: {err}"
            );
        }
    }

    #[test]
    fn long_lived_flows_are_measured_after_a_quarter_of_the_horizon() {
        let s = Scenario::from_json(
            r#"{
                "topology": { "type": "single_switch", "hosts": 4 },
                "duration_ms": 0,
                "drain_ms": 250,
                "workloads": [ { "type": "long_lived", "flows_per_pair": 1 } ]
            }"#,
        )
        .unwrap();
        let cfg = s.sim_config().unwrap();
        assert_eq!(cfg.throughput_warmup, Some(SimTime::from_millis(62)));
        let short = Scenario {
            workloads: vec![],
            ..s
        };
        assert_eq!(short.sim_config().unwrap().throughput_warmup, None);
    }

    #[test]
    fn sample_interval_must_be_positive_and_fit_the_clock() {
        let with = |ms: &str| {
            Scenario::from_json(&format!(
                r#"{{ "topology": {{ "type": "single_switch", "hosts": 4 }},
                     "sample_interval_ms": {ms}, "workloads": [] }}"#
            ))
            .unwrap()
            .sim_config()
        };
        let err = with("0").unwrap_err();
        assert!(
            err.0.contains("sample_interval_ms must be at least 1 ms"),
            "{err}"
        );
        let err = with(&(MAX_MS + 1).to_string()).unwrap_err();
        assert!(
            err.0.contains("sample_interval_ms must be at most"),
            "{err}"
        );
        let cfg = with("1").unwrap();
        assert_eq!(cfg.sample_interval, Some(SimDuration::from_millis(1)));
        let unsampled = Scenario::from_json(
            r#"{ "topology": { "type": "single_switch", "hosts": 4 }, "workloads": [] }"#,
        )
        .unwrap();
        assert_eq!(unsampled.sim_config().unwrap().sample_interval, None);
    }

    #[test]
    fn a_targetless_incast_needs_more_hosts_than_its_degree() {
        let incast = |degree: usize| {
            Scenario::from_json(&format!(
                r#"{{ "topology": {{ "type": "single_switch", "hosts": 4 }},
                     "workloads": [ {{ "type": "incast", "degree": {degree},
                                      "response_bytes": 1000 }} ] }}"#
            ))
            .unwrap()
        };
        for degree in [4, 5, usize::MAX] {
            let s = incast(degree);
            let err = s.sim_config().unwrap_err();
            assert!(
                err.0.contains("without a target needs more than 4 hosts"),
                "{err}"
            );
            assert!(s.build().is_err(), "degree {degree}");
        }
        // With a target, responders repeat round-robin instead.
        let targeted = Scenario::from_json(
            r#"{ "topology": { "type": "single_switch", "hosts": 4 },
                 "workloads": [ { "type": "incast", "target": 0, "degree": 9,
                                  "response_bytes": 1000 } ] }"#,
        )
        .unwrap();
        assert!(targeted.build().is_ok());
        assert!(incast(3).build().is_ok());
    }

    #[test]
    fn targetless_incasts_draw_from_one_stream_in_workload_order() {
        let two = Scenario::from_json(
            r#"{ "seed": 3, "topology": { "type": "single_switch", "hosts": 16 },
                 "duration_ms": 0, "drain_ms": 100,
                 "workloads": [
                     { "type": "incast", "degree": 5, "response_bytes": 1000 },
                     { "type": "incast", "degree": 5, "response_bytes": 1000, "at_ms": 1 }
                 ] }"#,
        )
        .unwrap();
        // The same two draws, in order, from the one `workload/single-incast`
        // stream, added to the same simulation by hand.
        let mut rng = dibs::presets::incast_rng(3);
        let queries: Vec<QuerySpec> = [0, 1]
            .map(|at_ms| {
                let (target, responders) = dibs::presets::random_incast(&mut rng, 16, 5);
                QuerySpec {
                    start: SimTime::from_millis(at_ms),
                    target,
                    responders,
                    response_bytes: 1000,
                }
            })
            .into();
        assert_ne!(queries[0].responders, queries[1].responders);
        let mut by_hand = dibs::Simulation::new(
            single_switch(16, LinkSpec::gbit(1)),
            two.sim_config().unwrap(),
        );
        by_hand.add_queries(&queries);
        assert_eq!(
            dibs::RunDigest::of(&two.build().unwrap().run()),
            dibs::RunDigest::of(&by_hand.run())
        );
    }

    #[test]
    fn end_to_end_tiny_run() {
        let s = Scenario::from_json(
            r#"{
                "topology": { "type": "single_switch", "hosts": 3 },
                "duration_ms": 10,
                "drain_ms": 200,
                "workloads": [ { "type": "flow", "src": 1, "dst": 0, "bytes": 100000 } ]
            }"#,
        )
        .unwrap();
        let results = s.build().unwrap().run();
        assert_eq!(results.flows.len(), 1);
        assert_eq!(results.flows[0].bytes_delivered, 100_000);
    }
}
