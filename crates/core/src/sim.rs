//! The event-driven network simulator.
//!
//! All mutable state lives in arenas indexed by the id types of
//! `dibs-net`; the event loop dispatches a flat [`Event`] enum. Packets in
//! flight live in one [`PacketStore`]; events and queues carry their
//! [`PktRef`] handles. Every directed port of every node has one entry in
//! a flat port table and one transmit path (`kick`): a host sends from its
//! port's FIFO (congestion happens at switches, as in the paper's NS-3
//! setup), a switch from its `dibs-switch` egress queue.

use crate::audit::{AuditLedger, LedgerSnapshot};
use crate::config::SimConfig;
use crate::results::{FlowOutcome, QueryOutcome, RunResults};
use dibs_engine::rng::SimRng;
use dibs_engine::time::{SimDuration, SimTime};
use dibs_engine::Engine;
use dibs_fault::{FaultAction, FaultError, FaultPlan, FaultSpec};
use dibs_net::ids::{FlowId, HostId, LinkId, NodeId};
use dibs_net::packet::{Packet, PacketStore, PktRef};
use dibs_net::routing::{EcmpMemo, Fib};
use dibs_net::topology::Topology;
use dibs_stats::{NetCounters, Samples};
use dibs_switch::{EnqueueOutcome, SwitchCore};
use dibs_trace::{Subject, TraceKind, Tracer};
use dibs_transport::{IdGen, TcpReceiver, TcpSender};
use dibs_workload::{FlowClass, FlowSpec, QuerySpec};
use std::collections::VecDeque;

/// Maximum distinct detour counts tracked in the delivery histogram.
const DETOUR_HIST_BUCKETS: usize = 65;
/// Utilization at which a directed link counts as hot (Fig 4).
const HOT_LINK_THRESHOLD: f64 = 0.9;
/// Cap on the packet-store pre-size: live packets are bounded by the
/// buffers and windows in flight, far below a run's total packet count.
const STORE_RESERVE_CAP: usize = 1 << 14;

/// Simulator events.
#[derive(Debug)]
enum Event {
    /// A flow's start time arrived.
    FlowStart(u32),
    /// A packet finished propagating to `node`.
    Arrive { node: NodeId, pkt: PktRef },
    /// `node` finished serializing `pkt` out of `port`.
    TxComplete {
        node: NodeId,
        port: u32,
        pkt: PktRef,
    },
    /// A sender retransmission timer fired.
    RtoFire { flow: u32, gen: u64 },
    /// Periodic statistics tick.
    Sample,
    /// Snapshot per-flow delivered bytes for warmup-relative throughput.
    WarmupSnapshot,
    /// A PAUSE (true) or RESUME (false) frame took effect at `node`'s
    /// `port` (Ethernet flow control, §6).
    PauseSet {
        node: NodeId,
        port: u32,
        paused: bool,
    },
    /// The `i`-th timed fault in the resolved [`FaultPlan`] takes effect.
    Fault(u32),
}

// Events carry packet handles, not packets: keep an event (and with it an
// event-queue entry) small.
const _: () = assert!(std::mem::size_of::<Event>() <= 16);

/// The state of one directed port of any node, at `port_offsets[node] +
/// port` in [`Simulation::ports`] (the order of
/// [`Topology::directed_edges`]).
#[derive(Default)]
struct PortState {
    /// Host only: the egress FIFO (a switch queues in its buffer).
    queue: VecDeque<PktRef>,
    /// Bytes sent since the last sample tick (Figs 4, 5).
    tx_bytes: u64,
    /// Switch only: buffered packets that arrived through this port (PFC
    /// accounting).
    ingress_count: u32,
    /// The transmitter is serializing a frame.
    busy: bool,
    /// The link partner has PAUSEd this port (PFC).
    paused: bool,
    /// Switch only: this port has PAUSEd its link partner.
    pause_asserted: bool,
    /// The port's link is faulted down (set on both ends).
    link_down: bool,
}

struct FlowState {
    spec: FlowSpec,
    sender: TcpSender,
    receiver: TcpReceiver,
    /// Last RTO generation for which an event was scheduled.
    timer_scheduled: u64,
    /// Query this flow belongs to, if any.
    query: Option<usize>,
    done_recorded: bool,
}

struct QueryState {
    start: SimTime,
    total: usize,
    completed: usize,
    qct: Option<SimDuration>,
}

/// Runtime state of an installed fault schedule.
///
/// Absent (`Simulation::faults == None`) the data path takes one dead
/// branch per hook and draws no randomness, so fault-free runs are
/// bit-identical to builds without this feature.
struct FaultState {
    plan: FaultPlan,
    /// `crashed[switch]` — the switch blackholes everything (permanent).
    crashed: Vec<bool>,
    /// Dedicated stream for drop/corrupt Bernoulli trials, forked from
    /// the run seed so detour/ECMP streams are untouched.
    rng: SimRng,
}

/// A fully wired simulation: topology + switches + hosts + traffic.
///
/// # Examples
///
/// ```
/// use dibs::{SimConfig, Simulation};
/// use dibs_engine::time::{SimTime, SimDuration};
/// use dibs_net::builders::single_switch;
/// use dibs_net::topology::LinkSpec;
/// use dibs_net::ids::HostId;
/// use dibs_workload::{FlowClass, FlowSpec};
///
/// let topo = single_switch(3, LinkSpec::gbit(1));
/// let mut cfg = SimConfig::dctcp_dibs();
/// cfg.horizon = SimTime::from_secs(1);
/// let mut sim = Simulation::new(topo, cfg);
/// sim.add_flows([FlowSpec {
///     start: SimTime::ZERO,
///     src: HostId(0),
///     dst: HostId(1),
///     size: 100_000,
///     class: FlowClass::Background,
/// }]);
/// let results = sim.run();
/// assert_eq!(results.flows[0].bytes_delivered, 100_000);
/// assert!(results.flows[0].fct.is_some());
/// ```
pub struct Simulation {
    topo: Topology,
    fib: Fib,
    /// Per-`(flow, node, dst)` cache of flow-level ECMP decisions; a pure
    /// accelerator over [`Fib::select_port`].
    ecmp_memo: EcmpMemo,
    config: SimConfig,
    engine: Engine<Event>,
    rng_detour: SimRng,
    ids: IdGen,
    /// Every packet between its send and its delivery or drop.
    store: PacketStore,

    switches: Vec<SwitchCore>,
    /// Every directed port of every node; see [`PortState`].
    ports: Vec<PortState>,
    /// `port_offsets[node]` — index of the node's port 0 in `ports`.
    port_offsets: Vec<usize>,

    flows: Vec<FlowState>,
    queries: Vec<QueryState>,

    /// Host-side and fabric-wide counters; the switch-side ones (ECN
    /// marks, detours, displacements) live in each [`SwitchCore`] until
    /// `finalize` folds them in.
    counters: NetCounters,
    detour_hist: Vec<u64>,
    qct_ms: Samples,
    bg_short_fct_ms: Samples,
    bg_all_fct_ms: Samples,

    hot_samples: Vec<f64>,
    neighbor_free_1hop: Vec<f64>,
    neighbor_free_2hop: Vec<f64>,
    /// 1-hop switch neighborhood of each switch (switch indices).
    neighbors1: Vec<Vec<usize>>,
    /// 2-hop switch neighborhood (excluding self and 1-hop).
    neighbors2: Vec<Vec<usize>>,
    last_sample: SimTime,

    /// `(time, per-flow rcv_nxt)` captured at the warmup instant.
    warmup_snapshot: Option<(SimTime, Vec<u64>)>,
    /// Total PAUSE assertions (diagnostics).
    pause_events: u64,
    /// Schedules the periodic debug-build conservation check.
    audit: AuditLedger,
    /// Installed fault schedule, if any (see [`Simulation::set_faults`]).
    faults: Option<FaultState>,
    /// Event-trace sink ([`Tracer::off`] by default: one dead branch per
    /// potential event, nothing recorded, no RNG or scheduling impact).
    tracer: Tracer,
}

impl Simulation {
    /// Builds a simulation over `topo` with the given configuration.
    pub fn new(topo: Topology, config: SimConfig) -> Self {
        debug_assert!(topo.validate().is_ok());
        let root = SimRng::new(config.seed);
        let fib = Fib::compute_salted(&topo, root.fork("ecmp").seed());
        let rng_detour = root.fork("detour");

        let switches: Vec<SwitchCore> = topo
            .switch_nodes()
            .iter()
            .map(|&n| {
                let host_facing: Vec<bool> =
                    topo.node(n).ports.iter().map(|p| p.peer_is_host).collect();
                SwitchCore::new(n, config.switch, host_facing)
            })
            .collect();

        let mut port_offsets = Vec::with_capacity(topo.num_nodes());
        let mut total_ports = 0;
        for n in 0..topo.num_nodes() {
            port_offsets.push(total_ports);
            total_ports += topo.num_ports(NodeId::from_index(n));
        }

        // Switch neighborhoods for the Fig 5 statistic.
        let n_sw = topo.num_switches();
        let mut neighbors1 = vec![Vec::new(); n_sw];
        let mut neighbors2 = vec![Vec::new(); n_sw];
        for (si, &sn) in topo.switch_nodes().iter().enumerate() {
            let mut one: Vec<usize> = topo
                .node(sn)
                .ports
                .iter()
                .filter_map(|p| topo.as_switch(p.peer).map(|s| s.index()))
                .collect();
            one.sort_unstable();
            one.dedup();
            let mut two: Vec<usize> = one
                .iter()
                .flat_map(|&m| {
                    topo.node(topo.switch_node(dibs_net::SwitchId::from_index(m)))
                        .ports
                        .iter()
                        .filter_map(|p| topo.as_switch(p.peer).map(|s| s.index()))
                })
                .collect();
            two.sort_unstable();
            two.dedup();
            two.retain(|&m| m != si && !one.contains(&m));
            neighbors1[si] = one;
            neighbors2[si] = two;
        }

        let mut engine = Engine::new();
        engine.set_horizon(config.horizon);

        Simulation {
            fib,
            ecmp_memo: EcmpMemo::with_slots(1 << 14),
            engine,
            rng_detour,
            ids: IdGen::new(),
            store: PacketStore::new(),
            switches,
            ports: (0..total_ports).map(|_| PortState::default()).collect(),
            port_offsets,
            flows: Vec::new(),
            queries: Vec::new(),
            counters: NetCounters::default(),
            detour_hist: vec![0; DETOUR_HIST_BUCKETS],
            qct_ms: Samples::new(),
            bg_short_fct_ms: Samples::new(),
            bg_all_fct_ms: Samples::new(),
            hot_samples: Vec::new(),
            neighbor_free_1hop: Vec::new(),
            neighbor_free_2hop: Vec::new(),
            neighbors1,
            neighbors2,
            last_sample: SimTime::ZERO,
            warmup_snapshot: None,
            pause_events: 0,
            audit: AuditLedger::new(),
            faults: None,
            tracer: Tracer::off(),
            topo,
            config,
        }
    }

    /// Installs an event tracer for this run (default: [`Tracer::off`]).
    ///
    /// Tracing is observational only: it draws no randomness and
    /// schedules nothing, so results — and in particular `RunDigest`
    /// fingerprints — are identical with any tracer installed.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Installs a fault schedule for this run (default: none).
    ///
    /// The spec is resolved against the topology immediately: symbolic
    /// names bind to link/switch ids, `random:<budget>` clauses expand
    /// through a dedicated [`SimRng`] stream derived from the run seed,
    /// and the timed events are sorted. Drop/corrupt trials likewise
    /// draw from their own stream, so installing a schedule never
    /// perturbs ECMP or detour randomness — and a spec whose every
    /// probability is zero is digest-identical to no spec at all
    /// ([`SimRng::chance`] consumes nothing for `p <= 0`).
    ///
    /// # Errors
    ///
    /// Returns [`FaultError`] when a clause names an unknown node or
    /// link, or targets a host with `switch-crash`.
    pub fn set_faults(&mut self, spec: &FaultSpec) -> Result<(), FaultError> {
        if spec.is_off() {
            self.faults = None;
            return Ok(());
        }
        let root = SimRng::new(self.config.seed);
        let mut plan_rng = root.fork("fault/plan");
        let plan = spec.resolve(&self.topo, self.config.horizon, &mut plan_rng)?;
        self.faults = Some(FaultState {
            plan,
            crashed: vec![false; self.topo.num_switches()],
            rng: root.fork("fault/drop"),
        });
        Ok(())
    }

    /// The topology being simulated.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The active configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Adds standalone flows (background, long-lived, or custom).
    ///
    /// # Panics
    ///
    /// Panics on self-flows or out-of-range hosts.
    pub fn add_flows(&mut self, specs: impl IntoIterator<Item = FlowSpec>) {
        for spec in specs {
            self.add_flow_internal(spec, None);
        }
    }

    /// Adds partition-aggregate queries; each expands into its response
    /// flows and is tracked for QCT.
    pub fn add_queries(&mut self, specs: &[QuerySpec]) {
        for spec in specs {
            let qi = self.queries.len();
            self.queries.push(QueryState {
                start: spec.start,
                total: spec.responders.len(),
                completed: 0,
                qct: None,
            });
            for flow in spec.response_flows(qi) {
                self.add_flow_internal(flow, Some(qi));
            }
        }
    }

    fn add_flow_internal(&mut self, spec: FlowSpec, query: Option<usize>) {
        assert!(spec.src != spec.dst, "self-flow {:?}", spec);
        assert!(spec.src.index() < self.topo.num_hosts());
        assert!(spec.dst.index() < self.topo.num_hosts());
        let fi = u32::try_from(self.flows.len()).expect("flow count fits u32");
        let flow_id = FlowId(fi);
        let sender = TcpSender::new(self.config.tcp, flow_id, spec.src, spec.dst, spec.size);
        let receiver = TcpReceiver::new(
            flow_id,
            spec.dst,
            spec.src,
            spec.size,
            self.config.tcp.initial_ttl,
            self.config.tcp.ack_every,
        );
        self.flows.push(FlowState {
            spec,
            sender,
            receiver,
            timer_scheduled: 0,
            query,
            done_recorded: false,
        });
        self.engine.schedule_at(spec.start, Event::FlowStart(fi));
    }

    /// Data packets the scheduled traffic needs at least (one per MSS of
    /// every flow), used to pre-size the event queue and packet store
    /// before the run starts.
    fn estimated_packet_count(&self) -> u64 {
        let mss = u64::from(self.config.tcp.mss).max(1);
        self.flows.iter().map(|f| f.spec.size.div_ceil(mss)).sum()
    }

    /// Rough event count the scheduled traffic will generate.
    ///
    /// Each data packet costs a handful of events per hop (arrive, forward,
    /// tx-complete) in each direction counting acks; flows add start/RTO
    /// bookkeeping. Only an allocation hint, so precision is irrelevant —
    /// the aim is the right order of magnitude.
    fn estimated_event_count(&self, packets: u64) -> usize {
        let per_packet_events = 8;
        let per_flow_events = 16;
        usize::try_from(packets * per_packet_events)
            .unwrap_or(usize::MAX)
            .saturating_add(self.flows.len().saturating_mul(per_flow_events))
    }

    /// Runs to completion (event exhaustion or the configured horizon) and
    /// returns the measurements.
    pub fn run(mut self) -> RunResults {
        let packets = self.estimated_packet_count();
        let expected_events = self.estimated_event_count(packets);
        self.engine.queue_mut().reserve(expected_events);
        self.store.reserve(
            usize::try_from(packets)
                .unwrap_or(usize::MAX)
                .min(STORE_RESERVE_CAP),
        );
        if let Some(interval) = self.config.sample_interval {
            self.engine.schedule_in(interval, Event::Sample);
        }
        if let Some(warmup) = self.config.throughput_warmup {
            self.engine.schedule_at(warmup, Event::WarmupSnapshot);
        }
        let timed_faults: Vec<(SimTime, u32)> = self.faults.as_ref().map_or_else(Vec::new, |f| {
            f.plan
                .timed
                .iter()
                .enumerate()
                .filter(|(_, tf)| tf.at <= self.config.horizon)
                .map(|(i, tf)| (tf.at, u32::try_from(i).expect("fault count fits u32")))
                .collect()
        });
        for (at, i) in timed_faults {
            self.engine.schedule_at(at, Event::Fault(i));
        }
        while let Some(ev) = self.engine.next_event() {
            self.dispatch(ev);
            if self.audit.tick() {
                self.conservation_check();
            }
        }
        self.finalize()
    }

    /// Packet conservation: every injected packet is delivered, dropped,
    /// or still in the packet store. Runs before `finalize` folds the
    /// switches' buffer-drop and displacement counts into `counters`, so
    /// it adds them here.
    fn conservation_check(&self) {
        let switch_drops: u64 = self
            .switches
            .iter()
            .map(|s| s.counters().dropped_full + s.counters().displaced)
            .sum();
        AuditLedger::check(&LedgerSnapshot {
            sent: self.counters.packets_sent,
            delivered: self.counters.packets_delivered,
            dropped: self.counters.total_drops() + switch_drops,
            in_flight: self.store.live(),
        });
    }

    /// Debug-build leak check at the end of a run: every live handle sits
    /// in exactly one place a packet can wait — a host FIFO, a switch
    /// buffer, or an event the horizon cut off — so a handle some drop
    /// path forgot to release, or one queued twice, shows up here. Drains
    /// the engine, so it runs after the results are read.
    fn debug_check_handles(&mut self) {
        let mut in_events = 0u64;
        while let Some((_, ev)) = self.engine.queue_mut().pop() {
            if let Event::Arrive { .. } | Event::TxComplete { .. } = ev {
                in_events += 1;
            }
        }
        let in_ports: usize = self.ports.iter().map(|p| p.queue.len()).sum();
        let in_buffer: usize = self.switches.iter().map(SwitchCore::total_buffered).sum();
        let resident = u64::try_from(in_ports + in_buffer).unwrap_or(u64::MAX);
        assert_eq!(
            self.store.live(),
            resident + in_events,
            "live packet handles != port queues {in_ports} + buffer {in_buffer} + events \
             {in_events}"
        );
    }

    fn dispatch(&mut self, ev: Event) {
        match ev {
            Event::FlowStart(fi) => self.on_flow_start(fi as usize),
            Event::Arrive { node, pkt } => self.on_arrive(node, pkt),
            Event::TxComplete { node, port, pkt } => self.on_tx_complete(node, port as usize, pkt),
            Event::RtoFire { flow, gen } => self.on_rto(flow as usize, gen),
            Event::Sample => self.on_sample(),
            Event::WarmupSnapshot => self.on_warmup_snapshot(),
            Event::PauseSet { node, port, paused } => {
                self.on_pause_set(node, port as usize, paused)
            }
            Event::Fault(idx) => self.on_fault(idx as usize),
        }
    }

    fn on_warmup_snapshot(&mut self) {
        let bytes = self.flows.iter().map(|f| f.receiver.rcv_nxt()).collect();
        self.warmup_snapshot = Some((self.engine.now(), bytes));
    }

    /// Index of `node`'s `port` in [`Simulation::ports`].
    fn port_index(&self, node: NodeId, port: usize) -> usize {
        self.port_offsets[node.index()] + port
    }

    // ------------------------------------------------------------------
    // Fault injection.
    // ------------------------------------------------------------------

    /// Whether `node` is a switch that has crashed.
    fn fault_crashed(&self, node: NodeId) -> bool {
        self.faults.as_ref().is_some_and(|f| {
            self.topo
                .as_switch(node)
                .is_some_and(|s| f.crashed[s.index()])
        })
    }

    /// One seeded Bernoulli trial per matching drop profile, evaluated in
    /// spec order with short-circuit on the first hit. `p = 0` profiles
    /// consume no randomness, so `drop:p=0` is digest-neutral.
    fn fault_should_drop(&mut self, r: PktRef) -> bool {
        let Some(FaultState { plan, rng, .. }) = self.faults.as_mut() else {
            return false;
        };
        let pkt = self.store.get(r);
        plan.drops
            .iter()
            .any(|prof| prof.kind.applies(pkt.detours > 0, pkt.is_data()) && rng.chance(prof.p))
    }

    /// Same trial for corrupt profiles (applied at dequeue: the frame is
    /// damaged on the wire and discarded by the receiver's CRC check).
    fn fault_should_corrupt(&mut self, r: PktRef) -> bool {
        let Some(FaultState { plan, rng, .. }) = self.faults.as_mut() else {
            return false;
        };
        let pkt = self.store.get(r);
        plan.corrupts
            .iter()
            .any(|prof| prof.kind.applies(pkt.detours > 0, pkt.is_data()) && rng.chance(prof.p))
    }

    fn on_fault(&mut self, idx: usize) {
        let Some(f) = self.faults.as_ref() else {
            return;
        };
        let action = f.plan.timed[idx].action;
        match action {
            FaultAction::LinkDown(link) => self.set_link_state(link, true),
            FaultAction::LinkUp(link) => self.set_link_state(link, false),
            FaultAction::SwitchCrash(node) => self.crash_switch(node),
        }
    }

    /// Takes a link down or brings it back up: marks both endpoints,
    /// recomputes routes, and on recovery restarts any transmitter that
    /// parked while the link was dark.
    fn set_link_state(&mut self, link: LinkId, down: bool) {
        let l = self.topo.links()[link.index()];
        let ends = [(l.a.node, l.a.port), (l.b.node, l.b.port)];
        for &(node, port) in &ends {
            let pi = self.port_index(node, port);
            self.ports[pi].link_down = down;
        }
        self.refresh_routes();
        if !down {
            for &(node, port) in &ends {
                self.resume(node, port);
            }
        }
    }

    /// Recomputes the FIB with every faulted link masked out and flushes
    /// the flow-level ECMP memo (per-switch detour memos cache only flow
    /// hashes, not routes, so they stay valid).
    fn refresh_routes(&mut self) {
        if self.faults.is_none() {
            return;
        }
        let disabled: Vec<bool> = self
            .topo
            .links()
            .iter()
            .map(|l| {
                self.ports[self.port_index(l.a.node, l.a.port)].link_down
                    || self.fault_crashed(l.a.node)
                    || self.fault_crashed(l.b.node)
            })
            .collect();
        self.fib = Fib::compute_masked(&self.topo, self.fib.salt(), &disabled);
        self.ecmp_memo.clear();
    }

    /// Crashes a switch permanently: every buffered packet is destroyed
    /// (with its PFC ingress accounting unwound so paused neighbors
    /// resume), and routes recompute to steer around the dead node.
    fn crash_switch(&mut self, node: NodeId) {
        let si = self
            .topo
            .as_switch(node)
            .expect("crash target is a switch")
            .index();
        {
            let f = self.faults.as_mut().expect("fault state present");
            if f.crashed[si] {
                return;
            }
            f.crashed[si] = true;
        }
        let drained = self.switches[si].drain_all();
        for r in drained {
            self.counters.drops_fault += 1;
            let pkt = self.discard(r, node, TraceKind::Drop);
            self.pfc_on_dequeued(node, usize::from(pkt.last_ingress));
        }
        self.refresh_routes();
    }

    // ------------------------------------------------------------------
    // Host side.
    // ------------------------------------------------------------------

    fn on_flow_start(&mut self, fi: usize) {
        let now = self.engine.now();
        let pkts = self.flows[fi].sender.start(now, &mut self.ids);
        let src = self.flows[fi].spec.src;
        for p in pkts {
            self.host_send(src, p);
        }
        self.sync_timer(fi);
    }

    fn on_rto(&mut self, fi: usize, gen: u64) {
        let now = self.engine.now();
        let src = self.flows[fi].spec.src;
        let node = self.topo.host_node(src).0;
        let pkts = self.flows[fi]
            .sender
            .on_rto(gen, now, &mut self.ids, node, &mut self.tracer);
        for p in pkts {
            self.host_send(src, p);
        }
        self.sync_timer(fi);
    }

    fn sync_timer(&mut self, fi: usize) {
        let flow = &mut self.flows[fi];
        if let Some((deadline, gen)) = flow.sender.timer() {
            if gen != flow.timer_scheduled {
                flow.timer_scheduled = gen;
                self.engine.schedule_at(
                    deadline,
                    Event::RtoFire {
                        flow: u32::try_from(fi).expect("flow index fits u32"),
                        gen,
                    },
                );
            }
        }
    }

    fn host_send(&mut self, host: HostId, pkt: Packet) {
        self.counters.packets_sent += 1;
        let node = self.topo.host_node(host);
        let now_ns = self.engine.now().as_nanos();
        if self.tracer.is_enabled() {
            // Classifying the packet costs more than this one branch.
            let kind = TraceKind::sent(&pkt);
            self.tracer
                .emit(kind, now_ns, Subject::Packet(&pkt), node.0, 0, 0);
        }
        let pi = self.port_index(node, 0);
        if self.ports[pi].queue.len() >= self.config.host_nic_cap {
            // Qdisc-style local drop, before the packet ever enters the
            // store; the transport retransmits later.
            self.counters.drops_host_nic += 1;
            self.tracer
                .emit(TraceKind::Drop, now_ns, Subject::Packet(&pkt), node.0, 0, 0);
            return;
        }
        let r = self.store.insert(pkt);
        self.ports[pi].queue.push_back(r);
        self.kick(node, 0);
    }

    /// Takes a packet that leaves the fabric undelivered out of the store
    /// and records `kind` at `node`.
    fn discard(&mut self, r: PktRef, node: NodeId, kind: TraceKind) -> Packet {
        let pkt = self.store.release(r);
        let now_ns = self.engine.now().as_nanos();
        self.tracer
            .emit(kind, now_ns, Subject::Packet(&pkt), node.0, 0, 0);
        pkt
    }

    fn deliver(&mut self, host: HostId, pkt: Packet) {
        debug_assert_eq!(pkt.dst, host, "misrouted packet");
        if self.tracer.is_enabled() {
            // The node lookup costs more than this one branch.
            let node = self.topo.host_node(host).0;
            let now_ns = self.engine.now().as_nanos();
            self.tracer.emit(
                TraceKind::Deliver,
                now_ns,
                Subject::Packet(&pkt),
                node,
                0,
                0,
            );
        }
        self.counters.packets_delivered += 1;
        self.counters.delivered_hops += u64::from(pkt.hops);
        if pkt.detours > 0 {
            self.counters.delivered_detoured += 1;
        }
        let bucket = usize::from(pkt.detours).min(DETOUR_HIST_BUCKETS - 1);
        self.detour_hist[bucket] += 1;
        if pkt.is_data() {
            match self.flows[pkt.flow.index()].spec.class {
                FlowClass::QueryResponse { .. } => {
                    self.counters.query_pkts_delivered += 1;
                    if pkt.detours > 0 {
                        self.counters.query_pkts_detoured += 1;
                    }
                }
                FlowClass::Background => {
                    self.counters.bg_pkts_delivered += 1;
                    if pkt.detours > 0 {
                        self.counters.bg_pkts_detoured += 1;
                    }
                }
                FlowClass::LongLived => {}
            }
        }

        let now = self.engine.now();
        let fi = pkt.flow.index();
        if pkt.is_data() {
            debug_assert_eq!(self.flows[fi].spec.dst, host);
            let ack = self.flows[fi].receiver.on_data(&pkt, now, &mut self.ids);
            let newly_complete =
                self.flows[fi].receiver.is_complete() && !self.flows[fi].done_recorded;
            if newly_complete {
                self.on_flow_complete(fi);
            }
            if let Some(ack) = ack {
                self.host_send(host, ack);
            }
        } else {
            debug_assert_eq!(self.flows[fi].spec.src, host);
            let pkts =
                self.flows[fi]
                    .sender
                    .on_ack(pkt.seq, pkt.ece, pkt.ts_echo, now, &mut self.ids);
            for p in pkts {
                self.host_send(host, p);
            }
            self.sync_timer(fi);
        }
    }

    fn on_flow_complete(&mut self, fi: usize) {
        let now = self.engine.now();
        let flow = &mut self.flows[fi];
        flow.done_recorded = true;
        let fct = now.saturating_since(flow.spec.start);
        match flow.spec.class {
            FlowClass::Background => {
                self.bg_all_fct_ms.push(fct.as_millis_f64());
                if (1_000..=10_000).contains(&flow.spec.size) {
                    self.bg_short_fct_ms.push(fct.as_millis_f64());
                }
            }
            FlowClass::QueryResponse { .. } => {}
            FlowClass::LongLived => {}
        }
        if let Some(qi) = flow.query {
            let q = &mut self.queries[qi];
            q.completed += 1;
            if q.completed == q.total && q.qct.is_none() {
                let qct = now.saturating_since(q.start);
                q.qct = Some(qct);
                self.qct_ms.push(qct.as_millis_f64());
            }
        }
    }

    // ------------------------------------------------------------------
    // Wire and switch side.
    // ------------------------------------------------------------------

    fn on_arrive(&mut self, node: NodeId, r: PktRef) {
        if let Some(host) = self.topo.as_host(node) {
            // Delivery: the packet leaves the store here.
            let pkt = self.store.release(r);
            self.deliver(host, pkt);
        } else {
            self.on_switch_arrive(node, r);
        }
    }

    #[inline]
    fn on_switch_arrive(&mut self, node: NodeId, r: PktRef) {
        let si = self.topo.as_switch(node).expect("switch node").index();
        if self.fault_crashed(node) {
            // A crashed switch blackholes everything that reaches it.
            self.counters.drops_fault += 1;
            self.discard(r, node, TraceKind::Drop);
            return;
        }
        let pkt = self.store.get_mut(r);
        if !pkt.decrement_ttl() {
            self.counters.drops_ttl += 1;
            self.discard(r, node, TraceKind::TtlExpire);
            return;
        }
        pkt.hops += 1;
        // DIBS TTL bounds: the TTL only ever decreases from its initial
        // value, and a packet cannot have detoured more times than it
        // has traversed switches.
        debug_assert!(
            pkt.ttl < self.config.tcp.initial_ttl,
            "TTL {} not below initial {}",
            pkt.ttl,
            self.config.tcp.initial_ttl
        );
        debug_assert!(
            u64::from(pkt.detours) <= u64::from(pkt.hops),
            "packet detoured {} times in {} hops",
            pkt.detours,
            pkt.hops
        );
        self.route_and_enqueue(node, si, r);
    }

    /// FIB lookup + egress admission (the §2 data path).
    #[inline]
    fn route_and_enqueue(&mut self, node: NodeId, si: usize, r: PktRef) {
        if self.fault_should_drop(r) {
            self.counters.drops_fault += 1;
            self.discard(r, node, TraceKind::Drop);
            return;
        }
        let pkt = self.store.get(r);
        let (pid, dst, ingress) = (pkt.id.0, pkt.dst, usize::from(pkt.last_ingress));
        let desired = match self.config.ecmp {
            // Flow-level selection is pure per (flow, node, dst), so it is
            // served through the memo: one hash per flow per node instead
            // of one per packet.
            crate::config::EcmpMode::FlowLevel => {
                self.fib
                    .select_port_memo(&mut self.ecmp_memo, node, dst, pkt.flow)
            }
            // Packet-level spraying keys on per-packet entropy and cannot
            // be memoized.
            crate::config::EcmpMode::PacketLevel => self.fib.select_port_per_packet(node, dst, pid),
        };
        let Some(desired) = desired else {
            if self.faults.is_some() {
                // Injected faults partitioned the fabric; the packet
                // blackholes at the switch that has no route left.
                self.counters.drops_fault += 1;
                self.discard(r, node, TraceKind::Drop);
                return;
            }
            // Unreachable destination: only possible on malformed topologies.
            debug_assert!(false, "no route from {node} to {dst}");
            self.counters.drops_buffer += 1;
            self.store.release(r);
            return;
        };

        let now_ns = self.engine.now().as_nanos();
        let result = self.switches[si].enqueue(
            &mut self.store,
            r,
            desired,
            &mut self.rng_detour,
            now_ns,
            &mut self.tracer,
        );
        if let Some(d) = result.displaced {
            let displaced = self.store.release(d);
            self.pfc_on_dequeued(node, usize::from(displaced.last_ingress));
        }
        match result.outcome {
            EnqueueOutcome::Enqueued { port } | EnqueueOutcome::Detoured { port } => {
                self.pfc_on_buffered(node, ingress);
                self.kick(node, port);
            }
            EnqueueOutcome::Dropped(_) => {
                // The switch already traced and counted the drop.
                self.store.release(r);
            }
        }
    }

    // ------------------------------------------------------------------
    // Ports: one transmit path for hosts and switches alike.
    // ------------------------------------------------------------------

    /// The one transmit path: starts the next frame on `node`'s `port`
    /// unless the port is busy, paused, or on a downed link. A host sends
    /// the head of its FIFO; a switch dequeues from its egress queue.
    #[inline]
    fn kick(&mut self, node: NodeId, port: usize) {
        let pi = self.port_index(node, port);
        let state = &self.ports[pi];
        if state.busy || state.paused || state.link_down {
            return;
        }
        let next = match self.topo.as_switch(node) {
            None => self.ports[pi].queue.pop_front(),
            Some(s) => self.switch_dequeue(node, s.index(), port),
        };
        let Some(pkt) = next else { return };
        self.ports[pi].busy = true;
        let wire_bytes = self.store.get(pkt).wire_bytes;
        let rate = self.topo.port(node, port).rate_bps;
        let ser = SimDuration::serialization(u64::from(wire_bytes), rate);
        self.engine.schedule_in(
            ser,
            Event::TxComplete {
                node,
                port: u32::try_from(port).expect("port index fits u32"),
                pkt,
            },
        );
    }

    /// Takes the next frame a switch sends on `port`. Frames the fault plan
    /// corrupts on the wire are discarded here and the next one is tried;
    /// each frame that leaves the buffer frees its PFC ingress slot.
    #[inline]
    fn switch_dequeue(&mut self, node: NodeId, si: usize, port: usize) -> Option<PktRef> {
        let now_ns = self.engine.now().as_nanos();
        loop {
            let pkt = self.switches[si].dequeue(&self.store, port, now_ns, &mut self.tracer)?;
            let ingress = usize::from(self.store.get(pkt).last_ingress);
            let corrupt = self.fault_should_corrupt(pkt);
            self.pfc_on_dequeued(node, ingress);
            if !corrupt {
                return Some(pkt);
            }
            self.counters.drops_fault += 1;
            self.discard(pkt, node, TraceKind::Drop);
        }
    }

    /// Restarts a port whose PAUSE was released or whose link came back
    /// up; a crashed switch stays dark.
    fn resume(&mut self, node: NodeId, port: usize) {
        if !self.fault_crashed(node) {
            self.kick(node, port);
        }
    }

    fn on_pause_set(&mut self, node: NodeId, port: usize, paused: bool) {
        let pi = self.port_index(node, port);
        self.ports[pi].paused = paused;
        if !paused {
            self.resume(node, port);
        }
    }

    /// PFC bookkeeping: a packet that arrived via `ingress` was buffered.
    /// Pauses the link partner on that ingress once its count hits XOFF.
    fn pfc_on_buffered(&mut self, node: NodeId, ingress: usize) {
        let Some(pfc) = self.config.pfc else { return };
        let pi = self.port_index(node, ingress);
        let state = &mut self.ports[pi];
        state.ingress_count += 1;
        if state.pause_asserted || (state.ingress_count as usize) < pfc.xoff {
            return;
        }
        state.pause_asserted = true;
        self.pause_events += 1;
        self.send_pause_frame(node, ingress, pfc.control_delay, true);
    }

    /// PFC bookkeeping on dequeue: releases the ingress partner at XON.
    fn pfc_on_dequeued(&mut self, node: NodeId, ingress: usize) {
        let Some(pfc) = self.config.pfc else { return };
        let pi = self.port_index(node, ingress);
        let state = &mut self.ports[pi];
        state.ingress_count = state.ingress_count.saturating_sub(1);
        if !state.pause_asserted || (state.ingress_count as usize) > pfc.xon {
            return;
        }
        state.pause_asserted = false;
        self.send_pause_frame(node, ingress, pfc.control_delay, false);
    }

    fn send_pause_frame(&mut self, node: NodeId, port: usize, delay: SimDuration, paused: bool) {
        let p = self.topo.port(node, port);
        self.engine.schedule_in(
            delay,
            Event::PauseSet {
                node: p.peer,
                port: u32::try_from(p.peer_port).expect("port index fits u32"),
                paused,
            },
        );
    }

    #[inline]
    fn on_tx_complete(&mut self, node: NodeId, port: usize, pkt: PktRef) {
        let pi = self.port_index(node, port);
        self.ports[pi].busy = false;
        if self.ports[pi].link_down || self.fault_crashed(node) {
            // The link went down (or the switch crashed) while the frame
            // was serializing: the frame is cut on the wire. The port
            // stays idle until recovery resumes it.
            self.counters.drops_fault += 1;
            self.discard(pkt, node, TraceKind::Drop);
            return;
        }
        let p = self.topo.port(node, port);
        let peer = p.peer;
        let delay = p.delay;
        // Stamp the ingress port the packet will arrive on (PFC accounting).
        let p_mut = self.store.get_mut(pkt);
        p_mut.last_ingress = u16::try_from(p.peer_port).expect("port index fits u16");
        self.ports[pi].tx_bytes += u64::from(p_mut.wire_bytes);
        self.engine
            .schedule_in(delay, Event::Arrive { node: peer, pkt });
        self.kick(node, port);
    }

    // ------------------------------------------------------------------
    // Sampling (Figs 4, 5).
    // ------------------------------------------------------------------

    fn on_sample(&mut self) {
        let now = self.engine.now();
        let interval = now.saturating_since(self.last_sample);
        self.last_sample = now;
        let secs = interval.as_secs_f64();
        if secs <= 0.0 {
            return;
        }

        // Per-directed-edge utilization.
        let mut hot_links = 0usize;
        let mut total_links = 0usize;
        let mut hot_switch = vec![false; self.topo.num_switches()];
        for (idx, (pr, port)) in self.topo.directed_edges().enumerate() {
            let util = (self.ports[idx].tx_bytes * 8) as f64 / (port.rate_bps as f64 * secs);
            total_links += 1;
            if util >= HOT_LINK_THRESHOLD {
                hot_links += 1;
                if let Some(s) = self.topo.as_switch(pr.node) {
                    hot_switch[s.index()] = true;
                }
                // The receiving end of a hot link is congestion-adjacent too.
                if let Some(s) = self.topo.as_switch(port.peer) {
                    hot_switch[s.index()] = true;
                }
            }
        }
        for p in &mut self.ports {
            p.tx_bytes = 0;
        }
        self.hot_samples.push(hot_links as f64 / total_links as f64);

        // Neighbor free-buffer statistic (Fig 5), only when something is hot.
        let mut sum1 = 0.0;
        let mut n1 = 0usize;
        let mut sum2 = 0.0;
        let mut n2 = 0usize;
        for (si, &hot) in hot_switch.iter().enumerate() {
            if !hot {
                continue;
            }
            for &m in &self.neighbors1[si] {
                sum1 += self.switches[m].free_fraction();
                n1 += 1;
            }
            for &m in &self.neighbors2[si] {
                sum2 += self.switches[m].free_fraction();
                n2 += 1;
            }
        }
        if n1 > 0 {
            self.neighbor_free_1hop.push(sum1 / n1 as f64);
        }
        if n2 > 0 {
            self.neighbor_free_2hop.push(sum2 / n2 as f64);
        }

        if let Some(interval) = self.config.sample_interval {
            if now + interval <= self.config.horizon {
                self.engine.schedule_in(interval, Event::Sample);
            }
        }
    }

    // ------------------------------------------------------------------
    // Finalization.
    // ------------------------------------------------------------------

    fn finalize(mut self) -> RunResults {
        // Final conservation audit, in every build: at the horizon every
        // injected packet is delivered, dropped, or still in the store.
        self.conservation_check();
        let finished_at = self.engine.now();
        let queue_hwm = u64::try_from(self.engine.high_watermark()).unwrap_or(u64::MAX);
        let events_dispatched = self.engine.dispatched();
        let packets_in_flight = self.store.live();
        if cfg!(debug_assertions) {
            self.debug_check_handles();
        }

        // Fold in switch and sender counters.
        let mut detours_per_switch = Vec::with_capacity(self.switches.len());
        for sw in &self.switches {
            let c = sw.counters();
            self.counters.ecn_marks += c.marked;
            self.counters.detours += c.detoured;
            self.counters.drops_buffer += c.dropped_full;
            self.counters.drops_displaced += c.displaced;
            detours_per_switch.push(c.detoured);
        }
        for f in &self.flows {
            self.counters.rto_timeouts += f.sender.counters().timeouts;
            self.counters.fast_retransmits += f.sender.counters().fast_retransmits;
            self.counters.spurious_timeouts += f.sender.counters().spurious_timeouts;
        }

        let (measure_from, baseline_bytes) = match &self.warmup_snapshot {
            Some((t, bytes)) => (*t, Some(bytes)),
            None => (SimTime::ZERO, None),
        };
        let elapsed = finished_at
            .saturating_since(measure_from)
            .as_secs_f64()
            .max(1e-9);
        let mut long_lived = Vec::new();
        let mut flow_outcomes = Vec::with_capacity(self.flows.len());
        for (fi, f) in self.flows.iter().enumerate() {
            let fct = f
                .receiver
                .completed_at()
                .map(|t| t.saturating_since(f.spec.start));
            if f.spec.class == FlowClass::LongLived {
                let base = baseline_bytes.map_or(0, |b| b[fi]);
                long_lived.push((f.receiver.rcv_nxt() - base) as f64 * 8.0 / elapsed);
            }
            flow_outcomes.push(FlowOutcome {
                class: f.spec.class,
                src: f.spec.src,
                dst: f.spec.dst,
                size: f.spec.size,
                start: f.spec.start,
                fct,
                bytes_delivered: f.receiver.rcv_nxt(),
                timeouts: f.sender.counters().timeouts,
            });
        }
        let query_outcomes: Vec<QueryOutcome> = self
            .queries
            .iter()
            .map(|q| QueryOutcome {
                start: q.start,
                completed_responses: q.completed,
                total_responses: q.total,
                qct: q.qct,
            })
            .collect();

        RunResults {
            qct_ms: self.qct_ms,
            bg_short_fct_ms: self.bg_short_fct_ms,
            bg_all_fct_ms: self.bg_all_fct_ms,
            flows: flow_outcomes,
            queries: query_outcomes,
            counters: self.counters,
            detours_per_switch,
            detour_histogram: self.detour_hist,
            hot_fraction_samples: self.hot_samples,
            neighbor_free_1hop: self.neighbor_free_1hop,
            neighbor_free_2hop: self.neighbor_free_2hop,
            long_lived_throughput_bps: long_lived,
            pfc_pause_events: self.pause_events,
            packets_in_flight,
            events_dispatched,
            finished_at,
            trace: self.tracer.into_report(queue_hwm),
        }
    }
}
