//! The switch data path: admission, ECN marking, DIBS detouring, service.
//!
//! A [`SwitchCore`] owns one [`PortQueue`] per port plus a
//! [`BufferManager`]. It is deliberately time-free: the simulator core
//! decides *when* ports transmit; the switch decides *where* packets go and
//! whether they are marked, detoured, or dropped.

use crate::buffer::{BufferConfig, BufferManager};
use crate::dibs::{detour_flow_hash, DibsPolicy};
use crate::queue::{Discipline, PortQueue, QueueEntry};
use dibs_engine::rng::SimRng;
use dibs_net::packet::{Packet, PacketStore, PktRef};
use dibs_net::routing::EcmpMemo;
use dibs_net::{HostId, NodeId};
use dibs_trace::{Subject, TraceKind, Tracer};

/// Static configuration of one switch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchConfig {
    /// Buffer organization and size.
    pub buffer: BufferConfig,
    /// ECN marking threshold in packets (`None` disables marking). The
    /// paper's default is 20 packets on 100-packet buffers.
    pub ecn_threshold: Option<usize>,
    /// The DIBS detour policy (`Disabled` = droptail baseline).
    pub dibs: DibsPolicy,
    /// Queue service discipline.
    pub discipline: Discipline,
}

impl SwitchConfig {
    /// Table 1 defaults with DIBS disabled (the DCTCP baseline).
    pub fn dctcp_baseline() -> Self {
        SwitchConfig {
            buffer: BufferConfig::paper_default(),
            ecn_threshold: Some(20),
            dibs: DibsPolicy::Disabled,
            discipline: Discipline::Fifo,
        }
    }

    /// Table 1 defaults with random DIBS detouring enabled.
    pub fn dctcp_dibs() -> Self {
        SwitchConfig {
            dibs: DibsPolicy::Random,
            ..Self::dctcp_baseline()
        }
    }

    /// The pFabric switch of §5.8: 24-packet priority queues, no ECN, no
    /// DIBS.
    pub fn pfabric() -> Self {
        SwitchConfig {
            buffer: BufferConfig::StaticPerPort { packets: 24 },
            ecn_threshold: None,
            dibs: DibsPolicy::Disabled,
            discipline: Discipline::Pfabric,
        }
    }
}

/// Why a packet was dropped at a switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// Desired queue full and no eligible detour port (or DIBS disabled).
    BufferFull,
    /// Displaced from a pFabric queue by a higher-priority arrival.
    PriorityDisplaced,
}

/// Result of offering a packet to the switch.
#[derive(Debug)]
pub enum EnqueueOutcome {
    /// Queued on its desired port.
    Enqueued {
        /// The port the packet was queued on.
        port: usize,
    },
    /// Queued on a detour port instead of the (full) desired port.
    Detoured {
        /// The detour port chosen by the DIBS policy.
        port: usize,
    },
    /// Dropped.
    Dropped(DropReason),
}

/// `EnqueueOutcome` plus any packet displaced to make room (pFabric only).
#[derive(Debug)]
pub struct EnqueueResult {
    /// What happened to the offered packet.
    pub outcome: EnqueueOutcome,
    /// A resident packet evicted by pFabric priority displacement, if any.
    /// It has left the switch; the caller releases its handle.
    pub displaced: Option<PktRef>,
}

/// Event counters, cheap enough to keep always-on.
#[derive(Debug, Clone, Copy, Default)]
pub struct SwitchCounters {
    /// Packets accepted onto their desired port.
    pub enqueued: u64,
    /// Packets accepted onto a detour port.
    pub detoured: u64,
    /// Packets CE-marked at enqueue.
    pub marked: u64,
    /// Drops because the buffer was full (and DIBS could not help).
    pub dropped_full: u64,
    /// pFabric priority displacements.
    pub displaced: u64,
    /// Packets handed to the wire.
    pub dequeued: u64,
}

/// One switch's queues, buffer accounting, and forwarding decisions.
pub struct SwitchCore {
    node: NodeId,
    config: SwitchConfig,
    queues: Vec<PortQueue>,
    buffer: BufferManager,
    /// `host_facing[p]` — whether port `p` connects to an end host.
    host_facing: Vec<bool>,
    counters: SwitchCounters,
    /// Scratch buffer for the eligible-port list (avoids per-packet allocs).
    scratch: Vec<usize>,
    /// Per-switch memo of flow-based detour hashes (one mix per flow
    /// instead of one per detoured packet).
    detour_memo: EcmpMemo,
}

/// Per-port packet capacity implied by a buffer configuration: how many
/// resident packets a port queue should pre-size for so the data path
/// never grows its deque.
fn port_capacity_hint(buffer: BufferConfig, num_ports: usize) -> usize {
    /// Conservative wire size used to translate byte budgets to packets.
    const FULL_PACKET_BYTES: u64 = 1500;
    match buffer {
        // No admission bound to derive from; let the deque grow on demand.
        BufferConfig::Infinite => 0,
        BufferConfig::StaticPerPort { packets } => packets,
        BufferConfig::DynamicShared {
            total_bytes,
            per_port_reserve_bytes,
            ..
        } => {
            // A port can borrow beyond its fair share, but the steady
            // state is bounded by the pool split across ports plus the
            // private reserve; cap the hint so many-port switches do not
            // over-allocate.
            let fair = total_bytes / FULL_PACKET_BYTES / num_ports.max(1) as u64;
            let reserve = per_port_reserve_bytes.div_ceil(FULL_PACKET_BYTES);
            usize::try_from((fair + reserve).min(512)).expect("hint fits usize")
        }
    }
}

impl SwitchCore {
    /// Creates a switch with `host_facing.len()` ports.
    pub fn new(node: NodeId, config: SwitchConfig, host_facing: Vec<bool>) -> Self {
        let n = host_facing.len();
        let cap = port_capacity_hint(config.buffer, n);
        SwitchCore {
            node,
            config,
            queues: (0..n)
                .map(|_| PortQueue::with_capacity(config.discipline, cap))
                .collect(),
            buffer: BufferManager::new(config.buffer),
            host_facing,
            counters: SwitchCounters::default(),
            scratch: Vec::with_capacity(n),
            detour_memo: EcmpMemo::with_slots(128),
        }
    }

    /// The topology node this switch implements.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The active configuration.
    pub fn config(&self) -> &SwitchConfig {
        &self.config
    }

    /// Number of ports.
    pub fn num_ports(&self) -> usize {
        self.queues.len()
    }

    /// Packets queued on a port.
    pub fn queue_len(&self, port: usize) -> usize {
        self.queues[port].len()
    }

    /// Bytes queued on a port.
    pub fn queue_bytes(&self, port: usize) -> u64 {
        self.queues[port].bytes()
    }

    /// Buffer occupancy of a port in `[0, 1]`.
    pub fn occupancy(&self, port: usize) -> f64 {
        self.buffer.occupancy(&self.queues[port])
    }

    /// Whether port `p` faces an end host.
    pub fn is_host_facing(&self, port: usize) -> bool {
        self.host_facing[port]
    }

    /// Total packets buffered across all ports.
    pub fn total_buffered(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }

    /// Fraction of the switch's total buffer currently free, in `[0, 1]`.
    ///
    /// This is the quantity behind Fig 5 (spare capacity near hotspots).
    pub fn free_fraction(&self) -> f64 {
        match self.config.buffer {
            BufferConfig::Infinite => 1.0,
            BufferConfig::StaticPerPort { packets } => {
                let cap = packets * self.queues.len();
                if cap == 0 {
                    0.0
                } else {
                    1.0 - (self.total_buffered() as f64 / cap as f64).min(1.0)
                }
            }
            BufferConfig::DynamicShared { total_bytes, .. } => {
                if total_bytes == 0 {
                    0.0
                } else {
                    1.0 - (self.buffer.shared_used() as f64 / total_bytes as f64).min(1.0)
                }
            }
        }
    }

    /// Counter snapshot.
    pub fn counters(&self) -> SwitchCounters {
        self.counters
    }

    /// Offers the packet behind `pkt` to the switch for transmission out
    /// of `desired_port`.
    ///
    /// Implements the full §2/§4 data path: ECN threshold marking, DIBS
    /// detouring on overflow, pFabric priority displacement. The packet is
    /// updated in place in `store` (detour count, CE mark); the switch never
    /// releases a handle, so a `Dropped` arrival and a displaced resident
    /// go back to the caller. Every queue transition (enqueue, detour, ECN
    /// mark, drop, displacement) is reported to `tracer`, stamped with
    /// simulated time `t_ns` and the port's depth after the transition; a
    /// kind the tracer does not capture costs one branch per transition,
    /// and untraced callers pass `&mut Tracer::off()`.
    #[inline]
    pub fn enqueue(
        &mut self,
        store: &mut PacketStore,
        pkt: PktRef,
        desired_port: usize,
        rng: &mut SimRng,
        t_ns: u64,
        tracer: &mut Tracer,
    ) -> EnqueueResult {
        debug_assert!(desired_port < self.queues.len());
        let fits = self
            .buffer
            .admits(&self.queues[desired_port], store.get(pkt).wire_bytes);

        if fits {
            // Probabilistic DIBS may detour even with room available. Every
            // other policy's early-detour probability is zero, so only this
            // one pays for the occupancy computation.
            if let DibsPolicy::Probabilistic { .. } = self.config.dibs {
                let p_early = self
                    .config
                    .dibs
                    .early_detour_probability(self.occupancy(desired_port));
                if p_early > 0.0 && rng.chance(p_early) {
                    if let Some(port) = self.pick_detour(store.get(pkt), desired_port, rng) {
                        return self.admit(store, pkt, port, true, t_ns, tracer);
                    }
                }
            }
            return self.admit(store, pkt, desired_port, false, t_ns, tracer);
        }

        // Desired queue full.
        if self.config.discipline == Discipline::Pfabric {
            return self.pfabric_displace(store, pkt, desired_port, t_ns, tracer);
        }
        match self.pick_detour(store.get(pkt), desired_port, rng) {
            Some(port) => self.admit(store, pkt, port, true, t_ns, tracer),
            None => self.reject(
                store.get(pkt),
                desired_port,
                DropReason::BufferFull,
                t_ns,
                tracer,
            ),
        }
    }

    /// Removes the next packet to transmit from `port` and returns its
    /// handle. The `Dequeue` trace event carries the port's depth after
    /// the pop.
    #[inline]
    pub fn dequeue(
        &mut self,
        store: &PacketStore,
        port: usize,
        t_ns: u64,
        tracer: &mut Tracer,
    ) -> Option<PktRef> {
        let entry = self.queues[port].pop()?;
        self.buffer.on_dequeue(entry.wire_bytes);
        self.counters.dequeued += 1;
        self.debug_audit_port(port);
        tracer.emit(
            TraceKind::Dequeue,
            t_ns,
            Subject::Packet(store.get(entry.pkt)),
            self.node.0,
            port,
            self.queues[port].len(),
        );
        Some(entry.pkt)
    }

    /// Empties every port queue, releasing all shared-buffer occupancy,
    /// and returns the drained handles (port-major, FIFO within a port).
    ///
    /// Used by fault injection when this switch crashes: the packets leave
    /// the fabric without ever being transmitted, so `dequeued` is *not*
    /// incremented — the caller drops and releases each returned packet,
    /// keeping the conservation sum exact.
    pub fn drain_all(&mut self) -> Vec<PktRef> {
        let mut out = Vec::with_capacity(self.total_buffered());
        for port in 0..self.queues.len() {
            while let Some(entry) = self.queues[port].pop() {
                self.buffer.on_dequeue(entry.wire_bytes);
                out.push(entry.pkt);
            }
            self.debug_audit_port(port);
        }
        out
    }

    /// Debug-build audit of the per-port buffer invariants after any
    /// data-path mutation: occupancy stays within `[0, capacity]` for
    /// the active buffer configuration.
    #[inline]
    fn debug_audit_port(&self, port: usize) {
        if cfg!(debug_assertions) {
            let q = &self.queues[port];
            match self.config.buffer {
                BufferConfig::Infinite => {}
                BufferConfig::StaticPerPort { packets } => {
                    debug_assert!(
                        q.len() <= packets,
                        "port {port} holds {} packets, capacity {packets}",
                        q.len()
                    );
                }
                BufferConfig::DynamicShared { total_bytes, .. } => {
                    debug_assert!(
                        self.buffer.shared_used() <= total_bytes,
                        "shared pool holds {} bytes, capacity {total_bytes}",
                        self.buffer.shared_used()
                    );
                }
            }
        }
    }

    /// Queues the packet behind `r` on `port`: on its desired port, or as
    /// a detour (which bumps its detour count and may CE-mark it, §5.3).
    #[inline]
    fn admit(
        &mut self,
        store: &mut PacketStore,
        r: PktRef,
        port: usize,
        detoured: bool,
        t_ns: u64,
        tracer: &mut Tracer,
    ) -> EnqueueResult {
        let pkt = store.get_mut(r);
        if detoured {
            pkt.detours += 1;
        }
        self.maybe_mark(pkt, port, detoured, t_ns, tracer);
        let entry = QueueEntry::of(r, pkt);
        self.buffer.on_enqueue(entry.wire_bytes);
        self.queues[port].push(entry);
        let (kind, outcome) = if detoured {
            self.counters.detoured += 1;
            (TraceKind::Detour, EnqueueOutcome::Detoured { port })
        } else {
            self.counters.enqueued += 1;
            (TraceKind::Enqueue, EnqueueOutcome::Enqueued { port })
        };
        self.debug_audit_port(port);
        tracer.emit(
            kind,
            t_ns,
            Subject::Packet(pkt),
            self.node.0,
            port,
            self.queues[port].len(),
        );
        EnqueueResult {
            outcome,
            displaced: None,
        }
    }

    /// Refuses an arrival that found no room on `port`.
    fn reject(
        &mut self,
        pkt: &Packet,
        port: usize,
        reason: DropReason,
        t_ns: u64,
        tracer: &mut Tracer,
    ) -> EnqueueResult {
        self.counters.dropped_full += 1;
        tracer.emit(
            TraceKind::Drop,
            t_ns,
            Subject::Packet(pkt),
            self.node.0,
            port,
            self.queues[port].len(),
        );
        EnqueueResult {
            outcome: EnqueueOutcome::Dropped(reason),
            displaced: None,
        }
    }

    #[inline]
    fn maybe_mark(
        &mut self,
        pkt: &mut Packet,
        port: usize,
        detoured: bool,
        t_ns: u64,
        tracer: &mut Tracer,
    ) {
        if !pkt.is_data() {
            // DCTCP marks data packets; acks are not marked.
            return;
        }
        let over_threshold = self
            .config
            .ecn_threshold
            .is_some_and(|k| self.queues[port].len() >= k);
        // §5.3: a detoured packet is always CE-marked.
        if over_threshold || detoured {
            if !pkt.ce {
                self.counters.marked += 1;
                tracer.emit(
                    TraceKind::EcnMark,
                    t_ns,
                    Subject::Packet(pkt),
                    self.node.0,
                    port,
                    self.queues[port].len(),
                );
            }
            pkt.mark_ce();
        }
    }

    fn pick_detour(
        &mut self,
        pkt: &Packet,
        desired_port: usize,
        rng: &mut SimRng,
    ) -> Option<usize> {
        if !self.config.dibs.is_enabled() {
            return None;
        }
        // Eligible: switch-facing, not the desired port, with buffer room.
        self.scratch.clear();
        for p in 0..self.queues.len() {
            if p != desired_port
                && !self.host_facing[p]
                && self.buffer.admits(&self.queues[p], pkt.wire_bytes)
            {
                self.scratch.push(p);
            }
        }
        // Only the flow-based policy consumes the hash; it is memoized per
        // (flow, node, dst) so repeat detours of one flow skip the mixer.
        let flow_hash = if self.config.dibs == DibsPolicy::FlowBased {
            let node = self.node;
            self.detour_memo
                .get_or_insert_with(pkt.flow, node, HostId(pkt.dst.0), || {
                    detour_flow_hash(pkt, node)
                })
        } else {
            0
        };
        let scratch = std::mem::take(&mut self.scratch);
        let choice = self.config.dibs.choose(
            &scratch,
            |p| self.buffer.occupancy(&self.queues[p]),
            flow_hash,
            rng,
        );
        self.scratch = scratch;
        choice
    }

    fn pfabric_displace(
        &mut self,
        store: &PacketStore,
        r: PktRef,
        port: usize,
        t_ns: u64,
        tracer: &mut Tracer,
    ) -> EnqueueResult {
        // pFabric (§5.8): on overflow, drop the lowest-priority resident if
        // the arrival beats it; otherwise drop the arrival.
        let pkt = store.get(r);
        let Some((worst_idx, worst_priority)) = self.queues[port].lowest_priority() else {
            // Queue capacity zero: nothing to displace.
            return self.reject(pkt, port, DropReason::BufferFull, t_ns, tracer);
        };
        if pkt.priority >= worst_priority {
            return self.reject(pkt, port, DropReason::PriorityDisplaced, t_ns, tracer);
        }
        let displaced = self.queues[port].remove(worst_idx);
        self.buffer.on_dequeue(displaced.wire_bytes);
        let entry = QueueEntry::of(r, pkt);
        self.buffer.on_enqueue(entry.wire_bytes);
        self.queues[port].push(entry);
        self.counters.displaced += 1;
        self.counters.enqueued += 1;
        self.debug_audit_port(port);
        // The displaced resident leaves the fabric here.
        tracer.emit(
            TraceKind::Drop,
            t_ns,
            Subject::Packet(store.get(displaced.pkt)),
            self.node.0,
            port,
            self.queues[port].len(),
        );
        tracer.emit(
            TraceKind::Enqueue,
            t_ns,
            Subject::Packet(pkt),
            self.node.0,
            port,
            self.queues[port].len(),
        );
        EnqueueResult {
            outcome: EnqueueOutcome::Enqueued { port },
            displaced: Some(displaced.pkt),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dibs_engine::time::SimTime;
    use dibs_net::ids::{FlowId, HostId, PacketId};
    use dibs_trace::TraceSpec;

    fn pkt(id: u64) -> Packet {
        Packet::data(
            PacketId(id),
            FlowId(u32::try_from(id).unwrap()),
            HostId(0),
            HostId(1),
            0,
            1460,
            64,
            SimTime::ZERO,
        )
    }

    /// Parks `p` in `store` and offers it to `sw`, untraced.
    fn offer(
        sw: &mut SwitchCore,
        store: &mut PacketStore,
        p: Packet,
        port: usize,
        rng: &mut SimRng,
    ) -> EnqueueResult {
        let r = store.insert(p);
        sw.enqueue(store, r, port, rng, 0, &mut Tracer::off())
    }

    /// Dequeues from `port`, untraced, and takes the packet out of `store`.
    fn take(sw: &mut SwitchCore, store: &mut PacketStore, port: usize) -> Option<Packet> {
        let r = sw.dequeue(store, port, 0, &mut Tracer::off())?;
        Some(store.release(r))
    }

    fn tiny_switch(dibs: DibsPolicy, per_port: usize) -> SwitchCore {
        // 4 ports: 0 faces a host, 1-3 face switches.
        SwitchCore::new(
            NodeId(0),
            SwitchConfig {
                buffer: BufferConfig::StaticPerPort { packets: per_port },
                ecn_threshold: Some(2),
                dibs,
                discipline: Discipline::Fifo,
            },
            vec![true, false, false, false],
        )
    }

    #[test]
    fn basic_enqueue_dequeue() {
        let mut sw = tiny_switch(DibsPolicy::Disabled, 10);
        let mut rng = SimRng::new(1);
        let mut store = PacketStore::new();
        let r = offer(&mut sw, &mut store, pkt(1), 1, &mut rng);
        assert!(matches!(r.outcome, EnqueueOutcome::Enqueued { port: 1 }));
        assert_eq!(sw.queue_len(1), 1);
        let out = take(&mut sw, &mut store, 1).unwrap();
        assert_eq!(out.id.0, 1);
        assert_eq!(sw.counters().dequeued, 1);
        assert!(take(&mut sw, &mut store, 1).is_none());
    }

    #[test]
    fn drain_all_frees_occupancy_without_counting_dequeues() {
        // Dynamic shared buffer so the pool accounting is observable.
        let mut sw = SwitchCore::new(
            NodeId(0),
            SwitchConfig {
                buffer: BufferConfig::DynamicShared {
                    total_bytes: 64 * 1500,
                    alpha: 1.0,
                    per_port_reserve_bytes: 0,
                },
                ecn_threshold: None,
                dibs: DibsPolicy::Disabled,
                discipline: Discipline::Fifo,
            },
            vec![true, false, false, false],
        );
        let mut rng = SimRng::new(1);
        let mut store = PacketStore::new();
        for i in 0..6 {
            offer(
                &mut sw,
                &mut store,
                pkt(i),
                usize::try_from(i % 3).unwrap(),
                &mut rng,
            );
        }
        assert_eq!(sw.total_buffered(), 6);
        let drained = sw.drain_all();
        assert_eq!(drained.len(), 6);
        assert_eq!(sw.total_buffered(), 0);
        assert_eq!(sw.buffer.shared_used(), 0, "pool fully released");
        assert_eq!(sw.counters().dequeued, 0, "drain is not transmission");
        // Port-major order, FIFO within each port.
        let ids: Vec<u64> = drained.iter().map(|&r| store.release(r).id.0).collect();
        assert_eq!(ids, vec![0, 3, 1, 4, 2, 5]);
        assert_eq!(store.live(), 0, "every drained handle was resident");
        // The switch remains usable after a drain.
        let r = offer(&mut sw, &mut store, pkt(9), 1, &mut rng);
        assert!(matches!(r.outcome, EnqueueOutcome::Enqueued { port: 1 }));
    }

    #[test]
    fn droptail_drops_on_overflow_without_dibs() {
        let mut sw = tiny_switch(DibsPolicy::Disabled, 2);
        let mut rng = SimRng::new(1);
        let mut store = PacketStore::new();
        offer(&mut sw, &mut store, pkt(1), 0, &mut rng);
        offer(&mut sw, &mut store, pkt(2), 0, &mut rng);
        let r = offer(&mut sw, &mut store, pkt(3), 0, &mut rng);
        assert!(matches!(
            r.outcome,
            EnqueueOutcome::Dropped(DropReason::BufferFull)
        ));
        assert_eq!(sw.counters().dropped_full, 1);
    }

    #[test]
    fn dibs_detours_instead_of_dropping() {
        let mut sw = tiny_switch(DibsPolicy::Random, 2);
        let mut rng = SimRng::new(1);
        let mut store = PacketStore::new();
        offer(&mut sw, &mut store, pkt(1), 0, &mut rng);
        offer(&mut sw, &mut store, pkt(2), 0, &mut rng);
        let r = offer(&mut sw, &mut store, pkt(3), 0, &mut rng);
        match r.outcome {
            EnqueueOutcome::Detoured { port } => {
                assert!((1..=3).contains(&port), "must detour to a switch port");
            }
            other => panic!("expected detour, got {other:?}"),
        }
        assert_eq!(sw.counters().detoured, 1);
        assert_eq!(sw.counters().dropped_full, 0);
        // The detoured packet carries the detour count and a CE mark.
        let port = (1..=3).find(|&p| sw.queue_len(p) == 1).unwrap();
        let d = take(&mut sw, &mut store, port).unwrap();
        assert_eq!(d.detours, 1);
        assert!(d.ce, "detoured packets are marked (§5.3)");
    }

    #[test]
    fn dibs_never_detours_to_host_ports() {
        let mut sw = tiny_switch(DibsPolicy::Random, 1);
        let mut rng = SimRng::new(2);
        let mut store = PacketStore::new();
        // Fill ports 1-3 (switch-facing) and then overflow port 1: the only
        // port with room is 0, which faces a host, so the packet must drop.
        for p in 1..=3 {
            offer(&mut sw, &mut store, pkt(p as u64), p, &mut rng);
        }
        let r = offer(&mut sw, &mut store, pkt(9), 1, &mut rng);
        assert!(matches!(
            r.outcome,
            EnqueueOutcome::Dropped(DropReason::BufferFull)
        ));
        assert_eq!(sw.queue_len(0), 0);
    }

    #[test]
    fn ecn_marks_above_threshold() {
        let mut sw = tiny_switch(DibsPolicy::Disabled, 10);
        let mut rng = SimRng::new(1);
        let mut store = PacketStore::new();
        // Threshold is 2: the first two packets are unmarked, later ones marked.
        for i in 0..5 {
            offer(&mut sw, &mut store, pkt(i), 1, &mut rng);
        }
        let marks: Vec<bool> = (0..5)
            .map(|_| take(&mut sw, &mut store, 1).unwrap().ce)
            .collect();
        assert_eq!(marks, vec![false, false, true, true, true]);
        assert_eq!(sw.counters().marked, 3);
    }

    #[test]
    fn acks_are_not_marked() {
        let mut sw = tiny_switch(DibsPolicy::Disabled, 10);
        let mut rng = SimRng::new(1);
        let mut store = PacketStore::new();
        for i in 0..4 {
            offer(&mut sw, &mut store, pkt(i), 1, &mut rng);
        }
        let ack = Packet::ack(
            PacketId(99),
            FlowId(0),
            HostId(1),
            HostId(0),
            0,
            false,
            64,
            SimTime::ZERO,
        );
        offer(&mut sw, &mut store, ack, 1, &mut rng);
        for _ in 0..4 {
            take(&mut sw, &mut store, 1);
        }
        assert!(!take(&mut sw, &mut store, 1).unwrap().ce);
    }

    #[test]
    fn traced_enqueue_reports_queue_transitions() {
        let mut sw = tiny_switch(DibsPolicy::Random, 2);
        let mut rng = SimRng::new(1);
        let mut store = PacketStore::new();
        let mut buf = Tracer::from_spec(&TraceSpec::parse("all").unwrap());
        for (i, t) in [(1, 100), (2, 200), (3, 300)] {
            // Port 0 holds two: packet 3 must detour (and be CE-marked doing so).
            let r = store.insert(pkt(i));
            sw.enqueue(&mut store, r, 0, &mut rng, t, &mut buf);
        }
        sw.dequeue(&store, 0, 400, &mut buf);
        let events = buf.into_report(0).unwrap().events;
        let kinds: Vec<TraceKind> = events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                TraceKind::Enqueue,
                TraceKind::Enqueue,
                TraceKind::EcnMark,
                TraceKind::Detour,
                TraceKind::Dequeue,
            ]
        );
        // Enqueue events carry the depth after the push.
        assert_eq!(events[0].qlen, 1);
        assert_eq!(events[1].qlen, 2);
        // The detour event carries the incremented detour count.
        assert_eq!(events[3].detours, 1);
        assert_eq!(events[3].packet, 3);
        assert_ne!(events[3].port, 0, "detour lands on another port");
        // Dequeue pops packet 1, leaving one resident on port 0.
        assert_eq!(events[4].packet, 1);
        assert_eq!(events[4].qlen, 1);
    }

    #[test]
    fn untraced_and_traced_paths_agree() {
        // The same seed must produce the same outcomes whether or not a
        // tracer observes the run (tracing consumes no randomness).
        let run = |traced: bool| -> (u64, u64, u64) {
            let mut sw = tiny_switch(DibsPolicy::Random, 2);
            let mut rng = SimRng::new(7);
            let mut store = PacketStore::new();
            let mut buf = Tracer::from_spec(&TraceSpec::parse("all").unwrap());
            for i in 0..12 {
                let r = store.insert(pkt(i));
                if traced {
                    sw.enqueue(&mut store, r, 0, &mut rng, i * 10, &mut buf);
                } else {
                    sw.enqueue(&mut store, r, 0, &mut rng, i * 10, &mut Tracer::off());
                }
            }
            let c = sw.counters();
            (c.enqueued, c.detoured, c.dropped_full)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn pfabric_displaces_lower_priority() {
        let mut sw = SwitchCore::new(
            NodeId(0),
            SwitchConfig {
                buffer: BufferConfig::StaticPerPort { packets: 2 },
                ..SwitchConfig::pfabric()
            },
            vec![false, false],
        );
        let mut rng = SimRng::new(1);
        let mut store = PacketStore::new();
        let mut lo1 = pkt(1);
        lo1.priority = 100;
        let mut lo2 = pkt(2);
        lo2.priority = 90;
        let mut hi = pkt(3);
        hi.priority = 5;
        offer(&mut sw, &mut store, lo1, 0, &mut rng);
        offer(&mut sw, &mut store, lo2, 0, &mut rng);
        let r = offer(&mut sw, &mut store, hi, 0, &mut rng);
        assert!(matches!(r.outcome, EnqueueOutcome::Enqueued { port: 0 }));
        let displaced = r.displaced.expect("one packet displaced");
        assert_eq!(store.get(displaced).id.0, 1, "worst priority (100) goes");
        // And the queue serves highest priority first.
        assert_eq!(take(&mut sw, &mut store, 0).unwrap().id.0, 3);
        assert_eq!(sw.counters().displaced, 1);
    }

    #[test]
    fn pfabric_drops_arrival_when_it_is_worst() {
        let mut sw = SwitchCore::new(
            NodeId(0),
            SwitchConfig {
                buffer: BufferConfig::StaticPerPort { packets: 1 },
                ..SwitchConfig::pfabric()
            },
            vec![false],
        );
        let mut rng = SimRng::new(1);
        let mut store = PacketStore::new();
        let mut hi = pkt(1);
        hi.priority = 5;
        let mut lo = pkt(2);
        lo.priority = 100;
        offer(&mut sw, &mut store, hi, 0, &mut rng);
        let r = offer(&mut sw, &mut store, lo, 0, &mut rng);
        assert!(matches!(
            r.outcome,
            EnqueueOutcome::Dropped(DropReason::PriorityDisplaced)
        ));
        assert!(r.displaced.is_none());
    }

    #[test]
    fn shared_buffer_lets_hot_port_borrow() {
        let mut sw = SwitchCore::new(
            NodeId(0),
            SwitchConfig {
                buffer: BufferConfig::DynamicShared {
                    total_bytes: 20 * 1500,
                    alpha: 1.0,
                    per_port_reserve_bytes: 0,
                },
                ecn_threshold: None,
                dibs: DibsPolicy::Disabled,
                discipline: Discipline::Fifo,
            },
            vec![false, false, false, false],
        );
        let mut rng = SimRng::new(1);
        let mut store = PacketStore::new();
        // A single hot port can hold far more than total/ports = 5 packets.
        let mut admitted = 0;
        while let EnqueueOutcome::Enqueued { .. } =
            offer(&mut sw, &mut store, pkt(admitted as u64), 0, &mut rng).outcome
        {
            admitted += 1;
        }
        // With alpha = 1 a lone hot queue stabilizes at half the pool,
        // double its static fair share of total/ports = 5 packets.
        assert_eq!(admitted, 10, "dynamic threshold should allow borrowing");
        assert!((sw.free_fraction() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn free_fraction_tracks_occupancy() {
        let mut sw = tiny_switch(DibsPolicy::Disabled, 10);
        let mut rng = SimRng::new(1);
        let mut store = PacketStore::new();
        assert_eq!(sw.free_fraction(), 1.0);
        for i in 0..20 {
            offer(&mut sw, &mut store, pkt(i), 1, &mut rng);
        }
        // 10 admitted (limit), 10 dropped; 10 of 40 slots used.
        assert_eq!(sw.total_buffered(), 10);
        assert!((sw.free_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn probabilistic_policy_detours_early() {
        let mut sw = SwitchCore::new(
            NodeId(0),
            SwitchConfig {
                buffer: BufferConfig::StaticPerPort { packets: 10 },
                ecn_threshold: None,
                dibs: DibsPolicy::Probabilistic { onset: 0.0 },
                discipline: Discipline::Fifo,
            },
            vec![false, false],
        );
        let mut rng = SimRng::new(3);
        let mut store = PacketStore::new();
        // Occupancy ramps from 0; with onset 0 any nonzero occupancy can
        // trigger early detours well before the queue is full.
        let mut detoured = 0;
        for i in 0..9 {
            if matches!(
                offer(&mut sw, &mut store, pkt(i), 0, &mut rng).outcome,
                EnqueueOutcome::Detoured { .. }
            ) {
                detoured += 1;
            }
        }
        assert!(detoured > 0, "expected early detours before overflow");
        assert!(sw.queue_len(0) < 9);
    }
}
