//! End-to-end sender/receiver tests over a tiny in-test event loop.
//!
//! These exercise the transport pair over a "perfect pipe" with constant
//! delay, optional random reordering, deterministic loss, and synthetic ECN
//! marking — without the full simulator.

use dibs_engine::rng::SimRng;
use dibs_engine::time::{SimDuration, SimTime};
use dibs_net::ids::{FlowId, HostId};
use dibs_net::packet::Packet;
use dibs_trace::Tracer;
use dibs_transport::{IdGen, TcpConfig, TcpReceiver, TcpSender};
use std::collections::BinaryHeap;

/// A minimal bidirectional pipe harness.
struct Pipe {
    sender: TcpSender,
    receiver: TcpReceiver,
    ids: IdGen,
    /// (deliver_at, seq for determinism, packet) min-heap.
    wire: BinaryHeap<std::cmp::Reverse<(SimTime, u64, WireItem)>>,
    wire_seq: u64,
    delay: SimDuration,
    now: SimTime,
    /// Drop the n-th data transmission (0-based) if set.
    drop_nth_data: Option<u64>,
    data_seen: u64,
    /// Mark every data packet CE (synthetic congestion).
    mark_all: bool,
    /// Random extra per-packet jitter to force reordering.
    jitter: Option<(SimRng, SimDuration)>,
    scheduled_timer: Option<(SimTime, u64)>,
}

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum WireItem {
    Pkt(WirePacket),
    Timer(u64),
}

/// Ord-able packet wrapper (ordering only used for heap determinism).
/// It carries the sender's send time and the receiver's timestamp echo,
/// so acks time the whole round trip, as in the simulator.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct WirePacket {
    is_ack: bool,
    seq: u64,
    payload: u32,
    ce: bool,
    ece: bool,
    id: u64,
    sent_at: SimTime,
    ts_echo: SimTime,
}

impl WirePacket {
    fn from(p: &Packet) -> Self {
        WirePacket {
            is_ack: p.is_ack(),
            seq: p.seq,
            payload: p.payload_bytes,
            ce: p.ce,
            ece: p.ece,
            id: p.id.0,
            sent_at: p.sent_at,
            ts_echo: p.ts_echo,
        }
    }
}

impl Pipe {
    fn new(cfg: TcpConfig, size: u64, delay: SimDuration) -> Self {
        Pipe {
            sender: TcpSender::new(cfg, FlowId(0), HostId(0), HostId(1), size),
            receiver: TcpReceiver::new(FlowId(0), HostId(1), HostId(0), size, 255, 1),
            ids: IdGen::new(),
            wire: BinaryHeap::new(),
            wire_seq: 0,
            delay,
            now: SimTime::ZERO,
            drop_nth_data: None,
            data_seen: 0,
            mark_all: false,
            jitter: None,
            scheduled_timer: None,
        }
    }

    fn transmit(&mut self, pkts: Vec<Packet>) {
        for mut p in pkts {
            if p.is_data() {
                if self.mark_all {
                    p.ce = true;
                }
                let n = self.data_seen;
                self.data_seen += 1;
                if self.drop_nth_data == Some(n) {
                    continue;
                }
            }
            let mut at = self.now + self.delay;
            if let Some((rng, max_jitter)) = &mut self.jitter {
                at += SimDuration::from_nanos(rng.range_u64(0, max_jitter.as_nanos().max(1)));
            }
            self.wire_seq += 1;
            self.wire.push(std::cmp::Reverse((
                at,
                self.wire_seq,
                WireItem::Pkt(WirePacket::from(&p)),
            )));
        }
        self.sync_timer();
    }

    fn sync_timer(&mut self) {
        if let Some((deadline, gen)) = self.sender.timer() {
            if self.scheduled_timer.map(|(_, g)| g) != Some(gen) {
                self.scheduled_timer = Some((deadline, gen));
                self.wire_seq += 1;
                self.wire.push(std::cmp::Reverse((
                    deadline,
                    self.wire_seq,
                    WireItem::Timer(gen),
                )));
            }
        }
    }

    /// Runs to completion (or event exhaustion); returns completion time.
    fn run(&mut self) -> Option<SimTime> {
        let start = self.sender.start(self.now, &mut self.ids);
        self.transmit(start);
        let mut steps = 0u64;
        while let Some(std::cmp::Reverse((t, _, item))) = self.wire.pop() {
            steps += 1;
            assert!(steps < 1_000_000, "runaway loop");
            self.now = t;
            match item {
                WireItem::Timer(gen) => {
                    let out =
                        self.sender
                            .on_rto(gen, self.now, &mut self.ids, 0, &mut Tracer::off());
                    self.transmit(out);
                }
                WireItem::Pkt(wp) if wp.is_ack => {
                    let out =
                        self.sender
                            .on_ack(wp.seq, wp.ece, wp.ts_echo, self.now, &mut self.ids);
                    self.transmit(out);
                }
                WireItem::Pkt(wp) => {
                    let mut pkt = Packet::data(
                        dibs_net::ids::PacketId(wp.id),
                        FlowId(0),
                        HostId(0),
                        HostId(1),
                        wp.seq,
                        wp.payload,
                        64,
                        wp.sent_at,
                    );
                    pkt.ce = wp.ce;
                    if let Some(ack) = self.receiver.on_data(&pkt, self.now, &mut self.ids) {
                        self.transmit(vec![ack]);
                    }
                }
            }
            if self.sender.is_complete() && self.receiver.is_complete() {
                return self.sender.completed_at();
            }
        }
        None
    }
}

#[test]
fn clean_transfer_completes_quickly() {
    let mut pipe = Pipe::new(
        TcpConfig::dctcp_baseline(),
        1_000_000,
        SimDuration::from_micros(50),
    );
    let done = pipe.run().expect("flow completes");
    // 1 MB at unbounded pipe rate: bounded by slow-start round trips only.
    assert!(done < SimTime::from_millis(5), "took {done}");
    assert_eq!(pipe.sender.counters().timeouts, 0);
    assert_eq!(pipe.receiver.rcv_nxt(), 1_000_000);
}

#[test]
fn exact_byte_count_delivered() {
    for size in [1u64, 100, 1460, 1461, 14_600, 1_000_000, 1_234_567] {
        let mut pipe = Pipe::new(
            TcpConfig::dctcp_baseline(),
            size,
            SimDuration::from_micros(10),
        );
        pipe.run().expect("completes");
        assert_eq!(pipe.receiver.rcv_nxt(), size, "size {size}");
    }
}

#[test]
fn single_loss_recovers_via_rto_without_fast_retransmit() {
    let mut pipe = Pipe::new(
        TcpConfig::dctcp_dibs(), // Fast retransmit disabled.
        100_000,
        SimDuration::from_micros(50),
    );
    pipe.drop_nth_data = Some(3);
    let done = pipe.run().expect("flow still completes");
    assert_eq!(pipe.sender.counters().timeouts, 1);
    assert_eq!(pipe.sender.counters().fast_retransmits, 0);
    // RTO is 10 ms, so completion is dominated by one timeout.
    assert!(done >= SimTime::from_millis(10));
    assert!(done < SimTime::from_millis(50));
}

#[test]
fn single_loss_recovers_via_fast_retransmit_when_enabled() {
    let mut pipe = Pipe::new(
        TcpConfig::dctcp_baseline(), // Dupack threshold 3.
        100_000,
        SimDuration::from_micros(50),
    );
    pipe.drop_nth_data = Some(3);
    let done = pipe.run().expect("completes");
    assert_eq!(pipe.sender.counters().fast_retransmits, 1);
    assert!(
        done < SimTime::from_millis(10),
        "fast retransmit should beat the RTO, took {done}"
    );
}

#[test]
fn continuous_marking_shrinks_cwnd() {
    let mut pipe = Pipe::new(
        TcpConfig::dctcp_baseline(),
        2_000_000,
        SimDuration::from_micros(50),
    );
    pipe.mark_all = true;
    pipe.run().expect("completes");
    // With every byte marked, alpha ~ 1 and cwnd sits at the floor.
    assert!(pipe.sender.alpha() > 0.5, "alpha {}", pipe.sender.alpha());
    assert!(
        pipe.sender.cwnd() <= 2.0 * 1460.0,
        "cwnd {}",
        pipe.sender.cwnd()
    );
}

#[test]
fn heavy_reordering_still_completes_without_fast_retransmit() {
    let mut pipe = Pipe::new(
        TcpConfig::dctcp_dibs(),
        500_000,
        SimDuration::from_micros(20),
    );
    // Up to 400 us of random jitter per packet: massive reordering relative
    // to the 20 us base delay.
    pipe.jitter = Some((SimRng::new(9), SimDuration::from_micros(400)));
    let done = pipe.run().expect("completes despite reordering");
    assert_eq!(pipe.receiver.rcv_nxt(), 500_000);
    // No losses occurred, so there should be no timeouts either: reordering
    // alone must not stall the DIBS-tuned sender (minRTO 10ms >> jitter).
    assert_eq!(pipe.sender.counters().timeouts, 0, "took {done}");
    assert!(pipe.receiver.counters().out_of_order > 0);
}

#[test]
fn reordering_with_fast_retransmit_causes_spurious_rtx() {
    // The §4 rationale for disabling fast retransmit under DIBS: heavy
    // reordering plus a dupack threshold of 3 produces unnecessary
    // retransmissions even with zero loss.
    let mut pipe = Pipe::new(
        TcpConfig::dctcp_baseline(),
        500_000,
        SimDuration::from_micros(20),
    );
    pipe.jitter = Some((SimRng::new(9), SimDuration::from_micros(400)));
    pipe.run().expect("completes");
    assert!(
        pipe.sender.counters().fast_retransmits > 0,
        "expected spurious fast retransmits under heavy reordering"
    );
}

#[test]
fn pfabric_stack_completes() {
    let mut pipe = Pipe::new(
        TcpConfig::pfabric(),
        1_000_000,
        SimDuration::from_micros(20),
    );
    let done = pipe.run().expect("completes");
    assert!(done < SimTime::from_millis(5));
    assert_eq!(pipe.receiver.rcv_nxt(), 1_000_000);
}

#[test]
fn pfabric_survives_repeated_loss_at_its_fixed_timeout() {
    let mut pipe = Pipe::new(TcpConfig::pfabric(), 50_000, SimDuration::from_micros(20));
    pipe.drop_nth_data = Some(0); // Lose the very first packet.
    let done = pipe.run().expect("completes");
    assert!(pipe.sender.counters().timeouts >= 1);
    // Fixed 350 us RTO: recovery is fast.
    assert!(done < SimTime::from_millis(2), "took {done}");
}
