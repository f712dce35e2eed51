//! Property-based transport tests: arbitrary loss, reordering, and marking
//! patterns must never break delivery or state invariants.

use dibs_engine::testkit::{cases_n, vec_of};
use dibs_engine::time::{SimDuration, SimTime};
use dibs_net::ids::{FlowId, HostId, PacketId};
use dibs_net::packet::Packet;
use dibs_trace::Tracer;
use dibs_transport::{IdGen, TcpConfig, TcpReceiver, TcpSender};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Drives a sender/receiver pair over a lossy, jittery pipe described by
/// deterministic per-packet decision patterns.
struct Channel {
    drop_pattern: Vec<bool>,
    jitter_pattern: Vec<u64>,
    mark_pattern: Vec<bool>,
    max_steps: u64,
}

impl Channel {
    fn run(&self, cfg: TcpConfig, size: u64) -> (TcpSender, TcpReceiver, u64) {
        let mut sender = TcpSender::new(cfg, FlowId(0), HostId(0), HostId(1), size);
        let mut receiver = TcpReceiver::new(FlowId(0), HostId(1), HostId(0), size, 255, 1);
        let mut ids = IdGen::new();
        let base = SimDuration::from_micros(30);

        // Data items keep the sender's send time and acks the receiver's
        // timestamp echo, so acks time the whole round trip.
        #[derive(PartialEq, Eq, PartialOrd, Ord)]
        enum Item {
            Data {
                seq: u64,
                len: u32,
                ce: bool,
                sent_at: SimTime,
            },
            Ack {
                seq: u64,
                ece: bool,
                ts_echo: SimTime,
            },
            Timer(u64),
        }
        let mut heap: BinaryHeap<Reverse<(SimTime, u64, Item)>> = BinaryHeap::new();
        let mut tick = 0u64;
        let mut data_idx = 0usize;
        let mut last_timer_gen = u64::MAX;
        let mut now = SimTime::ZERO;

        let push_pkts = |pkts: Vec<Packet>,
                         heap: &mut BinaryHeap<Reverse<(SimTime, u64, Item)>>,
                         now: SimTime,
                         tick: &mut u64,
                         data_idx: &mut usize| {
            for p in pkts {
                let i = *data_idx % self.drop_pattern.len();
                *data_idx += 1;
                if self.drop_pattern[i] {
                    continue;
                }
                let jitter =
                    SimDuration::from_micros(self.jitter_pattern[i % self.jitter_pattern.len()]);
                *tick += 1;
                heap.push(Reverse((
                    now + base + jitter,
                    *tick,
                    Item::Data {
                        seq: p.seq,
                        len: p.payload_bytes,
                        ce: self.mark_pattern[i % self.mark_pattern.len()],
                        sent_at: p.sent_at,
                    },
                )));
            }
        };

        let first = sender.start(now, &mut ids);
        push_pkts(first, &mut heap, now, &mut tick, &mut data_idx);
        if let Some((deadline, gen)) = sender.timer() {
            last_timer_gen = gen;
            tick += 1;
            heap.push(Reverse((deadline, tick, Item::Timer(gen))));
        }

        let mut steps = 0u64;
        while let Some(Reverse((t, _, item))) = heap.pop() {
            steps += 1;
            if steps > self.max_steps {
                break;
            }
            now = t;
            let out = match item {
                Item::Data {
                    seq,
                    len,
                    ce,
                    sent_at,
                } => {
                    let mut pkt = Packet::data(
                        PacketId(steps),
                        FlowId(0),
                        HostId(0),
                        HostId(1),
                        seq,
                        len,
                        64,
                        sent_at,
                    );
                    pkt.ce = ce;
                    // Acks are never dropped in this harness (ack loss is
                    // covered by the sim-level tests).
                    if let Some(ack) = receiver.on_data(&pkt, now, &mut ids) {
                        tick += 1;
                        heap.push(Reverse((
                            now + base,
                            tick,
                            Item::Ack {
                                seq: ack.seq,
                                ece: ack.ece,
                                ts_echo: ack.ts_echo,
                            },
                        )));
                    }
                    Vec::new()
                }
                Item::Ack { seq, ece, ts_echo } => sender.on_ack(seq, ece, ts_echo, now, &mut ids),
                Item::Timer(gen) => sender.on_rto(gen, now, &mut ids, 0, &mut Tracer::off()),
            };
            push_pkts(out, &mut heap, now, &mut tick, &mut data_idx);
            if let Some((deadline, gen)) = sender.timer() {
                if gen != last_timer_gen {
                    last_timer_gen = gen;
                    tick += 1;
                    heap.push(Reverse((deadline, tick, Item::Timer(gen))));
                }
            }
            if sender.is_complete() {
                break;
            }
        }
        (sender, receiver, steps)
    }
}

/// Whatever the loss/reorder/mark pattern, the receiver either ends with
/// exactly `size` in-order bytes (if the sender completed) and never
/// more than `size`.
#[test]
fn delivery_is_exact_under_adversity() {
    cases_n("delivery-adversity", 48, |rng, _| {
        let size = rng.range_u64(1, 120_000);
        let mut drop_pattern = vec_of(rng, 8..40, |r| r.chance(0.08));
        // Guarantee progress: at least one packet per cycle gets through.
        if drop_pattern.iter().all(|&d| d) {
            drop_pattern[0] = false;
        }
        let jitter = vec_of(rng, 4..16, |r| r.range_u64(0, 400));
        let marks = vec_of(rng, 4..16, |r| r.chance(0.5));
        let ch = Channel {
            drop_pattern,
            jitter_pattern: jitter,
            mark_pattern: marks,
            max_steps: 300_000,
        };
        let (sender, receiver, _) = ch.run(TcpConfig::dctcp_dibs(), size);
        assert!(receiver.rcv_nxt() <= size);
        if sender.is_complete() {
            assert_eq!(receiver.rcv_nxt(), size);
            assert!(receiver.is_complete());
        }
        // Invariants that hold regardless of completion.
        assert!(sender.cwnd() >= 1460.0);
        assert!((0.0..=1.0).contains(&sender.alpha()));
    });
}

/// With zero loss, every configuration completes, regardless of
/// reordering, and the DIBS-tuned config never takes a timeout.
#[test]
fn lossless_reordering_completes() {
    cases_n("lossless-reorder", 48, |rng, _| {
        let size = rng.range_u64(1, 200_000);
        let jitter = vec_of(rng, 4..16, |r| r.range_u64(0, 800));
        for (cfg, expect_no_timeouts) in [
            (TcpConfig::dctcp_dibs(), true),
            (TcpConfig::dctcp_baseline(), true),
            (TcpConfig::pfabric(), false), // 350us fixed RTO can misfire under 800us jitter.
        ] {
            let ch = Channel {
                drop_pattern: vec![false],
                jitter_pattern: jitter.clone(),
                mark_pattern: vec![false],
                max_steps: 300_000,
            };
            let (sender, receiver, _) = ch.run(cfg, size);
            assert!(sender.is_complete(), "cfg {cfg:?} stalled");
            assert_eq!(receiver.rcv_nxt(), size);
            if expect_no_timeouts {
                assert_eq!(sender.counters().timeouts, 0);
            }
        }
    });
}

/// Marking every packet drives alpha to 1 and pins cwnd at the floor;
/// marking none decays alpha, for any flow size that spans multiple
/// windows.
#[test]
fn alpha_extremes() {
    cases_n("alpha-extremes", 24, |rng, i| {
        let all_marked = i % 2 == 0;
        let size = rng.range_u64(500_000, 2_000_000);
        let ch = Channel {
            drop_pattern: vec![false],
            jitter_pattern: vec![0],
            mark_pattern: vec![all_marked],
            max_steps: 300_000,
        };
        let (sender, _, _) = ch.run(TcpConfig::dctcp_dibs(), size);
        assert!(sender.is_complete());
        if all_marked {
            assert!(sender.alpha() > 0.5, "alpha {}", sender.alpha());
        } else {
            // Unmarked flows finish within a handful of slow-start windows,
            // so alpha (initialized to 1, EWMA gain 1/16) only decays a
            // step per window — require clear movement, not convergence.
            assert!(sender.alpha() < 0.8, "alpha {}", sender.alpha());
        }
    });
}
