//! Property-based tests for the switch data path: buffer accounting,
//! detour eligibility, and pFabric priority behavior under random operation
//! sequences, driven by the deterministic harness in `dibs_engine::testkit`.
//!
//! Packets live in a [`PacketStore`] the way the simulator keeps them: the
//! tests release every dropped, displaced, and dequeued handle, so the
//! store's live count must always equal the packets the switch buffers.

use dibs_engine::rng::SimRng;
use dibs_engine::testkit::{cases_n, vec_of};
use dibs_engine::time::SimTime;
use dibs_net::ids::{FlowId, HostId, NodeId, PacketId};
use dibs_net::packet::{Packet, PacketStore};
use dibs_switch::{
    BufferConfig, DibsPolicy, Discipline, DropReason, EnqueueOutcome, EnqueueResult, SwitchConfig,
    SwitchCore,
};
use dibs_trace::Tracer;

fn pkt(id: u64, flow: u32, priority: u64) -> Packet {
    let mut p = Packet::data(
        PacketId(id),
        FlowId(flow),
        HostId(0),
        HostId(1),
        0,
        1460,
        64,
        SimTime::ZERO,
    );
    p.priority = priority;
    p
}

/// Parks `p` and offers it to `sw` untraced; releases the handle of a
/// dropped arrival or a displaced resident, as the simulator does.
fn offer(
    sw: &mut SwitchCore,
    store: &mut PacketStore,
    p: Packet,
    port: usize,
    rng: &mut SimRng,
) -> (EnqueueResult, Option<Packet>) {
    let r = store.insert(p);
    let result = sw.enqueue(store, r, port, rng, 0, &mut Tracer::off());
    if let EnqueueOutcome::Dropped(_) = result.outcome {
        store.release(r);
    }
    let displaced = result.displaced.map(|d| store.release(d));
    (result, displaced)
}

/// Dequeues from `port` untraced and takes the packet out of `store`.
fn take(sw: &mut SwitchCore, store: &mut PacketStore, port: usize) -> Option<Packet> {
    let r = sw.dequeue(store, port, 0, &mut Tracer::off())?;
    Some(store.release(r))
}

/// One random operation against the switch.
#[derive(Debug, Clone)]
enum Op {
    Enqueue {
        port: usize,
        flow: u32,
        priority: u64,
    },
    Dequeue {
        port: usize,
    },
}

fn gen_ops(rng: &mut SimRng, ports: usize, len: usize) -> Vec<Op> {
    vec_of(rng, 1..len, |r| {
        if r.chance(0.5) {
            Op::Enqueue {
                port: r.below(ports),
                flow: u32::try_from(r.next_u64() & 0xffff_ffff).expect("masked"),
                priority: r.range_u64(1, 1_000_000),
            }
        } else {
            Op::Dequeue {
                port: r.below(ports),
            }
        }
    })
}

/// Static per-port buffers: queue lengths never exceed the limit, every
/// packet is enqueued / detoured / dropped exactly once, and dequeues
/// return packets previously admitted.
#[test]
fn static_buffer_invariants() {
    cases_n("static-buffer", 64, |rng, _| {
        let ops = gen_ops(rng, 6, 300);
        let limit = rng.below(7) + 1;
        let dibs_on = rng.chance(0.5);
        let seed = rng.next_u64();
        let cfg = SwitchConfig {
            buffer: BufferConfig::StaticPerPort { packets: limit },
            ecn_threshold: Some(2),
            dibs: if dibs_on {
                DibsPolicy::Random
            } else {
                DibsPolicy::Disabled
            },
            discipline: Discipline::Fifo,
        };
        // Port 0 faces a host.
        let mut sw = SwitchCore::new(
            NodeId(0),
            cfg,
            vec![true, false, false, false, false, false],
        );
        let mut sw_rng = SimRng::new(seed);
        let mut store = PacketStore::new();
        let mut resident = 0usize;
        let mut id = 0u64;
        for op in &ops {
            match *op {
                Op::Enqueue {
                    port,
                    flow,
                    priority,
                } => {
                    id += 1;
                    let (result, _) = offer(
                        &mut sw,
                        &mut store,
                        pkt(id, flow, priority),
                        port,
                        &mut sw_rng,
                    );
                    match result.outcome {
                        EnqueueOutcome::Enqueued { port: p } => {
                            assert_eq!(p, port);
                            resident += 1;
                        }
                        EnqueueOutcome::Detoured { port: p } => {
                            assert!(dibs_on, "detour with DIBS disabled");
                            assert_ne!(p, port);
                            assert!(!sw.is_host_facing(p), "detoured to a host port");
                            resident += 1;
                        }
                        EnqueueOutcome::Dropped(DropReason::BufferFull) => {}
                        EnqueueOutcome::Dropped(r) => {
                            panic!("unexpected drop reason {r:?}");
                        }
                    }
                }
                Op::Dequeue { port } => {
                    if take(&mut sw, &mut store, port).is_some() {
                        resident -= 1;
                    }
                }
            }
            for p in 0..sw.num_ports() {
                assert!(sw.queue_len(p) <= limit, "port {p} over limit");
            }
            assert_eq!(sw.total_buffered(), resident);
            assert_eq!(store.live(), resident as u64, "store leaked a handle");
        }
        // Counter bookkeeping balances.
        let c = sw.counters();
        assert_eq!(c.enqueued + c.detoured, resident as u64 + c.dequeued);
    });
}

/// Shared (DBA) buffers: total admitted bytes never exceed the pool, and
/// draining releases memory monotonically.
#[test]
fn dba_pool_never_overflows() {
    cases_n("dba-pool", 64, |rng, _| {
        let ops = gen_ops(rng, 4, 300);
        let seed = rng.next_u64();
        let total_bytes = 20 * 1500u64;
        let cfg = SwitchConfig {
            buffer: BufferConfig::DynamicShared {
                total_bytes,
                alpha: 1.0,
                per_port_reserve_bytes: 1500,
            },
            ecn_threshold: None,
            dibs: DibsPolicy::Random,
            discipline: Discipline::Fifo,
        };
        let mut sw = SwitchCore::new(NodeId(0), cfg, vec![false; 4]);
        let mut sw_rng = SimRng::new(seed);
        let mut store = PacketStore::new();
        let mut id = 0u64;
        for op in &ops {
            match *op {
                Op::Enqueue {
                    port,
                    flow,
                    priority,
                } => {
                    id += 1;
                    offer(
                        &mut sw,
                        &mut store,
                        pkt(id, flow, priority),
                        port,
                        &mut sw_rng,
                    );
                }
                Op::Dequeue { port } => {
                    take(&mut sw, &mut store, port);
                }
            }
            let buffered_bytes: u64 = (0..sw.num_ports()).map(|p| sw.queue_bytes(p)).sum();
            assert!(
                buffered_bytes <= total_bytes,
                "pool overflow: {buffered_bytes}"
            );
            assert!((0.0..=1.0).contains(&sw.free_fraction()));
            assert_eq!(store.live(), sw.total_buffered() as u64);
        }
    });
}

/// pFabric: a queue never holds a packet with worse priority than one it
/// displaced, and dequeue order is nondecreasing priority among packets
/// present at the same time.
#[test]
fn pfabric_priority_invariants() {
    cases_n("pfabric-priority", 64, |rng, _| {
        let priorities = vec_of(rng, 1..60, |r| r.range_u64(1, 1000));
        let cfg = SwitchConfig {
            buffer: BufferConfig::StaticPerPort { packets: 8 },
            ..SwitchConfig::pfabric()
        };
        let mut sw = SwitchCore::new(NodeId(0), cfg, vec![false]);
        let mut sw_rng = SimRng::new(1);
        let mut store = PacketStore::new();
        let mut admitted: Vec<u64> = Vec::new();
        for (i, &pr) in priorities.iter().enumerate() {
            let fid = u32::try_from(i).expect("loop index fits u32");
            let (r, displaced) = offer(&mut sw, &mut store, pkt(i as u64, fid, pr), 0, &mut sw_rng);
            match r.outcome {
                EnqueueOutcome::Enqueued { .. } => {
                    admitted.push(pr);
                    if let Some(d) = displaced {
                        // The displaced packet had the worst priority.
                        let pos = admitted.iter().position(|&x| x == d.priority).unwrap();
                        admitted.remove(pos);
                        assert!(d.priority >= pr);
                    }
                }
                EnqueueOutcome::Dropped(_) => {
                    assert!(r.displaced.is_none());
                    // Arrival was no better than the resident worst.
                    let worst = admitted.iter().max().copied().unwrap_or(u64::MAX);
                    assert!(pr >= worst);
                }
                EnqueueOutcome::Detoured { .. } => panic!("pFabric never detours"),
            }
            assert_eq!(store.live(), sw.total_buffered() as u64);
        }
        // Drain: priorities come out sorted ascending (highest priority =
        // smallest first).
        let mut out = Vec::new();
        while let Some(p) = take(&mut sw, &mut store, 0) {
            out.push(p.priority);
        }
        assert_eq!(store.live(), 0);
        let mut sorted = out.clone();
        sorted.sort_unstable();
        assert_eq!(&out, &sorted, "pFabric dequeue must follow priority order");
        // And the set matches what we believed was admitted.
        let mut adm = admitted.clone();
        adm.sort_unstable();
        assert_eq!(adm, sorted);
    });
}

/// ECN marking: with threshold K, exactly the packets that found >= K
/// packets already queued get marked (FIFO, single port, no DIBS).
#[test]
fn ecn_marks_match_threshold() {
    cases_n("ecn-threshold", 64, |rng, _| {
        let n = rng.below(39) + 1;
        let k = rng.below(19) + 1;
        let cfg = SwitchConfig {
            buffer: BufferConfig::StaticPerPort { packets: 100 },
            ecn_threshold: Some(k),
            dibs: DibsPolicy::Disabled,
            discipline: Discipline::Fifo,
        };
        let mut sw = SwitchCore::new(NodeId(0), cfg, vec![false]);
        let mut sw_rng = SimRng::new(1);
        let mut store = PacketStore::new();
        for i in 0..n {
            offer(&mut sw, &mut store, pkt(i as u64, 0, 1), 0, &mut sw_rng);
        }
        let mut marked = 0;
        while let Some(p) = take(&mut sw, &mut store, 0) {
            if p.ce {
                marked += 1;
            }
        }
        assert_eq!(marked, n.saturating_sub(k), "n={n} k={k}");
    });
}
