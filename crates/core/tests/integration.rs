//! Core simulator integration tests: the paper's headline behaviors on
//! small topologies (kept small so debug-mode `cargo test` stays fast).

use dibs::presets::{mixed_workload_sim, single_incast_sim, testbed_incast_sim, MixedWorkload};
use dibs::{SimConfig, Simulation};
use dibs_engine::time::{SimDuration, SimTime};
use dibs_net::builders::{fat_tree, single_switch, FatTreeParams};
use dibs_net::ids::HostId;
use dibs_net::topology::LinkSpec;
use dibs_switch::{BufferConfig, DibsPolicy};
use dibs_workload::{FlowClass, FlowSpec};

fn k4() -> FatTreeParams {
    FatTreeParams {
        k: 4,
        ..FatTreeParams::paper_default()
    }
}

/// A flow of `bytes` from every host to host 0.
fn all_to_one_flows(hosts: usize, bytes: u64) -> Vec<FlowSpec> {
    (1..hosts)
        .map(|i| FlowSpec {
            start: SimTime::ZERO,
            src: HostId::from_index(i),
            dst: HostId(0),
            size: bytes,
            class: FlowClass::Background,
        })
        .collect()
}

/// Fig 6 shape: droptail suffers timeouts and long QCT; DIBS matches the
/// infinite-buffer optimum and never drops.
#[test]
fn testbed_incast_dibs_matches_infinite_buffer() {
    // Droptail (DCTCP baseline, 100-packet buffers).
    let mut droptail = testbed_incast_sim(SimConfig::dctcp_baseline(), 5, 10, 32_000).run();
    // DIBS.
    let mut dibs = testbed_incast_sim(SimConfig::dctcp_dibs(), 5, 10, 32_000).run();
    // Infinite buffers.
    let mut inf_cfg = SimConfig::dctcp_baseline();
    inf_cfg.switch.buffer = BufferConfig::Infinite;
    let mut infinite = testbed_incast_sim(inf_cfg, 5, 10, 32_000).run();

    let qct_droptail = droptail.qct_ms.percentile(1.0).unwrap();
    let qct_dibs = dibs.qct_ms.percentile(1.0).unwrap();
    let qct_inf = infinite.qct_ms.percentile(1.0).unwrap();

    assert_eq!(dibs.counters.total_drops(), 0, "DIBS must not drop");
    assert_eq!(infinite.counters.total_drops(), 0);
    assert!(
        droptail.counters.drops_buffer > 0,
        "droptail must overflow under 50-flow incast"
    );
    assert!(
        qct_dibs <= qct_inf * 1.5,
        "DIBS ({qct_dibs:.1} ms) should be near the infinite-buffer optimum ({qct_inf:.1} ms)"
    );
    assert!(
        qct_droptail > qct_dibs * 1.2,
        "droptail ({qct_droptail:.1} ms) should lag DIBS ({qct_dibs:.1} ms)"
    );
    assert!(
        droptail.counters.rto_timeouts > 0,
        "droptail losses must cost at least one retransmission timeout"
    );
    assert!(dibs.counters.detours > 0);
    assert_eq!(dibs.query_completion_rate(), 1.0);
}

/// Same seed, same config => bit-identical outcome.
#[test]
fn runs_are_deterministic() {
    let run = || {
        let wl = MixedWorkload {
            duration: SimDuration::from_millis(100),
            drain: SimDuration::from_millis(100),
            qps: 600.0,
            incast_degree: 8,
            ..MixedWorkload::paper_default()
        };
        let sim = mixed_workload_sim(k4(), SimConfig::dctcp_dibs().with_seed(7), wl);
        let mut r = sim.run();
        (
            r.counters,
            r.events_dispatched,
            r.qct_ms.percentile(0.99),
            r.bg_all_fct_ms.percentile(0.5),
            r.detours_per_switch.clone(),
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2);
    assert_eq!(a.3, b.3);
    assert_eq!(a.4, b.4);
}

/// Different seeds actually change the run.
#[test]
fn seeds_change_traffic() {
    let run = |seed| {
        let wl = MixedWorkload {
            duration: SimDuration::from_millis(50),
            drain: SimDuration::from_millis(100),
            incast_degree: 8,
            ..MixedWorkload::paper_default()
        };
        let sim = mixed_workload_sim(k4(), SimConfig::dctcp_dibs().with_seed(seed), wl);
        sim.run().events_dispatched
    };
    assert_ne!(run(1), run(2));
}

/// All bytes of every flow arrive exactly once (transport conservation
/// through a lossy, detouring network).
#[test]
fn byte_conservation_under_incast() {
    for cfg in [SimConfig::dctcp_baseline(), SimConfig::dctcp_dibs()] {
        let results = testbed_incast_sim(cfg, 5, 10, 32_000).run();
        for f in &results.flows {
            assert!(f.fct.is_some(), "every flow completes");
            assert_eq!(f.bytes_delivered, 32_000);
        }
    }
}

/// §2: "DIBS has no impact on normal operations" — light traffic detours
/// nothing and drops nothing.
#[test]
fn no_detours_without_congestion() {
    let topo = fat_tree(k4());
    let mut cfg = SimConfig::dctcp_dibs();
    cfg.horizon = SimTime::from_secs(1);
    let mut sim = Simulation::new(topo, cfg);
    // A handful of small, staggered flows.
    for i in 0..8u64 {
        sim.add_flows([FlowSpec {
            start: SimTime::from_millis(i * 10),
            src: HostId((i % 16) as u32),
            dst: HostId(((i + 5) % 16) as u32),
            size: 50_000,
            class: FlowClass::Background,
        }]);
    }
    let results = sim.run();
    assert_eq!(results.counters.detours, 0);
    assert_eq!(results.counters.total_drops(), 0);
    assert!(results.flows.iter().all(|f| f.fct.is_some()));
}

/// Fig 13 mechanism: a tight TTL forces DIBS to drop detour-looping
/// packets.
#[test]
fn low_ttl_causes_ttl_drops() {
    let mut cfg = SimConfig::dctcp_dibs();
    cfg.tcp.initial_ttl = 12;
    let results = testbed_incast_sim(cfg, 5, 10, 32_000).run();
    assert!(
        results.counters.drops_ttl > 0,
        "TTL 12 should expire under heavy detouring"
    );
    // Flows still complete (retransmission recovers the TTL drops).
    assert!(results.flows.iter().all(|f| f.fct.is_some()));
}

/// §5.5.2: a shared-memory (DBA) switch absorbs a moderate incast without
/// DIBS; with the same shared memory DIBS still never drops.
#[test]
fn shared_buffer_dba() {
    let shared = BufferConfig::DynamicShared {
        total_bytes: 1_700_000,
        alpha: 1.0,
        per_port_reserve_bytes: 2 * 1500,
    };
    // Moderate incast on one switch: fits in 1.7 MB shared memory.
    let mut cfg = SimConfig::dctcp_baseline();
    cfg.switch.buffer = shared;
    cfg.horizon = SimTime::from_secs(2);
    let topo = single_switch(9, LinkSpec::gbit(1));
    let mut sim = Simulation::new(topo, cfg);
    sim.add_flows(all_to_one_flows(9, 100_000));
    let results = sim.run();
    assert_eq!(
        results.counters.drops_buffer, 0,
        "DBA should absorb 8x100KB"
    );

    // Extreme: 8 senders x 400 KB = 3.2 MB > 1.7 MB shared. Droptail drops...
    let mut cfg2 = cfg;
    cfg2.switch.buffer = shared;
    let topo2 = single_switch(9, LinkSpec::gbit(1));
    let mut sim2 = Simulation::new(topo2, cfg2);
    sim2.add_flows(all_to_one_flows(9, 400_000));
    let base = sim2.run();

    // ...while DIBS on a richer topology (fat-tree) with the same shared
    // buffers keeps losses at zero.
    let mut cfg3 = SimConfig::dctcp_dibs();
    cfg3.switch.buffer = shared;
    let results3 = single_incast_sim(k4(), cfg3, 8, 400_000).run();
    assert_eq!(results3.counters.drops_buffer, 0, "DIBS+DBA lossless");
    // The single-switch droptail case must actually have been stressed for
    // the comparison to mean anything.
    assert!(base.counters.ecn_marks > 0);
}

/// §5.8: the pFabric stack completes incasts; its switches displace
/// lower-priority packets under pressure.
#[test]
fn pfabric_incast_completes() {
    let results = testbed_incast_sim(SimConfig::pfabric(), 5, 10, 32_000).run();
    assert_eq!(results.query_completion_rate(), 1.0);
    // 24-packet buffers under a 50-flow incast must shed load.
    assert!(results.counters.total_drops() > 0);
    for f in &results.flows {
        assert_eq!(f.bytes_delivered, 32_000);
    }
}

/// §5.6: long-lived flows share bandwidth fairly under DIBS.
/// §5.6 part 1: on a single shared bottleneck, DCTCP+DIBS converges to an
/// essentially perfect Jain index — the transport does not induce
/// unfairness.
#[test]
fn fairness_perfect_on_shared_bottleneck() {
    let topo = single_switch(5, LinkSpec::gbit(1));
    let mut cfg = SimConfig::dctcp_dibs();
    cfg.horizon = SimTime::from_millis(300);
    cfg.throughput_warmup = Some(SimTime::from_millis(100));
    let mut sim = Simulation::new(topo, cfg);
    for i in 1..5u32 {
        sim.add_flows([FlowSpec {
            start: SimTime::ZERO,
            src: HostId(i),
            dst: HostId(0),
            size: u64::MAX / 4,
            class: FlowClass::LongLived,
        }]);
    }
    let results = sim.run();
    let jain = results.jain().unwrap();
    assert!(jain > 0.99, "Jain index {jain}");
    // Aggregate goodput saturates the bottleneck (within DCTCP headroom).
    let total: f64 = results.long_lived_throughput_bps.iter().sum();
    assert!(total > 0.9e9, "total goodput {total}");
}

/// §5.6 part 2: on the fat-tree, flow-level ECMP collisions bound the
/// per-flow Jain index structurally — and DIBS does not make it worse than
/// the no-DIBS baseline. (The full K=8 N-sweep lives in `tab_fairness`.)
#[test]
#[ignore = "tier-2 (~40 s): run via scripts/check.sh --full or --include-ignored"]
fn fairness_dibs_does_not_induce_unfairness() {
    let run = |cfg: SimConfig| {
        let mut cfg = cfg.with_seed(3);
        cfg.throughput_warmup = Some(SimTime::from_millis(100));
        cfg.horizon = SimTime::from_millis(400);
        let topo = fat_tree(k4());
        let hosts = topo.num_hosts();
        let mut sim = Simulation::new(topo, cfg);
        sim.add_flows(dibs_workload::long_lived_pairs(hosts, 4));
        let results = sim.run();
        assert_eq!(results.long_lived_throughput_bps.len(), 64);
        assert!(results
            .long_lived_throughput_bps
            .iter()
            .all(|&t| t > 10_000_000.0));
        results.jain().unwrap()
    };
    // The two arms are independent full runs — fan them out.
    let mut jains = dibs_harness::Executor::from_env().map(
        vec![SimConfig::dctcp_dibs(), SimConfig::dctcp_baseline()],
        run,
    );
    let jain_base = jains.pop().unwrap();
    let jain_dibs = jains.pop().unwrap();
    // ECMP collisions dominate on K=4 (only two choices per stage); what
    // DIBS must not do is degrade fairness relative to the baseline.
    assert!(jain_dibs > 0.6, "DIBS Jain {jain_dibs}");
    assert!(
        jain_dibs >= jain_base - 0.05,
        "DIBS ({jain_dibs:.3}) must not be less fair than baseline ({jain_base:.3})"
    );
}

/// Detour bookkeeping is consistent: per-switch counts sum to the global
/// counter.
#[test]
fn detour_accounting_consistent() {
    let results = testbed_incast_sim(SimConfig::dctcp_dibs(), 5, 10, 32_000).run();
    let per_switch: u64 = results.detours_per_switch.iter().sum();
    assert_eq!(per_switch, results.counters.detours);
    // Histogram mass equals delivered packets.
    let hist_total: u64 = results.detour_histogram.iter().sum();
    assert_eq!(hist_total, results.counters.packets_delivered);
}

/// The load-aware and flow-based policies also produce lossless incasts.
#[test]
fn alternative_policies_also_lossless() {
    let policies = vec![
        DibsPolicy::LoadAware,
        DibsPolicy::FlowBased,
        DibsPolicy::Probabilistic { onset: 0.9 },
    ];
    let results = dibs_harness::Executor::from_env().map(policies, |policy| {
        let cfg = SimConfig::dctcp_dibs().with_policy(policy);
        (policy, testbed_incast_sim(cfg, 5, 10, 32_000).run())
    });
    for (policy, results) in results {
        assert_eq!(
            results.counters.drops_buffer, 0,
            "{policy:?} should be lossless here"
        );
        assert_eq!(results.query_completion_rate(), 1.0, "{policy:?}");
    }
}

/// Sampling plumbing: hot-link fractions and neighbor-buffer stats come out
/// of a congested run.
#[test]
fn sampling_produces_hotlink_series() {
    let mut cfg = SimConfig::dctcp_dibs();
    cfg.sample_interval = Some(SimDuration::from_millis(1));
    let results = testbed_incast_sim(cfg, 5, 10, 32_000).run();
    assert!(!results.hot_fraction_samples.is_empty());
    // The receiver's downlink saturates during the burst: some sample must
    // see a hot link.
    let max_hot = results
        .hot_fraction_samples
        .iter()
        .cloned()
        .fold(0.0f64, f64::max);
    assert!(max_hot > 0.0, "expected at least one hot sample");
    assert!(!results.neighbor_free_1hop.is_empty());
    assert!(results
        .neighbor_free_1hop
        .iter()
        .all(|&f| (0.0..=1.0).contains(&f)));
}

/// An ECN-blind loss-based sender (NewReno semantics with marking ignored)
/// paired with DIBS keeps queues saturated — the §3 requirement that DIBS
/// needs an ECN-reactive controller.
#[test]
fn dibs_with_loss_based_cc_floods_buffers() {
    let mut unmarked_cfg = SimConfig::dctcp_dibs();
    unmarked_cfg.switch.ecn_threshold = None; // No marking: NewReno-over-droptail semantics.
    let unmarked = testbed_incast_sim(unmarked_cfg, 5, 10, 32_000).run();

    let dctcp = testbed_incast_sim(SimConfig::dctcp_dibs(), 5, 10, 32_000).run();
    // Without ECN the network detours far more (queues stay full longer).
    assert!(
        unmarked.counters.detours > dctcp.counters.detours,
        "no-ECN detours {} should exceed DCTCP detours {}",
        unmarked.counters.detours,
        dctcp.counters.detours
    );
}

/// The host NIC cap drops locally once exceeded, and the transport
/// recovers via retransmission.
#[test]
fn host_nic_cap_drops_and_recovers() {
    let topo = single_switch(3, LinkSpec::gbit(1));
    let mut cfg = SimConfig::dctcp_dibs();
    cfg.horizon = SimTime::from_secs(3);
    cfg.host_nic_cap = 5; // Absurdly small: the initial window overflows it.
    let mut sim = Simulation::new(topo, cfg);
    sim.add_flows([FlowSpec {
        start: SimTime::ZERO,
        src: HostId(1),
        dst: HostId(0),
        size: 300_000,
        class: FlowClass::Background,
    }]);
    let r = sim.run();
    assert!(r.counters.drops_host_nic > 0, "cap must bind");
    assert!(r.flows[0].fct.is_some(), "flow still completes");
    assert_eq!(r.flows[0].bytes_delivered, 300_000);
}

/// §5.5.4: oversubscribed fabrics still deliver everything; DIBS stays
/// lossless at the (still-bottlenecked) last hop.
#[test]
fn oversubscribed_fabric_works() {
    let tree = FatTreeParams {
        fabric_link: LinkSpec::gbit(1).slower_by(4),
        ..k4()
    };
    let topo = fat_tree(tree);
    // Check only fabric links slowed.
    for (pr, port) in topo.directed_edges() {
        let host_side = topo.is_host(pr.node) || port.peer_is_host;
        assert_eq!(
            port.rate_bps,
            if host_side {
                1_000_000_000
            } else {
                250_000_000
            }
        );
    }
    let mut cfg = SimConfig::dctcp_dibs();
    cfg.horizon = SimTime::from_secs(3);
    let mut sim = Simulation::new(topo, cfg);
    sim.add_flows(all_to_one_flows(8, 50_000));
    let r = sim.run();
    assert_eq!(r.counters.drops_buffer, 0);
    assert!(r.flows.iter().all(|f| f.fct.is_some()));
}

/// Spurious timeouts under deep buffers are detected and undone (Eifel),
/// and never happen at the default 100-packet buffers.
#[test]
fn eifel_detects_spurious_timeouts_at_deep_buffers() {
    // Deep buffers: sojourn exceeds the 10 ms minRTO, causing spurious
    // timeouts on the incast's first window.
    let mut deep = SimConfig::dctcp_dibs();
    deep.switch.buffer = dibs_switch::BufferConfig::StaticPerPort { packets: 1500 };
    let r = testbed_incast_sim(deep, 5, 10, 64_000).run();
    assert_eq!(r.counters.total_drops(), 0);
    if r.counters.rto_timeouts > 0 {
        assert!(
            r.counters.spurious_timeouts > 0,
            "deep-buffer timeouts with zero drops must be flagged spurious"
        );
    }
    // Default buffers: the burst drains fast enough that queries finish
    // without spurious timeouts.
    let r = testbed_incast_sim(SimConfig::dctcp_dibs(), 5, 10, 32_000).run();
    assert_eq!(r.counters.spurious_timeouts, 0);
}

/// §6 Ethernet flow control: PAUSE-based backpressure also avoids drops on
/// the incast, at the cost of pausing innocent neighbors (head-of-line
/// blocking); DIBS achieves the same losslessness without stalling anyone.
#[test]
fn pfc_is_lossless_but_pauses_neighbors() {
    let mut pfc_cfg = SimConfig::dctcp_baseline();
    pfc_cfg.pfc = Some(dibs::PfcConfig {
        xoff: 12,
        xon: 6,
        control_delay: SimDuration::from_micros(1),
    });
    let mut pfc = testbed_incast_sim(pfc_cfg, 5, 10, 32_000).run();
    assert_eq!(
        pfc.counters.drops_buffer, 0,
        "PFC must prevent buffer overflow"
    );
    assert!(pfc.pfc_pause_events > 0, "the incast must trigger pauses");
    assert_eq!(pfc.query_completion_rate(), 1.0);

    let mut dibs = testbed_incast_sim(SimConfig::dctcp_dibs(), 5, 10, 32_000).run();
    assert_eq!(dibs.pfc_pause_events, 0);
    // Both lossless; DIBS completes at least as fast (no HoL blocking).
    let q_pfc = pfc.qct_ms.percentile(1.0).unwrap();
    let q_dibs = dibs.qct_ms.percentile(1.0).unwrap();
    assert!(
        q_dibs <= q_pfc * 1.1,
        "DIBS {q_dibs:.1} ms should not lose to PFC {q_pfc:.1} ms"
    );
}

/// §6: packet-level ECMP spreads fabric load but cannot fix a last-hop
/// incast — the paper's argument for why ECMP is not a substitute for
/// DIBS.
#[test]
fn packet_level_ecmp_does_not_fix_incast() {
    let mut spray = SimConfig::dctcp_baseline();
    spray.ecmp = dibs::EcmpMode::PacketLevel;
    // Spraying reorders packets, so disable fast retransmit like DIBS does.
    spray.tcp.fast_retransmit = dibs_transport::FastRetransmit::Disabled;
    let spray_r = testbed_incast_sim(spray, 5, 10, 32_000).run();
    assert!(
        spray_r.counters.drops_buffer > 0,
        "the receiver's last hop still overflows under packet spraying"
    );
    let dibs_r = testbed_incast_sim(SimConfig::dctcp_dibs(), 5, 10, 32_000).run();
    assert_eq!(dibs_r.counters.drops_buffer, 0);
}

/// DCTCP delayed acks (ack_every = 2): the incast still completes
/// losslessly under DIBS, with roughly half the acks on the wire.
#[test]
fn delayed_acks_end_to_end() {
    let mut cfg = SimConfig::dctcp_dibs();
    cfg.tcp.ack_every = 2;
    let delayed = testbed_incast_sim(cfg, 5, 10, 32_000).run();
    assert_eq!(delayed.counters.drops_buffer, 0);
    assert_eq!(delayed.query_completion_rate(), 1.0);

    let perpkt = testbed_incast_sim(SimConfig::dctcp_dibs(), 5, 10, 32_000).run();
    // Fewer packets on the wire overall (acks roughly halved).
    assert!(
        delayed.counters.packets_sent < perpkt.counters.packets_sent,
        "delayed acks should reduce wire packets: {} vs {}",
        delayed.counters.packets_sent,
        perpkt.counters.packets_sent
    );
}

/// PFC with absurdly tight thresholds still makes progress: pauses release
/// as queues drain, and all flows complete.
#[test]
fn pfc_tight_thresholds_still_progress() {
    let mut cfg = SimConfig::dctcp_baseline();
    cfg.pfc = Some(dibs::PfcConfig {
        xoff: 3,
        xon: 1,
        control_delay: dibs_engine::time::SimDuration::from_micros(1),
    });
    let r = testbed_incast_sim(cfg, 5, 10, 32_000).run();
    assert!(r.pfc_pause_events > 100, "tiny thresholds pause constantly");
    assert_eq!(r.query_completion_rate(), 1.0, "no deadlock/livelock");
    assert!(r.flows.iter().all(|f| f.fct.is_some()));
}

/// Packet-level ECMP sprays one flow's packets across paths, which shows
/// up as out-of-order arrivals; flow-level ECMP keeps the flow in order.
#[test]
fn packet_spraying_reorders_flow_level_does_not() {
    let run = |mode: dibs::EcmpMode| {
        let topo = fat_tree(k4());
        let mut cfg = SimConfig::dctcp_baseline();
        cfg.ecmp = mode;
        cfg.tcp.fast_retransmit = dibs_transport::FastRetransmit::Disabled;
        cfg.horizon = SimTime::from_secs(2);
        let mut sim = Simulation::new(topo, cfg);
        // One cross-pod flow: 4 aggr x 4 core up-paths available in K=4... (2x2).
        sim.add_flows([FlowSpec {
            start: SimTime::ZERO,
            src: HostId(0),
            dst: HostId(15),
            size: 2_000_000,
            class: FlowClass::Background,
        }]);
        let r = sim.run();
        assert!(r.flows[0].fct.is_some());
        r
    };
    let flow_level = run(dibs::EcmpMode::FlowLevel);
    let sprayed = run(dibs::EcmpMode::PacketLevel);
    // With a single flow and no congestion, flow-level delivery is in order;
    // spraying across unequal queue depths cannot be guaranteed in order but
    // must still deliver every byte.
    assert_eq!(flow_level.flows[0].bytes_delivered, 2_000_000);
    assert_eq!(sprayed.flows[0].bytes_delivered, 2_000_000);
}
