//! Every way a packet can die releases its packet-store handle.
//!
//! A packet enters the simulation's `PacketStore` when a host sends it and
//! must leave exactly once, on delivery or on a drop. `packets_in_flight`
//! is the store's live count, so a drop path that forgets its handle would
//! still balance `sent == delivered + drops + in_flight`. The debug-build
//! end-of-run census catches it instead: `finalize` counts every packet
//! parked in a NIC queue, a switch buffer, or an event the horizon cut
//! off, and panics unless that census equals the
//! live count. These runs drive each drop path, so a leak anywhere fails
//! them (under `cargo test`, which builds with debug assertions).

use dibs::presets::{single_incast_sim, testbed_incast_sim};
use dibs::{FaultSpec, RunResults, SimConfig};
use dibs_net::builders::FatTreeParams;
use dibs_switch::BufferConfig;

fn k4() -> FatTreeParams {
    FatTreeParams {
        k: 4,
        ..FatTreeParams::paper_default()
    }
}

fn assert_conserved(results: &RunResults) {
    let c = &results.counters;
    assert_eq!(
        c.packets_sent,
        c.packets_delivered + c.total_drops() + results.packets_in_flight,
        "conservation: {c:?}, in flight {}",
        results.packets_in_flight
    );
}

fn with_faults(mut sim: dibs::Simulation, spec: &str) -> dibs::Simulation {
    let spec: FaultSpec = spec.parse().expect("valid fault spec");
    sim.set_faults(&spec).expect("spec resolves");
    sim
}

/// Link-down frame cuts and parked transmitters, switch crashes that drain
/// buffers, blackhole arrivals, and leave hosts unroutable, routing-stage
/// drops, dequeue-stage corruption, and TTL expiry (a short TTL against
/// detour-heavy congestion), all on one fat-tree.
#[test]
fn faulted_fat_tree_releases_every_dropped_handle() {
    let mut cfg = SimConfig::dctcp_dibs().with_seed(7);
    cfg.switch.buffer = BufferConfig::StaticPerPort { packets: 8 };
    cfg.tcp.initial_ttl = 6;
    let sim = with_faults(
        single_incast_sim(k4(), cfg, 12, 40_000),
        "link-down:t=100us:edge[0][0]-aggr[0][0]:dur=1ms;\
         switch-crash:t=300us:aggr[1][0];switch-crash:t=500us:edge[2][1];\
         drop:p=5e-3;corrupt:p=5e-3",
    );
    let results = sim.run();
    assert!(results.counters.drops_fault > 0, "faults dropped nothing");
    assert!(results.counters.drops_ttl > 0, "no packet outlived its TTL");
    assert_conserved(&results);
}

/// pFabric displaces resident low-priority packets to admit better ones;
/// the evicted handle is released by the simulator, not the switch.
#[test]
fn pfabric_displacement_releases_the_evicted_handle() {
    let results = testbed_incast_sim(SimConfig::pfabric(), 5, 10, 32_000).run();
    assert!(
        results.counters.drops_displaced > 0,
        "incast never displaced a packet"
    );
    assert_conserved(&results);
}
