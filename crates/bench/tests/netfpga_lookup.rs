//! §5.1: the NetFPGA output-port-lookup stage makes the DIBS
//! forward-or-detour decision without adding delay at line rate.
//!
//! The software model of that stage is `dibs_switch::lookup::decide`. The
//! paper's claim holds for the model when one decision, forward or detour,
//! costs less than the time one minimum-size frame occupies the wire, so
//! a back-to-back stream of 64-byte frames never waits on the lookup.

use dibs_switch::lookup::{decide, LookupDecision, PortBitmap};
use std::hint::black_box;
use std::time::Instant;

/// Wire time of one 64-byte frame at 1 Gbps: 512 bits at 1 ns per bit.
const LINE_RATE_BUDGET_NS: f64 = 512.0;
/// Decisions per timed batch.
const BATCH: u32 = 100_000;
/// Timed batches per case; the fastest one is reported, which filters out
/// time the test thread spent descheduled.
const BATCHES: usize = 5;

const DESIRED: usize = 3;

fn desired() -> PortBitmap {
    PortBitmap::single(DESIRED)
}

fn eligible() -> PortBitmap {
    PortBitmap::from_ports(4..8)
}

/// Every port has room: plain forwarding.
fn all_free() -> PortBitmap {
    PortBitmap::from_ports(0..8)
}

/// The desired port is full: the DIBS detour path.
fn desired_full() -> PortBitmap {
    PortBitmap::from_ports([0, 1, 2, 4, 5, 6, 7])
}

/// Best-of-[`BATCHES`] nanoseconds per decision with `available` ports.
fn ns_per_decision(available: PortBitmap) -> f64 {
    let mut best = f64::INFINITY;
    let mut entropy = 0u64;
    for _ in 0..BATCHES {
        let start = Instant::now();
        for _ in 0..BATCH {
            entropy = entropy.wrapping_add(0x9E37_79B9);
            black_box(decide(
                black_box(desired()),
                black_box(available),
                black_box(eligible()),
                entropy,
            ));
        }
        best = best.min(start.elapsed().as_secs_f64() * 1e9 / f64::from(BATCH));
    }
    best
}

#[test]
fn forwards_when_the_desired_port_has_room() {
    for entropy in 0..64 {
        assert_eq!(
            decide(desired(), all_free(), eligible(), entropy),
            LookupDecision::Forward(DESIRED)
        );
    }
}

#[test]
fn detours_to_an_eligible_port_when_the_desired_port_is_full() {
    for entropy in 0..64 {
        match decide(desired(), desired_full(), eligible(), entropy) {
            LookupDecision::Detour(p) => assert!((4..8).contains(&p), "detoured to port {p}"),
            other => panic!("entropy {entropy}: expected a detour, got {other:?}"),
        }
    }
}

#[test]
fn both_decisions_fit_one_minimum_frame_time() {
    for (case, available) in [("forward", all_free()), ("detour", desired_full())] {
        let ns = ns_per_decision(available);
        assert!(
            ns < LINE_RATE_BUDGET_NS,
            "{case}: {ns:.1} ns per decision exceeds the {LINE_RATE_BUDGET_NS} ns \
             a 64-byte frame takes at 1 Gbps"
        );
    }
}
