//! Golden-digest regression tests for the figure pipeline.
//!
//! One small-scale point per figure family, with the expected digest
//! fingerprint pinned in the test. A silent behavior change anywhere in
//! the switch/transport/engine stack — an extra event, a different detour
//! choice, a shifted timestamp — moves the fingerprint and fails loudly.
//!
//! If a change is *intentional* (you changed simulation semantics on
//! purpose), rerun with `--nocapture`, copy the printed fingerprint into
//! the constant, and say so in the commit message. These pins are the
//! reason a refactor can claim "no behavior change" with a straight face.

use dibs::presets::{single_incast_sim, testbed_incast_sim};
use dibs::{FaultSpec, PfcConfig, RunDescriptor, RunDigest, SimConfig, TraceSpec, Tracer};
use dibs_engine::rng::hash_bytes;
use dibs_engine::time::SimDuration;
use dibs_net::builders::FatTreeParams;
use dibs_switch::BufferConfig;

fn with_faults(mut sim: dibs::Simulation, spec: &str) -> dibs::Simulation {
    sim.set_faults(&spec.parse::<FaultSpec>().expect("valid fault spec"))
        .expect("fault spec resolves");
    sim
}

/// Master seed shared by all golden runs; mirrors the bench default.
const MASTER_SEED: u64 = 0xD1B5_2014;

fn k4() -> FatTreeParams {
    FatTreeParams {
        k: 4,
        ..FatTreeParams::paper_default()
    }
}

fn check(family: &str, digest: &RunDigest, expected: u64) {
    let got = digest.fingerprint();
    assert_eq!(
        got,
        expected,
        "{family}: digest fingerprint changed — got {got:#018x}, pinned {expected:#018x}.\n\
         If this behavior change is intentional, update the pin.\n\
         Digest:\n{}",
        digest.as_str()
    );
}

/// Fig 6 family: the §5.2 testbed incast under DIBS.
#[test]
fn golden_testbed_incast() {
    let d = RunDescriptor::new("golden_testbed_incast", "dibs", 5, 0);
    let cfg = SimConfig::dctcp_dibs().with_seed(d.seed(MASTER_SEED));
    let results = testbed_incast_sim(cfg, 5, 4, 32_000).run();
    assert_eq!(results.counters.total_drops(), 0, "DIBS incast is lossless");
    check(
        "testbed_incast",
        &RunDigest::of(&results),
        GOLDEN_TESTBED_INCAST,
    );
}

/// Fig 6 family with DCTCP delayed acks (one ack per two in-order
/// packets): the receiver's coalescing state machine picks which send time
/// each ack echoes, and the sender's RTT samples come only from echoes.
#[test]
fn golden_delayed_ack_testbed_incast() {
    let d = RunDescriptor::new("golden_testbed_incast", "dibs", 5, 0);
    let mut cfg = SimConfig::dctcp_dibs().with_seed(d.seed(MASTER_SEED));
    cfg.tcp.ack_every = 2;
    let results = testbed_incast_sim(cfg, 5, 4, 32_000).run();
    check(
        "delayed_ack_testbed_incast",
        &RunDigest::of(&results),
        GOLDEN_DELAYED_ACK,
    );
}

/// Fig 7/12 family: one small-buffer sweep point (25-packet buffers).
#[test]
fn golden_buffer_sweep_point() {
    let d = RunDescriptor::new("golden_buffer_sweep", "dibs", 25, 0);
    let mut cfg = SimConfig::dctcp_dibs().with_seed(d.seed(MASTER_SEED));
    cfg.switch.buffer = BufferConfig::StaticPerPort { packets: 25 };
    cfg.switch.ecn_threshold = Some(20);
    let results = single_incast_sim(k4(), cfg, 8, 20_000).run();
    check(
        "buffer_sweep",
        &RunDigest::of(&results),
        GOLDEN_BUFFER_SWEEP,
    );
}

/// Fig 13 family: one TTL sweep point (TTL 12 — ~3 backward detours).
#[test]
fn golden_ttl_sweep_point() {
    let d = RunDescriptor::new("golden_ttl_sweep", "dibs", 12, 0);
    let mut cfg = SimConfig::dctcp_dibs().with_seed(d.seed(MASTER_SEED));
    cfg.tcp.initial_ttl = 12;
    let results = single_incast_sim(k4(), cfg, 8, 20_000).run();
    check("ttl_sweep", &RunDigest::of(&results), GOLDEN_TTL_SWEEP);
}

/// Fault family: the testbed incast riding out a mid-burst uplink flap.
#[test]
fn golden_incast_link_flap() {
    let d = RunDescriptor::new("golden_incast_link_flap", "dibs", 5, 0);
    let cfg = SimConfig::dctcp_dibs().with_seed(d.seed(MASTER_SEED));
    let sim = with_faults(
        testbed_incast_sim(cfg, 5, 4, 32_000),
        "link-down:t=1ms:edge2-aggr0:dur=2ms",
    );
    check(
        "incast_link_flap",
        &RunDigest::of(&sim.run()),
        GOLDEN_INCAST_LINK_FLAP,
    );
}

/// Fault family: small buffers under pressure, then an aggregation switch
/// crashes mid-run (buffered packets freed, routes recomputed).
#[test]
fn golden_buffer_pressure_switch_crash() {
    let d = RunDescriptor::new("golden_buffer_crash", "dibs", 25, 0);
    let mut cfg = SimConfig::dctcp_dibs().with_seed(d.seed(MASTER_SEED));
    cfg.switch.buffer = BufferConfig::StaticPerPort { packets: 25 };
    cfg.switch.ecn_threshold = Some(20);
    let sim = with_faults(
        single_incast_sim(k4(), cfg, 8, 20_000),
        "switch-crash:t=2ms:aggr[0][0]",
    );
    let results = sim.run();
    check(
        "buffer_pressure_switch_crash",
        &RunDigest::of(&results),
        GOLDEN_BUFFER_CRASH,
    );
}

/// Fault family: the probabilistic soak profile — random flaps plus a
/// light detour-targeted drop rate.
#[test]
fn golden_random_drop_soak() {
    let d = RunDescriptor::new("golden_random_drop_soak", "dibs", 8, 0);
    let cfg = SimConfig::dctcp_dibs().with_seed(d.seed(MASTER_SEED));
    let sim = with_faults(
        single_incast_sim(k4(), cfg, 8, 20_000),
        "drop:p=1e-3;random:4",
    );
    check(
        "random_drop_soak",
        &RunDigest::of(&sim.run()),
        GOLDEN_RANDOM_SOAK,
    );
}

/// §6 flow-control family: the testbed incast without DIBS but with
/// PFC, so switches PAUSE both the sending hosts and neighbouring
/// switches (pause, park, and resume on both node kinds).
#[test]
fn golden_pfc_testbed_incast() {
    let d = RunDescriptor::new("golden_pfc_testbed_incast", "pfc", 5, 0);
    let mut cfg = SimConfig::dctcp_baseline().with_seed(d.seed(MASTER_SEED));
    cfg.pfc = Some(PfcConfig {
        xoff: 12,
        xon: 6,
        control_delay: SimDuration::from_micros(1),
    });
    let results = testbed_incast_sim(cfg, 5, 10, 32_000).run();
    assert!(results.pfc_pause_events > 0, "PFC never paused a link");
    check("pfc_testbed_incast", &RunDigest::of(&results), GOLDEN_PFC);
}

/// Fig 4/5 family: 1 ms sampling of hot links and neighbor free buffer
/// through a 13 ms incast. `RunDigest` leaves samples out, so the pin
/// hashes their bit patterns.
#[test]
fn golden_sampled_incast() {
    let d = RunDescriptor::new("golden_sampled_incast", "dibs", 5, 0);
    let mut cfg = SimConfig::dctcp_dibs().with_seed(d.seed(MASTER_SEED));
    cfg.sample_interval = Some(SimDuration::from_millis(1));
    let results = testbed_incast_sim(cfg, 5, 10, 32_000).run();
    let series = [
        &results.hot_fraction_samples,
        &results.neighbor_free_1hop,
        &results.neighbor_free_2hop,
    ];
    assert!(
        series.iter().all(|s| !s.is_empty()),
        "a sample series is empty"
    );
    let bytes: Vec<u8> = series
        .iter()
        .flat_map(|s| {
            (s.len() as u64)
                .to_le_bytes()
                .into_iter()
                .chain(s.iter().flat_map(|x| x.to_bits().to_le_bytes()))
        })
        .collect();
    let got = hash_bytes(&bytes);
    assert_eq!(
        got, GOLDEN_SAMPLES,
        "sampled_incast: sample hash changed — got {got:#018x}, pinned {GOLDEN_SAMPLES:#018x}"
    );
}

/// The trace itself: `RunDigest` leaves it out, so this pins
/// `TraceReport::fingerprint` (a hash of the text dump) of the golden
/// buffer-sweep point under full capture and under a 256-event flight
/// ring, plus the ring's observed and overwritten counts.
#[test]
fn golden_trace_dump() {
    let traced = |spec: &str| {
        let d = RunDescriptor::new("golden_buffer_sweep", "dibs", 25, 0);
        let mut cfg = SimConfig::dctcp_dibs().with_seed(d.seed(MASTER_SEED));
        cfg.switch.buffer = BufferConfig::StaticPerPort { packets: 25 };
        cfg.switch.ecn_threshold = Some(20);
        let mut sim = single_incast_sim(k4(), cfg, 8, 20_000);
        sim.set_tracer(Tracer::from_spec(
            &spec.parse::<TraceSpec>().expect("valid trace spec"),
        ));
        sim.run().trace.expect("tracer was installed")
    };
    let full = traced("all");
    let flight = traced("flight:256:enqueue,detour,drop");
    let got = (
        full.fingerprint(),
        flight.fingerprint(),
        flight.observed,
        flight.dropped,
    );
    assert_eq!(
        got,
        (
            GOLDEN_TRACE_FULL,
            GOLDEN_TRACE_FLIGHT,
            GOLDEN_TRACE_FLIGHT_OBSERVED,
            GOLDEN_TRACE_FLIGHT_DROPPED
        ),
        "trace_dump: trace content changed (full fingerprint, flight fingerprint, observed, dropped)"
    );
}

// The pinned fingerprints. These change ONLY when simulation semantics
// change; the parallel executor, jobs count, and merge order must never
// move them.
//
// Re-pinned when the digest text gained the `drops_fault` counter and the
// `in_flight` line: the runs themselves are unchanged (all three still
// show zero fault drops and zero in-flight packets), only the digest's
// rendered text moved.
const GOLDEN_TESTBED_INCAST: u64 = 0xdf96_3f56_11fe_1ffb;
const GOLDEN_BUFFER_SWEEP: u64 = 0x00ca_e3df_8442_959d;
const GOLDEN_TTL_SWEEP: u64 = 0x177c_befd_1697_2573;
const GOLDEN_DELAYED_ACK: u64 = 0x191f_3516_afbd_b8f8;

// Fault-scenario pins: a deliberate fault-injection change moves these
// three without touching the fault-free pins above.
const GOLDEN_INCAST_LINK_FLAP: u64 = 0xa3d8_aa6e_ad6b_91a1;
const GOLDEN_BUFFER_CRASH: u64 = 0x6a59_908d_0bba_c125;
const GOLDEN_RANDOM_SOAK: u64 = 0x6ba2_5988_d5f8_fa69;

// Port-model pins: PFC pause/resume and the sampling tick that reads the
// per-port byte counters.
const GOLDEN_PFC: u64 = 0x4e1c_2b0c_ad12_ae9a;
const GOLDEN_SAMPLES: u64 = 0x2fd4_182c_c0a1_7682;

// Trace-content pins (`golden_trace_dump`): full capture and a 256-event
// flight ring of the buffer-sweep point.
const GOLDEN_TRACE_FULL: u64 = 0x5984_e72e_a1b8_a061;
const GOLDEN_TRACE_FLIGHT: u64 = 0xa30c_12ec_36a7_4c56;
const GOLDEN_TRACE_FLIGHT_OBSERVED: u64 = 984;
const GOLDEN_TRACE_FLIGHT_DROPPED: u64 = 728;
