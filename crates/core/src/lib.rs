#![warn(missing_docs)]

//! # DIBS: detour-induced buffer sharing — simulator core
//!
//! A from-scratch reproduction of *DIBS: Just-in-time Congestion
//! Mitigation for Data Centers* (EuroSys 2014). When a switch's output
//! buffer toward a packet's destination is full, instead of dropping the
//! packet the switch *detours* it out a random other switch-facing port,
//! temporarily borrowing buffer space from its neighbors. Paired with an
//! ECN-based congestion controller (DCTCP), this absorbs short incast
//! bursts nearly losslessly.
//!
//! This crate wires the substrates together into a runnable simulator:
//!
//! * [`Simulation`] — the event loop: topology, switches, one port table
//!   and transmit path shared by hosts and switches, transports,
//!   workloads, metrics.
//! * [`SimConfig`] — Table 1/2 of the paper as data, with presets for
//!   DCTCP-baseline, DCTCP+DIBS, and pFabric.
//! * [`presets`] — the §5.2/§5.3 experiment setups the benchmark and the
//!   tests build on.
//!
//! ## Quick start
//!
//! ```
//! use dibs::presets::{testbed_incast_sim};
//! use dibs::SimConfig;
//!
//! // The §5.2 incast: 5 senders x 10 flows x 32 KB into one receiver.
//! let mut results = testbed_incast_sim(SimConfig::dctcp_dibs(), 5, 10, 32_000).run();
//! assert_eq!(results.counters.total_drops(), 0, "DIBS is near-lossless");
//! let qct = results.qct_ms.percentile(1.0).unwrap();
//! assert!(qct < 60.0);
//! ```

pub mod audit;
pub mod config;
pub mod presets;
pub mod results;
pub mod rundesc;
pub mod sim;

pub use config::{EcmpMode, PfcConfig, SimConfig};
pub use results::{FlowOutcome, QueryOutcome, RunDigest, RunResults};
pub use rundesc::RunDescriptor;
pub use sim::Simulation;

// Re-exported so downstream binaries can configure tracing without
// depending on `dibs-trace` directly.
pub use dibs_trace::{TraceReport, TraceSpec, Tracer};

// Re-exported so downstream binaries can install fault schedules without
// depending on `dibs-fault` directly.
pub use dibs_fault::{FaultError, FaultPlan, FaultSpec};
