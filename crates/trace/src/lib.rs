#![warn(missing_docs)]

//! Deterministic per-packet event tracing and flight recording.
//!
//! Every figure in the DIBS paper is ultimately a statement about what
//! individual packets did: where they were detoured (Fig. 2), where they
//! were dropped or marked (Figs. 7–14), how long a queue stayed hot. This
//! crate records those facts as a stream of compact [`TraceEvent`]s so
//! post-hoc questions ("where did this packet loop?", "which port was hot
//! at t = 4 ms?") become queries instead of new instrumentation.
//!
//! # Design rules
//!
//! * **Zero overhead when disabled.** Instrumented code writes through
//!   one method, [`Tracer::emit`], which tests the kind against the
//!   tracer's mask before it builds an event; tracing off is the empty
//!   mask, so the default build pays one predictable branch per
//!   potential event and never constructs one.
//! * **Provably non-perturbing.** The tracer never draws from simulation
//!   RNGs, never schedules events, and trace output is structurally
//!   excluded from `RunDigest`. `tests/trace_nonperturbation.rs` pins
//!   this: golden digests are byte-identical with tracing fully on and
//!   fully off.
//! * **Bounded on request.** A flight recorder (`flight[:N]`) keeps only
//!   the last N events in a fixed ring, so "always on" recording is
//!   cheap; full-fidelity capture (`all`) is the same [`Tracer`] with an
//!   unbounded capacity.
//!
//! # Spec grammar
//!
//! The `--trace <spec>` / `DIBS_TRACE` argument is parsed by
//! [`TraceSpec::parse`]:
//!
//! ```text
//! off | none                     tracing disabled
//! all                            full capture, every event kind
//! detour,drop,ecn-mark           full capture, listed kinds only
//! flight                        flight recorder, default capacity (4096)
//! flight:65536                  flight recorder, explicit capacity
//! flight:1024:enqueue,dequeue   flight recorder, capacity + kind filter
//! ```

pub mod event;
pub mod export;
pub mod query;
pub mod recorder;

pub use event::{KindMask, TraceEvent, TraceKind};
pub use export::{is_chrome_trace, is_queue_transition};
pub use query::{
    delivered_path, detour_loop_packets, flow_packets, packet_hops, packet_lifecycle,
    per_flow_hops, Hop, OccupancyTracker, PathNode,
};
pub use recorder::{Subject, TraceMode, TraceReport, TraceSpec, Tracer};
