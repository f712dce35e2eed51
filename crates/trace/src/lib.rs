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
//! * **Zero overhead when disabled.** Instrumented code guards every
//!   emission with [`TraceSink::wants`]; the disabled sink answers with a
//!   constant `false`, so the default build pays one predictable branch
//!   per potential event and never constructs one.
//! * **Provably non-perturbing.** Sinks never draw from simulation RNGs,
//!   never schedule events, and trace output is structurally excluded
//!   from `RunDigest`. `tests/trace_nonperturbation.rs` pins this: golden
//!   digests are byte-identical with tracing fully on and fully off.
//! * **Bounded by default.** The [`FlightRecorder`] keeps only the last
//!   N events in a fixed ring, so "always on" flight recording is cheap;
//!   full-fidelity capture ([`TraceBuffer`]) is opt-in via `--trace all`.
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
pub mod sink;

pub use event::{KindMask, TraceEvent, TraceKind};
pub use export::{is_chrome_trace, is_queue_transition};
pub use query::{
    delivered_path, detour_loop_packets, flow_packets, packet_hops, packet_lifecycle,
    per_flow_hops, Hop, OccupancyTracker, PathNode,
};
pub use recorder::{FlightRecorder, TraceBuffer, TraceMode, TraceReport, TraceSpec, Tracer};
pub use sink::{NullSink, TraceSink};
