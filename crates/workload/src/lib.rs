#![warn(missing_docs)]

//! Workload generation for the DIBS reproduction.
//!
//! * [`dist`] — sampling distributions, including the DCTCP-paper
//!   background flow-size CDF that drives all simulations.
//! * [`spec`] — flow and query descriptors.
//! * [`generators`] — background traffic, partition-aggregate (incast)
//!   query traffic, the responder sets around an incast target, and the
//!   §5.6 long-lived fairness flows.
//! * [`matrices`] — demand-matrix families and fluid-model link
//!   utilization for the Figure 3/4 hotspot-sparsity statistics.

pub mod dist;
pub mod generators;
pub mod matrices;
pub mod spec;

pub use dist::EmpiricalCdf;
pub use generators::{
    distinct_responders, long_lived_pairs, round_robin_responders, BackgroundTraffic, QueryTraffic,
};
pub use spec::{FlowClass, FlowSpec, QuerySpec};
