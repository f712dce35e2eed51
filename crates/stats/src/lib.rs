#![warn(missing_docs)]

//! Metrics and result records for the DIBS reproduction.
//!
//! * [`summary`] — sample collections, exact percentiles, Jain's index.
//! * [`counters`] — network-wide event counters.
//! * [`record`] — serializable experiment records and table rendering.
//! * [`svg`] — dependency-free SVG line charts of those records.

pub mod counters;
pub mod record;
pub mod summary;
pub mod svg;

pub use counters::NetCounters;
pub use record::{ExperimentRecord, SeriesPoint};
pub use summary::{jain_index, Samples, Summary};
pub use svg::{LineChart, Series};
