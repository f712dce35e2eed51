#![warn(missing_docs)]

//! Network substrate for the DIBS reproduction: packets, topology graphs,
//! topology generators, and shortest-path/ECMP routing.
//!
//! This crate is purely structural — it knows nothing about queues, buffers,
//! transport protocols, or time-driven behavior. Those live in
//! `dibs-switch`, `dibs-transport`, and the `dibs` core crate.

pub mod builders;
pub mod ids;
pub mod packet;
pub mod routing;
pub mod topology;

pub use ids::{FlowId, HostId, LinkId, NodeId, PacketId, PortRef, SwitchId};
pub use packet::{Packet, PacketKind, PacketStore, PktRef};
pub use routing::Fib;
pub use topology::{LinkSpec, Topology, TopologyBuilder};
