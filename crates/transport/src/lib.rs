#![warn(missing_docs)]

//! Transport protocols for the DIBS reproduction.
//!
//! The paper couples DIBS with DCTCP (§3: DIBS needs an ECN-based
//! congestion controller, because it hides losses) and compares against
//! pFabric (§5.8). This crate provides a byte-accurate sliding-window TCP
//! sender/receiver pair with two congestion-control personalities:
//!
//! * [`config::CcAlgorithm::Dctcp`] — ECN-fraction-proportional decrease.
//! * [`config::CcAlgorithm::Pfabric`] — pFabric's fixed-window host stack
//!   with a small fixed RTO, remaining-size priority stamping and
//!   one-segment probes on timeout.
//!
//! Every ack echoes the send time of the newest data packet it covers
//! (TCP timestamps); those echoes are the sender's only RTT samples.
//!
//! Senders and receivers are pure state machines: they return packets and
//! expose timer demands; the simulator core does all scheduling.

pub mod config;
pub mod receiver;
pub mod sender;

pub use config::{CcAlgorithm, FastRetransmit, TcpConfig};
pub use receiver::{ReceiverCounters, TcpReceiver};
pub use sender::{SenderCounters, TcpSender};

use dibs_net::ids::PacketId;

/// Monotone packet-id allocator (one per simulation).
#[derive(Debug, Default)]
pub struct IdGen {
    next: u64,
}

impl IdGen {
    /// Creates a generator starting at id 0.
    pub fn new() -> Self {
        IdGen::default()
    }

    /// Allocates the next packet id.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> PacketId {
        let id = PacketId(self.next);
        self.next += 1;
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idgen_is_monotone() {
        let mut g = IdGen::new();
        assert_eq!(g.next(), PacketId(0));
        assert_eq!(g.next(), PacketId(1));
    }
}
