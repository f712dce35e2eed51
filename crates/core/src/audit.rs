//! Runtime invariant auditor for the packet data path.
//!
//! The simulator's results are only as trustworthy as its bookkeeping:
//! every packet that a host injects must end up in exactly one of the
//! terminal or transient states the counters describe. Every packet
//! between its send and its delivery or drop lives in the simulation's
//! `PacketStore`, whose live count is O(1), so the conservation law
//!
//! ```text
//! sent == delivered + dropped + in_flight      (in_flight = store.live())
//! ```
//!
//! is checked at the end of every run in every build. Debug builds (which
//! include every `cargo test` run) also check it every [`CHECK_INTERVAL`]
//! dispatches, so a violation is caught within a bounded window of the
//! event that caused it.

/// How many event dispatches pass between conservation checks.
pub const CHECK_INTERVAL: u64 = 4096;

/// Schedules the periodic debug-build conservation check.
#[derive(Debug, Default, Clone)]
pub struct AuditLedger {
    /// Dispatches since the last conservation check.
    since_check: u64,
}

/// A snapshot of every bucket the conservation law mentions.
///
/// Built by the simulation immediately before a check; all fields are
/// packet counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LedgerSnapshot {
    /// Packets injected by hosts (`packets_sent`).
    pub sent: u64,
    /// Packets handed to a destination host (`packets_delivered`).
    pub delivered: u64,
    /// All drops: TTL, buffer, displacement, host NIC, faults.
    pub dropped: u64,
    /// Packets still in the packet store: queued at a NIC or in a switch
    /// buffer, or riding inside a scheduled event.
    pub in_flight: u64,
}

impl AuditLedger {
    /// A fresh ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Called once per dispatched event; returns `true` when the (debug
    /// build) conservation check is due. Always `false` in release
    /// builds so callers skip the snapshot work entirely.
    #[inline]
    pub fn tick(&mut self) -> bool {
        if !cfg!(debug_assertions) {
            return false;
        }
        self.since_check += 1;
        if self.since_check >= CHECK_INTERVAL {
            self.since_check = 0;
            true
        } else {
            false
        }
    }

    /// Asserts the conservation law over `snap`, in every build.
    ///
    /// # Panics
    ///
    /// Panics when packets have leaked or been double counted.
    pub fn check(snap: &LedgerSnapshot) {
        let accounted = snap.delivered + snap.dropped + snap.in_flight;
        assert!(
            snap.sent == accounted,
            "packet conservation violated: sent={} but accounted={} ({snap:?})",
            snap.sent,
            accounted,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_snapshot_passes() {
        AuditLedger::check(&LedgerSnapshot {
            sent: 10,
            delivered: 4,
            dropped: 2,
            in_flight: 4,
        });
    }

    #[test]
    #[should_panic(expected = "packet conservation violated")]
    fn leaked_packet_panics() {
        AuditLedger::check(&LedgerSnapshot {
            sent: 10,
            delivered: 4,
            dropped: 2,
            in_flight: 3,
        });
    }

    #[test]
    fn tick_fires_on_interval() {
        let mut l = AuditLedger::new();
        let mut fired = 0;
        for _ in 0..(2 * CHECK_INTERVAL) {
            if l.tick() {
                fired += 1;
            }
        }
        let expected = if cfg!(debug_assertions) { 2 } else { 0 };
        assert_eq!(fired, expected);
    }
}
