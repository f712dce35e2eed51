//! Network-wide event counters.

use dibs_json::{Json, ToJson};

/// Aggregate counters across a whole simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetCounters {
    /// Data + ack packets injected by hosts.
    pub packets_sent: u64,
    /// Packets delivered to their destination host.
    pub packets_delivered: u64,
    /// Drops due to full buffers.
    pub drops_buffer: u64,
    /// Drops due to TTL expiry (Fig 13).
    pub drops_ttl: u64,
    /// pFabric priority displacements.
    pub drops_displaced: u64,
    /// Packets dropped at a host's own (bounded) NIC queue.
    pub drops_host_nic: u64,
    /// Packets destroyed by injected faults: probabilistic drop/corrupt
    /// profiles, crashed-switch blackholing, and frames cut by a link
    /// going down mid-flight.
    pub drops_fault: u64,
    /// Packets detoured at least one time... incremented per detour event.
    pub detours: u64,
    /// Packets that experienced at least one detour, counted at delivery.
    pub delivered_detoured: u64,
    /// ECN CE marks applied.
    pub ecn_marks: u64,
    /// Sender retransmission timeouts.
    pub rto_timeouts: u64,
    /// Sender fast retransmits.
    pub fast_retransmits: u64,
    /// Timeouts later proven spurious via timestamp echo (Eifel undo).
    pub spurious_timeouts: u64,
    /// Switch hops traversed by all delivered packets (path-length stats).
    pub delivered_hops: u64,
    /// Delivered *data* packets belonging to query (incast) flows.
    pub query_pkts_delivered: u64,
    /// Delivered query data packets that took at least one detour.
    pub query_pkts_detoured: u64,
    /// Delivered *data* packets belonging to background flows.
    pub bg_pkts_delivered: u64,
    /// Delivered background data packets that took at least one detour.
    pub bg_pkts_detoured: u64,
}

impl NetCounters {
    /// Total drops of any kind.
    pub fn total_drops(&self) -> u64 {
        self.drops_buffer
            + self.drops_ttl
            + self.drops_displaced
            + self.drops_host_nic
            + self.drops_fault
    }

    /// Fraction of delivered *background* data packets that were detoured
    /// (the paper reports ~1% even under load).
    pub fn bg_detoured_fraction(&self) -> f64 {
        if self.bg_pkts_delivered == 0 {
            0.0
        } else {
            self.bg_pkts_detoured as f64 / self.bg_pkts_delivered as f64
        }
    }

    /// Of all detoured data packets, the fraction belonging to query
    /// traffic (the paper reports > 90%).
    pub fn detoured_query_share(&self) -> f64 {
        let total = self.query_pkts_detoured + self.bg_pkts_detoured;
        if total == 0 {
            0.0
        } else {
            self.query_pkts_detoured as f64 / total as f64
        }
    }

    /// Fraction of delivered packets that took at least one detour.
    pub fn detoured_fraction(&self) -> f64 {
        if self.packets_delivered == 0 {
            0.0
        } else {
            self.delivered_detoured as f64 / self.packets_delivered as f64
        }
    }
}

impl ToJson for NetCounters {
    fn to_json(&self) -> Json {
        macro_rules! obj {
            ($($f:ident),*) => {
                Json::Obj(vec![$((stringify!($f).to_string(), self.$f.to_json())),*])
            };
        }
        obj!(
            packets_sent,
            packets_delivered,
            drops_buffer,
            drops_ttl,
            drops_displaced,
            drops_host_nic,
            drops_fault,
            detours,
            delivered_detoured,
            ecn_marks,
            rto_timeouts,
            fast_retransmits,
            spurious_timeouts,
            delivered_hops,
            query_pkts_delivered,
            query_pkts_detoured,
            bg_pkts_delivered,
            bg_pkts_detoured
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_fractions() {
        let c = NetCounters {
            packets_delivered: 100,
            delivered_detoured: 25,
            drops_buffer: 3,
            drops_ttl: 2,
            drops_displaced: 1,
            drops_fault: 4,
            ..Default::default()
        };
        assert_eq!(c.total_drops(), 10);
        assert!((c.detoured_fraction() - 0.25).abs() < 1e-12);
        assert_eq!(NetCounters::default().detoured_fraction(), 0.0);
    }

    #[test]
    fn fractions_on_empty_counters_are_zero_not_nan() {
        let c = NetCounters::default();
        assert_eq!(c.bg_detoured_fraction(), 0.0);
        assert_eq!(c.detoured_query_share(), 0.0);
        assert_eq!(c.detoured_fraction(), 0.0);
    }
}
