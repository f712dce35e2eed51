//! Transport configuration.

use dibs_engine::time::SimDuration;

/// Fast-retransmit behavior (§4: DIBS reorders packets, so the paper
/// disables fast retransmit, or raises the dupack threshold above ~10).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FastRetransmit {
    /// Never fast-retransmit; rely on the RTO (the paper's DIBS setting).
    Disabled,
    /// Retransmit after this many duplicate acks (3 is classic TCP).
    DupAckThreshold(u32),
}

/// DCTCP's EWMA gain `g` for the marked fraction `alpha` (the DCTCP
/// paper's recommended 1/16).
pub const DCTCP_GAIN: f64 = 1.0 / 16.0;

/// Congestion-control algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CcAlgorithm {
    /// DCTCP: maintain the EWMA fraction `alpha` of marked bytes (gain
    /// [`DCTCP_GAIN`]) and cut `cwnd` by `alpha/2` once per window.
    Dctcp,
    /// The pFabric host stack (§5.8): a fixed window that ignores marks
    /// and losses, an RTO fixed at `min_rto` with no RTT estimation or
    /// backoff, remaining-size priority stamps, and a one-segment probe on
    /// each timeout. It starts at line rate and relies on the switches'
    /// priority scheduling.
    Pfabric,
}

/// Full per-connection transport configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TcpConfig {
    /// Maximum segment size in bytes (payload per packet).
    pub mss: u32,
    /// Initial congestion window, in segments (Table 1: 10).
    pub init_cwnd: u32,
    /// Lower bound on the retransmission timeout (Table 1: 10 ms); under
    /// [`CcAlgorithm::Pfabric`], the fixed RTO itself.
    pub min_rto: SimDuration,
    /// Upper bound on the (backed-off) retransmission timeout.
    pub max_rto: SimDuration,
    /// Fast-retransmit policy.
    pub fast_retransmit: FastRetransmit,
    /// Congestion control algorithm.
    pub cc: CcAlgorithm,
    /// Initial TTL for emitted packets (Fig 13 sweeps this).
    pub initial_ttl: u8,
    /// Receiver ack coalescing: 1 acks every packet (exact DCTCP marking
    /// feedback, the default); m > 1 runs the DCTCP delayed-ack state
    /// machine with one ack per m in-order packets.
    pub ack_every: u32,
}

impl TcpConfig {
    /// The paper's DCTCP host settings (Table 1), fast retransmit enabled at
    /// the classic threshold (the no-DIBS baseline).
    pub fn dctcp_baseline() -> Self {
        TcpConfig {
            mss: 1460,
            init_cwnd: 10,
            min_rto: SimDuration::from_millis(10),
            max_rto: SimDuration::from_secs(2),
            fast_retransmit: FastRetransmit::DupAckThreshold(3),
            cc: CcAlgorithm::Dctcp,
            initial_ttl: 255,
            ack_every: 1,
        }
    }

    /// DCTCP host settings for DIBS runs: identical, but fast retransmit is
    /// disabled because detours reorder packets (§4).
    pub fn dctcp_dibs() -> Self {
        TcpConfig {
            fast_retransmit: FastRetransmit::Disabled,
            ..Self::dctcp_baseline()
        }
    }

    /// The pFabric host stack of §5.8: fixed window, 350 µs fixed RTO
    /// (the RTO never exceeds it, so `max_rto` is not read),
    /// remaining-size priority stamping.
    pub fn pfabric() -> Self {
        TcpConfig {
            min_rto: SimDuration::from_micros(350),
            cc: CcAlgorithm::Pfabric,
            fast_retransmit: FastRetransmit::Disabled,
            ..Self::dctcp_baseline()
        }
    }

    /// Congestion window floor, in bytes.
    pub fn min_cwnd(&self) -> f64 {
        f64::from(self.mss)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper() {
        let d = TcpConfig::dctcp_baseline();
        assert_eq!(d.mss, 1460);
        assert_eq!(d.init_cwnd, 10);
        assert_eq!(d.min_rto, SimDuration::from_millis(10));
        assert_eq!(d.cc, CcAlgorithm::Dctcp);

        let dibs = TcpConfig::dctcp_dibs();
        assert_eq!(dibs.fast_retransmit, FastRetransmit::Disabled);

        let pf = TcpConfig::pfabric();
        assert_eq!(pf.min_rto, SimDuration::from_micros(350));
        assert_eq!(pf.cc, CcAlgorithm::Pfabric);
    }
}
