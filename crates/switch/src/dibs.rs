//! Detour-induced buffer sharing: the detour-port policies.
//!
//! The paper's default policy (§2) is **random**: when the desired output
//! queue is full, pick uniformly among ports that (a) face another switch —
//! hosts do not forward packets not addressed to them — and (b) have buffer
//! room. §7 sketches three refinements (load-aware, flow-based, and
//! probabilistic detouring), all implemented here so they can be compared in
//! the `policy_comparison` example and the ablation binaries.

use dibs_engine::rng::SimRng;
use dibs_net::packet::Packet;
use dibs_net::routing::ecmp_hash;
use dibs_net::{HostId, NodeId};

/// Salt for the flow-based detour hash, distinct from the FIB's ECMP salt
/// so detour placement does not correlate with shortest-path selection.
pub const DETOUR_SALT: u64 = 0xD1B5;

/// The flow-based detour hash for `pkt` at `node`: the ECMP mixer keyed on
/// `(flow, node, dst)` so a flow detours consistently at a given switch
/// but differently at different switches.
///
/// Pure, so callers may memoize it per `(flow, node, dst)` (the switch
/// core does, via [`dibs_net::routing::EcmpMemo`]) and pass the cached
/// value to [`DibsPolicy::choose`].
pub fn detour_flow_hash(pkt: &Packet, node: NodeId) -> u64 {
    ecmp_hash(pkt.flow, node, HostId(pkt.dst.0), DETOUR_SALT)
}

/// How a congested switch chooses a detour port.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DibsPolicy {
    /// Never detour: drop on overflow (plain droptail; the DCTCP baseline).
    Disabled,
    /// Uniform random among eligible ports (the paper's parameterless
    /// default).
    Random,
    /// Prefer the eligible port with the lowest buffer occupancy (§7,
    /// "load-aware detouring").
    LoadAware,
    /// Hash the flow onto an eligible port so one flow's detoured packets
    /// follow a consistent path (§7, "flow-based detouring").
    FlowBased,
    /// Begin detouring *before* the queue is full: once occupancy exceeds
    /// `onset`, detour with probability ramping linearly to 1 at a full
    /// queue (§7, "probabilistic detouring").
    Probabilistic {
        /// Occupancy fraction at which detouring may begin, in `[0, 1)`.
        onset: f64,
    },
}

impl DibsPolicy {
    /// Whether this policy ever detours.
    pub fn is_enabled(&self) -> bool {
        !matches!(self, DibsPolicy::Disabled)
    }

    /// Probability of detouring a packet given the desired queue's occupancy
    /// when that queue still has room.
    ///
    /// Zero for every policy except `Probabilistic`.
    pub fn early_detour_probability(&self, occupancy: f64) -> f64 {
        match *self {
            DibsPolicy::Probabilistic { onset } if occupancy > onset && onset < 1.0 => {
                ((occupancy - onset) / (1.0 - onset)).clamp(0.0, 1.0)
            }
            _ => 0.0,
        }
    }

    /// Picks a detour port among `eligible` (ports that are switch-facing,
    /// distinct from the desired port, and have buffer room).
    ///
    /// `occupancy(port)` reports the port's buffer occupancy in `[0, 1]`
    /// (used by `LoadAware`). `flow_hash` is the value of
    /// [`detour_flow_hash`] for this packet at this node (used by
    /// `FlowBased`); the switch core supplies it from a per-switch memo so
    /// the hash is mixed once per flow, not once per packet. Returns
    /// `None` when no port is eligible or the policy is disabled.
    pub fn choose(
        &self,
        eligible: &[usize],
        occupancy: impl Fn(usize) -> f64,
        flow_hash: u64,
        rng: &mut SimRng,
    ) -> Option<usize> {
        if eligible.is_empty() {
            return None;
        }
        match *self {
            DibsPolicy::Disabled => None,
            DibsPolicy::Random | DibsPolicy::Probabilistic { .. } => {
                Some(eligible[rng.below(eligible.len())])
            }
            DibsPolicy::LoadAware => {
                let mut best = eligible[0];
                let mut best_occ = occupancy(best);
                for &p in &eligible[1..] {
                    let o = occupancy(p);
                    if o < best_occ {
                        best = p;
                        best_occ = o;
                    }
                }
                Some(best)
            }
            DibsPolicy::FlowBased => {
                // `h % len` is < len, which is a usize.
                #[allow(clippy::cast_possible_truncation)]
                Some(eligible[(flow_hash % eligible.len() as u64) as usize])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dibs_engine::time::SimTime;
    use dibs_net::ids::{FlowId, PacketId};

    fn pkt(flow: u32) -> Packet {
        Packet::data(
            PacketId(0),
            FlowId(flow),
            HostId(0),
            HostId(9),
            0,
            1460,
            64,
            SimTime::ZERO,
        )
    }

    fn hash(flow: u32, node: u32) -> u64 {
        detour_flow_hash(&pkt(flow), NodeId(node))
    }

    #[test]
    fn disabled_never_detours() {
        let mut rng = SimRng::new(1);
        assert_eq!(
            DibsPolicy::Disabled.choose(&[1, 2, 3], |_| 0.0, hash(0, 0), &mut rng),
            None
        );
        assert!(!DibsPolicy::Disabled.is_enabled());
    }

    #[test]
    fn empty_eligible_set_means_drop() {
        let mut rng = SimRng::new(1);
        assert_eq!(
            DibsPolicy::Random.choose(&[], |_| 0.0, hash(0, 0), &mut rng),
            None
        );
    }

    #[test]
    fn random_covers_all_eligible_ports() {
        let mut rng = SimRng::new(7);
        let eligible = [2usize, 5, 6];
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..200 {
            let p = DibsPolicy::Random
                .choose(&eligible, |_| 0.0, hash(0, 0), &mut rng)
                .unwrap();
            assert!(eligible.contains(&p));
            seen.insert(p);
        }
        assert_eq!(seen.len(), 3);
    }

    #[test]
    fn load_aware_picks_emptiest() {
        let mut rng = SimRng::new(7);
        let occ = |p: usize| match p {
            2 => 0.9,
            5 => 0.1,
            6 => 0.5,
            _ => 1.0,
        };
        let p = DibsPolicy::LoadAware
            .choose(&[2, 5, 6], occ, hash(0, 0), &mut rng)
            .unwrap();
        assert_eq!(p, 5);
    }

    #[test]
    fn flow_based_is_stable_per_flow_and_varies_across_flows() {
        let mut rng = SimRng::new(7);
        let eligible = [0usize, 1, 2, 3, 4, 5, 6, 7];
        let first = DibsPolicy::FlowBased
            .choose(&eligible, |_| 0.0, hash(42, 3), &mut rng)
            .unwrap();
        for _ in 0..10 {
            let again = DibsPolicy::FlowBased
                .choose(&eligible, |_| 0.0, hash(42, 3), &mut rng)
                .unwrap();
            assert_eq!(first, again);
        }
        let mut distinct = std::collections::BTreeSet::new();
        for f in 0..64 {
            distinct.insert(
                DibsPolicy::FlowBased
                    .choose(&eligible, |_| 0.0, hash(f, 3), &mut rng)
                    .unwrap(),
            );
        }
        assert!(distinct.len() > 4, "flow hash should spread: {distinct:?}");
    }

    #[test]
    fn detour_hash_matches_ecmp_mixer() {
        // The memoizable helper must equal the inline mixer it replaced.
        let p = pkt(42);
        assert_eq!(
            detour_flow_hash(&p, NodeId(3)),
            ecmp_hash(p.flow, NodeId(3), HostId(p.dst.0), DETOUR_SALT)
        );
        // And vary by node so detours decorrelate across switches.
        assert_ne!(
            detour_flow_hash(&p, NodeId(3)),
            detour_flow_hash(&p, NodeId(4))
        );
    }

    #[test]
    fn probabilistic_ramp() {
        let p = DibsPolicy::Probabilistic { onset: 0.8 };
        assert_eq!(p.early_detour_probability(0.5), 0.0);
        assert_eq!(p.early_detour_probability(0.8), 0.0);
        assert!((p.early_detour_probability(0.9) - 0.5).abs() < 1e-9);
        assert!((p.early_detour_probability(1.0) - 1.0).abs() < 1e-9);
        // Other policies never early-detour.
        assert_eq!(DibsPolicy::Random.early_detour_probability(0.99), 0.0);
    }
}
