//! Traffic generators: background flows, partition-aggregate queries, and
//! long-lived fairness flows.

use crate::dist::EmpiricalCdf;
use crate::spec::{FlowClass, FlowSpec, QuerySpec};
use dibs_engine::rng::SimRng;
use dibs_engine::time::{SimDuration, SimTime};
use dibs_net::ids::HostId;

/// Background traffic: per-host Poisson flow arrivals with DCTCP-paper flow
/// sizes (§5.3). Intensity is controlled by the mean inter-arrival time per
/// host (Table 2 sweeps 10–120 ms; smaller = more traffic).
#[derive(Debug, Clone)]
pub struct BackgroundTraffic {
    /// Mean inter-arrival time of new flows at each host.
    pub mean_interarrival: SimDuration,
    /// Flow size distribution.
    pub sizes: EmpiricalCdf,
}

impl BackgroundTraffic {
    /// Paper defaults: DCTCP flow sizes at the given mean inter-arrival.
    pub fn paper(mean_interarrival: SimDuration) -> Self {
        BackgroundTraffic {
            mean_interarrival,
            sizes: EmpiricalCdf::dctcp_background_sizes(),
        }
    }

    /// Generates every background flow starting within `[0, duration)`.
    ///
    /// Each host runs an independent Poisson process; destinations are
    /// uniform over the other hosts. Output is sorted by start time.
    pub fn generate(
        &self,
        num_hosts: usize,
        duration: SimDuration,
        rng: &mut SimRng,
    ) -> Vec<FlowSpec> {
        assert!(num_hosts >= 2, "need at least two hosts");
        let mean_s = self.mean_interarrival.as_secs_f64();
        let mut flows = Vec::new();
        for src in 0..num_hosts {
            let mut t = 0.0;
            loop {
                t += rng.exponential(mean_s);
                if t >= duration.as_secs_f64() {
                    break;
                }
                let mut dst = rng.below(num_hosts - 1);
                if dst >= src {
                    dst += 1;
                }
                // Sampled sizes are bounded far below u64::MAX by the
                // workload distributions; max(1.0) also rules out zero.
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                let size = self.sizes.sample(rng).round().max(1.0) as u64;
                flows.push(FlowSpec {
                    start: SimTime::from_secs_f64(t),
                    src: HostId::from_index(src),
                    dst: HostId::from_index(dst),
                    size,
                    class: FlowClass::Background,
                });
            }
        }
        flows.sort_by_key(|f| f.start);
        flows
    }
}

/// Partition-aggregate query traffic (§5.3): queries arrive network-wide as
/// a Poisson process at `qps`; each picks a uniform random target and
/// `degree` distinct random responders.
#[derive(Debug, Clone, Copy)]
pub struct QueryTraffic {
    /// Query arrival rate, queries per second (Table 2: 300 default, up to
    /// 15000 in the extreme sweep).
    pub qps: f64,
    /// Number of responders per query (Table 2: 40 default, up to 100).
    pub degree: usize,
    /// Bytes per response (Table 2: 20 KB default, up to 160 KB).
    pub response_bytes: u64,
}

impl QueryTraffic {
    /// Generates all queries issued within `[0, duration)`, sorted by time.
    ///
    /// # Panics
    ///
    /// Panics if `degree >= num_hosts` (responders must be distinct hosts
    /// other than the target).
    pub fn generate(
        &self,
        num_hosts: usize,
        duration: SimDuration,
        rng: &mut SimRng,
    ) -> Vec<QuerySpec> {
        assert!(
            self.degree < num_hosts,
            "incast degree {} needs more than {num_hosts} hosts",
            self.degree
        );
        assert!(self.qps > 0.0);
        let mut queries = Vec::new();
        let mut t = 0.0;
        loop {
            t += rng.exponential(1.0 / self.qps);
            if t >= duration.as_secs_f64() {
                break;
            }
            let target = HostId::from_index(rng.below(num_hosts));
            queries.push(QuerySpec {
                start: SimTime::from_secs_f64(t),
                target,
                responders: distinct_responders(num_hosts, target, self.degree, rng),
                response_bytes: self.response_bytes,
            });
        }
        queries
    }
}

/// `degree` distinct responders drawn uniformly from the `num_hosts - 1`
/// hosts other than `target`, with one `sample_distinct` draw.
pub fn distinct_responders(
    num_hosts: usize,
    target: HostId,
    degree: usize,
    rng: &mut SimRng,
) -> Vec<HostId> {
    rng.sample_distinct(num_hosts - 1, degree)
        .into_iter()
        .map(|i| skip_target(i, target))
        .collect()
}

/// `degree` responders that cycle through the hosts other than `target` in
/// index order, repeating hosts (several connections per server) once
/// `degree` exceeds `num_hosts - 1`. Draws no randomness.
pub fn round_robin_responders(num_hosts: usize, target: HostId, degree: usize) -> Vec<HostId> {
    (0..degree)
        .map(|i| skip_target(i % (num_hosts - 1), target))
        .collect()
}

/// The `i`-th host of the `num_hosts - 1` hosts other than `target`.
fn skip_target(i: usize, target: HostId) -> HostId {
    HostId::from_index(if i >= target.index() { i + 1 } else { i })
}

/// The §5.6 fairness workload: split `num_hosts` into node-disjoint pairs
/// and run `flows_per_pair` long-lived flows in both directions of each
/// pair. Flow size is effectively unbounded; the experiment measures
/// throughput over a fixed horizon and computes Jain's index.
pub fn long_lived_pairs(num_hosts: usize, flows_per_pair: usize) -> Vec<FlowSpec> {
    assert!(
        num_hosts.is_multiple_of(2),
        "need an even host count for pairing"
    );
    let mut flows = Vec::new();
    // Pair host i with host i + n/2: in a pod-structured fat-tree this makes
    // every pair cross the core, exercising the full bisection.
    let half = num_hosts / 2;
    for i in 0..half {
        let a = HostId::from_index(i);
        let b = HostId::from_index(i + half);
        for _ in 0..flows_per_pair {
            for (src, dst) in [(a, b), (b, a)] {
                flows.push(FlowSpec {
                    start: SimTime::ZERO,
                    src,
                    dst,
                    // Large enough to outlive any measurement horizon.
                    size: u64::MAX / 4,
                    class: FlowClass::LongLived,
                });
            }
        }
    }
    flows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn background_rate_matches_interarrival() {
        let gen = BackgroundTraffic::paper(SimDuration::from_millis(10));
        let mut rng = SimRng::new(1);
        let flows = gen.generate(16, SimDuration::from_secs(5), &mut rng);
        // Expected: 16 hosts * 5 s / 10 ms = 8000 flows.
        assert!(
            (7200..8800).contains(&flows.len()),
            "got {} flows",
            flows.len()
        );
        // Sorted, no self-flows, all within the window.
        assert!(flows.windows(2).all(|w| w[0].start <= w[1].start));
        assert!(flows.iter().all(|f| f.src != f.dst));
        assert!(flows.iter().all(|f| f.start < SimTime::from_secs(5)));
        assert!(flows.iter().all(|f| f.class == FlowClass::Background));
        assert!(flows.iter().all(|f| f.size >= 1));
    }

    #[test]
    fn background_intensity_scales_inversely() {
        let mut rng_a = SimRng::new(2);
        let mut rng_b = SimRng::new(2);
        let light = BackgroundTraffic::paper(SimDuration::from_millis(120)).generate(
            16,
            SimDuration::from_secs(5),
            &mut rng_a,
        );
        let heavy = BackgroundTraffic::paper(SimDuration::from_millis(10)).generate(
            16,
            SimDuration::from_secs(5),
            &mut rng_b,
        );
        let ratio = heavy.len() as f64 / light.len() as f64;
        assert!((8.0..16.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn query_generation_contract() {
        let gen = QueryTraffic {
            qps: 1000.0,
            degree: 40,
            response_bytes: 20_000,
        };
        let mut rng = SimRng::new(3);
        let queries = gen.generate(128, SimDuration::from_secs(2), &mut rng);
        assert!(
            (1800..2200).contains(&queries.len()),
            "got {}",
            queries.len()
        );
        for q in &queries {
            assert_eq!(q.responders.len(), 40);
            assert!(q.responders.iter().all(|&r| r != q.target));
            let mut sorted: Vec<_> = q.responders.iter().map(|h| h.0).collect();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 40, "responders must be distinct");
            assert!(sorted.iter().all(|&h| (h as usize) < 128));
        }
    }

    #[test]
    fn query_rate_respected() {
        let mut rng = SimRng::new(4);
        let q300 = QueryTraffic {
            qps: 300.0,
            degree: 40,
            response_bytes: 20_000,
        }
        .generate(128, SimDuration::from_secs(10), &mut rng);
        assert!((2700..3300).contains(&q300.len()), "got {}", q300.len());
    }

    #[test]
    #[should_panic(expected = "incast degree")]
    fn degree_must_fit_hosts() {
        let mut rng = SimRng::new(1);
        QueryTraffic {
            qps: 1.0,
            degree: 10,
            response_bytes: 1,
        }
        .generate(10, SimDuration::from_secs(1), &mut rng);
    }

    #[test]
    fn responders_skip_the_target() {
        let target = HostId(2);
        let rr = round_robin_responders(4, target, 7);
        let idx: Vec<u32> = rr.iter().map(|h| h.0).collect();
        assert_eq!(idx, [0, 1, 3, 0, 1, 3, 0]);

        let mut a = SimRng::new(6);
        let mut b = SimRng::new(6);
        let drawn = distinct_responders(10, target, 9, &mut a);
        let expected: Vec<HostId> = b
            .sample_distinct(9, 9)
            .into_iter()
            .map(|i| HostId::from_index(if i >= 2 { i + 1 } else { i }))
            .collect();
        assert_eq!(drawn, expected);
        assert!(drawn.iter().all(|&h| h != target));
        assert_eq!(a.next_u64(), b.next_u64(), "same draws as sample_distinct");
    }

    #[test]
    fn long_lived_pairs_are_node_disjoint() {
        let flows = long_lived_pairs(128, 2);
        // 64 pairs * 2 flows * 2 directions.
        assert_eq!(flows.len(), 256);
        // Each host appears as src exactly flows_per_pair times per direction.
        let mut src_count = vec![0usize; 128];
        for f in &flows {
            src_count[f.src.index()] += 1;
            assert_eq!((f.src.0 as i64 - f.dst.0 as i64).unsigned_abs(), 64);
        }
        assert!(src_count.iter().all(|&c| c == 2));
    }
}
