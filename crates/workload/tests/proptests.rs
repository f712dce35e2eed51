//! Property tests for the workload generators and distributions, driven by
//! the deterministic testkit harness: sampled flow sizes and inter-arrival
//! times must match their spec's mean and CDF within tolerance.

use dibs_engine::rng::SimRng;
use dibs_engine::testkit;
use dibs_engine::time::SimDuration;
use dibs_workload::{BackgroundTraffic, EmpiricalCdf, QueryTraffic};

/// Empirical mean of `n` draws.
fn sample_mean(n: usize, rng: &mut SimRng, mut draw: impl FnMut(&mut SimRng) -> f64) -> f64 {
    (0..n).map(|_| draw(rng)).sum::<f64>() / n as f64
}

/// Fraction of `samples` that are `<= x`.
fn empirical_cdf_at(samples: &[f64], x: f64) -> f64 {
    samples.iter().filter(|&&s| s <= x).count() as f64 / samples.len() as f64
}

#[test]
fn dctcp_flow_sizes_match_their_cdf() {
    let dist = EmpiricalCdf::dctcp_background_sizes();
    testkit::cases_n("dctcp-sizes-cdf", 16, |rng, case| {
        let samples: Vec<f64> = (0..4_000).map(|_| dist.sample(rng)).collect();
        // At every knot of the spec, the empirical CDF must sit within a
        // few percent of the declared probability mass.
        for (x, p) in [
            (6_000.0, 0.15),
            (19_000.0, 0.45),
            (100_000.0, 0.80),
            (2_000_000.0, 0.95),
        ] {
            let got = empirical_cdf_at(&samples, x);
            assert!(
                (got - p).abs() < 0.04,
                "case {case}: P(size <= {x}) = {got:.3}, spec says {p}"
            );
        }
        // All mass inside the declared support.
        assert!(samples
            .iter()
            .all(|&s| (1_000.0..=30_000_000.0).contains(&s)));
    });
}

#[test]
fn dctcp_flow_sizes_match_their_mean() {
    let dist = EmpiricalCdf::dctcp_background_sizes();
    let spec_mean = dist.mean();
    // The distribution is heavy-tailed, so the sample mean converges
    // slowly; pool a large sample per case and allow 15%.
    testkit::cases_n("dctcp-sizes-mean", 8, |rng, case| {
        let got = sample_mean(60_000, rng, |r| dist.sample(r));
        assert!(
            (got - spec_mean).abs() / spec_mean < 0.15,
            "case {case}: sample mean {got:.0} vs quadrature mean {spec_mean:.0}"
        );
    });
}

#[test]
fn quantile_and_cdf_are_inverse() {
    let dist = EmpiricalCdf::dctcp_background_sizes();
    testkit::cases("quantile-cdf-roundtrip", |rng, case| {
        let u = rng.uniform();
        let x = dist.quantile(u);
        let back = dist.cdf(x);
        assert!(
            (back - u).abs() < 1e-9,
            "case {case}: cdf(quantile({u})) = {back}"
        );
    });
}

#[test]
fn background_interarrivals_are_exponential_with_spec_mean() {
    testkit::cases_n("bg-interarrival", 12, |rng, case| {
        // Spec mean between 10 ms and 120 ms (the Table 2 sweep range).
        let mean_ms = 10.0 + rng.uniform() * 110.0;
        let bg = BackgroundTraffic::paper(SimDuration::from_secs_f64(mean_ms / 1000.0));
        // One host's Poisson process over a long window: inter-arrival
        // gaps must average the spec mean. Use 2 hosts (the minimum) and
        // read host 0's arrivals.
        let window = SimDuration::from_secs_f64(mean_ms); // ~1000 gaps
        let flows = bg.generate(2, window, rng);
        let starts: Vec<f64> = flows
            .iter()
            .filter(|f| f.src.index() == 0)
            .map(|f| f.start.as_secs_f64())
            .collect();
        assert!(starts.len() > 300, "case {case}: too few arrivals");
        let mut gaps: Vec<f64> = starts.windows(2).map(|w| w[1] - w[0]).collect();
        gaps.insert(0, starts[0]);
        let got_ms = 1000.0 * gaps.iter().sum::<f64>() / gaps.len() as f64;
        assert!(
            (got_ms - mean_ms).abs() / mean_ms < 0.15,
            "case {case}: inter-arrival mean {got_ms:.2} ms vs spec {mean_ms:.2} ms"
        );
        // Exponential gaps: ~63.2% of gaps below the mean.
        let below = empirical_cdf_at(&gaps, mean_ms / 1000.0);
        assert!(
            (below - 0.632).abs() < 0.06,
            "case {case}: P(gap <= mean) = {below:.3}, exponential says 0.632"
        );
    });
}

#[test]
fn query_rate_matches_qps_and_degree_is_exact() {
    testkit::cases_n("query-rate", 12, |rng, case| {
        let qps = 200.0 + rng.uniform() * 1800.0;
        let qt = QueryTraffic {
            qps,
            degree: 5 + rng.below(20),
            response_bytes: 20_000,
        };
        let hosts = 64;
        let window = SimDuration::from_secs_f64(1000.0 / qps); // ~1000 queries
        let queries = qt.generate(hosts, window, rng);
        let expected = qps * window.as_secs_f64();
        assert!(
            (queries.len() as f64 - expected).abs() / expected < 0.15,
            "case {case}: {} queries vs expected ~{expected:.0}",
            queries.len()
        );
        for q in &queries {
            assert_eq!(q.responders.len(), qt.degree, "case {case}");
            // Responders are distinct and never the target.
            let mut seen: Vec<_> = q.responders.iter().map(|h| h.index()).collect();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), qt.degree, "case {case}: duplicate responder");
            assert!(q.responders.iter().all(|r| *r != q.target), "case {case}");
        }
    });
}
