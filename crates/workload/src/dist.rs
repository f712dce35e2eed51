//! Sampling distributions for workload generation.
//!
//! The key one is [`EmpiricalCdf`], used to encode the production
//! flow-size distribution from the DCTCP paper that drives the simulations
//! (§5.3).

use dibs_engine::rng::SimRng;

/// An empirical CDF over `f64` values with inverse-transform sampling and
/// log-linear interpolation between knots.
///
/// # Examples
///
/// ```
/// use dibs_workload::dist::EmpiricalCdf;
/// use dibs_engine::rng::SimRng;
///
/// let cdf = EmpiricalCdf::new(vec![(1_000.0, 0.0), (10_000.0, 0.5), (100_000.0, 1.0)]).unwrap();
/// let mut rng = SimRng::new(1);
/// let x = cdf.sample(&mut rng);
/// assert!((1_000.0..=100_000.0).contains(&x));
/// ```
#[derive(Debug, Clone)]
pub struct EmpiricalCdf {
    /// `(value, cumulative_probability)` knots, strictly increasing in both.
    knots: Vec<(f64, f64)>,
}

impl EmpiricalCdf {
    /// Builds a CDF from knots.
    ///
    /// Requirements: at least two knots; values strictly increasing and
    /// positive; probabilities nondecreasing, starting at 0 and ending at 1.
    pub fn new(knots: Vec<(f64, f64)>) -> Result<Self, String> {
        if knots.len() < 2 {
            return Err("need at least two knots".into());
        }
        if knots[0].1 != 0.0 {
            return Err("first knot must have probability 0".into());
        }
        if (knots[knots.len() - 1].1 - 1.0).abs() > 1e-12 {
            return Err("last knot must have probability 1".into());
        }
        for w in knots.windows(2) {
            if w[1].0 <= w[0].0 {
                return Err(format!("values must increase: {} !< {}", w[0].0, w[1].0));
            }
            if w[1].1 < w[0].1 {
                return Err("probabilities must be nondecreasing".into());
            }
        }
        if knots[0].0 <= 0.0 {
            return Err("values must be positive (log interpolation)".into());
        }
        Ok(EmpiricalCdf { knots })
    }

    /// Inverse CDF at probability `u` in `[0, 1]`, interpolating
    /// geometrically between knots (flow sizes span decades).
    pub fn quantile(&self, u: f64) -> f64 {
        let u = u.clamp(0.0, 1.0);
        for w in self.knots.windows(2) {
            let (v0, p0) = w[0];
            let (v1, p1) = w[1];
            if u <= p1 {
                if p1 == p0 {
                    return v1;
                }
                let t = (u - p0) / (p1 - p0);
                // Log-linear interpolation.
                return (v0.ln() + t * (v1.ln() - v0.ln())).exp();
            }
        }
        self.knots[self.knots.len() - 1].0
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        self.quantile(rng.uniform())
    }

    /// CDF evaluated at `x` (fraction of mass at or below `x`),
    /// log-interpolated.
    pub fn cdf(&self, x: f64) -> f64 {
        if x <= self.knots[0].0 {
            return 0.0;
        }
        for w in self.knots.windows(2) {
            let (v0, p0) = w[0];
            let (v1, p1) = w[1];
            if x <= v1 {
                let t = (x.ln() - v0.ln()) / (v1.ln() - v0.ln());
                return p0 + t * (p1 - p0);
            }
        }
        1.0
    }

    /// Approximate mean via quadrature over the quantile function.
    pub fn mean(&self) -> f64 {
        let n = 10_000;
        (0..n)
            .map(|i| self.quantile((i as f64 + 0.5) / n as f64))
            .sum::<f64>()
            / n as f64
    }

    /// The production background-traffic flow-size distribution used by the
    /// paper's simulations (from the DCTCP paper [18]).
    ///
    /// Substitution note (DESIGN.md #3): the original is a proprietary
    /// trace; this empirical CDF matches the published summary — 80 % of
    /// background flows below 100 KB with a heavy tail reaching tens of MB
    /// that carries most of the bytes.
    pub fn dctcp_background_sizes() -> Self {
        EmpiricalCdf::new(vec![
            (1_000.0, 0.00),
            (6_000.0, 0.15),
            (13_000.0, 0.30),
            (19_000.0, 0.45),
            (33_000.0, 0.55),
            (53_000.0, 0.65),
            (100_000.0, 0.80),
            (667_000.0, 0.90),
            (2_000_000.0, 0.95),
            (10_000_000.0, 0.98),
            (30_000_000.0, 1.00),
        ])
        .expect("static knots are valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_rejects_bad_knots() {
        assert!(EmpiricalCdf::new(vec![(1.0, 0.0)]).is_err());
        assert!(EmpiricalCdf::new(vec![(1.0, 0.1), (2.0, 1.0)]).is_err());
        assert!(EmpiricalCdf::new(vec![(1.0, 0.0), (2.0, 0.9)]).is_err());
        assert!(EmpiricalCdf::new(vec![(2.0, 0.0), (1.0, 1.0)]).is_err());
        assert!(EmpiricalCdf::new(vec![(1.0, 0.0), (2.0, 0.5), (3.0, 0.4), (4.0, 1.0)]).is_err());
        assert!(EmpiricalCdf::new(vec![(0.0, 0.0), (2.0, 1.0)]).is_err());
    }

    #[test]
    fn quantile_hits_knots() {
        let cdf = EmpiricalCdf::new(vec![(10.0, 0.0), (100.0, 0.5), (1000.0, 1.0)]).unwrap();
        assert!((cdf.quantile(0.0) - 10.0).abs() < 1e-9);
        assert!((cdf.quantile(0.5) - 100.0).abs() < 1e-9);
        assert!((cdf.quantile(1.0) - 1000.0).abs() < 1e-9);
        // Geometric midpoint between knots.
        let q = cdf.quantile(0.25);
        assert!((q - (10.0f64 * 100.0).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn cdf_inverts_quantile() {
        let cdf = EmpiricalCdf::dctcp_background_sizes();
        for u in [0.05, 0.2, 0.5, 0.8, 0.95] {
            let x = cdf.quantile(u);
            assert!((cdf.cdf(x) - u).abs() < 1e-9, "u={u}");
        }
    }

    #[test]
    fn background_distribution_matches_paper_summary() {
        let cdf = EmpiricalCdf::dctcp_background_sizes();
        // "The background traffic has 80% of flows smaller than 100KB" (§5.3).
        assert!((cdf.cdf(100_000.0) - 0.8).abs() < 1e-9);
        // Heavy tail: the mean is far above the median.
        let median = cdf.quantile(0.5);
        assert!(cdf.mean() > 5.0 * median);
    }

    #[test]
    fn sampling_tracks_cdf() {
        let cdf = EmpiricalCdf::dctcp_background_sizes();
        let mut rng = SimRng::new(5);
        let n = 100_000;
        let below_100k = (0..n).filter(|_| cdf.sample(&mut rng) <= 100_000.0).count();
        let frac = below_100k as f64 / n as f64;
        assert!((frac - 0.8).abs() < 0.01, "observed {frac}");
    }
}
