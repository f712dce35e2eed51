//! Sample collections, percentiles, and distribution summaries.

use dibs_json::{Json, ToJson};

/// A collection of scalar samples with exact percentile queries.
///
/// Samples are stored raw (runs here are bounded to at most a few million
/// samples) and sorted lazily on first query.
///
/// # Examples
///
/// ```
/// use dibs_stats::summary::Samples;
///
/// let mut s = Samples::new();
/// for v in [5.0, 1.0, 3.0, 2.0, 4.0] {
///     s.push(v);
/// }
/// assert_eq!(s.percentile(0.5), Some(3.0));
/// assert_eq!(s.max(), Some(5.0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// Creates an empty collection.
    pub fn new() -> Self {
        Samples::default()
    }

    /// Adds a sample.
    ///
    /// # Panics
    ///
    /// Panics on NaN (NaN would poison ordering).
    pub fn push(&mut self, v: f64) {
        assert!(!v.is_nan(), "NaN sample");
        self.values.push(v);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Raw values (unordered).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.values
                .sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
            self.sorted = true;
        }
    }

    /// Exact percentile `p` in `[0, 1]` using the nearest-rank method.
    pub fn percentile(&mut self, p: f64) -> Option<f64> {
        if self.values.is_empty() {
            return None;
        }
        self.ensure_sorted();
        let p = p.clamp(0.0, 1.0);
        // p in [0,1] bounds the product by len, which is a usize.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let rank = ((p * self.values.len() as f64).ceil() as usize).clamp(1, self.values.len());
        Some(self.values[rank - 1])
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> Option<f64> {
        if self.values.is_empty() {
            return None;
        }
        Some(self.values.iter().sum::<f64>() / self.values.len() as f64)
    }

    /// Smallest sample.
    pub fn min(&mut self) -> Option<f64> {
        self.ensure_sorted();
        self.values.first().copied()
    }

    /// Largest sample.
    pub fn max(&mut self) -> Option<f64> {
        self.ensure_sorted();
        self.values.last().copied()
    }

    /// Full summary (None if empty).
    pub fn summarize(&mut self) -> Option<Summary> {
        if self.values.is_empty() {
            return None;
        }
        Some(Summary {
            count: self.len() as u64,
            mean: self.mean().expect("nonempty"),
            min: self.min().expect("nonempty"),
            p50: self.percentile(0.50).expect("nonempty"),
            p90: self.percentile(0.90).expect("nonempty"),
            p99: self.percentile(0.99).expect("nonempty"),
            p999: self.percentile(0.999).expect("nonempty"),
            max: self.max().expect("nonempty"),
        })
    }
}

/// A distribution summary, serializable for experiment records.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub count: u64,
    /// Mean.
    pub mean: f64,
    /// Minimum.
    pub min: f64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile (the paper's headline metric for QCT/FCT).
    pub p99: f64,
    /// 99.9th percentile.
    pub p999: f64,
    /// Maximum.
    pub max: f64,
}

impl ToJson for Summary {
    fn to_json(&self) -> Json {
        macro_rules! obj {
            ($($f:ident),*) => {
                Json::Obj(vec![$((stringify!($f).to_string(), self.$f.to_json())),*])
            };
        }
        obj!(count, mean, min, p50, p90, p99, p999, max)
    }
}

/// Jain's fairness index over per-flow throughputs (§5.6): 1 is perfectly
/// fair; `1/n` is maximally unfair.
///
/// Returns `None` for empty input or all-zero throughputs.
pub fn jain_index(throughputs: &[f64]) -> Option<f64> {
    if throughputs.is_empty() {
        return None;
    }
    let sum: f64 = throughputs.iter().sum();
    let sum_sq: f64 = throughputs.iter().map(|x| x * x).sum();
    if sum_sq == 0.0 {
        return None;
    }
    Some(sum * sum / (throughputs.len() as f64 * sum_sq))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_nearest_rank() {
        let mut s = Samples::new();
        for v in 1..=100 {
            s.push(v as f64);
        }
        assert_eq!(s.percentile(0.50), Some(50.0));
        assert_eq!(s.percentile(0.99), Some(99.0));
        assert_eq!(s.percentile(1.0), Some(100.0));
        assert_eq!(s.percentile(0.0), Some(1.0));
        assert_eq!(s.min(), Some(1.0));
        assert_eq!(s.max(), Some(100.0));
    }

    #[test]
    fn empty_yields_none() {
        let mut s = Samples::new();
        assert_eq!(s.percentile(0.5), None);
        assert_eq!(s.mean(), None);
        assert!(s.summarize().is_none());
    }

    #[test]
    fn single_sample() {
        let mut s = Samples::new();
        s.push(7.0);
        let sum = s.summarize().unwrap();
        assert_eq!(sum.p50, 7.0);
        assert_eq!(sum.p99, 7.0);
        assert_eq!(sum.count, 1);
    }

    #[test]
    fn push_after_query_resorts() {
        let mut s = Samples::new();
        s.push(5.0);
        assert_eq!(s.percentile(0.5), Some(5.0));
        s.push(1.0);
        assert_eq!(s.percentile(0.0), Some(1.0));
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        Samples::new().push(f64::NAN);
    }

    #[test]
    fn jain_extremes() {
        assert_eq!(jain_index(&[]), None);
        assert_eq!(jain_index(&[0.0, 0.0]), None);
        let fair = jain_index(&[5.0, 5.0, 5.0, 5.0]).unwrap();
        assert!((fair - 1.0).abs() < 1e-12);
        let unfair = jain_index(&[1.0, 0.0, 0.0, 0.0]).unwrap();
        assert!((unfair - 0.25).abs() < 1e-12);
        // Mild variance stays high.
        let mild = jain_index(&[0.9, 1.0, 1.1, 1.0]).unwrap();
        assert!(mild > 0.99);
    }
}
