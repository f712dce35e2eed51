//! A `(time, value)` series collector.

use dibs_engine::time::SimTime;

/// A `(time, value)` series.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    /// Samples in insertion (time) order, seconds + value.
    pub points: Vec<(f64, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a sample.
    pub fn push(&mut self, t: SimTime, v: f64) {
        self.points.push((t.as_secs_f64(), v));
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Maximum value, if any.
    pub fn max_value(&self) -> Option<f64> {
        self.points.iter().map(|&(_, v)| v).fold(None, |acc, v| {
            Some(match acc {
                None => v,
                Some(m) => m.max(v),
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_accumulates() {
        let mut ts = TimeSeries::new();
        assert!(ts.is_empty());
        ts.push(SimTime::from_millis(1), 3.0);
        ts.push(SimTime::from_millis(2), 5.0);
        ts.push(SimTime::from_millis(3), 4.0);
        assert_eq!(ts.len(), 3);
        assert_eq!(ts.max_value(), Some(5.0));
        assert_eq!(ts.points[0], (0.001, 3.0));
    }

    #[test]
    fn empty_series_max() {
        assert_eq!(TimeSeries::new().max_value(), None);
    }

    #[test]
    fn empty_series_is_empty_and_default() {
        let ts = TimeSeries::default();
        assert!(ts.is_empty());
        assert_eq!(ts.len(), 0);
        assert_eq!(ts.points, Vec::new());
    }

    #[test]
    fn single_sample_series() {
        let mut ts = TimeSeries::new();
        ts.push(SimTime::from_micros(250), 7.5);
        assert!(!ts.is_empty());
        assert_eq!(ts.len(), 1);
        assert_eq!(ts.max_value(), Some(7.5));
        assert_eq!(ts.points[0], (0.000_25, 7.5));
    }

    #[test]
    fn max_handles_negative_values() {
        let mut ts = TimeSeries::new();
        ts.push(SimTime::ZERO, -3.0);
        ts.push(SimTime::from_micros(1), -1.5);
        assert_eq!(ts.max_value(), Some(-1.5));
    }
}
