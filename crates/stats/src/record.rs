//! Experiment result records: the rows the benchmark harness prints and
//! the JSON it persists for EXPERIMENTS.md.

use dibs_json::{FromJson, Json, JsonError, ObjReader, ToJson};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One point of one series of a figure: an x value (the swept parameter)
/// and named y values (e.g. `qct_p99_ms`, `bg_fct_p99_ms`).
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesPoint {
    /// The swept parameter value.
    pub x: f64,
    /// Named metrics at this point.
    pub y: BTreeMap<String, f64>,
}

impl SeriesPoint {
    /// Creates a point at `x`.
    pub fn at(x: f64) -> Self {
        SeriesPoint {
            x,
            y: BTreeMap::new(),
        }
    }

    /// Adds a metric (builder style).
    pub fn with(mut self, key: &str, value: f64) -> Self {
        self.y.insert(key.to_string(), value);
        self
    }
}

/// A complete experiment record: identifies the figure/table, the fixed
/// parameters, and the measured series.
#[derive(Debug, Clone)]
pub struct ExperimentRecord {
    /// Experiment id, e.g. `fig08_bg_interarrival`.
    pub id: String,
    /// Human title.
    pub title: String,
    /// Name of the swept parameter (x axis).
    pub x_label: String,
    /// Fixed configuration, stringified.
    pub params: BTreeMap<String, String>,
    /// Measured points, in x order.
    pub points: Vec<SeriesPoint>,
}

impl ExperimentRecord {
    /// Creates an empty record.
    pub fn new(id: &str, title: &str, x_label: &str) -> Self {
        ExperimentRecord {
            id: id.to_string(),
            title: title.to_string(),
            x_label: x_label.to_string(),
            params: BTreeMap::new(),
            points: Vec::new(),
        }
    }

    /// Records a fixed parameter.
    pub fn param(&mut self, key: &str, value: impl ToString) -> &mut Self {
        self.params.insert(key.to_string(), value.to_string());
        self
    }

    /// Appends a measured point.
    pub fn push(&mut self, point: SeriesPoint) {
        self.points.push(point);
    }

    /// Every metric name appearing in any point, sorted.
    pub fn metric_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .points
            .iter()
            .flat_map(|p| p.y.keys().cloned())
            .collect();
        names.sort();
        names.dedup();
        names
    }

    /// Renders an aligned text table (what `sweep` prints).
    pub fn to_table(&self) -> String {
        let metrics = self.metric_names();
        let mut out = String::new();
        let _ = writeln!(out, "# {} — {}", self.id, self.title);
        for (k, v) in &self.params {
            let _ = writeln!(out, "#   {k} = {v}");
        }
        let _ = write!(out, "{:>16}", self.x_label);
        for m in &metrics {
            let _ = write!(out, " {m:>18}");
        }
        let _ = writeln!(out);
        for p in &self.points {
            let _ = write!(out, "{:>16.4}", p.x);
            for m in &metrics {
                match p.y.get(m) {
                    Some(v) => {
                        let _ = write!(out, " {v:>18.4}");
                    }
                    None => {
                        let _ = write!(out, " {:>18}", "-");
                    }
                }
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        ToJson::to_json(self).render_pretty()
    }

    /// Parses a record back from JSON.
    pub fn from_json(s: &str) -> Result<Self, JsonError> {
        FromJson::from_json(&Json::parse(s)?)
    }
}

impl ToJson for SeriesPoint {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("x".to_string(), self.x.to_json()),
            ("y".to_string(), self.y.to_json()),
        ])
    }
}

impl FromJson for SeriesPoint {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let mut r = ObjReader::new(v, "SeriesPoint")?;
        let p = SeriesPoint {
            x: r.required("x")?,
            y: r.required("y")?,
        };
        r.deny_unknown()?;
        Ok(p)
    }
}

impl ToJson for ExperimentRecord {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("id".to_string(), self.id.to_json()),
            ("title".to_string(), self.title.to_json()),
            ("x_label".to_string(), self.x_label.to_json()),
            ("params".to_string(), self.params.to_json()),
            ("points".to_string(), self.points.to_json()),
        ])
    }
}

impl FromJson for ExperimentRecord {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let mut r = ObjReader::new(v, "ExperimentRecord")?;
        let rec = ExperimentRecord {
            id: r.required("id")?,
            title: r.required("title")?,
            x_label: r.required("x_label")?,
            params: r.required("params")?,
            points: r.required("points")?,
        };
        r.deny_unknown()?;
        Ok(rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ExperimentRecord {
        let mut r = ExperimentRecord::new("fig09", "Variable query arrival rate", "qps");
        r.param("incast_degree", 40).param("response_kb", 20);
        r.push(
            SeriesPoint::at(300.0)
                .with("qct_p99_ms", 12.5)
                .with("fct_p99_ms", 2.1),
        );
        r.push(
            SeriesPoint::at(500.0)
                .with("qct_p99_ms", 13.0)
                .with("fct_p99_ms", 2.2),
        );
        r
    }

    #[test]
    fn json_roundtrip() {
        let r = sample();
        let back = ExperimentRecord::from_json(&r.to_json()).unwrap();
        assert_eq!(back.id, "fig09");
        assert_eq!(back.points, r.points);
        assert_eq!(back.params, r.params);
    }

    #[test]
    fn table_renders_all_columns() {
        let t = sample().to_table();
        assert!(t.contains("qct_p99_ms"));
        assert!(t.contains("fct_p99_ms"));
        assert!(t.contains("300.0000"));
        assert!(t.contains("incast_degree = 40"));
    }

    #[test]
    fn missing_metric_renders_dash() {
        let mut r = ExperimentRecord::new("x", "t", "p");
        r.push(SeriesPoint::at(1.0).with("a", 1.0));
        r.push(SeriesPoint::at(2.0).with("b", 2.0));
        let t = r.to_table();
        assert!(t.contains('-'));
        assert_eq!(r.metric_names(), vec!["a".to_string(), "b".to_string()]);
    }
}
