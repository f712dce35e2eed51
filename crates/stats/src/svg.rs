//! Minimal dependency-free SVG line charts for the experiment records.
//!
//! Every `ExperimentRecord` can render itself as a multi-series line chart
//! (one series per metric), close enough to the paper's gnuplot figures for
//! eyeball comparison. The renderer supports linear and log-10 y axes —
//! several paper figures (7, 12) are log-scale.

use crate::record::ExperimentRecord;
use std::fmt::Write as _;

/// Chart dimensions and margins, in SVG user units.
const WIDTH: f64 = 760.0;
const HEIGHT: f64 = 440.0;
const MARGIN_L: f64 = 70.0;
const MARGIN_R: f64 = 210.0; // Room for the legend.
const MARGIN_T: f64 = 40.0;
const MARGIN_B: f64 = 55.0;

/// A qualitative 10-color palette (Tableau-like).
const COLORS: [&str; 10] = [
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f", "#edc948", "#b07aa1", "#ff9da7",
    "#9c755f", "#bab0ac",
];

/// One plotted series.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub name: String,
    /// `(x, y)` points in x order; non-finite y values break the line.
    pub points: Vec<(f64, f64)>,
}

/// A multi-series line chart.
#[derive(Debug, Clone)]
pub struct LineChart {
    /// Chart title.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// Log-10 y axis (paper figures 7/12/14 are log-scale).
    pub log_y: bool,
    /// The series to draw.
    pub series: Vec<Series>,
}

impl LineChart {
    /// Builds a chart from an experiment record: one series per metric.
    pub fn from_record(record: &ExperimentRecord, y_label: &str, log_y: bool) -> Self {
        let series = record
            .metric_names()
            .into_iter()
            .map(|m| Series {
                points: record
                    .points
                    .iter()
                    .filter_map(|p| p.y.get(&m).map(|&v| (p.x, v)))
                    .collect(),
                name: m,
            })
            .collect();
        LineChart {
            title: format!("{} — {}", record.id, record.title),
            x_label: record.x_label.clone(),
            y_label: y_label.to_string(),
            log_y,
            series,
        }
    }

    fn bounds(&self) -> Option<(f64, f64, f64, f64)> {
        let mut xs: Vec<f64> = Vec::new();
        let mut ys: Vec<f64> = Vec::new();
        for s in &self.series {
            for &(x, y) in &s.points {
                if x.is_finite() {
                    xs.push(x);
                }
                if y.is_finite() && (!self.log_y || y > 0.0) {
                    ys.push(y);
                }
            }
        }
        if xs.is_empty() || ys.is_empty() {
            return None;
        }
        let (x0, x1) = (
            xs.iter().cloned().fold(f64::INFINITY, f64::min),
            xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        );
        let (y0, y1) = (
            ys.iter().cloned().fold(f64::INFINITY, f64::min),
            ys.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        );
        Some((x0, x1, y0, y1))
    }

    /// Renders the chart to an SVG document.
    ///
    /// Charts with no finite data render a placeholder note instead of
    /// panicking.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            r#"<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif">"#
        );
        let _ = write!(
            out,
            r#"<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>"#
        );
        let _ = write!(
            out,
            r#"<text x="{}" y="22" font-size="15" text-anchor="middle">{}</text>"#,
            (MARGIN_L + WIDTH - MARGIN_R) / 2.0,
            xml_escape(&self.title)
        );

        let Some((x0, x1, mut y0, mut y1)) = self.bounds() else {
            let _ = write!(
                out,
                r#"<text x="{}" y="{}" font-size="13" text-anchor="middle">no data</text></svg>"#,
                WIDTH / 2.0,
                HEIGHT / 2.0
            );
            return out;
        };
        // Pad degenerate ranges.
        let x_span = if x1 > x0 { x1 - x0 } else { 1.0 };
        if self.log_y {
            if y1 <= y0 {
                y1 = y0 * 10.0;
            }
        } else {
            if y1 <= y0 {
                y1 = y0 + 1.0;
            }
            y0 = y0.min(0.0).min(y0); // Anchor linear charts at <= 0 when data is positive.
            if y0 > 0.0 {
                y0 = 0.0;
            }
        }

        let plot_w = WIDTH - MARGIN_L - MARGIN_R;
        let plot_h = HEIGHT - MARGIN_T - MARGIN_B;
        let sx = |x: f64| MARGIN_L + (x - x0) / x_span * plot_w;
        let sy = |y: f64| -> f64 {
            let t = if self.log_y {
                (y.ln() - y0.ln()) / (y1.ln() - y0.ln())
            } else {
                (y - y0) / (y1 - y0)
            };
            MARGIN_T + (1.0 - t.clamp(0.0, 1.0)) * plot_h
        };

        // Axes.
        let _ = write!(
            out,
            r#"<line x1="{MARGIN_L}" y1="{}" x2="{}" y2="{}" stroke="black"/>"#,
            HEIGHT - MARGIN_B,
            WIDTH - MARGIN_R,
            HEIGHT - MARGIN_B
        );
        let _ = write!(
            out,
            r#"<line x1="{MARGIN_L}" y1="{MARGIN_T}" x2="{MARGIN_L}" y2="{}" stroke="black"/>"#,
            HEIGHT - MARGIN_B
        );
        // X ticks (5) and Y ticks (5 or decades).
        for i in 0..=4 {
            let x = x0 + x_span * f64::from(i) / 4.0;
            let px = sx(x);
            let _ = write!(
                out,
                r#"<line x1="{px}" y1="{}" x2="{px}" y2="{}" stroke="black"/><text x="{px}" y="{}" font-size="11" text-anchor="middle">{}</text>"#,
                HEIGHT - MARGIN_B,
                HEIGHT - MARGIN_B + 5.0,
                HEIGHT - MARGIN_B + 18.0,
                fmt_tick(x)
            );
        }
        let y_ticks: Vec<f64> = if self.log_y {
            let mut t = Vec::new();
            let mut d = 10f64.powf(y0.log10().floor());
            while d <= y1 * 1.0001 {
                if d >= y0 * 0.9999 {
                    t.push(d);
                }
                d *= 10.0;
            }
            if t.is_empty() {
                t.push(y0);
                t.push(y1);
            }
            t
        } else {
            (0..=4)
                .map(|i| y0 + (y1 - y0) * f64::from(i) / 4.0)
                .collect()
        };
        for &y in &y_ticks {
            let py = sy(y);
            let _ = write!(
                out,
                r#"<line x1="{}" y1="{py}" x2="{MARGIN_L}" y2="{py}" stroke="black"/><text x="{}" y="{}" font-size="11" text-anchor="end">{}</text>"#,
                MARGIN_L - 5.0,
                MARGIN_L - 8.0,
                py + 4.0,
                fmt_tick(y)
            );
            // Light gridline.
            let _ = write!(
                out,
                r##"<line x1="{MARGIN_L}" y1="{py}" x2="{}" y2="{py}" stroke="#dddddd" stroke-width="0.5"/>"##,
                WIDTH - MARGIN_R
            );
        }
        // Axis labels.
        let _ = write!(
            out,
            r#"<text x="{}" y="{}" font-size="13" text-anchor="middle">{}</text>"#,
            (MARGIN_L + WIDTH - MARGIN_R) / 2.0,
            HEIGHT - 12.0,
            xml_escape(&self.x_label)
        );
        let _ = write!(
            out,
            r#"<text x="18" y="{}" font-size="13" text-anchor="middle" transform="rotate(-90 18 {})">{}</text>"#,
            (MARGIN_T + HEIGHT - MARGIN_B) / 2.0,
            (MARGIN_T + HEIGHT - MARGIN_B) / 2.0,
            xml_escape(&self.y_label)
        );

        // Series.
        for (i, s) in self.series.iter().enumerate() {
            let color = COLORS[i % COLORS.len()];
            let mut path = String::new();
            let mut pen_down = false;
            for &(x, y) in &s.points {
                if !y.is_finite() || (self.log_y && y <= 0.0) {
                    pen_down = false;
                    continue;
                }
                let (px, py) = (sx(x), sy(y));
                let _ = write!(path, "{}{px:.1},{py:.1} ", if pen_down { "L" } else { "M" });
                pen_down = true;
                let _ = write!(
                    out,
                    r#"<circle cx="{px:.1}" cy="{py:.1}" r="3" fill="{color}"/>"#
                );
            }
            let _ = write!(
                out,
                r#"<path d="{}" fill="none" stroke="{color}" stroke-width="1.8"/>"#,
                path.trim_end()
            );
            // Legend entry.
            let ly = MARGIN_T + 16.0 * i as f64;
            let lx = WIDTH - MARGIN_R + 12.0;
            let _ = write!(
                out,
                r#"<line x1="{lx}" y1="{ly}" x2="{}" y2="{ly}" stroke="{color}" stroke-width="3"/><text x="{}" y="{}" font-size="11">{}</text>"#,
                lx + 18.0,
                lx + 24.0,
                ly + 4.0,
                xml_escape(&s.name)
            );
        }
        out.push_str("</svg>");
        out
    }
}

fn fmt_tick(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 10_000.0 || v.abs() < 0.01 {
        format!("{v:.0e}")
    } else if v.fract().abs() < 1e-9 {
        format!("{v:.0}")
    } else {
        format!("{v:.2}")
    }
}

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::SeriesPoint;

    fn sample_chart(log_y: bool) -> LineChart {
        LineChart {
            title: "t".into(),
            x_label: "x".into(),
            y_label: "y".into(),
            log_y,
            series: vec![
                Series {
                    name: "a".into(),
                    points: vec![(1.0, 10.0), (2.0, 20.0), (3.0, 15.0)],
                },
                Series {
                    name: "b".into(),
                    points: vec![(1.0, 5.0), (2.0, f64::NAN), (3.0, 40.0)],
                },
            ],
        }
    }

    #[test]
    fn renders_valid_svg_linear_and_log() {
        for log_y in [false, true] {
            let svg = sample_chart(log_y).render();
            assert!(svg.starts_with("<svg"));
            assert!(svg.ends_with("</svg>"));
            // Two series paths, legend labels present.
            assert_eq!(svg.matches("<path").count(), 2);
            assert!(svg.contains(">a</text>"));
            assert!(svg.contains(">b</text>"));
            // 5 finite points drawn as circles.
            assert_eq!(svg.matches("<circle").count(), 5);
        }
    }

    #[test]
    fn nan_breaks_the_line() {
        let svg = sample_chart(false).render();
        // Series b has a NaN gap, so its path contains two `M` segments and
        // no `L` joining across the gap (3 M total: one for series a, two
        // for series b).
        assert_eq!(svg.matches('M').count(), 3);
    }

    #[test]
    fn empty_chart_renders_placeholder() {
        let c = LineChart {
            title: "empty".into(),
            x_label: "x".into(),
            y_label: "y".into(),
            log_y: false,
            series: vec![],
        };
        let svg = c.render();
        assert!(svg.contains("no data"));
    }

    #[test]
    fn from_record_one_series_per_metric() {
        let mut r = ExperimentRecord::new("id", "title", "x");
        r.push(SeriesPoint::at(1.0).with("m1", 2.0).with("m2", 3.0));
        r.push(SeriesPoint::at(2.0).with("m1", 4.0).with("m2", 5.0));
        let c = LineChart::from_record(&r, "ms", false);
        assert_eq!(c.series.len(), 2);
        assert_eq!(c.series[0].points.len(), 2);
        let svg = c.render();
        assert!(svg.contains("m1") && svg.contains("m2"));
    }

    #[test]
    fn log_axis_rejects_nonpositive() {
        let c = LineChart {
            title: "log".into(),
            x_label: "x".into(),
            y_label: "y".into(),
            log_y: true,
            series: vec![Series {
                name: "s".into(),
                points: vec![(1.0, 0.0), (2.0, 100.0), (3.0, 10.0)],
            }],
        };
        let svg = c.render();
        // Only the two positive points are drawn.
        assert_eq!(svg.matches("<circle").count(), 2);
    }

    #[test]
    fn escaping() {
        assert_eq!(xml_escape("a<b&c>d"), "a&lt;b&amp;c&gt;d");
        assert_eq!(fmt_tick(0.0), "0");
        assert_eq!(fmt_tick(42.0), "42");
        assert_eq!(fmt_tick(120000.0), "1e5");
    }
}
