//! Report rendering: the series behind each paper figure, as aligned text
//! tables, CSV and JSON.

use std::fmt::Write as _;

use dcrd_sim::stats::{Histogram, Ratio, Welford};

use crate::summary::{AggregateMetrics, RunMetrics};

/// Which of the paper's metrics a column reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Delivery ratio (Figs. 2a, 3a, 4a, 5a).
    Delivery,
    /// QoS delivery ratio (Figs. 2b, 3b, 4b, 5b, 6, 8).
    Qos,
    /// Packets sent per subscriber (Figs. 2c, 3c, 4c, 5c).
    Traffic,
}

impl MetricKind {
    /// Human-readable column title.
    #[must_use]
    pub fn title(self) -> &'static str {
        match self {
            MetricKind::Delivery => "Delivery Ratio",
            MetricKind::Qos => "QoS Delivery Ratio",
            MetricKind::Traffic => "Packets/Subscriber",
        }
    }

    /// Extracts the metric from an aggregate.
    #[must_use]
    pub fn value(self, agg: &AggregateMetrics) -> f64 {
        match self {
            MetricKind::Delivery => agg.delivery_ratio(),
            MetricKind::Qos => agg.qos_delivery_ratio(),
            MetricKind::Traffic => agg.packets_per_subscriber(),
        }
    }
}

/// One x-position of a figure: the swept parameter value plus the pooled
/// metrics of every strategy at that value.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesPoint {
    /// The swept parameter value (e.g. `Pf`).
    pub x: f64,
    /// One aggregate per strategy, in a fixed strategy order.
    pub strategies: Vec<AggregateMetrics>,
}

/// A complete figure series: the sweep axis plus all points.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureSeries {
    /// Figure identifier (e.g. "fig2").
    pub id: String,
    /// x-axis label (e.g. "Failure Probability").
    pub x_label: String,
    /// Points in ascending x order.
    pub points: Vec<SeriesPoint>,
}

impl FigureSeries {
    /// Creates an empty series.
    #[must_use]
    pub fn new(id: impl Into<String>, x_label: impl Into<String>) -> Self {
        FigureSeries {
            id: id.into(),
            x_label: x_label.into(),
            points: Vec::new(),
        }
    }

    /// The strategy names, taken from the first point.
    #[must_use]
    pub fn strategy_names(&self) -> Vec<&str> {
        self.points
            .first()
            .map(|p| p.strategies.iter().map(AggregateMetrics::name).collect())
            .unwrap_or_default()
    }

    /// Sums a per-aggregate counter over every point of the series — over
    /// every arm, or only over the arm labelled `arm`.
    #[must_use]
    pub fn total(&self, arm: Option<&str>, count: impl Fn(&AggregateMetrics) -> u64) -> u64 {
        self.points
            .iter()
            .flat_map(|p| &p.strategies)
            .filter(|agg| arm.is_none_or(|label| agg.name() == label))
            .map(count)
            .sum()
    }

    /// Renders one metric as an aligned text table, one row per x value and
    /// one column per strategy (the shape of each sub-figure in the paper).
    #[must_use]
    pub fn render_table(&self, metric: MetricKind) -> String {
        let names = self.strategy_names();
        let widths: Vec<usize> = names.iter().map(|n| n.len().max(10) + 2).collect();
        let mut out = String::new();
        out.push_str(&format!("# {} — {}\n", self.id, metric.title()));
        out.push_str(&format!("{:>14}", self.x_label));
        for (n, w) in names.iter().zip(&widths) {
            out.push_str(&format!("{n:>w$}"));
        }
        out.push('\n');
        for p in &self.points {
            out.push_str(&format!("{:>14}", trim_float(p.x)));
            for (agg, w) in p.strategies.iter().zip(&widths) {
                out.push_str(&format!("{:>w$.4}", metric.value(agg)));
            }
            out.push('\n');
        }
        out
    }

    /// Renders all three metrics (or just `metrics`) as CSV with columns
    /// `x,strategy,delivery,qos,traffic,runs,pairs`.
    #[must_use]
    pub fn render_csv(&self) -> String {
        let mut out = String::from(
            "x,strategy,delivery_ratio,qos_delivery_ratio,packets_per_subscriber,runs,pairs\n",
        );
        for p in &self.points {
            for agg in &p.strategies {
                out.push_str(&format!(
                    "{},{},{:.6},{:.6},{:.6},{},{}\n",
                    trim_float(p.x),
                    agg.name(),
                    agg.delivery_ratio(),
                    agg.qos_delivery_ratio(),
                    agg.packets_per_subscriber(),
                    agg.runs(),
                    agg.pairs(),
                ));
            }
        }
        out
    }
}

/// Renders a CDF series (Fig. 7) as an aligned text table.
#[must_use]
pub fn render_cdf(label: &str, series: &[(f64, f64)]) -> String {
    let mut out = format!("# {label}\n{:>12}{:>12}\n", "x", "CDF");
    for (x, y) in series {
        out.push_str(&format!("{x:>12.3}{y:>12.4}\n"));
    }
    out
}

/// Renders figure series as pretty-printed JSON: one series as an object,
/// several as an array. Fields appear in declaration order with a
/// two-space indent, and absent or non-finite numbers are `null` — the
/// layout of the committed `results/*.json`, which a test pins down to the
/// spelling of every float.
#[must_use]
pub fn to_json(series: &[FigureSeries]) -> String {
    let value = match series {
        [one] => figure(one),
        all => Json::Array(all.iter().map(figure).collect()),
    };
    let mut out = String::new();
    value.write(&mut out, 0);
    out
}

/// A JSON document borrowing its strings from the series it describes.
enum Json<'a> {
    Str(&'a str),
    Int(u64),
    /// `None` and non-finite values are written as `null`.
    Float(Option<f64>),
    Array(Vec<Json<'a>>),
    Object(Vec<(&'static str, Json<'a>)>),
}

impl Json<'_> {
    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Str(s) => write_str(out, s),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Float(x) => write_f64(out, *x),
            Json::Array(items) => {
                write_entries(out, depth, ('[', ']'), items.iter().map(|v| (None, v)));
            }
            Json::Object(fields) => {
                let entries = fields.iter().map(|(k, v)| (Some(*k), v));
                write_entries(out, depth, ('{', '}'), entries);
            }
        }
    }
}

/// One entry per line, indented one level deeper than the brackets; an
/// empty container stays on one line.
fn write_entries<'v, 'a: 'v>(
    out: &mut String,
    depth: usize,
    (open, close): (char, char),
    entries: impl Iterator<Item = (Option<&'v str>, &'v Json<'a>)>,
) {
    out.push(open);
    let mut empty = true;
    for (key, value) in entries {
        out.push_str(if empty { "\n" } else { ",\n" });
        empty = false;
        out.push_str(&"  ".repeat(depth + 1));
        if let Some(key) = key {
            write_str(out, key);
            out.push_str(": ");
        }
        value.write(out, depth + 1);
    }
    if !empty {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    }
    out.push(close);
}

/// A JSON string literal: quotes, backslashes and control characters
/// escaped, everything else verbatim.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The shortest text that reads back as `x`: plain decimal with at least
/// one fractional digit for 0 and for magnitudes in `[1e-5, 1e16)`,
/// scientific otherwise; `null` when `x` is absent or not finite.
fn write_f64(out: &mut String, x: Option<f64>) {
    let Some(x) = x.filter(|x| x.is_finite()) else {
        out.push_str("null");
        return;
    };
    let magnitude = x.abs();
    if magnitude == 0.0 || (1e-5..1e16).contains(&magnitude) {
        let start = out.len();
        let _ = write!(out, "{x}");
        if !out[start..].contains('.') {
            out.push_str(".0");
        }
    } else {
        let _ = write!(out, "{x:e}");
    }
}

fn figure(s: &FigureSeries) -> Json<'_> {
    let points = s.points.iter().map(|p| {
        Json::Object(vec![
            ("x", Json::Float(Some(p.x))),
            (
                "strategies",
                Json::Array(p.strategies.iter().map(aggregate).collect()),
            ),
        ])
    });
    Json::Object(vec![
        ("id", Json::Str(&s.id)),
        ("x_label", Json::Str(&s.x_label)),
        ("points", Json::Array(points.collect())),
    ])
}

fn aggregate(agg: &AggregateMetrics) -> Json<'_> {
    // Destructured in full so that a new field cannot be left out.
    let AggregateMetrics {
        name,
        runs,
        delivery_spread,
        qos_spread,
        traffic_spread,
        pooled,
    } = agg;
    let RunMetrics {
        delivered,
        on_time,
        data_sends,
        messages: _,
        gave_up,
        lateness,
        delay_ms,
        audit_violations,
        sheds,
        doomed_sheds,
        in_slack,
        rumors_sent,
        anti_entropy_rounds,
        gossip_deltas_applied,
        stale_reconciliations,
    } = pooled;
    Json::Object(vec![
        ("name", Json::Str(name)),
        ("runs", Json::Int(u64::from(*runs))),
        ("delivered", ratio(delivered)),
        ("on_time", ratio(on_time)),
        ("data_sends", Json::Int(*data_sends)),
        ("gave_up", Json::Int(*gave_up)),
        ("lateness", histogram(lateness)),
        ("delay_ms", welford(delay_ms)),
        ("delivery_spread", welford(delivery_spread)),
        ("qos_spread", welford(qos_spread)),
        ("traffic_spread", welford(traffic_spread)),
        ("audit_violations", Json::Int(*audit_violations)),
        ("sheds", Json::Int(*sheds)),
        ("doomed_sheds", Json::Int(*doomed_sheds)),
        ("in_slack", ratio(in_slack)),
        ("rumors_sent", Json::Int(*rumors_sent)),
        ("anti_entropy_rounds", Json::Int(*anti_entropy_rounds)),
        ("gossip_deltas_applied", Json::Int(*gossip_deltas_applied)),
        ("stale_reconciliations", Json::Int(*stale_reconciliations)),
    ])
}

fn ratio(r: &Ratio) -> Json<'static> {
    Json::Object(vec![
        ("hits", Json::Int(r.hits())),
        ("total", Json::Int(r.total())),
    ])
}

fn welford(w: &Welford) -> Json<'static> {
    Json::Object(vec![
        ("count", Json::Int(w.count())),
        ("mean", Json::Float(Some(w.mean()))),
        ("m2", Json::Float(Some(w.m2()))),
        ("min", Json::Float(w.min())),
        ("max", Json::Float(w.max())),
    ])
}

fn histogram(h: &Histogram) -> Json<'_> {
    Json::Object(vec![
        ("lo", Json::Float(Some(h.lo()))),
        ("hi", Json::Float(Some(h.hi()))),
        (
            "buckets",
            Json::Array(h.buckets().iter().map(|&n| Json::Int(n)).collect()),
        ),
        ("overflow", Json::Int(h.overflow())),
        ("underflow", Json::Int(h.underflow())),
        ("count", Json::Int(h.count())),
    ])
}

fn trim_float(x: f64) -> String {
    if (x - x.round()).abs() < 1e-9 && x.abs() < 1e15 {
        format!("{}", x.round() as i64)
    } else {
        let s = format!("{x}");
        if s.len() > 10 {
            format!("{x:.6}")
        } else {
            s
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_point(x: f64) -> SeriesPoint {
        let mut a = AggregateMetrics::new("DCRD");
        let b = AggregateMetrics::new("R-Tree");
        // Leave empty; values are zero but structure is exercised.
        let _ = &mut a;
        SeriesPoint {
            x,
            strategies: vec![a, b],
        }
    }

    #[test]
    fn table_contains_header_and_rows() {
        let mut s = FigureSeries::new("fig2", "Failure Probability");
        s.points.push(dummy_point(0.0));
        s.points.push(dummy_point(0.02));
        let t = s.render_table(MetricKind::Delivery);
        assert!(t.contains("fig2"));
        assert!(t.contains("Delivery Ratio"));
        assert!(t.contains("DCRD"));
        assert!(t.contains("R-Tree"));
        assert_eq!(t.lines().count(), 4, "title + header + 2 rows");
        assert_eq!(s.strategy_names(), vec!["DCRD", "R-Tree"]);
    }

    #[test]
    fn total_sums_all_arms_or_one() {
        use dcrd_pubsub::runtime::DeliveryLog;
        let run = |sheds| {
            let mut log = DeliveryLog::default();
            log.sheds = sheds;
            RunMetrics::from_log(&log)
        };
        let mut s = FigureSeries::new("study", "x");
        for x in [0.0, 1.0] {
            let mut point = dummy_point(x);
            point.strategies[0].add(&run(2));
            point.strategies[1].add(&run(5));
            point.strategies[1].add(&run(1));
            s.points.push(point);
        }
        assert_eq!(s.total(None, |a| a.sheds()), 16);
        assert_eq!(s.total(Some("DCRD"), |a| a.sheds()), 4);
        assert_eq!(s.total(Some("R-Tree"), |a| u64::from(a.runs())), 4);
        assert_eq!(s.total(Some("absent"), |a| a.sheds()), 0);
    }

    #[test]
    fn csv_has_row_per_strategy_per_point() {
        let mut s = FigureSeries::new("fig3", "Pf");
        s.points.push(dummy_point(0.0));
        s.points.push(dummy_point(0.1));
        let csv = s.render_csv();
        assert_eq!(csv.lines().count(), 1 + 4);
        assert!(csv.starts_with("x,strategy,"));
        assert!(csv.contains("0.1,R-Tree"));
    }

    #[test]
    fn metric_kind_accessors() {
        let agg = AggregateMetrics::new("x");
        for kind in [MetricKind::Delivery, MetricKind::Qos, MetricKind::Traffic] {
            assert_eq!(kind.value(&agg), 0.0);
            assert!(!kind.title().is_empty());
        }
    }

    #[test]
    fn cdf_rendering() {
        let out = render_cdf("fig7", &[(1.0, 0.0), (1.5, 0.7)]);
        assert!(out.contains("fig7"));
        assert_eq!(out.lines().count(), 4);
        assert!(out.contains("0.7000"));
    }

    #[test]
    fn float_trimming() {
        assert_eq!(trim_float(3.0), "3");
        assert_eq!(trim_float(0.02), "0.02");
        assert_eq!(trim_float(1.0 / 3.0), "0.333333");
    }

    fn float(x: f64) -> String {
        let mut out = String::new();
        write_f64(&mut out, Some(x));
        out
    }

    #[test]
    fn floats_are_spelled_shortest_with_a_fraction_or_exponent() {
        for (x, text) in [
            (0.0, "0.0"),
            (-0.0, "-0.0"),
            (1.0, "1.0"),
            (0.1, "0.1"),
            (-2.5, "-2.5"),
            (1e-5, "0.00001"),
            (9.99e-6, "9.99e-6"),
            (1e15, "1000000000000000.0"),
            (1e16, "1e16"),
            (1.5e300, "1.5e300"),
            (f64::MIN_POSITIVE, "2.2250738585072014e-308"),
        ] {
            assert_eq!(float(x), text, "{x:?}");
        }
        for x in [Some(f64::NAN), Some(f64::INFINITY), None] {
            let mut out = String::new();
            write_f64(&mut out, x);
            assert_eq!(out, "null");
        }
    }

    #[test]
    fn strings_escape_quotes_backslashes_and_controls() {
        let mut out = String::new();
        write_str(&mut out, "a\"b\\c\nd\te\u{1}f\u{8}g\u{c}h\ré—");
        assert_eq!(out, r#""a\"b\\c\nd\te\u0001f\bg\fh\ré—""#);
    }

    /// Number tokens (outside string literals) of a JSON text.
    fn number_tokens(text: &str) -> Vec<&str> {
        let mut tokens = Vec::new();
        let (mut in_string, mut escaped, mut start) = (false, false, None);
        for (i, c) in text.char_indices() {
            if in_string {
                match c {
                    _ if escaped => escaped = false,
                    '\\' => escaped = true,
                    '"' => in_string = false,
                    _ => {}
                }
                continue;
            }
            let numeric = c.is_ascii_alphanumeric() || matches!(c, '-' | '+' | '.');
            match start {
                None if c.is_ascii_digit() || c == '-' => start = Some(i),
                Some(s) if !numeric => {
                    tokens.push(&text[s..i]);
                    start = None;
                }
                _ => {}
            }
            in_string = c == '"';
        }
        tokens
    }

    #[test]
    fn floats_match_the_committed_results() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
        let mut files = 0;
        let mut floats = 0;
        for entry in std::fs::read_dir(dir).expect("results/ is readable") {
            let path = entry.expect("directory entry").path();
            if path.extension().is_none_or(|e| e != "json") {
                continue;
            }
            files += 1;
            let text = std::fs::read_to_string(&path).expect("readable");
            for token in number_tokens(&text) {
                if !token.contains(['.', 'e', 'E']) {
                    continue;
                }
                floats += 1;
                let x: f64 = token.parse().expect("a float");
                assert_eq!(float(x), token, "in {}", path.display());
            }
        }
        assert!(files > 0 && floats > 0, "{files} files, {floats} floats");
    }

    #[test]
    fn one_series_is_written_as_an_object() {
        let mut agg = AggregateMetrics::new("DCRD");
        agg.runs = 1;
        agg.pooled.delivered.record(true);
        agg.pooled.delivered.record(true);
        agg.pooled.delivered.record(false);
        agg.pooled.data_sends = 7;
        agg.pooled.lateness = Histogram::new(1.0, 2.0, 2);
        agg.pooled.lateness.push(1.25);
        agg.pooled.lateness.push(7.0);
        agg.pooled.delay_ms.push(2.0);
        agg.pooled.delay_ms.push(4.0);
        let mut s = FigureSeries::new("golden", "Failure \"Pf\"");
        s.points.push(SeriesPoint {
            x: 2.5e-6,
            strategies: vec![agg],
        });
        let empty_welford = r#"{
            "count": 0,
            "mean": 0.0,
            "m2": 0.0,
            "min": null,
            "max": null
          }"#;
        let expected = format!(
            r#"{{
  "id": "golden",
  "x_label": "Failure \"Pf\"",
  "points": [
    {{
      "x": 2.5e-6,
      "strategies": [
        {{
          "name": "DCRD",
          "runs": 1,
          "delivered": {{
            "hits": 2,
            "total": 3
          }},
          "on_time": {{
            "hits": 0,
            "total": 0
          }},
          "data_sends": 7,
          "gave_up": 0,
          "lateness": {{
            "lo": 1.0,
            "hi": 2.0,
            "buckets": [
              1,
              0
            ],
            "overflow": 1,
            "underflow": 0,
            "count": 2
          }},
          "delay_ms": {{
            "count": 2,
            "mean": 3.0,
            "m2": 2.0,
            "min": 2.0,
            "max": 4.0
          }},
          "delivery_spread": {empty_welford},
          "qos_spread": {empty_welford},
          "traffic_spread": {empty_welford},
          "audit_violations": 0,
          "sheds": 0,
          "doomed_sheds": 0,
          "in_slack": {{
            "hits": 0,
            "total": 0
          }},
          "rumors_sent": 0,
          "anti_entropy_rounds": 0,
          "gossip_deltas_applied": 0,
          "stale_reconciliations": 0
        }}
      ]
    }}
  ]
}}"#
        );
        assert_eq!(to_json(std::slice::from_ref(&s)), expected);
    }

    #[test]
    fn several_series_are_written_as_an_array() {
        let series = [FigureSeries::new("a", "x"), FigureSeries::new("b", "y")];
        let expected = r#"[
  {
    "id": "a",
    "x_label": "x",
    "points": []
  },
  {
    "id": "b",
    "x_label": "y",
    "points": []
  }
]"#;
        assert_eq!(to_json(&series), expected);
        assert_eq!(to_json(&[]), "[]");
    }

    #[test]
    fn empty_series_is_harmless() {
        let s = FigureSeries::new("empty", "x");
        assert!(s.strategy_names().is_empty());
        let t = s.render_table(MetricKind::Qos);
        assert!(t.contains("empty"));
        assert_eq!(s.render_csv().lines().count(), 1);
    }
}
