//! Exposition: rendering a registry snapshot as Prometheus text or JSON.
//!
//! The crate is dependency-free, so JSON is emitted by hand here; the
//! schema is intentionally flat (arrays of samples) so downstream tooling
//! does not need to know metric names in advance.

use std::fmt::Write as _;

/// One counter or gauge sample in a [`TelemetrySnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct NumberSample {
    /// Metric family name.
    pub name: String,
    /// Rendered label pairs (empty for unlabeled).
    pub labels: String,
    /// Family help text.
    pub help: String,
    /// Sample value.
    pub value: f64,
}

/// One histogram sample in a [`TelemetrySnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSample {
    /// Metric family name.
    pub name: String,
    /// Rendered label pairs (empty for unlabeled).
    pub labels: String,
    /// Family help text.
    pub help: String,
    /// Per-bucket growth factor (bucket `i` upper bound = `growth^i`).
    pub growth: f64,
    /// Per-bucket observation counts.
    pub counts: Vec<u64>,
    /// Sum of all observed values (histogram units).
    pub sum: f64,
}

impl HistogramSample {
    /// Total observations across all buckets.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// Point-in-time copy of every metric series in a registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySnapshot {
    /// Integer and float counter samples, sorted by (name, labels).
    pub counters: Vec<NumberSample>,
    /// Gauge samples, sorted by (name, labels).
    pub gauges: Vec<NumberSample>,
    /// Histogram samples, sorted by (name, labels).
    pub histograms: Vec<HistogramSample>,
}

fn series(name: &str, labels: &str) -> String {
    if labels.is_empty() {
        name.to_string()
    } else {
        format!("{name}{{{labels}}}")
    }
}

/// Merges extra label pairs onto an existing rendered label set.
fn with_label(labels: &str, extra: &str) -> String {
    if labels.is_empty() {
        extra.to_string()
    } else {
        format!("{labels},{extra}")
    }
}

fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else {
        // Rust's f64 Display is shortest-round-trip: integers print bare
        // ("42"), fractions keep full precision.
        format!("{v}")
    }
}

impl TelemetrySnapshot {
    /// Renders the snapshot in the Prometheus text exposition format.
    ///
    /// Histograms are rendered with **cumulative** `_bucket{le=...}` series
    /// (only non-empty buckets plus the mandatory `+Inf`), `le` bounds
    /// being the log-bucket upper bounds `growth^i` in the histogram's
    /// native unit, followed by `_sum` and `_count`.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_family = "";
        let number = |out: &mut String, kind: &str, s: &NumberSample, last: &mut &str| {
            if s.name != *last {
                let _ = writeln!(out, "# HELP {} {}", s.name, s.help);
                let _ = writeln!(out, "# TYPE {} {kind}", s.name);
            }
            let _ = writeln!(out, "{} {}", series(&s.name, &s.labels), fmt_value(s.value));
        };
        for s in &self.counters {
            number(&mut out, "counter", s, &mut last_family);
            last_family = &s.name;
        }
        last_family = "";
        for s in &self.gauges {
            number(&mut out, "gauge", s, &mut last_family);
            last_family = &s.name;
        }
        last_family = "";
        for h in &self.histograms {
            if h.name != last_family {
                let _ = writeln!(out, "# HELP {} {}", h.name, h.help);
                let _ = writeln!(out, "# TYPE {} histogram", h.name);
                last_family = &h.name;
            }
            let mut cumulative = 0u64;
            for (i, &c) in h.counts.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                cumulative += c;
                let le = fmt_value(h.growth.powf(i as f64));
                let _ = writeln!(
                    out,
                    "{}_bucket{{{}}} {cumulative}",
                    h.name,
                    with_label(&h.labels, &format!("le=\"{le}\""))
                );
            }
            let _ = writeln!(
                out,
                "{}_bucket{{{}}} {cumulative}",
                h.name,
                with_label(&h.labels, "le=\"+Inf\"")
            );
            let _ = writeln!(
                out,
                "{} {}",
                series(&format!("{}_sum", h.name), &h.labels),
                fmt_value(h.sum)
            );
            let _ = writeln!(
                out,
                "{} {cumulative}",
                series(&format!("{}_count", h.name), &h.labels)
            );
        }
        out
    }

    /// Renders the snapshot as a compact JSON document.
    ///
    /// Schema: `{"counters": [{"name", "labels", "value"}, ...],
    /// "gauges": [...], "histograms": [{"name", "labels", "growth",
    /// "count", "sum", "buckets": [[index, count], ...]}, ...]}` —
    /// histogram buckets are sparse (non-empty only) index/count pairs.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":[");
        let mut first = true;
        for s in &self.counters {
            json_number_sample(&mut out, s, &mut first);
        }
        out.push_str("],\"gauges\":[");
        first = true;
        for s in &self.gauges {
            json_number_sample(&mut out, s, &mut first);
        }
        out.push_str("],\"histograms\":[");
        first = true;
        for h in &self.histograms {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("{\"name\":");
            json_string(&mut out, &h.name);
            out.push_str(",\"labels\":");
            json_string(&mut out, &h.labels);
            let _ = write!(
                out,
                ",\"growth\":{},\"count\":{},\"sum\":{},\"buckets\":[",
                json_number(h.growth),
                h.count(),
                json_number(h.sum)
            );
            let mut first_bucket = true;
            for (i, &c) in h.counts.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                if !first_bucket {
                    out.push(',');
                }
                first_bucket = false;
                let _ = write!(out, "[{i},{c}]");
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string() // JSON has no NaN/Inf
    }
}

fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn json_number_sample(out: &mut String, s: &NumberSample, first: &mut bool) {
    if !*first {
        out.push(',');
    }
    *first = false;
    out.push_str("{\"name\":");
    json_string(out, &s.name);
    out.push_str(",\"labels\":");
    json_string(out, &s.labels);
    let _ = write!(out, ",\"value\":{}}}", json_number(s.value));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;

    fn sample_snapshot() -> TelemetrySnapshot {
        let reg = MetricsRegistry::new();
        reg.counter("rbnn_requests_total", "server=\"0\"", "Requests accepted.")
            .add(42);
        reg.gauge("rbnn_queue_depth", "", "Requests waiting in the queue.")
            .set(3.0);
        let h = reg.histogram_with("rbnn_latency_us", "", "End-to-end latency (µs).", || {
            crate::metrics::LogHistogram::new(8, 2.0)
        });
        h.record_value(1.0); // bucket 0 (le 1)
        h.record_value(3.0); // bucket 2 (le 4)
        h.record_value(3.5); // bucket 2
        reg.snapshot()
    }

    #[test]
    fn prometheus_text_is_pinned() {
        let text = sample_snapshot().render_prometheus();
        let expected = "\
# HELP rbnn_requests_total Requests accepted.
# TYPE rbnn_requests_total counter
rbnn_requests_total{server=\"0\"} 42
# HELP rbnn_queue_depth Requests waiting in the queue.
# TYPE rbnn_queue_depth gauge
rbnn_queue_depth 3
# HELP rbnn_latency_us End-to-end latency (µs).
# TYPE rbnn_latency_us histogram
rbnn_latency_us_bucket{le=\"1\"} 1
rbnn_latency_us_bucket{le=\"4\"} 3
rbnn_latency_us_bucket{le=\"+Inf\"} 3
rbnn_latency_us_sum 7.5
rbnn_latency_us_count 3
";
        assert_eq!(text, expected);
    }

    #[test]
    fn json_snapshot_is_pinned() {
        let json = sample_snapshot().to_json();
        let expected = concat!(
            "{\"counters\":[",
            "{\"name\":\"rbnn_requests_total\",\"labels\":\"server=\\\"0\\\"\",\"value\":42}",
            "],\"gauges\":[",
            "{\"name\":\"rbnn_queue_depth\",\"labels\":\"\",\"value\":3}",
            "],\"histograms\":[",
            "{\"name\":\"rbnn_latency_us\",\"labels\":\"\",\"growth\":2,",
            "\"count\":3,\"sum\":7.5,\"buckets\":[[0,1],[2,2]]}",
            "]}"
        );
        assert_eq!(json, expected);
    }

    #[test]
    fn special_float_values_render() {
        assert_eq!(fmt_value(f64::INFINITY), "+Inf");
        assert_eq!(fmt_value(f64::NEG_INFINITY), "-Inf");
        assert_eq!(fmt_value(f64::NAN), "NaN");
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(fmt_value(0.25), "0.25");
    }
}
