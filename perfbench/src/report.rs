//! Result assembly: the metric sets, the per-run stamp, the human-readable
//! ledger and the final JSON line.

use std::fmt::Write as _;

use crate::adapter;
use crate::stats::{median, quartile_spread, Histogram};
use crate::Args;

/// End-to-end metrics, printed by every run without `--trace`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("samples_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every `--trace 1` run.
pub const PER_LAYER: [(&str, &str); 23] = [
    ("serve.submit_us", "us"),
    ("serve.queue_wait_p50_us", "us"),
    ("serve.queue_wait_p99_us", "us"),
    ("serve.service_p50_us", "us"),
    ("serve.service_p99_us", "us"),
    ("serve.mean_batch", "samples"),
    ("serve.rejected", "count"),
    ("graph.compile_ms", "ms"),
    ("graph.pack_ns_per_sample", "ns"),
    ("graph.replay_ns_per_sample", "ns"),
    ("rram.program_ms", "ms"),
    ("rram.sense_ns_per_sample.l0", "ns"),
    ("rram.sense_ns_per_sample.l1", "ns"),
    ("rram.replay_ns_per_sample", "ns"),
    ("rram.senses_per_sample", "count"),
    ("rram.marginal_cells", "count"),
    ("rram.expected_flips_per_sample", "count"),
    ("rram.uj_per_sample", "uJ"),
    ("stream.featurize_us_per_window", "us"),
    ("stream.pull_gap_us", "us"),
    ("residual_ns_per_sample", "ns"),
    ("residual_share", "share"),
    ("trace.overhead_share", "share"),
];

/// Latency samples each percentile group must hold, so a p99 has at least
/// ten samples beyond it.
const MIN_GROUP_LATENCIES: u64 = 1_000;

/// Per-slice measurements of one timed phase.
#[derive(Debug, Default)]
pub struct Measured {
    /// Samples completed per second, one entry per slice.
    pub rates: Vec<f64>,
    /// Latencies, one histogram per slice.
    pub latencies: Vec<Histogram>,
}

impl Measured {
    /// Median slice throughput.
    pub fn samples_per_s(&self) -> f64 {
        median(&self.rates)
    }

    /// Latency samples recorded.
    pub fn latency_count(&self) -> u64 {
        self.latencies.iter().map(Histogram::count).sum()
    }

    /// The `q` latency percentile of each group of consecutive slices
    /// holding at least [`MIN_GROUP_LATENCIES`] samples, in microseconds.
    pub fn latency_percentiles_us(&self, q: f64) -> Vec<f64> {
        let mut groups = vec![Histogram::default()];
        for slice in &self.latencies {
            let last = groups.last_mut().expect("one group");
            if last.count() >= MIN_GROUP_LATENCIES {
                groups.push(slice.clone());
            } else {
                last.merge(slice);
            }
        }
        if groups.len() > 1 && groups.last().map_or(0, Histogram::count) < MIN_GROUP_LATENCIES {
            let tail = groups.pop().expect("more than one group");
            groups.last_mut().expect("a group remains").merge(&tail);
        }
        groups
            .into_iter()
            .filter(|g| g.count() > 0)
            .map(|g| g.percentile(q) / 1e3)
            .collect()
    }

    /// Median over groups of the `q` latency percentile, microseconds.
    pub fn latency_us(&self, q: f64) -> f64 {
        median(&self.latency_percentiles_us(q))
    }
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every correctness check passed and nothing failed.
    pub correct: bool,
    /// Samples (stream: windows) submitted.
    pub attempted: u64,
    /// Samples whose request failed or was refused.
    pub failed: u64,
    /// Metric values by name (units come from the metric tables).
    pub metrics: Vec<(&'static str, f64)>,
}

/// The end-to-end metrics of one untraced phase.
pub fn end_to_end(setups_s: &[f64], m: &Measured) -> Vec<(&'static str, f64)> {
    vec![
        ("setup_s", median(setups_s)),
        ("samples_per_s", m.samples_per_s()),
        ("latency_p50_us", m.latency_us(0.50)),
        ("latency_p99_us", m.latency_us(0.99)),
        ("peak_rss_mb", peak_rss_mb()),
    ]
}

/// Prints the ledger lines of one timed phase: each end-to-end figure with
/// its sample count and its spread across slices.
pub fn print_phase(label: &str, setups_s: &[f64], m: &Measured) {
    let p50 = m.latency_percentiles_us(0.50);
    let p99 = m.latency_percentiles_us(0.99);
    println!(
        "{label}: samples_per_s {:.1} ({} slices, spread {:.2}%) | latency p50 {:.2} us, p99 {:.2} us \
         ({} latencies in {} groups, spreads {:.2}% / {:.2}%) | setup {:.6} s (median of {})",
        m.samples_per_s(),
        m.rates.len(),
        100.0 * quartile_spread(&m.rates),
        median(&p50),
        median(&p99),
        m.latency_count(),
        p99.len(),
        100.0 * quartile_spread(&p50),
        100.0 * quartile_spread(&p99),
        median(setups_s),
        setups_s.len(),
    );
}

/// Peak resident set of this process in MB (`VmHWM`), or 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host cores available to this process.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The git revision of the checkout, read from `.git` without running git;
/// `unknown` outside a git work tree.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_string)
            })
            .unwrap_or_default(),
        None => head.to_string(),
    };
    let rev = rev.trim();
    if rev.is_empty() {
        "unknown".to_string()
    } else {
        rev.to_string()
    }
}

/// The stamp every result carries, as a JSON object.
pub fn stamp(args: &Args, synth_s: f64) -> String {
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"host_cores\":{},\
         \"dispatch\":\"{}\",\"telemetry_enabled\":{},\"git_rev\":\"{}\",\"synth_s\":{}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace,
        host_cores(),
        adapter::dispatch_summary(),
        adapter::telemetry_enabled(),
        git_rev(),
        synth_s,
    )
}

fn unit(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name} is not declared"))
}

/// Prints the result line: exactly the declared metrics of this mode, in
/// declaration order.
///
/// # Panics
///
/// Panics if the outcome lacks a declared metric, carries an undeclared
/// one, or holds a non-finite value — each a bug in the benchmark.
pub fn print_result(trace: bool, outcome: &Outcome) {
    let declared: Vec<&str> = if trace {
        PER_LAYER.iter().map(|(n, _)| *n).collect()
    } else {
        END_TO_END.iter().map(|(n, _)| *n).collect()
    };
    assert_eq!(
        outcome.metrics.len(),
        declared.len(),
        "metric count differs from the declared set"
    );
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct, outcome.attempted, outcome.failed
    );
    for (i, name) in declared.iter().enumerate() {
        let value = outcome
            .metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("metric {name} was not measured"));
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            unit(name)
        );
    }
    out.push_str("}}");
    println!("{out}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slice(ns: u64, n: usize) -> Histogram {
        let mut h = Histogram::default();
        (0..n).for_each(|_| h.record(ns));
        h
    }

    #[test]
    fn latency_groups_hold_enough_samples_for_a_p99() {
        let m = Measured {
            rates: vec![1.0; 5],
            latencies: (1..=5).map(|s| slice(s * 1_000, 450)).collect(),
        };
        // 2 250 samples: slices merge into two groups of 1 350 and 900,
        // and the short tail folds back into the first.
        assert_eq!(m.latency_percentiles_us(0.5).len(), 1);
        let m = Measured {
            rates: vec![1.0; 4],
            latencies: (0..4).map(|_| slice(64_000, 1_000)).collect(),
        };
        // 64 µs is a power of two: the lowest bucket of its octave, whose
        // midpoint sits half a bucket (0.2%) above it.
        assert_eq!(m.latency_percentiles_us(0.99), vec![64.128; 4]);
    }
}
