//! # rbnn-bench
//!
//! Benchmark harness of the rram-bnn reproduction. Each table and figure of
//! the paper has a dedicated binary:
//!
//! | binary | regenerates |
//! |---|---|
//! | `table1_table2` | Tables I & II (architectures) |
//! | `fig4_ber` | Fig 4 (1T1R vs 2T2R BER vs cycles) |
//! | `table3_accuracy` | Table III medical rows |
//! | `table4_memory` | Table IV (memory/savings) |
//! | `fig7_filter_sweep` | Fig 7 (accuracy vs filter augmentation) |
//! | `fig8_mobilenet` | Fig 8 + Table III vision row |
//! | `ext_ber_accuracy` | accuracy-vs-BER extension (refs \[15\],\[16\]) |
//! | `paperbench` | everything above, quick settings |
//! | `serve_bench` | serving gates: deployed-model RRAM batch-64 floor + telemetry overhead |
//! | `stream_bench` | monitoring fleet: N patient streams → serve pool, clean and under seeded chaos (gated) |
//! | `train_bench` | training throughput + determinism and forced-scalar parity (gated) |
//! | `conformance` | cross-backend differential oracle + fault campaigns (gated) |
//!
//! Every binary accepts `--quick` (default; minutes on a laptop) or
//! `--full` (closer to paper scale) and archives a JSON result into
//! `bench_results/` next to its stdout table.

use std::fs;
use std::path::PathBuf;

use serde::Serialize;

/// Execution scale requested on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunScale {
    /// Reduced dimensions/trials: minutes on a laptop (default).
    Quick,
    /// Paper-leaning dimensions: expect long CPU runs.
    Full,
}

impl RunScale {
    /// The scale's canonical archive name (`"quick"` / `"full"`).
    pub fn as_str(self) -> &'static str {
        match self {
            RunScale::Quick => "quick",
            RunScale::Full => "full",
        }
    }
}

/// Parses `--quick` / `--full` from the process arguments.
///
/// Unknown arguments abort with a usage message — benches should never
/// silently ignore a flag the user believed was in effect.
pub fn parse_scale() -> RunScale {
    let (scale, _) = parse_scale_with(&[]);
    scale
}

/// [`parse_scale`] plus a set of bench-specific boolean flags: returns the
/// scale and, for each flag in `extra` (e.g. `"--strict"`), whether it was
/// passed. Anything else still aborts with a usage message.
pub fn parse_scale_with(extra: &[&str]) -> (RunScale, Vec<bool>) {
    let usage = {
        let mut u = String::from("[--quick|--full]");
        for f in extra {
            u.push_str(&format!(" [{f}]"));
        }
        u
    };
    let mut scale = RunScale::Quick;
    let mut seen = vec![false; extra.len()];
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => scale = RunScale::Quick,
            "--full" => scale = RunScale::Full,
            "--help" | "-h" => {
                eprintln!("usage: {usage}   (default --quick)");
                std::process::exit(0);
            }
            other => match extra.iter().position(|f| *f == other) {
                Some(i) => seen[i] = true,
                None => {
                    eprintln!("unknown argument {other}; usage: {usage}");
                    std::process::exit(2);
                }
            },
        }
    }
    (scale, seen)
}

/// Directory where JSON results are archived (`bench_results/`, created on
/// demand; falls back to the current directory).
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from("bench_results");
    if dir.exists() || fs::create_dir_all(&dir).is_ok() {
        dir
    } else {
        PathBuf::from(".")
    }
}

/// Serializes `value` to `bench_results/<name>.json`; failures are reported
/// but never fatal (the stdout table is the primary artifact).
pub fn archive_json<T: Serialize>(name: &str, value: &T) {
    let path = results_dir().join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(json) => {
            if let Err(e) = fs::write(&path, json) {
                eprintln!("warning: could not write {}: {e}", path.display());
            } else {
                eprintln!("(json archived to {})", path.display());
            }
        }
        Err(e) => eprintln!("warning: could not serialize {name}: {e}"),
    }
}

/// Number of logical cores on the host (1 when detection fails).
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Snapshot of the runtime kernel-dispatch decisions
/// ([`rbnn_tensor::dispatch_report`]) in flat-JSON form, recorded in bench
/// envelopes so cross-host artifact diffs are explainable from the feature
/// set that produced them. (Numeric results are host-invariant by the
/// dispatch contract; only the timing rows may differ.)
#[derive(Debug, Serialize)]
pub struct KernelDispatch {
    /// Detected host CPU features, comma-separated.
    pub features: String,
    /// True when the scalar override (`RBNN_KERNELS=scalar` or
    /// programmatic) pinned the kernels.
    pub forced_scalar: bool,
    /// Selected XNOR-popcount kernel.
    pub popcount: String,
    /// Selected sign-packing kernel.
    pub pack: String,
    /// Selected GEMM micro-kernel.
    pub gemm: String,
}

impl KernelDispatch {
    /// Captures the current dispatch decisions.
    pub fn capture() -> Self {
        let r = rbnn_tensor::dispatch_report();
        Self {
            features: r.features_csv(),
            forced_scalar: r.forced_scalar,
            popcount: r.popcount.to_string(),
            pack: r.pack.to_string(),
            gemm: r.gemm.to_string(),
        }
    }
}

/// The uniform archive wrapper every bench result ships in: bench name,
/// run scale, host parallelism and the overall gate verdict (when the
/// bench has one) around the bench-specific `results` payload.
///
/// The vendored `serde_derive` only handles non-generic structs, so the
/// [`Serialize`] impl is written out by hand against the shim's
/// field-writing helpers.
pub struct BenchEnvelope<'a, T: Serialize> {
    /// Bench binary name (`serve_bench`, `stream_bench`, …).
    pub bench: &'a str,
    /// Scale the run executed at.
    pub scale: RunScale,
    /// Logical cores on the measuring host — throughput numbers are
    /// meaningless without it.
    pub host_cores: usize,
    /// Overall acceptance verdict; `None` for benches with no gate.
    pub accepted: Option<bool>,
    /// Kernel-dispatch snapshot; `None` for benches whose artifacts must
    /// stay byte-identical across dispatch modes (conformance compares its
    /// forced-scalar and dispatched JSON with `cmp`).
    pub dispatch: Option<KernelDispatch>,
    /// The bench-specific result payload.
    pub results: &'a T,
}

impl<T: Serialize> Serialize for BenchEnvelope<'_, T> {
    fn write_json(&self, out: &mut String, indent: usize) {
        out.push('{');
        let inner = indent + 1;
        serde::json_field(out, inner, "bench", true);
        serde::write_json_string(out, self.bench);
        serde::json_field(out, inner, "scale", false);
        serde::write_json_string(out, self.scale.as_str());
        serde::json_field(out, inner, "host_cores", false);
        self.host_cores.write_json(out, inner);
        serde::json_field(out, inner, "accepted", false);
        self.accepted.write_json(out, inner);
        serde::json_field(out, inner, "dispatch", false);
        self.dispatch.write_json(out, inner);
        serde::json_field(out, inner, "results", false);
        self.results.write_json(out, inner);
        serde::newline_indent(out, indent);
        out.push('}');
    }
}

/// Archives `results` inside the standard [`BenchEnvelope`] as
/// `bench_results/<name>.json` — the one emission path gated benches
/// share, so downstream tooling sees a uniform top level.
///
/// No dispatch snapshot is recorded: artifacts emitted through this path
/// stay byte-identical between the dispatched and forced-scalar kernel
/// modes (the conformance CI leg compares them with `cmp`). Benches whose
/// payload is timing-dependent anyway should prefer
/// [`emit_bench_with_dispatch`].
pub fn emit_bench<T: Serialize>(name: &str, scale: RunScale, accepted: Option<bool>, results: &T) {
    archive_json(
        name,
        &BenchEnvelope {
            bench: name,
            scale,
            host_cores: host_cores(),
            accepted,
            dispatch: None,
            results,
        },
    );
}

/// [`emit_bench`] plus the [`KernelDispatch`] snapshot — for benches with
/// timing rows, where cross-host diffs must be explainable from the active
/// feature set.
pub fn emit_bench_with_dispatch<T: Serialize>(
    name: &str,
    scale: RunScale,
    accepted: Option<bool>,
    results: &T,
) {
    archive_json(
        name,
        &BenchEnvelope {
            bench: name,
            scale,
            host_cores: host_cores(),
            accepted,
            dispatch: Some(KernelDispatch::capture()),
            results,
        },
    );
}

/// Measures the telemetry tax: runs `work` once with telemetry globally
/// disabled and once enabled, and returns `(disabled, enabled)` throughput
/// from the closure's own samples-per-second metric. Takes the best of
/// two pairs — single wall-clock ratios on shared runners are noisy —
/// and always restores the enabled state.
pub fn telemetry_overhead_pair(mut work: impl FnMut() -> f64) -> (f64, f64) {
    let was_enabled = rbnn_telemetry::enabled();
    let mut best: Option<(f64, f64)> = None;
    for _ in 0..2 {
        rbnn_telemetry::set_enabled(false);
        let disabled = work();
        rbnn_telemetry::set_enabled(true);
        let enabled = work();
        let keep = match best {
            Some((d, e)) => enabled / disabled.max(1e-12) > e / d.max(1e-12),
            None => true,
        };
        if keep {
            best = Some((disabled, enabled));
        }
    }
    rbnn_telemetry::set_enabled(was_enabled);
    best.expect("two pairs ran")
}

/// Prints and judges a telemetry overhead pair: enabled throughput must
/// stay within `tolerance` (e.g. `0.05`) of disabled.
pub fn report_overhead_gate(label: &str, disabled: f64, enabled: f64, tolerance: f64) -> bool {
    let ratio = enabled / disabled.max(1e-12);
    let ok = ratio >= 1.0 - tolerance;
    println!(
        "telemetry overhead ({label}): disabled {disabled:.0}/s, enabled {enabled:.0}/s \
         ({:+.1}%) — {}",
        (ratio - 1.0) * 100.0,
        if ok {
            "within tolerance"
        } else {
            "EXCEEDS tolerance"
        }
    );
    ok
}

/// Prints the standard bench header.
pub fn banner(title: &str, scale: RunScale) {
    println!("==============================================================");
    println!("{title}");
    println!(
        "scale: {}",
        match scale {
            RunScale::Quick => "--quick (reduced dimensions; see README § Scale and substitutions)",
            RunScale::Full => "--full",
        }
    );
    println!("==============================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_is_creatable() {
        let d = results_dir();
        assert!(d.exists() || d == std::path::Path::new("."));
    }

    #[test]
    fn envelope_renders_the_pinned_shape() {
        #[derive(Serialize)]
        struct Payload {
            throughput: f64,
        }
        let env = BenchEnvelope {
            bench: "selftest",
            scale: RunScale::Quick,
            host_cores: 4,
            accepted: Some(true),
            dispatch: None,
            results: &Payload { throughput: 12.5 },
        };
        let mut out = String::new();
        env.write_json(&mut out, 0);
        assert_eq!(
            out,
            "{\n  \"bench\": \"selftest\",\n  \"scale\": \"quick\",\n  \
             \"host_cores\": 4,\n  \"accepted\": true,\n  \"dispatch\": null,\n  \
             \"results\": {\n    \"throughput\": 12.5\n  }\n}"
        );
    }

    #[test]
    fn dispatch_snapshot_names_the_selected_kernels() {
        let d = KernelDispatch::capture();
        #[cfg(target_arch = "x86_64")]
        assert!(d.features.contains("sse2"), "x86_64 must report sse2");
        assert!(["scalar", "avx2-harley-seal", "avx512-vpopcntdq"].contains(&d.popcount.as_str()));
        assert!(["scalar", "avx-movemask", "avx512-cmp-mask"].contains(&d.pack.as_str()));
        assert!(["scalar-fma", "avx2-fma"].contains(&d.gemm.as_str()));
        let env = BenchEnvelope {
            bench: "selftest",
            scale: RunScale::Quick,
            host_cores: 1,
            accepted: None,
            dispatch: Some(d),
            results: &0u32,
        };
        let mut out = String::new();
        env.write_json(&mut out, 0);
        assert!(out.contains("\"dispatch\": {"));
        assert!(out.contains("\"popcount\""));
    }

    #[test]
    fn envelope_without_gate_emits_null_accepted() {
        let env = BenchEnvelope {
            bench: "b",
            scale: RunScale::Full,
            host_cores: 1,
            accepted: None,
            dispatch: None,
            results: &7u32,
        };
        let mut out = String::new();
        env.write_json(&mut out, 0);
        assert!(out.contains("\"accepted\": null"));
        assert!(out.contains("\"scale\": \"full\""));
    }

    #[test]
    fn overhead_pair_restores_enabled_state() {
        rbnn_telemetry::set_enabled(true);
        let mut calls = 0u32;
        let (d, e) = telemetry_overhead_pair(|| {
            calls += 1;
            calls as f64
        });
        assert_eq!(calls, 4, "two disabled/enabled pairs");
        assert!(d > 0.0 && e > 0.0);
        assert!(rbnn_telemetry::enabled(), "enabled state restored");
    }

    #[test]
    fn overhead_gate_judges_the_ratio() {
        assert!(report_overhead_gate("t", 100.0, 96.0, 0.05));
        assert!(!report_overhead_gate("t", 100.0, 90.0, 0.05));
    }

    #[test]
    fn archive_json_roundtrip() {
        #[derive(Serialize)]
        struct Tiny {
            x: u32,
        }
        archive_json("selftest", &Tiny { x: 7 });
        let path = results_dir().join("selftest.json");
        if path.exists() {
            let text = fs::read_to_string(&path).unwrap();
            assert!(text.contains('7'));
            let _ = fs::remove_file(path);
        }
    }
}
