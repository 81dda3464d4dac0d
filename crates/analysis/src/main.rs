//! The `rbnn-analysis` CLI — the workspace lint gate.
//!
//! ```text
//! cargo run -p rbnn-analysis -- --strict
//! ```
//!
//! Flags:
//!
//! - `--strict`            exit non-zero on any unwaived violation or stale waiver
//! - `--root DIR`          scan root (default `.`, the workspace root under `cargo run`)
//! - `--config FILE`       zone map (default `<root>/analysis.toml`)
//! - `--json FILE`         machine-readable report path
//!   (default `<root>/bench_results/analysis.json`; `--json none` disables)
//! - `PATH…`               optional path prefixes (relative to root) restricting the scan
//!
//! The CI seeded-violation self-check runs the same binary against the
//! fixture corpus with its own config and expects a non-zero exit:
//!
//! ```text
//! cargo run -p rbnn-analysis -- --strict \
//!     --root crates/analysis/tests/fixtures \
//!     --config crates/analysis/tests/fixtures/fixtures.toml \
//!     --json none bad
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut strict = false;
    let mut root = PathBuf::from(".");
    let mut config_path: Option<PathBuf> = None;
    let mut json_path: Option<String> = None;
    let mut filters: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--strict" => strict = true,
            "--root" => match args.next() {
                Some(v) => root = PathBuf::from(v),
                None => return usage("--root needs a directory"),
            },
            "--config" => match args.next() {
                Some(v) => config_path = Some(PathBuf::from(v)),
                None => return usage("--config needs a file"),
            },
            "--json" => match args.next() {
                Some(v) => json_path = Some(v),
                None => return usage("--json needs a file (or `none`)"),
            },
            "--help" | "-h" => return usage(""),
            flag if flag.starts_with('-') => {
                return usage(&format!("unknown flag `{flag}`"));
            }
            path => filters.push(path.replace('\\', "/")),
        }
    }

    let config_path = config_path.unwrap_or_else(|| rbnn_analysis::default_config_path(&root));
    let cfg = match rbnn_analysis::load_config(&config_path) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("rbnn-analysis: {e}");
            return ExitCode::from(2);
        }
    };

    let report = match rbnn_analysis::scan(&root, &cfg, &filters) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("rbnn-analysis: scan failed: {e}");
            return ExitCode::from(2);
        }
    };

    print!("{}", report.render_text());

    let json_target = match json_path.as_deref() {
        Some("none") => None,
        Some(p) => Some(PathBuf::from(p)),
        None => Some(root.join("bench_results/analysis.json")),
    };
    if let Some(path) = json_target {
        if let Some(parent) = path.parent() {
            if let Err(e) = std::fs::create_dir_all(parent) {
                eprintln!("rbnn-analysis: cannot create {}: {e}", parent.display());
                return ExitCode::from(2);
            }
        }
        if let Err(e) = std::fs::write(&path, report.render_json(strict)) {
            eprintln!("rbnn-analysis: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("report: {}", path.display());
    }

    if strict && !report.passed() {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn usage(error: &str) -> ExitCode {
    if !error.is_empty() {
        eprintln!("rbnn-analysis: {error}");
    }
    eprintln!(
        "usage: rbnn-analysis [--strict] [--root DIR] [--config FILE] [--json FILE|none] [PATH…]"
    );
    if error.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}
