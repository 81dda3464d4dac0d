//! # rbnn-analysis
//!
//! A dependency-free static-analysis gate for this workspace: repo-specific
//! lints that make the invariants the runtime crates rely on — atomic
//! orderings justified, `unsafe` documented, serving loops panic-free,
//! hot paths allocation-free, lock discipline intact — machine-checked on
//! every CI run instead of socially enforced.
//!
//! The pipeline:
//!
//! 1. [`lexer`] — a handwritten, comment/string/raw-string/lifetime-aware
//!    Rust lexer (no `syn`; the workspace builds offline);
//! 2. [`model`] — a lightweight item/block visitor extracting function
//!    spans, `#[cfg(test)]` regions and comment adjacency;
//! 3. [`lints`] — the six lint families RA0001–RA0007 (see the module docs
//!    for the full table);
//! 4. [`config`] — the checked-in `analysis.toml` zone map: panic-freedom
//!    zones, zero-alloc zones, the `SeqCst` allowlist and the (empty)
//!    waiver list;
//! 5. [`report`] — `file:line [id name] message + suggestion` diagnostics
//!    and the `bench_results/analysis.json` machine report.
//!
//! Run the gate from the workspace root:
//!
//! ```text
//! cargo run -p rbnn-analysis -- --strict
//! ```
//!
//! Exit status is non-zero in `--strict` mode if any unwaived violation —
//! or any stale waiver — survives. The fixture corpus under
//! `tests/fixtures/` keeps the gate itself honest: every lint family has a
//! seeded-violation (positive) and a clean (negative) fixture, and CI runs
//! the tool against the seeded set expecting failure.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod lexer;
pub mod lints;
pub mod model;
pub mod report;

pub use config::{Config, Deny, Waiver, Zone};
pub use lints::{FileClass, Lint, Violation};
pub use report::Report;

use std::fs;
use std::path::{Path, PathBuf};

use lints::{check_source, classify};

/// Directory names never descended into, independent of configuration.
const ALWAYS_SKIP_DIRS: [&str; 4] = ["target", ".git", "bench_results", "node_modules"];

/// Recursively collects `.rs` files under `root`, returning paths relative
/// to `root` (forward slashes), sorted for deterministic reports.
pub fn collect_sources(root: &Path, cfg: &Config) -> std::io::Result<Vec<String>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if ALWAYS_SKIP_DIRS.contains(&name.as_ref()) {
                    continue;
                }
                let rel = rel_str(root, &path);
                if cfg
                    .skip
                    .iter()
                    .any(|s| rel == *s || rel.starts_with(&format!("{s}/")))
                {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                let rel = rel_str(root, &path);
                if cfg.skip.iter().any(|s| rel.starts_with(s.as_str())) {
                    continue;
                }
                out.push(rel);
            }
        }
    }
    out.sort();
    Ok(out)
}

fn rel_str(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Scans every source file under `root` (honoring `cfg.skip`), applies the
/// waiver list, and returns the report. `filter` optionally restricts the
/// scan to paths starting with any of the given prefixes.
pub fn scan(root: &Path, cfg: &Config, filter: &[String]) -> std::io::Result<Report> {
    let mut report = Report::default();
    let mut raw: Vec<lints::Violation> = Vec::new();
    let files = collect_sources(root, cfg)?;
    for rel in &files {
        if !filter.is_empty() && !filter.iter().any(|f| rel.starts_with(f.as_str())) {
            continue;
        }
        let src = fs::read_to_string(root.join(rel))?;
        report.files_scanned += 1;
        raw.extend(check_source(rel, classify(rel, &files), &src, cfg));
    }

    let mut waiver_used = vec![false; cfg.waivers.len()];
    for v in raw {
        let matched = cfg
            .waivers
            .iter()
            .enumerate()
            .find(|(_, w)| w.lint == v.lint.id() && w.path == v.path && w.line == v.line);
        match matched {
            Some((idx, w)) => {
                waiver_used[idx] = true;
                report.waived.push((v, w.reason.clone()));
            }
            None => report.violations.push(v),
        }
    }
    for (idx, used) in waiver_used.iter().enumerate() {
        if !used {
            report.unused_waivers.push(cfg.waivers[idx].clone());
        }
    }
    report
        .violations
        .sort_by(|a, b| (&a.path, a.line, a.lint).cmp(&(&b.path, b.line, b.lint)));
    Ok(report)
}

/// Convenience: load `analysis.toml` from `path`.
pub fn load_config(path: &Path) -> Result<Config, String> {
    let text =
        fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    config::parse(&text).map_err(|e| e.to_string())
}

/// Returns `path` if it is a workspace root (contains `analysis.toml`).
pub fn default_config_path(root: &Path) -> PathBuf {
    root.join("analysis.toml")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waivers_suppress_and_stale_waivers_fail() {
        let dir = std::env::temp_dir().join(format!("rbnn-analysis-test-{}", std::process::id()));
        let src_dir = dir.join("crates/x/src");
        fs::create_dir_all(&src_dir).expect("mkdir");
        fs::write(src_dir.join("lib.rs"), "fn f() { todo!() }\n").expect("write");

        let mut cfg = Config::default();
        let report = scan(&dir, &cfg, &[]).expect("scan");
        assert_eq!(report.violations.len(), 1);
        let line = report.violations[0].line;

        cfg.waivers.push(config::Waiver {
            lint: "RA0007".to_string(),
            path: "crates/x/src/lib.rs".to_string(),
            line,
            reason: "test".to_string(),
        });
        let report = scan(&dir, &cfg, &[]).expect("scan");
        assert!(report.violations.is_empty());
        assert_eq!(report.waived.len(), 1);
        assert!(report.passed());

        cfg.waivers.push(config::Waiver {
            lint: "RA0001".to_string(),
            path: "nope.rs".to_string(),
            line: 1,
            reason: "stale".to_string(),
        });
        let report = scan(&dir, &cfg, &[]).expect("scan");
        assert!(!report.passed());
        assert_eq!(report.unused_waivers.len(), 1);

        fs::remove_dir_all(&dir).ok();
    }
}
