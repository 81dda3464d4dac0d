//! `analysis.toml` — the checked-in zone map and policy knobs.
//!
//! The config file is TOML, parsed by a small built-in reader (the crate is
//! dependency-free, and the vendored `third_party/` shims are deliberately
//! not reached for: the linter must build before anything else). The reader
//! supports the subset the zone map needs — `[section]` tables, `[[array]]`
//! of tables, string / integer / boolean values, and (possibly multi-line)
//! string arrays — and rejects anything it doesn't understand rather than
//! guessing.
//!
//! Sections:
//!
//! - `[ordering] seqcst_allow = […]` — files where `Ordering::SeqCst` is
//!   tolerated (still requires a justification comment);
//! - `[hygiene] print_allow = […]` — path prefixes (library crates that are
//!   really CLI harnesses) where `println!` is accepted;
//! - `skip = […]` — directories never scanned (fixtures, vendored code);
//! - `[[zone]]` — a panic-freedom / zero-alloc / lock-discipline zone:
//!   `path` (one file), optional `functions` (restrict to named fns),
//!   `deny` (any of `unwrap`, `expect`, `panic`, `indexing`, `alloc`,
//!   `blocking-lock`), and a human `reason` echoed in diagnostics;
//! - `[[waiver]]` — a suppressed violation (`lint`, `path`, `line`,
//!   `reason`). The workspace ships with this list **empty**; the gate
//!   fails on waivers that no longer match anything, so stale entries
//!   cannot accumulate.

use std::fmt;

/// One deniable behavior inside a zone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deny {
    /// `.unwrap()` calls.
    Unwrap,
    /// `.expect(…)` calls.
    Expect,
    /// `panic!` / `unreachable!` invocations.
    Panic,
    /// Index expressions `x[i]` (slicing included — both can panic).
    Indexing,
    /// Heap allocation in a zero-alloc hot path (`Vec::new`, `vec![…]`,
    /// `.to_vec()`, `.clone()`, `.collect()`, `format!`, `Box::new`,
    /// `Arc::new`, `Rc::new`, `BTreeMap`/`HashMap`/`VecDeque`
    /// construction, …).
    Alloc,
    /// Blocking `.lock()` — the zone must stay `try_lock`-only.
    BlockingLock,
}

impl Deny {
    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "unwrap" => Deny::Unwrap,
            "expect" => Deny::Expect,
            "panic" => Deny::Panic,
            "indexing" => Deny::Indexing,
            "alloc" => Deny::Alloc,
            "blocking-lock" => Deny::BlockingLock,
            _ => return None,
        })
    }
}

impl fmt::Display for Deny {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Deny::Unwrap => "unwrap",
            Deny::Expect => "expect",
            Deny::Panic => "panic",
            Deny::Indexing => "indexing",
            Deny::Alloc => "alloc",
            Deny::BlockingLock => "blocking-lock",
        })
    }
}

/// A file (or set of named functions within a file) with denied behaviors.
#[derive(Debug, Clone, Default)]
pub struct Zone {
    /// Workspace-relative path of the file the zone covers.
    pub path: String,
    /// If non-empty, only the bodies of these functions are in-zone.
    pub functions: Vec<String>,
    /// Behaviors denied inside the zone.
    pub deny: Vec<Deny>,
    /// Why the zone exists — echoed in every diagnostic it produces.
    pub reason: String,
}

/// A suppressed violation. The shipped list is empty; the mechanism exists
/// so an emergency landing can be unblocked without deleting the gate.
#[derive(Debug, Clone, Default)]
pub struct Waiver {
    /// Lint id, e.g. `RA0004`.
    pub lint: String,
    /// Workspace-relative file path.
    pub path: String,
    /// 1-based line of the waived violation.
    pub line: usize,
    /// Why the waiver is acceptable.
    pub reason: String,
}

/// The parsed `analysis.toml`.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Files where `Ordering::SeqCst` is allowed (with justification).
    pub seqcst_allow: Vec<String>,
    /// Path prefixes where `println!` in a lib target is accepted.
    pub print_allow: Vec<String>,
    /// Directory prefixes excluded from the scan.
    pub skip: Vec<String>,
    /// All zones.
    pub zones: Vec<Zone>,
    /// All waivers (expected empty).
    pub waivers: Vec<Waiver>,
}

/// A config-file syntax error with its line number.
#[derive(Debug)]
pub struct ConfigError {
    /// 1-based line in the config file.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "analysis.toml:{}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

enum Section {
    Top,
    Ordering,
    Hygiene,
    Zone,
    Waiver,
}

/// Parses the config text.
pub fn parse(text: &str) -> Result<Config, ConfigError> {
    let mut cfg = Config::default();
    let mut section = Section::Top;

    let err = |line: usize, message: String| ConfigError { line, message };

    let mut lines = text.lines().enumerate().peekable();
    while let Some((idx, raw)) = lines.next() {
        let lineno = idx + 1;
        let line = strip_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix("[[").and_then(|s| s.strip_suffix("]]")) {
            section = match name.trim() {
                "zone" => {
                    cfg.zones.push(Zone::default());
                    Section::Zone
                }
                "waiver" => {
                    cfg.waivers.push(Waiver::default());
                    Section::Waiver
                }
                other => return Err(err(lineno, format!("unknown table `[[{other}]]`"))),
            };
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
            section = match name.trim() {
                "ordering" => Section::Ordering,
                "hygiene" => Section::Hygiene,
                other => return Err(err(lineno, format!("unknown section `[{other}]`"))),
            };
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(err(lineno, format!("expected `key = value`, got `{line}`")));
        };
        let key = key.trim();
        let mut value = value.trim().to_string();
        // Multi-line arrays: keep consuming until the bracket closes.
        while value.starts_with('[') && !bracket_closed(&value) {
            let Some((_, cont)) = lines.next() else {
                return Err(err(lineno, "unterminated array".to_string()));
            };
            value.push(' ');
            value.push_str(strip_comment(cont).trim());
        }
        match (&section, key) {
            (Section::Top, "version") => {}
            (Section::Top, "skip") => cfg.skip = parse_string_array(&value, lineno)?,
            (Section::Ordering, "seqcst_allow") => {
                cfg.seqcst_allow = parse_string_array(&value, lineno)?
            }
            (Section::Hygiene, "print_allow") => {
                cfg.print_allow = parse_string_array(&value, lineno)?
            }
            (Section::Zone, _) => {
                let zone = cfg.zones.last_mut().expect("section implies an entry");
                match key {
                    "path" => zone.path = parse_string(&value, lineno)?,
                    "functions" => zone.functions = parse_string_array(&value, lineno)?,
                    "reason" => zone.reason = parse_string(&value, lineno)?,
                    "deny" => {
                        for d in parse_string_array(&value, lineno)? {
                            let deny = Deny::parse(&d)
                                .ok_or_else(|| err(lineno, format!("unknown deny kind `{d}`")))?;
                            zone.deny.push(deny);
                        }
                    }
                    other => return Err(err(lineno, format!("unknown zone key `{other}`"))),
                }
            }
            (Section::Waiver, _) => {
                let waiver = cfg.waivers.last_mut().expect("section implies an entry");
                match key {
                    "lint" => waiver.lint = parse_string(&value, lineno)?,
                    "path" => waiver.path = parse_string(&value, lineno)?,
                    "reason" => waiver.reason = parse_string(&value, lineno)?,
                    "line" => {
                        waiver.line = value.parse().map_err(|_| {
                            err(lineno, format!("`line` must be an integer, got `{value}`"))
                        })?
                    }
                    other => return Err(err(lineno, format!("unknown waiver key `{other}`"))),
                }
            }
            (_, other) => return Err(err(lineno, format!("unknown key `{other}`"))),
        }
    }
    Ok(cfg)
}

/// Strips a `#` comment that is not inside a quoted string.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn bracket_closed(value: &str) -> bool {
    let mut in_str = false;
    let mut depth = 0isize;
    for c in value.chars() {
        match c {
            '"' => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth -= 1,
            _ => {}
        }
    }
    depth <= 0
}

fn parse_string(value: &str, lineno: usize) -> Result<String, ConfigError> {
    let v = value.trim();
    if v.len() >= 2 && v.starts_with('"') && v.ends_with('"') {
        Ok(v[1..v.len() - 1].to_string())
    } else {
        Err(ConfigError {
            line: lineno,
            message: format!("expected a quoted string, got `{v}`"),
        })
    }
}

fn parse_string_array(value: &str, lineno: usize) -> Result<Vec<String>, ConfigError> {
    let v = value.trim();
    let inner = v
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| ConfigError {
            line: lineno,
            message: format!("expected an array, got `{v}`"),
        })?;
    let mut out = Vec::new();
    for part in inner.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        out.push(parse_string(part, lineno)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_shape() {
        let cfg = parse(
            r#"
version = 1
skip = ["third_party", "crates/analysis/tests/fixtures"]

[ordering]
seqcst_allow = ["crates/tensor/src/par.rs"]

[hygiene]
print_allow = ["crates/bench"]

[[zone]]
path = "crates/serve/src/queue.rs"     # the bounded queue
deny = ["unwrap", "expect", "panic", "indexing"]
reason = "worker pool must survive poisoned locks"

[[zone]]
path = "crates/serve/src/server.rs"
functions = [
    "worker_loop",
    "serve_batch",
]
deny = ["unwrap", "expect", "panic"]
reason = "worker loop"

[[waiver]]
lint = "RA0004"
path = "crates/x.rs"
line = 12
reason = "temporary"
"#,
        )
        .expect("parses");
        assert_eq!(cfg.skip.len(), 2);
        assert_eq!(cfg.seqcst_allow, vec!["crates/tensor/src/par.rs"]);
        assert_eq!(cfg.print_allow, vec!["crates/bench"]);
        assert_eq!(cfg.zones.len(), 2);
        assert_eq!(cfg.zones[0].deny.len(), 4);
        assert_eq!(cfg.zones[1].functions, vec!["worker_loop", "serve_batch"]);
        assert_eq!(cfg.waivers.len(), 1);
        assert_eq!(cfg.waivers[0].line, 12);
    }

    #[test]
    fn rejects_unknown_keys_and_denies() {
        assert!(parse("mystery = 3\n").is_err());
        assert!(parse("[[zone]]\npath = \"x\"\ndeny = [\"sleep\"]\n").is_err());
        assert!(parse("[typo]\n").is_err());
    }
}
