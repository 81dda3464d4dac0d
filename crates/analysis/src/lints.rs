//! The six lint families and the per-file checking pass.
//!
//! | id     | name                  | invariant enforced                                      |
//! |--------|-----------------------|---------------------------------------------------------|
//! | RA0001 | unsafe-safety-comment | every `unsafe` site carries a `// SAFETY:` justification |
//! | RA0002 | ordering-justification| every `Ordering::*` use explains its memory ordering     |
//! | RA0003 | seqcst-allowlist      | `Ordering::SeqCst` only in allowlisted files             |
//! | RA0004 | panic-path            | no `unwrap`/`expect`/`panic!`/indexing in no-panic zones |
//! | RA0005 | hot-alloc             | no heap allocation in zero-alloc zones                   |
//! | RA0006 | lock-discipline       | no nested `lock()` guards; try-lock-only zones hold      |
//! | RA0007 | hygiene               | no `dbg!`/`todo!`; no `println!` in library crates       |
//!
//! All checks are lexical (token-shape) checks over the [`crate::lexer`]
//! stream, scoped by the [`crate::model`] visitor (test regions exempt,
//! zones optionally function-scoped). See `ARCHITECTURE.md` § "Static
//! analysis & enforced invariants" for the rationale behind each family.

use std::fmt;

use crate::config::{Config, Deny, Zone};
use crate::lexer::{lex, LexedFile, TokenKind};
use crate::model::{build, FileModel};

/// A lint family identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Lint {
    /// RA0001: `unsafe` without a `// SAFETY:` comment.
    UnsafeSafety,
    /// RA0002: `Ordering::*` without a justification comment.
    OrderingJustify,
    /// RA0003: `Ordering::SeqCst` outside the allowlist.
    SeqCstAllowlist,
    /// RA0004: panic path inside a no-panic zone.
    PanicPath,
    /// RA0005: allocation inside a zero-alloc zone.
    HotAlloc,
    /// RA0006: lock-discipline breach.
    LockDiscipline,
    /// RA0007: hygiene deny (`dbg!`, `println!` in a lib, `todo!`).
    Hygiene,
}

impl Lint {
    /// Stable machine-readable id.
    pub fn id(self) -> &'static str {
        match self {
            Lint::UnsafeSafety => "RA0001",
            Lint::OrderingJustify => "RA0002",
            Lint::SeqCstAllowlist => "RA0003",
            Lint::PanicPath => "RA0004",
            Lint::HotAlloc => "RA0005",
            Lint::LockDiscipline => "RA0006",
            Lint::Hygiene => "RA0007",
        }
    }

    /// Short human name.
    pub fn name(self) -> &'static str {
        match self {
            Lint::UnsafeSafety => "unsafe-safety-comment",
            Lint::OrderingJustify => "ordering-justification",
            Lint::SeqCstAllowlist => "seqcst-allowlist",
            Lint::PanicPath => "panic-path",
            Lint::HotAlloc => "hot-alloc",
            Lint::LockDiscipline => "lock-discipline",
            Lint::Hygiene => "hygiene",
        }
    }

    /// All lint families, in id order.
    pub fn all() -> [Lint; 7] {
        [
            Lint::UnsafeSafety,
            Lint::OrderingJustify,
            Lint::SeqCstAllowlist,
            Lint::PanicPath,
            Lint::HotAlloc,
            Lint::LockDiscipline,
            Lint::Hygiene,
        ]
    }
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.id(), self.name())
    }
}

/// One diagnostic: where, which lint, what, and how to fix it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Workspace-relative file path.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// The lint family.
    pub lint: Lint,
    /// What is wrong.
    pub message: String,
    /// How to fix it.
    pub suggestion: String,
}

/// How a file participates in linting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// A library target: every lint applies.
    Lib,
    /// A binary / example target: all lints except the `println!` deny.
    Bin,
    /// A test target: exempt (tests unwrap and panic on purpose).
    Test,
}

/// Classifies a workspace-relative path (forward slashes). `files` is
/// every scanned source path: a module under `<pkg>/src/` of a package
/// that has `src/main.rs` and no `src/lib.rs` belongs to a binary.
pub fn classify(rel: &str, files: &[String]) -> FileClass {
    if rel.contains("/tests/") || rel.starts_with("tests/") {
        return FileClass::Test;
    }
    if rel.contains("/examples/")
        || rel.starts_with("examples/")
        || rel.contains("/benches/")
        || rel.contains("/bin/")
        || rel.ends_with("/main.rs")
        || rel == "main.rs"
        || rel.ends_with("build.rs")
    {
        return FileClass::Bin;
    }
    if binary_only_package(rel, files) {
        return FileClass::Bin;
    }
    FileClass::Lib
}

/// Whether `rel` sits under the `src/` of a package with a `src/main.rs`
/// and no `src/lib.rs`.
fn binary_only_package(rel: &str, files: &[String]) -> bool {
    let pkg = if rel.starts_with("src/") {
        ""
    } else {
        match rel.find("/src/") {
            Some(i) => &rel[..=i],
            None => return false,
        }
    };
    files.contains(&format!("{pkg}src/main.rs")) && !files.contains(&format!("{pkg}src/lib.rs"))
}

/// Runs every applicable lint over one file's source.
pub fn check_source(rel: &str, class: FileClass, src: &str, cfg: &Config) -> Vec<Violation> {
    if class == FileClass::Test {
        return Vec::new();
    }
    let lexed = lex(src);
    let model = build(&lexed);
    let mut out = Vec::new();

    check_unsafe(rel, &lexed, &model, &mut out);
    check_ordering(rel, &lexed, &model, cfg, &mut out);
    check_zones(rel, &lexed, &model, cfg, &mut out);
    check_nested_locks(rel, &lexed, &model, &mut out);
    check_hygiene(rel, class, &lexed, &model, cfg, &mut out);

    out.sort_by(|a, b| (a.line, a.lint).cmp(&(b.line, b.lint)));
    out
}

const ATOMIC_ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

fn ident<'a>(lexed: &'a LexedFile, i: usize) -> Option<&'a str> {
    match lexed.tokens.get(i).map(|t| &t.kind) {
        Some(TokenKind::Ident(s)) => Some(s.as_str()),
        _ => None,
    }
}

fn punct(lexed: &LexedFile, i: usize, c: char) -> bool {
    matches!(lexed.tokens.get(i).map(|t| &t.kind), Some(TokenKind::Punct(p)) if *p == c)
}

/// RA0001: every `unsafe` keyword (fn, block, impl) needs a `// SAFETY:`
/// comment immediately above (or a `# Safety` rustdoc section for
/// `unsafe fn` declarations).
fn check_unsafe(rel: &str, lexed: &LexedFile, model: &FileModel, out: &mut Vec<Violation>) {
    for (i, t) in lexed.tokens.iter().enumerate() {
        if ident(lexed, i) != Some("unsafe") || model.in_test(t.line) {
            continue;
        }
        let justification = model.justifying_comments(t.line);
        if justification.contains("SAFETY:") || justification.contains("# Safety") {
            continue;
        }
        out.push(Violation {
            path: rel.to_string(),
            line: t.line,
            lint: Lint::UnsafeSafety,
            message: "`unsafe` site without a `// SAFETY:` comment".to_string(),
            suggestion: "state the invariant that makes this sound (bounds, aliasing, \
                         initialization) in a `// SAFETY:` comment directly above"
                .to_string(),
        });
    }
}

/// RA0002 + RA0003: `Ordering::X` must be justified by a comment naming
/// `X` on the same or preceding line(s); `SeqCst` additionally requires the
/// file to be on the allowlist.
fn check_ordering(
    rel: &str,
    lexed: &LexedFile,
    model: &FileModel,
    cfg: &Config,
    out: &mut Vec<Violation>,
) {
    for (i, t) in lexed.tokens.iter().enumerate() {
        if ident(lexed, i) != Some("Ordering") || model.in_test(t.line) {
            continue;
        }
        if !(punct(lexed, i + 1, ':') && punct(lexed, i + 2, ':')) {
            continue;
        }
        let Some(variant) = ident(lexed, i + 3) else {
            continue;
        };
        if !ATOMIC_ORDERINGS.contains(&variant) {
            continue;
        }
        let line = lexed.tokens[i + 3].line;
        if !model.justifying_comments(line).contains(variant) {
            out.push(Violation {
                path: rel.to_string(),
                line,
                lint: Lint::OrderingJustify,
                message: format!("`Ordering::{variant}` without a justification comment"),
                suggestion: format!(
                    "add a comment naming `{variant}` on this or the preceding line \
                     explaining why this ordering is sufficient"
                ),
            });
        }
        if variant == "SeqCst" && !cfg.seqcst_allow.iter().any(|p| p == rel) {
            out.push(Violation {
                path: rel.to_string(),
                line,
                lint: Lint::SeqCstAllowlist,
                message: "`Ordering::SeqCst` outside the allowlist".to_string(),
                suggestion: "prefer Acquire/Release or Relaxed with a rationale; if SeqCst \
                             is genuinely required, add the file to `[ordering] seqcst_allow` \
                             in analysis.toml"
                    .to_string(),
            });
        }
    }
}

/// Statement-leading keywords that bind a value for the enclosing block
/// (used to decide whether a `lock()` guard outlives its statement).
const BINDING_STARTS: [&str; 5] = ["let", "if", "while", "for", "match"];

/// Keywords that may directly precede `[` without forming an index
/// expression (`let [a, b] = …`, `for [x, y] in …`).
const NON_INDEX_KEYWORDS: [&str; 14] = [
    "let", "in", "if", "while", "match", "return", "mut", "ref", "as", "const", "static", "else",
    "move", "break",
];

/// RA0004 + RA0005 + the zone half of RA0006: walks each configured zone.
fn check_zones(
    rel: &str,
    lexed: &LexedFile,
    model: &FileModel,
    cfg: &Config,
    out: &mut Vec<Violation>,
) {
    for zone in cfg.zones.iter().filter(|z| z.path == rel) {
        let in_zone = |line: usize| -> bool {
            !model.in_test(line)
                && (zone.functions.is_empty()
                    || zone.functions.iter().any(|f| model.in_fn(f, line)))
        };
        for (i, t) in lexed.tokens.iter().enumerate() {
            if !in_zone(t.line) {
                continue;
            }
            for &deny in &zone.deny {
                if let Some(message) = deny_hit(lexed, i, deny) {
                    out.push(zone_violation(rel, t.line, zone, deny, message));
                }
            }
        }
    }
}

/// Does token `i` trigger `deny`? Returns the message if so.
fn deny_hit(lexed: &LexedFile, i: usize, deny: Deny) -> Option<String> {
    let id = ident(lexed, i);
    match deny {
        Deny::Unwrap if id == Some("unwrap") && punct(lexed, i + 1, '(') => {
            Some("`.unwrap()` call".to_string())
        }
        Deny::Expect if id == Some("expect") && punct(lexed, i + 1, '(') => {
            Some("`.expect(…)` call".to_string())
        }
        Deny::Panic
            if matches!(id, Some("panic") | Some("unreachable")) && punct(lexed, i + 1, '!') =>
        {
            Some(format!("`{}!` invocation", id.unwrap_or_default()))
        }
        Deny::Indexing if punct(lexed, i, '[') && i > 0 => {
            let indexes = match &lexed.tokens[i - 1].kind {
                TokenKind::Ident(s) => !NON_INDEX_KEYWORDS.contains(&s.as_str()),
                TokenKind::Punct(')') | TokenKind::Punct(']') => true,
                _ => false,
            };
            indexes.then(|| "index/slice expression (can panic on out-of-bounds)".to_string())
        }
        Deny::Alloc => alloc_hit(lexed, i),
        Deny::BlockingLock
            if punct(lexed, i, '.')
                && ident(lexed, i + 1) == Some("lock")
                && punct(lexed, i + 2, '(') =>
        {
            Some("blocking `.lock()` in a try-lock-only zone".to_string())
        }
        _ => None,
    }
}

/// Allocation-shaped token patterns for RA0005.
fn alloc_hit(lexed: &LexedFile, i: usize) -> Option<String> {
    let id = ident(lexed, i)?;
    let hit = |ctors: &[&str]| {
        let ctor = assoc_fn(lexed, i)?;
        ctors
            .contains(&ctor)
            .then(|| format!("`{id}::{ctor}` allocates"))
    };
    match id {
        "vec" | "format" if punct(lexed, i + 1, '!') => Some(format!("`{id}!` allocates")),
        "Vec" | "String" | "Box" => hit(&["new", "from", "with_capacity"]),
        "Arc" | "Rc" => hit(&["new", "from", "new_cyclic", "pin"]),
        // Collections that allocate on construction or on first insert:
        // building one per call is the allocation, whichever constructor.
        "BTreeMap" | "BTreeSet" | "HashMap" | "HashSet" | "VecDeque" | "BinaryHeap" => {
            hit(&["new", "from", "with_capacity", "default", "from_iter"])
        }
        "to_vec" | "to_string" | "to_owned" | "clone" | "collect" if i > 0 => {
            punct(lexed, i - 1, '.').then(|| format!("`.{id}()` allocates"))
        }
        _ => None,
    }
}

/// The associated function named by the path `Type::f` or `Type::<…>::f`
/// whose type name is token `i`.
fn assoc_fn(lexed: &LexedFile, i: usize) -> Option<&str> {
    let path_sep = |j: usize| punct(lexed, j, ':') && punct(lexed, j + 1, ':');
    if !path_sep(i + 1) {
        return None;
    }
    let mut j = i + 3;
    if punct(lexed, j, '<') {
        // Skip the turbofish's generic arguments, nested brackets included.
        let mut depth = 0usize;
        loop {
            if punct(lexed, j, '<') {
                depth += 1;
            } else if punct(lexed, j, '>') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if j >= lexed.tokens.len() {
                return None;
            }
            j += 1;
        }
        if !path_sep(j + 1) {
            return None;
        }
        j += 3;
    }
    ident(lexed, j)
}

fn zone_violation(rel: &str, line: usize, zone: &Zone, deny: Deny, message: String) -> Violation {
    let (lint, suggestion) = match deny {
        Deny::Alloc => (
            Lint::HotAlloc,
            "hot path is zero-alloc by contract (PR 3 Scratch arenas): reuse a caller-provided \
             buffer or hoist the allocation out of the loop"
                .to_string(),
        ),
        Deny::BlockingLock => (
            Lint::LockDiscipline,
            "telemetry recording paths must never block: use `try_lock()` and drop the sample \
             on contention"
                .to_string(),
        ),
        _ => (
            Lint::PanicPath,
            "degrade gracefully: recover poisoned locks with \
             `unwrap_or_else(PoisonError::into_inner)`, turn disconnects into drain/shutdown \
             paths, and bounds-check instead of indexing"
                .to_string(),
        ),
    };
    Violation {
        path: rel.to_string(),
        line,
        lint,
        message: format!("{message} in zone `{}`", zone.reason),
        suggestion,
    }
}

/// RA0006 (global half): within one function body, taking a second
/// `.lock()` while a bound guard from an earlier `.lock()` is still live is
/// denied — lock-ordering deadlocks are impossible if no thread ever holds
/// two locks.
///
/// A guard counts as live when its statement begins with a binding keyword
/// (`let`, `if let`, `while let`, …) and its enclosing block is still open;
/// bare `x.lock().…` temporaries die at the end of their statement.
fn check_nested_locks(rel: &str, lexed: &LexedFile, model: &FileModel, out: &mut Vec<Violation>) {
    for f in &model.fn_spans {
        if f.body_start == usize::MAX || model.in_test(f.start_line) {
            continue;
        }
        // Skip lexically nested fn items: an inner `fn` cannot capture the
        // outer guard, so its locks are a different runtime context.
        let nested: Vec<(usize, usize)> = model
            .fn_spans
            .iter()
            .filter(|g| {
                g.body_start != usize::MAX
                    && g.body_start > f.body_start
                    && g.body_end <= f.body_end
            })
            .map(|g| (g.body_start, g.body_end))
            .collect();

        let mut depth = 0usize;
        let mut live_guards: Vec<usize> = Vec::new();
        let mut i = f.body_start;
        while i < f.body_end.min(lexed.tokens.len()) {
            if let Some(&(_, end)) = nested.iter().find(|&&(s, e)| s <= i && i < e) {
                i = end;
                continue;
            }
            match &lexed.tokens[i].kind {
                TokenKind::Punct('{') => depth += 1,
                TokenKind::Punct('}') => {
                    depth = depth.saturating_sub(1);
                    live_guards.retain(|&g| g <= depth);
                }
                TokenKind::Punct('.')
                    if ident(lexed, i + 1) == Some("lock") && punct(lexed, i + 2, '(') =>
                {
                    let line = lexed.tokens[i].line;
                    if !live_guards.is_empty() {
                        out.push(Violation {
                            path: rel.to_string(),
                            line,
                            lint: Lint::LockDiscipline,
                            message: format!(
                                "nested `.lock()` while an earlier guard is live in fn `{}`",
                                f.name
                            ),
                            suggestion: "hold at most one lock at a time: drop or scope the \
                                         first guard before taking the second"
                                .to_string(),
                        });
                    }
                    if statement_binds(lexed, f.body_start, i) {
                        live_guards.push(depth);
                    }
                }
                _ => {}
            }
            i += 1;
        }
    }
}

/// Does the statement containing token `i` begin with a binding keyword?
fn statement_binds(lexed: &LexedFile, body_start: usize, i: usize) -> bool {
    let mut j = i;
    while j > body_start {
        match &lexed.tokens[j - 1].kind {
            TokenKind::Punct(';') | TokenKind::Punct('{') | TokenKind::Punct('}') => break,
            _ => j -= 1,
        }
    }
    matches!(lexed.tokens.get(j).map(|t| &t.kind),
        Some(TokenKind::Ident(s)) if BINDING_STARTS.contains(&s.as_str()))
}

/// RA0007: `dbg!`/`todo!`/`unimplemented!` anywhere; print-family macros in
/// library targets (unless the crate is on the `print_allow` list).
fn check_hygiene(
    rel: &str,
    class: FileClass,
    lexed: &LexedFile,
    model: &FileModel,
    cfg: &Config,
    out: &mut Vec<Violation>,
) {
    let print_allowed =
        class == FileClass::Bin || cfg.print_allow.iter().any(|p| rel.starts_with(p.as_str()));
    for (i, t) in lexed.tokens.iter().enumerate() {
        if model.in_test(t.line) || !punct(lexed, i + 1, '!') {
            continue;
        }
        let Some(name) = ident(lexed, i) else {
            continue;
        };
        let (message, suggestion) = match name {
            "dbg" | "todo" | "unimplemented" => (
                format!("stray `{name}!`"),
                "remove the placeholder before landing".to_string(),
            ),
            "println" | "print" | "eprintln" | "eprint" if !print_allowed => (
                format!("`{name}!` in a library crate"),
                "libraries report through return values or rbnn-telemetry, not stdout; \
                 move printing into the binary target"
                    .to_string(),
            ),
            _ => continue,
        };
        out.push(Violation {
            path: rel.to_string(),
            line: t.line,
            lint: Lint::Hygiene,
            message,
            suggestion,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(src: &str) -> Vec<Violation> {
        check_source(
            "crates/x/src/lib.rs",
            FileClass::Lib,
            src,
            &Config::default(),
        )
    }

    #[test]
    fn modules_of_binary_only_packages_are_binaries() {
        let files: Vec<String> = [
            "bench/src/main.rs",
            "bench/src/report.rs",
            "crates/x/src/lib.rs",
            "crates/x/src/main.rs",
            "crates/x/src/util.rs",
            "crates/y/src/util.rs",
        ]
        .map(String::from)
        .to_vec();
        assert_eq!(classify("bench/src/report.rs", &files), FileClass::Bin);
        assert_eq!(classify("bench/src/main.rs", &files), FileClass::Bin);
        // A package with a library target keeps its modules library code.
        assert_eq!(classify("crates/x/src/util.rs", &files), FileClass::Lib);
        // No binary target at all: library.
        assert_eq!(classify("crates/y/src/util.rs", &files), FileClass::Lib);
        assert_eq!(classify("bench/tests/t.rs", &files), FileClass::Test);
    }

    #[test]
    fn unsafe_requires_safety_comment() {
        let bad = "pub fn f(p: *mut u8) { unsafe { *p = 0 }; }";
        assert!(check(bad).iter().any(|v| v.lint == Lint::UnsafeSafety));
        let good = "pub fn f(p: *mut u8) {\n    // SAFETY: p is valid for writes by contract.\n    unsafe { *p = 0 };\n}";
        assert!(check(good).is_empty());
    }

    #[test]
    fn ordering_requires_named_justification() {
        let bad = "fn f(a: &AtomicUsize) { a.load(Ordering::Relaxed); }";
        assert!(check(bad).iter().any(|v| v.lint == Lint::OrderingJustify));
        let good = "fn f(a: &AtomicUsize) {\n    // Relaxed: independent counter, no ordering needed.\n    a.load(Ordering::Relaxed);\n}";
        assert!(check(good).is_empty());
        let trailing =
            "fn f(a: &AtomicUsize) { a.load(Ordering::Relaxed); // Relaxed: plain count.\n}";
        assert!(check(trailing).is_empty());
    }

    #[test]
    fn seqcst_denied_off_allowlist() {
        let src =
            "fn f(a: &AtomicUsize) {\n    // SeqCst: because.\n    a.load(Ordering::SeqCst);\n}";
        assert!(check(src).iter().any(|v| v.lint == Lint::SeqCstAllowlist));
        let mut cfg = Config::default();
        cfg.seqcst_allow.push("crates/x/src/lib.rs".to_string());
        let vs = check_source("crates/x/src/lib.rs", FileClass::Lib, src, &cfg);
        assert!(vs.is_empty());
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f(a: &AtomicUsize) { a.load(Ordering::SeqCst); let x = v[0]; x.unwrap(); }\n}";
        assert!(check(src).is_empty());
    }

    #[test]
    fn nested_lock_flagged_only_when_guard_is_bound() {
        let bad = "fn f(a: &Mutex<u8>, b: &Mutex<u8>) {\n    let g1 = a.lock().ok();\n    let g2 = b.lock().ok();\n}";
        assert!(check(bad).iter().any(|v| v.lint == Lint::LockDiscipline));
        let temp = "fn f(a: &Mutex<u8>, b: &Mutex<u8>) {\n    let n = *a.lock().ok().take().here();\n}\nfn g(a: &Mutex<u8>) { let x = a.lock(); }";
        assert!(check(temp).is_empty());
    }

    #[test]
    fn zone_denies_fire_inside_named_functions_only() {
        let mut cfg = Config::default();
        cfg.zones.push(crate::config::Zone {
            path: "crates/x/src/lib.rs".to_string(),
            functions: vec!["hot".to_string()],
            deny: vec![Deny::Unwrap, Deny::Alloc, Deny::Indexing],
            reason: "hot loop".to_string(),
        });
        let src = "fn hot(v: &[u8]) { let a = v.to_vec(); let b = v[0]; a.first().unwrap(); }\nfn cold(v: &[u8]) { let _ = v.to_vec(); }";
        let vs = check_source("crates/x/src/lib.rs", FileClass::Lib, src, &cfg);
        assert_eq!(vs.iter().filter(|v| v.lint == Lint::HotAlloc).count(), 1);
        assert_eq!(vs.iter().filter(|v| v.lint == Lint::PanicPath).count(), 2);
        assert!(vs.iter().all(|v| v.line == 1));
    }

    #[test]
    fn alloc_zone_flags_shared_pointers_and_collections() {
        let mut cfg = Config::default();
        cfg.zones.push(crate::config::Zone {
            path: "crates/x/src/lib.rs".to_string(),
            functions: vec!["hot".to_string()],
            deny: vec![Deny::Alloc],
            reason: "hot loop".to_string(),
        });
        let flagged = [
            "let a = Arc::new(1);",
            "let a = std::sync::Arc::from(v);",
            "let r = Rc::new(1);",
            "let m: BTreeMap<u8, u8> = BTreeMap::new();",
            "let m = HashMap::with_capacity(4);",
            "let s = HashSet::default();",
            "let q = VecDeque::from(v);",
            "let q = std::collections::VecDeque::with_capacity(8);",
            "let m = HashMap::<u8, Vec<u8>>::new();",
            "let v = Vec::<u8>::with_capacity(8);",
        ];
        for body in flagged {
            let src = format!("fn hot(v: Vec<u8>) {{ {body} }}");
            let vs = check_source("crates/x/src/lib.rs", FileClass::Lib, &src, &cfg);
            assert_eq!(
                vs.iter().filter(|v| v.lint == Lint::HotAlloc).count(),
                1,
                "{body}"
            );
        }
        // Sharing an existing pointer, naming a type and lookups do not
        // allocate.
        let clean = "fn hot(a: &Arc<u8>, m: &BTreeMap<u8, u8>, q: &mut VecDeque<u8>) { \
                     let b = Arc::clone(a); let n = Arc::strong_count(&b); \
                     let x = m.get(&1); q.pop_front(); }";
        let vs = check_source("crates/x/src/lib.rs", FileClass::Lib, clean, &cfg);
        assert!(vs.is_empty(), "{vs:?}");
    }

    #[test]
    fn hygiene_scopes_print_to_libraries() {
        let src = "fn f() { println!(\"x\"); }";
        assert!(check(src).iter().any(|v| v.lint == Lint::Hygiene));
        assert!(check_source(
            "crates/x/src/bin/t.rs",
            FileClass::Bin,
            src,
            &Config::default()
        )
        .is_empty());
        let mut cfg = Config::default();
        cfg.print_allow.push("crates/x".to_string());
        assert!(check_source("crates/x/src/lib.rs", FileClass::Lib, src, &cfg).is_empty());
        assert!(!check_source(
            "crates/x/src/lib.rs",
            FileClass::Lib,
            "fn f() { dbg!(1); }",
            &cfg
        )
        .is_empty());
    }

    #[test]
    fn try_lock_only_zone() {
        let mut cfg = Config::default();
        cfg.zones.push(crate::config::Zone {
            path: "crates/x/src/lib.rs".to_string(),
            functions: Vec::new(),
            deny: vec![Deny::BlockingLock],
            reason: "try-lock only".to_string(),
        });
        let bad = "fn f(m: &Mutex<u8>) { let g = m.lock(); }";
        assert!(!check_source("crates/x/src/lib.rs", FileClass::Lib, bad, &cfg).is_empty());
        let good = "fn f(m: &Mutex<u8>) { if let Ok(g) = m.try_lock() {} }";
        assert!(check_source("crates/x/src/lib.rs", FileClass::Lib, good, &cfg).is_empty());
    }
}
