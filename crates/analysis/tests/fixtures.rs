//! End-to-end corpus test: the engine must flag every seeded violation in
//! `fixtures/bad/` (all seven lint families) and stay silent on the
//! `fixtures/good/` mirror, under the same `fixtures.toml` policy.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use rbnn_analysis::{load_config, scan, Report};

fn fixtures_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn scan_prefix(prefix: &str) -> Report {
    let root = fixtures_root();
    let cfg = load_config(&root.join("fixtures.toml")).expect("fixtures.toml parses");
    scan(&root, &cfg, &[prefix.to_string()]).expect("fixture scan succeeds")
}

#[test]
fn good_corpus_is_clean() {
    let report = scan_prefix("good");
    assert!(report.files_scanned > 0, "good fixtures were not found");
    assert!(
        report.violations.is_empty(),
        "good corpus must be violation-free, got:\n{}",
        report.render_text()
    );
    assert!(report.passed());
}

#[test]
fn bad_corpus_trips_every_lint_family() {
    let report = scan_prefix("bad");
    assert!(!report.passed());
    let fired: BTreeSet<&str> = report.violations.iter().map(|v| v.lint.id()).collect();
    for id in [
        "RA0001", "RA0002", "RA0003", "RA0004", "RA0005", "RA0006", "RA0007",
    ] {
        assert!(
            fired.contains(id),
            "seeded corpus must trip {id}; fired: {fired:?}\n{}",
            report.render_text()
        );
    }
}

#[test]
fn bad_corpus_findings_are_precisely_located() {
    let report = scan_prefix("bad");
    let has = |path: &str, line: usize, id: &str| {
        report
            .violations
            .iter()
            .any(|v| v.path == path && v.line == line && v.lint.id() == id)
    };
    // One hand-checked anchor per family keeps file:line reporting honest.
    assert!(
        has("bad/unsafe_missing.rs", 4, "RA0001"),
        "{}",
        report.render_text()
    );
    assert!(
        has("bad/ordering_bare.rs", 8, "RA0002"),
        "{}",
        report.render_text()
    );
    assert!(
        has("bad/seqcst_denied.rs", 10, "RA0003"),
        "{}",
        report.render_text()
    );
    assert!(
        has("bad/panic_zone.rs", 13, "RA0004"),
        "{}",
        report.render_text()
    );
    assert!(
        has("bad/hot_alloc.rs", 4, "RA0005"),
        "{}",
        report.render_text()
    );
    // Shared-pointer and collection construction: `Arc::new`,
    // `BTreeMap::new`, `VecDeque::with_capacity`, `Rc::new` + `HashMap::new`.
    for line in [17, 18, 19] {
        assert!(
            has("bad/hot_alloc.rs", line, "RA0005"),
            "line {line}:\n{}",
            report.render_text()
        );
    }
    let rc_and_map = report
        .violations
        .iter()
        .filter(|v| v.path == "bad/hot_alloc.rs" && v.line == 20 && v.lint.id() == "RA0005")
        .count();
    assert_eq!(rc_and_map, 2, "{}", report.render_text());
    assert!(
        has("bad/lock_discipline.rs", 13, "RA0006"),
        "{}",
        report.render_text()
    );
    assert!(
        has("bad/hygiene_bad.rs", 5, "RA0007"),
        "{}",
        report.render_text()
    );
}

#[test]
fn full_corpus_fails_only_because_of_bad() {
    let all = scan_prefix("");
    let bad = scan_prefix("bad");
    assert_eq!(
        all.violations.len(),
        bad.violations.len(),
        "every corpus violation must come from bad/:\n{}",
        all.render_text()
    );
}
