//! Negative fixtures: one deliberately-violating snippet per lint rule,
//! pinned to exact file/line/rule so a regression in any detector fails
//! loudly. The fixtures live under `tests/fixtures/`, which
//! `lint_workspace` skips — they must never fail the real workspace lint.

use xtask::{lint_file, lint_file_with, lint_sources, MetricRegistry, Violation};

fn workspace_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf()
}

fn lines_for<'a>(violations: &'a [Violation], rule: &str) -> Vec<(usize, &'a str)> {
    violations
        .iter()
        .filter(|v| v.rule == rule)
        .map(|v| (v.line, v.rule))
        .collect()
}

#[test]
fn float_ord_fixture_fires() {
    let src = include_str!("fixtures/float_ord.rs");
    // Lint as a skyline-crate file: float-ord applies everywhere.
    let v = lint_file("crates/skyline/src/bad_sort.rs", src);
    assert_eq!(
        lines_for(&v, xtask::RULE_FLOAT_ORD),
        vec![(6, "float-ord"), (12, "float-ord")],
        "got: {v:?}"
    );
    // Nothing else fires: the file keeps its forbid(unsafe_code) and is
    // outside the hash-order/unwrap scopes.
    assert_eq!(v.len(), 2, "got: {v:?}");
}

#[test]
fn hash_order_fixture_fires() {
    let src = include_str!("fixtures/hash_order.rs");
    // Lint as a core query-path file: hash containers are banned there.
    let v = lint_file("crates/core/src/ce.rs", src);
    assert_eq!(
        lines_for(&v, xtask::RULE_HASH_ORDER),
        vec![(5, "hash-order"), (8, "hash-order"), (14, "hash-order")],
        "got: {v:?}"
    );
}

#[test]
fn panic_path_fixture_fires() {
    let src = include_str!("fixtures/panic_path.rs");
    // The rule needs a call graph, so lint through the workspace seam.
    let v = lint_sources(&[("crates/core/src/engine.rs".to_string(), src.to_string())]);
    assert_eq!(
        lines_for(&v, xtask::RULE_PANIC_PATH),
        vec![(13, "panic-path")],
        "got: {v:?}"
    );
    // The message names the entry point and the shortest path to the site.
    let finding = v.iter().find(|v| v.rule == "panic-path").expect("finding");
    assert!(finding.message.contains("`run`"), "got: {finding}");
    assert!(
        finding.message.contains("run -> step -> deep"),
        "got: {finding}"
    );
}

#[test]
fn det_taint_fixture_fires() {
    let src = include_str!("fixtures/det_taint.rs");
    let v = lint_sources(&[("crates/core/src/finish.rs".to_string(), src.to_string())]);
    assert_eq!(
        lines_for(&v, xtask::RULE_DET_TAINT),
        vec![(4, "det-taint")],
        "got: {v:?}"
    );
    let finding = v.iter().find(|v| v.rule == "det-taint").expect("finding");
    assert!(finding.message.contains("wall-clock"), "got: {finding}");
}

#[test]
fn lock_reach_fixture_fires() {
    let hot = include_str!("fixtures/lock_reach.rs");
    let store = include_str!("fixtures/lock_reach_store.rs");
    let v = lint_sources(&[
        ("crates/sp/src/relax.rs".to_string(), hot.to_string()),
        ("crates/storage/src/pool.rs".to_string(), store.to_string()),
    ]);
    let findings: Vec<&Violation> = v.iter().filter(|v| v.rule == "lock-reach").collect();
    assert_eq!(findings.len(), 1, "got: {v:?}");
    assert_eq!(findings[0].file, "crates/sp/src/relax.rs");
    assert_eq!(findings[0].line, 5);
    assert!(
        findings[0].message.contains("relax_all -> fetch_page"),
        "got: {}",
        findings[0]
    );
}

#[test]
fn unsafe_fixture_fires() {
    let src = include_str!("fixtures/unsafe_code.rs");
    // Lint as a crate root: the forbid(unsafe_code) attribute is missing.
    let v = lint_file("crates/widget/src/lib.rs", src);
    assert_eq!(
        lines_for(&v, xtask::RULE_UNSAFE),
        vec![(1, "unsafe")],
        "got: {v:?}"
    );
}

#[test]
fn apsp_fixture_fires() {
    let src = include_str!("fixtures/apsp.rs");
    let v = lint_file("crates/index/src/matrix.rs", src);
    let apsp = lines_for(&v, xtask::RULE_APSP);
    assert_eq!(
        apsp,
        vec![(10, "apsp"), (13, "apsp")],
        "pair-keyed map and apsp-named builder must both fire; got: {v:?}"
    );
}

#[test]
fn hot_lock_fixture_fires() {
    let src = include_str!("fixtures/hot_lock.rs");
    // Lint as a parallel-primitives file: the whole crate is hot path.
    let v = lint_file("crates/par/src/pool.rs", src);
    let mut got = lines_for(&v, xtask::RULE_HOT_LOCK);
    got.sort_unstable();
    assert_eq!(
        got,
        vec![
            (4, "hot-lock"),
            (5, "hot-lock"),
            (9, "hot-lock"),
            (14, "hot-lock"),
        ],
        "got: {v:?}"
    );
}

#[test]
fn shard_lock_fixture_fires() {
    let src = include_str!("fixtures/shard_lock.rs");
    // Lint under the sharded pool's path: the one file in scope.
    let v = lint_file("crates/storage/src/shard.rs", src);
    assert_eq!(
        lines_for(&v, xtask::RULE_SHARD_LOCK),
        vec![(7, "shard-lock")],
        "the second acquisition in `transfer` must fire; got: {v:?}"
    );
    let finding = v.iter().find(|v| v.rule == "shard-lock").expect("finding");
    assert!(
        finding.message.contains("`transfer`") && finding.message.contains("2 shard locks"),
        "got: {finding}"
    );
    // The loop shape and the blessed ordering stay silent, and no other
    // rule fires on the fixture.
    assert_eq!(v.len(), 1, "got: {v:?}");
    // Outside the sharded pool the rule does not run at all.
    assert!(lint_file("crates/storage/src/buffer.rs", src).is_empty());
}

#[test]
fn metric_name_fixture_fires() {
    let src = include_str!("fixtures/metric_name.rs");
    // The real registry, parsed from the obs crate root exactly as
    // `lint_workspace` does it.
    let obs = include_str!("../../obs/src/lib.rs");
    let reg = MetricRegistry::parse(obs).expect("obs crate carries metric-names markers");
    let v = lint_file_with("crates/core/src/stats.rs", src, Some(&reg));
    let mut got = lines_for(&v, xtask::RULE_METRIC_NAME);
    got.sort_unstable();
    assert_eq!(
        got,
        vec![
            (7, "metric-name"),
            (8, "metric-name"),
            (10, "metric-name"),
            (13, "metric-name"),
            (16, "metric-name"),
        ],
        "got: {v:?}"
    );
}

#[test]
fn suppression_comment_silences_each_rule() {
    let cases: [(&str, &str); 3] = [
        (
            "crates/skyline/src/bad_sort.rs",
            "pub fn f(v: &mut Vec<f64>) {\n    // lint: allow(float-ord) — test helper\n    v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n}\n",
        ),
        (
            "crates/core/src/ce.rs",
            "use std::collections::HashMap; // lint: allow(hash-order)\n",
        ),
        (
            "crates/core/src/batch.rs",
            "use std::sync::Mutex; // lint: allow(hot-lock)\n",
        ),
    ];
    for (rel, src) in cases {
        let v = lint_file(rel, src);
        assert!(v.is_empty(), "{rel}: suppression ignored, got {v:?}");
    }
    // Reachability rules: an allow on the fn definition line blesses the
    // seam and stops traversal through it.
    let sources = vec![
        (
            "crates/core/src/engine.rs".to_string(),
            "pub fn run(q: Query) -> Out { deep(q) }\n".to_string(),
        ),
        (
            "crates/skyline/src/dominance.rs".to_string(),
            "// lint: allow(panic-path) — validated upstream\npub fn deep(q: Query) -> Out { q.first().unwrap() }\n".to_string(),
        ),
    ];
    let v = lint_sources(&sources);
    assert!(v.is_empty(), "panic-path seam ignored, got {v:?}");
}

#[test]
fn workspace_walk_skips_fixture_directory() {
    // The repository's own lint must be clean even though the fixtures
    // deliberately violate every rule.
    let v = xtask::lint_workspace(&workspace_root());
    assert!(v.is_empty(), "workspace lint must stay clean: {v:?}");
}

#[test]
fn panic_path_reaches_every_dispatched_algorithm() {
    // The real crate sources, with a bare `.unwrap()` injected at the top
    // of functions the engine's single query path dispatches to: the
    // brute-force oracle and two of the paper's algorithms. Each must be
    // flagged once, as reachable from the public `run_plan` entry point
    // through its one dispatch.
    let targets = [
        ("crates/core/src/brute.rs", "pub(crate) fn run("),
        ("crates/core/src/edc.rs", "pub(crate) fn run("),
        ("crates/core/src/lbc.rs", "pub(crate) fn run("),
    ];
    let mut sources: Vec<(String, String)> = xtask::workspace_sources(&workspace_root())
        .into_iter()
        .filter(|(rel, _)| rel.starts_with("crates/") && rel.contains("/src/"))
        .collect();
    let mut injected = Vec::new();
    for (file, signature) in targets {
        let (_, src) = sources
            .iter_mut()
            .find(|(rel, _)| rel == file)
            .expect("algorithm source present");
        let sig = src.find(signature).expect("algorithm signature present");
        let open = sig + src[sig..].find("{\n").expect("algorithm body");
        src.insert_str(open + 1, "\n    None::<u8>.unwrap();");
        injected.push((file.to_string(), src[..open].lines().count() + 1));
    }
    let found: Vec<Violation> = lint_sources(&sources)
        .into_iter()
        .filter(|v| v.rule == xtask::RULE_PANIC_PATH)
        .collect();
    let sites: Vec<(String, usize)> = found.iter().map(|v| (v.file.clone(), v.line)).collect();
    assert_eq!(sites, injected, "one panic-path finding per injected site");
    for v in &found {
        let via = "public entry `SkylineEngine::run_plan` (SkylineEngine::run_plan -> dispatch -> ";
        assert!(v.message.contains(via), "not reached through run_plan: {v}");
    }
}

#[test]
fn panic_path_reaches_dynamic_updates_and_network_input() {
    // The real crate sources, with a bare `.unwrap()` injected into a
    // function only `DynamicEngine::apply` calls and into one only
    // `read_network` calls. Each must be flagged once, through its entry.
    let targets = [
        (
            "crates/core/src/dynamic.rs",
            "    fn certify(",
            "public entry `DynamicEngine::apply` (DynamicEngine::apply -> DynamicEngine::certify)",
        ),
        (
            "crates/graph/src/io.rs",
            "fn parse_u32(",
            "public entry `read_network` (read_network -> parse_u32)",
        ),
    ];
    let mut sources: Vec<(String, String)> = xtask::workspace_sources(&workspace_root())
        .into_iter()
        .filter(|(rel, _)| rel.starts_with("crates/") && rel.contains("/src/"))
        .collect();
    let mut injected = Vec::new();
    for (file, signature, _) in targets {
        let (_, src) = sources
            .iter_mut()
            .find(|(rel, _)| rel == file)
            .expect("source present");
        let sig = src.find(signature).expect("signature present");
        let open = sig + src[sig..].find("{\n").expect("function body");
        src.insert_str(open + 1, "\n    None::<u8>.unwrap();");
        injected.push((file.to_string(), src[..open].lines().count() + 1));
    }
    let found: Vec<Violation> = lint_sources(&sources)
        .into_iter()
        .filter(|v| v.rule == xtask::RULE_PANIC_PATH)
        .collect();
    let sites: Vec<(String, usize)> = found.iter().map(|v| (v.file.clone(), v.line)).collect();
    assert_eq!(sites, injected, "one panic-path finding per injected site");
    for (v, (_, _, via)) in found.iter().zip(targets) {
        assert!(v.message.contains(via), "not reached through {via}: {v}");
    }
}
