#![forbid(unsafe_code)]
//! Workspace lint + CI tooling (`cargo run -p xtask -- lint`).
//!
//! The lint enforces repository invariants `cargo check` cannot see,
//! in two passes:
//!
//! **Per-file lexical rules** over a shared token stream
//! ([`rules::lexical`]):
//!
//! | rule          | invariant |
//! |---------------|-----------|
//! | `float-ord`   | no NaN-unsafe `partial_cmp().unwrap()/.expect()` comparators |
//! | `hash-order`  | no `HashMap`/`HashSet` tokens in the query path |
//! | `unsafe`      | every crate root keeps `#![forbid(unsafe_code)]` |
//! | `apsp`        | no pre-computed all-pairs distance structures (Theorem 1 class) |
//! | `hot-lock`    | no `Mutex`/`RwLock` tokens on the per-node hot path |
//! | `metric-name` | metric-name literals exist in the crates/obs registry |
//!
//! **Workspace-wide reachability rules** over a call graph of every
//! non-test function in `crates/*` ([`analysis`], [`rules`]):
//!
//! | rule         | invariant |
//! |--------------|-----------|
//! | `panic-path` | no transitive panic site reachable from a public entry point |
//! | `det-taint`  | nondeterminism sources never reach determinism-critical sinks |
//! | `lock-reach` | no lock acquisition reachable from a per-node hot loop |
//!
//! Suppression: `// lint: allow(<rule>)` on the offending line or the
//! line above. For the reachability rules, an allow on a function's
//! definition line blesses it as a seam — exempt *and* opaque to
//! traversal. `xtask lint --explain <rule>` prints each rule's
//! rationale; `--json` emits a stable machine-readable report.
//!
//! Built in-tree with zero dependencies: the workspace builds offline
//! against `shims/`, so the analyzer can rely on nothing but std.

pub mod analysis;
pub mod bench;
pub mod report;
pub mod rules;
pub mod source;

use std::path::{Path, PathBuf};

use analysis::{FileAnalysis, Workspace};
pub use report::{explain_rule, render_json, rule_ids, sort_violations, Violation};
pub use rules::{
    MetricRegistry, Scope, RULE_APSP, RULE_DET_TAINT, RULE_FLOAT_ORD, RULE_HASH_ORDER,
    RULE_HOT_LOCK, RULE_LOCK_REACH, RULE_METRIC_NAME, RULE_PANIC_PATH, RULE_SHARD_LOCK,
    RULE_UNSAFE,
};

/// Lints a set of `(workspace-relative path, contents)` sources: every
/// per-file lexical rule, then the reachability rules over the call
/// graph of the `crates/*` subset. Findings come back sorted by
/// (file, line, rule, message), so rendering them is deterministic.
///
/// This is the whole lint behind a filesystem-free seam — the fixture
/// tests drive it with synthetic workspaces.
pub fn lint_sources(sources: &[(String, String)]) -> Vec<Violation> {
    let registry = sources
        .iter()
        .find(|(rel, _)| rel == "crates/obs/src/lib.rs")
        .and_then(|(_, src)| MetricRegistry::parse(src));

    let mut out = Vec::new();
    let mut graph_files = Vec::new();
    for (rel, src) in sources {
        let scope = Scope::of(rel);
        let fa = FileAnalysis::new(rel, src, scope.whole_file_is_test);
        rules::lint_file_analysis(&fa, src, &scope, registry.as_ref(), &mut out);
        // The call graph covers crate sources only: shims are vendored
        // stand-ins whose internals (e.g. Mutex plumbing) are not this
        // workspace's code, and test files contribute no non-test fns.
        if rel.starts_with("crates/") {
            graph_files.push(fa);
        }
    }
    let ws = Workspace::build(graph_files);
    rules::graph_rules(&ws, &mut out);
    sort_violations(&mut out);
    out
}

/// Lints every Rust source under `root` and returns the findings,
/// sorted by (file, line, rule, message).
pub fn lint_workspace(root: &Path) -> Vec<Violation> {
    lint_sources(&workspace_sources(root))
}

/// The `(workspace-relative path, contents)` pairs [`lint_workspace`]
/// lints: every Rust source under `crates`, `shims`, `tests` and
/// `examples`, minus the lint's own negative fixtures.
pub fn workspace_sources(root: &Path) -> Vec<(String, String)> {
    let mut files = Vec::new();
    for top in ["crates", "shims", "tests", "examples"] {
        collect_rs_files(&root.join(top), &mut files);
    }
    let mut sources = Vec::new();
    for file in files {
        let rel = rel_path(root, &file);
        // The lint's own negative fixtures are violating on purpose.
        if rel.contains("tests/fixtures/") {
            continue;
        }
        let Ok(source) = std::fs::read_to_string(&file) else {
            continue;
        };
        sources.push((rel, source));
    }
    sources
}

/// Lints a single file given its workspace-relative path (which decides
/// rule scope) and contents — per-file lexical rules only; the
/// reachability rules need a workspace, see [`lint_sources`]. The
/// `metric-name` rule needs the workspace-level registry, so this form
/// runs every per-file rule except it; see [`lint_file_with`].
pub fn lint_file(rel: &str, source: &str) -> Vec<Violation> {
    lint_file_with(rel, source, None)
}

/// [`lint_file`] plus the `metric-name` rule when a registry is given.
pub fn lint_file_with(
    rel: &str,
    source: &str,
    registry: Option<&MetricRegistry>,
) -> Vec<Violation> {
    let scope = Scope::of(rel);
    let fa = FileAnalysis::new(rel, source, scope.whole_file_is_test);
    let mut out = Vec::new();
    rules::lint_file_analysis(&fa, source, &scope, registry, &mut out);
    sort_violations(&mut out);
    out
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name == "target" || name == ".git" {
                continue;
            }
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn rel_path(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_sources_runs_lexical_and_graph_rules_together() {
        let sources = vec![
            (
                "crates/core/src/engine.rs".to_string(),
                "pub fn run(q: Query) -> Out { deep(q) }\n".to_string(),
            ),
            (
                "crates/skyline/src/dominance.rs".to_string(),
                "pub fn deep(q: Query) -> Out { q.first().unwrap() }\n".to_string(),
            ),
            (
                "crates/sp/src/heap.rs".to_string(),
                "use std::collections::HashMap;\n".to_string(),
            ),
        ];
        let v = lint_sources(&sources);
        let rules: Vec<&str> = v.iter().map(|v| v.rule).collect();
        assert!(rules.contains(&"hash-order"), "{v:?}");
        assert!(rules.contains(&"panic-path"), "{v:?}");
    }

    #[test]
    fn lint_sources_output_is_sorted_and_stable() {
        let sources = vec![
            (
                "crates/sp/src/b.rs".to_string(),
                "use std::collections::HashSet;\nuse std::sync::Mutex;\n".to_string(),
            ),
            (
                "crates/sp/src/a.rs".to_string(),
                "use std::collections::HashMap;\n".to_string(),
            ),
        ];
        let one = lint_sources(&sources);
        let two = lint_sources(&sources);
        assert_eq!(one, two);
        let keys: Vec<(String, usize, &str)> = one
            .iter()
            .map(|v| (v.file.clone(), v.line, v.rule))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "findings sorted by (file, line, rule)");
        assert_eq!(render_json(&one), render_json(&two), "byte-identical JSON");
    }

    #[test]
    fn shim_sources_get_lexical_rules_but_no_graph_nodes() {
        // A shim crate root still needs #![forbid(unsafe_code)], but its
        // lock internals must not create lock-reach paths.
        let sources = vec![
            (
                "shims/parking_lot/src/lib.rs".to_string(),
                "pub fn lock_inner(m: &Mutex<u8>) -> u8 { *m.lock() }\n".to_string(),
            ),
            (
                "crates/sp/src/heap.rs".to_string(),
                "pub fn pop_loop(q: &Q) { for x in q.items() { lock_inner(x); } }\n".to_string(),
            ),
        ];
        let v = lint_sources(&sources);
        assert!(v.iter().any(|v| v.rule == "unsafe"), "{v:?}");
        assert!(!v.iter().any(|v| v.rule == "lock-reach"), "{v:?}");
    }
}
