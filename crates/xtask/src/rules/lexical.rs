//! The per-file lexical rules, migrated onto the shared token stream.
//!
//! Each rule scans the [`crate::analysis::lexer`] tokens of one blanked
//! file. Behaviour is unchanged from the original string-scanning
//! implementations (pinned by the fixture suite); the token stream just
//! removes the ad-hoc identifier-boundary and whitespace handling each
//! rule used to re-implement.

use crate::analysis::{FileAnalysis, Token, TokenKind};
use crate::report::Violation;
use crate::rules::{
    RULE_APSP, RULE_FLOAT_ORD, RULE_HASH_ORDER, RULE_HOT_LOCK, RULE_METRIC_NAME, RULE_SHARD_LOCK,
    RULE_UNSAFE,
};
use crate::source::{quoted_literals, read_string_literal};

/// The set of legal metric names, parsed from the marker-bracketed
/// `METRIC_NAMES` table in `crates/obs/src/lib.rs`. The `metric-name`
/// rule checks every string literal passed to `Metric::from_name` /
/// `QueryTrace::get_name` against it, so a typo'd counter name fails
/// `cargo run -p xtask -- lint` instead of silently reading zero.
pub struct MetricRegistry {
    names: Vec<String>,
}

impl MetricRegistry {
    /// Builds a registry from an explicit name list (fixture tests).
    pub fn new(names: Vec<String>) -> MetricRegistry {
        MetricRegistry { names }
    }

    /// Parses the registry out of the obs crate root: every string
    /// literal on the lines between `metric-names:begin` and
    /// `metric-names:end`. Returns `None` when the markers are missing
    /// (the rule is then skipped rather than mass-firing).
    pub fn parse(obs_source: &str) -> Option<MetricRegistry> {
        let mut names = Vec::new();
        let mut inside = false;
        let mut seen_markers = false;
        for line in obs_source.lines() {
            if line.contains("metric-names:begin") {
                inside = true;
                seen_markers = true;
                continue;
            }
            if line.contains("metric-names:end") {
                inside = false;
                continue;
            }
            if inside {
                names.extend(quoted_literals(line));
            }
        }
        (seen_markers && !names.is_empty()).then_some(MetricRegistry { names })
    }

    fn contains(&self, name: &str) -> bool {
        self.names.iter().any(|n| n == name)
    }
}

/// Index just past a balanced `(..)` group whose `(` is at `open`.
fn skip_parens(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    let mut j = open;
    while j < tokens.len() {
        match tokens[j].kind {
            TokenKind::Punct(b'(') => depth += 1,
            TokenKind::Punct(b')') => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return Some(j + 1);
                }
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// `float-ord`: `partial_cmp(...)` chained directly into `.unwrap()` or
/// `.expect(...)` builds an `Ordering` that panics on NaN — exactly the
/// failure mode `OrdF64` exists to make unrepresentable. Applies to test
/// code too: a NaN-panicking comparator in a test sort hides real NaNs.
pub(crate) fn rule_float_ord(fa: &FileAnalysis, out: &mut Vec<Violation>) {
    let text = fa.clean.text();
    for (i, t) in fa.tokens.iter().enumerate() {
        if !t.is_ident(text, "partial_cmp") {
            continue;
        }
        if !fa.tokens.get(i + 1).is_some_and(|n| n.is_punct(b'(')) {
            continue;
        }
        let Some(after) = skip_parens(&fa.tokens, i + 1) else {
            continue;
        };
        if !fa.tokens.get(after).is_some_and(|n| n.is_punct(b'.')) {
            continue;
        }
        let chained_panic = match fa.tokens.get(after + 1) {
            Some(m) if m.is_ident(text, "unwrap") => {
                fa.tokens.get(after + 2).is_some_and(|n| n.is_punct(b'('))
                    && fa.tokens.get(after + 3).is_some_and(|n| n.is_punct(b')'))
            }
            Some(m) if m.is_ident(text, "expect") => {
                fa.tokens.get(after + 2).is_some_and(|n| n.is_punct(b'('))
            }
            _ => false,
        };
        if !chained_panic {
            continue;
        }
        let lineno = fa.clean.line_of(t.start);
        if fa.clean.allowed(lineno, RULE_FLOAT_ORD) {
            continue;
        }
        out.push(Violation {
            file: fa.rel.clone(),
            line: lineno + 1,
            rule: RULE_FLOAT_ORD,
            message: "NaN-unsafe comparator: partial_cmp().unwrap()/.expect() panics on \
                      NaN mid-query; compare through rn_geom::OrdF64 instead"
                .to_string(),
        });
    }
}

/// `hash-order`: `HashMap`/`HashSet` iteration order varies per process,
/// so any traversal in the query path makes candidate ordering — and with
/// it skyline tie-breaking — non-deterministic.
pub(crate) fn rule_hash_order(fa: &FileAnalysis, out: &mut Vec<Violation>) {
    let text = fa.clean.text();
    for token in ["HashMap", "HashSet"] {
        for t in fa.tokens.iter().filter(|t| t.is_ident(text, token)) {
            let lineno = fa.clean.line_of(t.start);
            if fa.clean.is_test_line(lineno) || fa.clean.allowed(lineno, RULE_HASH_ORDER) {
                continue;
            }
            out.push(Violation {
                file: fa.rel.clone(),
                line: lineno + 1,
                rule: RULE_HASH_ORDER,
                message: format!(
                    "{token} in the query path iterates in random order, breaking \
                     deterministic tie-breaking; use BTreeMap/BTreeSet or a dense \
                     Vec index, or justify with // lint: allow(hash-order)"
                ),
            });
        }
    }
}

/// `unsafe`: the crate root must keep `#![forbid(unsafe_code)]` so the
/// guarantee cannot be silently relaxed in a submodule. Searches the
/// token stream: the attribute inside a comment or string does not count.
pub(crate) fn rule_forbid_unsafe(fa: &FileAnalysis, out: &mut Vec<Violation>) {
    let text = fa.clean.text();
    let toks = &fa.tokens;
    let found = (0..toks.len()).any(|i| {
        toks[i].is_punct(b'#')
            && toks.get(i + 1).is_some_and(|t| t.is_punct(b'!'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(b'['))
            && toks.get(i + 3).is_some_and(|t| t.is_ident(text, "forbid"))
            && toks.get(i + 4).is_some_and(|t| t.is_punct(b'('))
            && toks
                .get(i + 5)
                .is_some_and(|t| t.is_ident(text, "unsafe_code"))
            && toks.get(i + 6).is_some_and(|t| t.is_punct(b')'))
            && toks.get(i + 7).is_some_and(|t| t.is_punct(b']'))
    });
    if !found {
        out.push(Violation {
            file: fa.rel.clone(),
            line: 1,
            rule: RULE_UNSAFE,
            message: "crate root is missing #![forbid(unsafe_code)]".to_string(),
        });
    }
}

/// `apsp`: a map keyed by node-pair or object-pair is pre-computed
/// all-pairs distance information. The paper's Theorem 1 proves LBC
/// instance-optimal over algorithms that compute network distances
/// on the fly; materialised pair distances exit that class.
pub(crate) fn rule_apsp(fa: &FileAnalysis, out: &mut Vec<Violation>) {
    let text = fa.clean.text();
    let toks = &fa.tokens;
    for token in ["HashMap", "BTreeMap"] {
        for (i, t) in toks.iter().enumerate() {
            if !t.is_ident(text, token) {
                continue;
            }
            // `<(T, T)` directly after the map ident, with T a node or
            // object id type.
            let inner = (|| -> Option<&str> {
                if !toks.get(i + 1)?.is_punct(b'<') || !toks.get(i + 2)?.is_punct(b'(') {
                    return None;
                }
                let first = toks.get(i + 3)?;
                if first.kind != TokenKind::Ident || !toks.get(i + 4)?.is_punct(b',') {
                    return None;
                }
                let second = toks.get(i + 5)?;
                if second.kind != TokenKind::Ident {
                    return None;
                }
                (first.text(text) == second.text(text)).then(|| first.text(text))
            })();
            let Some(inner) = inner else { continue };
            if inner != "NodeId" && inner != "ObjectId" {
                continue;
            }
            let lineno = fa.clean.line_of(t.start);
            if fa.clean.is_test_line(lineno) || fa.clean.allowed(lineno, RULE_APSP) {
                continue;
            }
            out.push(Violation {
                file: fa.rel.clone(),
                line: lineno + 1,
                rule: RULE_APSP,
                message: format!(
                    "{token} keyed by ({inner}, {inner}) is pre-computed all-pairs \
                     distance information; the engine must compute network distances \
                     on the fly (ICDE'07 Theorem 1's optimality class)"
                ),
            });
        }
    }
    for needle in ["apsp", "all_pairs"] {
        for t in toks.iter().filter(|t| t.kind == TokenKind::Ident) {
            let word = t.text(text).to_ascii_lowercase();
            let bytes = word.as_bytes();
            let mut from = 0;
            while let Some(pos) = word[from..].find(needle) {
                let at = from + pos;
                from = at + needle.len();
                // Standalone start: `apsp_x`, `build_apsp` fire, `capsp`
                // does not.
                if at > 0 && bytes[at - 1].is_ascii_alphanumeric() {
                    continue;
                }
                let lineno = fa.clean.line_of(t.start);
                if fa.clean.is_test_line(lineno) || fa.clean.allowed(lineno, RULE_APSP) {
                    continue;
                }
                out.push(Violation {
                    file: fa.rel.clone(),
                    line: lineno + 1,
                    rule: RULE_APSP,
                    message: format!(
                        "identifier mentioning `{needle}` suggests a pre-computed all-pairs \
                         distance structure, which the paper's algorithm class forbids"
                    ),
                });
            }
        }
    }
}

/// `hot-lock`: a `Mutex`/`RwLock` on the per-node hot path serialises
/// every worker of the parallel engine on one cache line, erasing the
/// speedup the batch harness measures. Shared state there must be
/// atomics (see the index read counters) or thread-local accumulation
/// merged after the join (see `rn_par::par_map_indexed`). Cross-file lock
/// flows are the `lock-reach` rule's job.
pub(crate) fn rule_hot_lock(fa: &FileAnalysis, out: &mut Vec<Violation>) {
    let text = fa.clean.text();
    for token in ["Mutex", "RwLock"] {
        for t in fa.tokens.iter().filter(|t| t.is_ident(text, token)) {
            let lineno = fa.clean.line_of(t.start);
            if fa.clean.is_test_line(lineno) || fa.clean.allowed(lineno, RULE_HOT_LOCK) {
                continue;
            }
            out.push(Violation {
                file: fa.rel.clone(),
                line: lineno + 1,
                rule: RULE_HOT_LOCK,
                message: format!(
                    "{token} on the per-node hot path serialises workers; use atomics \
                     or thread-local state merged after the join (rn_par), or justify \
                     with // lint: allow(hot-lock)"
                ),
            });
        }
    }
}

/// `shard-lock`: inside the sharded buffer pool, no function body may
/// acquire more than one shard lock (`.lock(` site). Two acquisitions in
/// one body is the shape that deadlocks under concurrent shared
/// sessions — worker A holds shard 0 wanting shard 1 while worker B
/// holds shard 1 wanting shard 0 — and the pool's no-deadlock argument
/// is exactly that no execution ever holds two shard locks. A single
/// `.lock(` in a loop (clear / set_fault_plan) is fine: the previous
/// guard is released before the next acquisition. Scoped to
/// `crates/storage/src/shard.rs`, where every `Mutex` is a shard lock.
pub(crate) fn rule_shard_lock(fa: &FileAnalysis, out: &mut Vec<Violation>) {
    let text = fa.clean.text();
    for f in &fa.fns {
        if f.is_test {
            continue;
        }
        let Some((open, close)) = f.body else {
            continue;
        };
        // `.lock(` sites in the body, recorded by byte offset of `lock`.
        let mut sites: Vec<usize> = Vec::new();
        let mut j = open;
        while j + 2 <= close {
            if fa.tokens[j].is_punct(b'.')
                && fa.tokens[j + 1].is_ident(text, "lock")
                && fa.tokens[j + 2].is_punct(b'(')
            {
                sites.push(fa.tokens[j + 1].start);
            }
            j += 1;
        }
        if sites.len() < 2 {
            continue;
        }
        let lineno = fa.clean.line_of(sites[1]);
        if fa.clean.is_test_line(lineno)
            || fa.clean.allowed(f.line, RULE_SHARD_LOCK)
            || fa.clean.allowed(lineno, RULE_SHARD_LOCK)
        {
            continue;
        }
        out.push(Violation {
            file: fa.rel.clone(),
            line: lineno + 1,
            rule: RULE_SHARD_LOCK,
            message: format!(
                "`{}` acquires {} shard locks in one body; holding two shard \
                 guards at once can deadlock concurrent shared sessions — \
                 release the first before taking the second (one `.lock()` \
                 per function), or justify with // lint: allow(shard-lock)",
                f.display_name(),
                sites.len()
            ),
        });
    }
}

/// `metric-name`: a string literal passed to `Metric::from_name` or
/// `QueryTrace::get_name` that is not in the `METRIC_NAMES` registry can
/// never resolve — the lookup silently yields `None`/zero. Blanking keeps
/// byte offsets stable, so the literal's text is read from the *raw*
/// source at the offsets the token stream found. Applies to test code
/// too (a typo'd counter name in an assertion hides a regression);
/// deliberate negative lookups carry `// lint: allow(metric-name)`.
pub(crate) fn rule_metric_name(
    fa: &FileAnalysis,
    raw: &str,
    registry: &MetricRegistry,
    out: &mut Vec<Violation>,
) {
    let text = fa.clean.text();
    let toks = &fa.tokens;
    for token in ["from_name", "get_name"] {
        for (i, t) in toks.iter().enumerate() {
            if !t.is_ident(text, token) {
                continue;
            }
            // Method/function call with a literal first argument — only
            // literals are checkable; variables pass.
            if !toks.get(i + 1).is_some_and(|n| n.is_punct(b'(')) {
                continue;
            }
            let Some(arg) = toks.get(i + 2) else { continue };
            if arg.kind != TokenKind::Str {
                continue;
            }
            let Some(name) = read_string_literal(raw, arg.start) else {
                continue;
            };
            if registry.contains(&name) {
                continue;
            }
            let lineno = fa.clean.line_of(t.start);
            if fa.clean.allowed(lineno, RULE_METRIC_NAME) {
                continue;
            }
            out.push(Violation {
                file: fa.rel.clone(),
                line: lineno + 1,
                rule: RULE_METRIC_NAME,
                message: format!(
                    "\"{name}\" is not in the METRIC_NAMES registry \
                     (crates/obs/src/lib.rs); the lookup can never resolve — \
                     fix the name or register the metric"
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lint_file, lint_file_with};

    #[test]
    fn float_ord_fires_on_chained_unwrap_and_expect() {
        let src = "fn f(v: &mut Vec<f64>) {\n    v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n    v.sort_by(|a, b| a.partial_cmp(b)\n        .expect(\"finite\"));\n}\n";
        let v = lint_file("crates/index/src/x.rs", src);
        let lines: Vec<usize> = v
            .iter()
            .filter(|v| v.rule == RULE_FLOAT_ORD)
            .map(|v| v.line)
            .collect();
        assert_eq!(lines, vec![2, 3]);
    }

    #[test]
    fn float_ord_ignores_unwrap_or_and_ordf64() {
        let src = "fn f(a: f64, b: f64) {\n    let _ = a.partial_cmp(&b).unwrap_or(std::cmp::Ordering::Equal);\n}\n";
        assert!(lint_file("crates/index/src/x.rs", src).is_empty());
        let bad = "fn g(a: f64, b: f64) { a.partial_cmp(&b).unwrap(); }";
        assert!(lint_file("crates/geom/src/ordf64.rs", bad).is_empty());
    }

    #[test]
    fn hash_order_scoped_and_suppressible() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(lint_file("crates/core/src/ce.rs", src).len(), 1);
        assert!(lint_file("crates/core/src/engine.rs", src).is_empty());
        let allowed = "// lint: allow(hash-order)\nuse std::collections::HashMap;\n";
        assert!(lint_file("crates/core/src/ce.rs", allowed).is_empty());
        let trailing = "use std::collections::HashMap; // lint: allow(hash-order)\n";
        assert!(lint_file("crates/core/src/ce.rs", trailing).is_empty());
    }

    #[test]
    fn hash_order_exempts_test_modules() {
        let src =
            "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    use std::collections::HashSet;\n}\n";
        assert!(lint_file("crates/sp/src/ine.rs", src).is_empty());
    }

    #[test]
    fn forbid_unsafe_checked_on_crate_roots_only() {
        let src = "pub fn f() {}\n";
        let v = lint_file("crates/sp/src/lib.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, RULE_UNSAFE);
        assert!(lint_file("crates/sp/src/dijkstra.rs", "pub fn g() {}\n").is_empty());
        let ok = "#![forbid(unsafe_code)]\npub fn f() {}\n";
        assert!(lint_file("crates/sp/src/lib.rs", ok).is_empty());
    }

    #[test]
    fn apsp_fires_on_pair_keyed_maps_and_names() {
        let src = "struct S { d: std::collections::BTreeMap<(NodeId, NodeId), f64> }\n";
        let v = lint_file("crates/sp/src/x.rs", src);
        assert!(v.iter().any(|v| v.rule == RULE_APSP));
        let named = "fn build_apsp_table() {}\n";
        assert!(lint_file("crates/core/src/x.rs", named)
            .iter()
            .any(|v| v.rule == RULE_APSP));
        let fine = "struct S { d: std::collections::BTreeMap<(NodeId, ObjectId), f64> }\n";
        assert!(lint_file("crates/sp/src/x.rs", fine).is_empty());
    }

    #[test]
    fn hot_lock_scoped_to_hot_path_and_suppressible() {
        let src = "use std::sync::Mutex;\n";
        assert_eq!(lint_file("crates/sp/src/dijkstra.rs", src).len(), 1);
        assert_eq!(lint_file("crates/core/src/batch.rs", src).len(), 1);
        assert_eq!(lint_file("crates/par/src/pool.rs", src).len(), 1);
        // The storage layer's session-confined pool lock is legal, as is
        // anything outside the worker-thread hot path.
        assert!(lint_file("crates/storage/src/netstore.rs", src).is_empty());
        assert!(lint_file("crates/core/src/engine.rs", src).is_empty());
        let in_test = "#[cfg(test)]\nmod tests {\n    use std::sync::RwLock;\n}\n";
        assert!(lint_file("crates/par/src/pool.rs", in_test).is_empty());
        let allowed = "use std::sync::RwLock; // lint: allow(hot-lock)\n";
        assert!(lint_file("crates/sp/src/dijkstra.rs", allowed).is_empty());
    }

    #[test]
    fn metric_name_checks_literals_against_registry() {
        let reg = MetricRegistry::new(vec!["sp.heap_pops".into(), "query.candidates".into()]);
        let src = "fn f(t: &QueryTrace) {\n    let _ = t.get_name(\"sp.heap_pops\");\n    let _ = t.get_name(\"sp.heap_popz\");\n    let _ = Metric::from_name(\"query.candidate\");\n    let name = pick();\n    let _ = Metric::from_name(name);\n}\n";
        let v = lint_file_with("crates/core/src/stats.rs", src, Some(&reg));
        let mut lines: Vec<usize> = v
            .iter()
            .filter(|v| v.rule == RULE_METRIC_NAME)
            .map(|v| v.line)
            .collect();
        lines.sort_unstable();
        assert_eq!(lines, vec![3, 4], "got: {v:?}");
        // Without a registry the rule never runs.
        assert!(lint_file("crates/core/src/stats.rs", src).is_empty());
    }

    #[test]
    fn metric_name_suppressible_and_skips_definitions() {
        let reg = MetricRegistry::new(vec!["sp.heap_pops".into()]);
        let suppressed = "fn f() {\n    // lint: allow(metric-name) — deliberate negative probe\n    let _ = Metric::from_name(\"no.such.metric\");\n}\n";
        assert!(lint_file_with("tests/x.rs", suppressed, Some(&reg)).is_empty());
        // The registry function's own definition is not a call site.
        let def = "pub fn from_name(name: &str) -> Option<Metric> { None }\n";
        assert!(lint_file_with("crates/obs/src/metrics.rs", def, Some(&reg)).is_empty());
    }

    #[test]
    fn metric_registry_parses_marker_bracketed_table() {
        let src = "pub const METRIC_NAMES: [&str; 2] = [\n    // metric-names:begin\n    \"sp.heap_pops\",\n    \"query.candidates\",\n    // metric-names:end\n];\n";
        let reg = MetricRegistry::parse(src).expect("markers present");
        assert!(reg.contains("sp.heap_pops"));
        assert!(reg.contains("query.candidates"));
        assert!(!reg.contains("sp.heap_popz"));
        assert!(MetricRegistry::parse("no markers here").is_none());
    }
}
