//! `panic-path`: no transitive panic sites reachable from the public
//! engine entry points.
//!
//! Supersedes the old per-line `unwrap` rule: that one could only see
//! the query-path files themselves, not what they call. This rule walks
//! the call graph forward from every public entry point — the public
//! `run*` functions of crates/core, every public method of the three
//! engines, `rn_graph::read_network` and `rn_workload::stream_build` —
//! and reports each reachable bare `.unwrap()`, `panic!`, `todo!` or
//! `unimplemented!` wherever it lives.
//!
//! Deliberately *not* flagged (DESIGN.md §13): `.expect("<invariant>")`
//! — the sanctioned form for documented-unreachable states (§8) — and
//! unchecked `[]` indexing, because dense `NodeMap`-indexed Vec access
//! is the hot-path design and `#![forbid(unsafe_code)]` already rules
//! out `get_unchecked`.

use crate::analysis::{FnId, TokenKind, Workspace};
use crate::report::Violation;
use crate::rules::RULE_PANIC_PATH;

/// One panic site inside a function body.
struct Site {
    /// 1-based line.
    line: usize,
    /// What was found (`.unwrap()`, `panic!`, ...).
    what: &'static str,
}

/// Scans a function's token range for panic sites, honouring per-line
/// `// lint: allow(panic-path)` suppressions.
fn sites_in(ws: &Workspace, id: FnId) -> Vec<Site> {
    let fa = ws.fn_file(id);
    let f = ws.fn_def(id);
    let text = fa.clean.text();
    let toks = &fa.tokens;
    let hi = f.item_end().min(toks.len().saturating_sub(1));
    let mut out = Vec::new();
    for idx in f.sig_start..=hi {
        let t = &toks[idx];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let what = match t.text(text) {
            "unwrap"
                if idx > 0
                    && toks[idx - 1].is_punct(b'.')
                    && toks.get(idx + 1).is_some_and(|n| n.is_punct(b'('))
                    && toks.get(idx + 2).is_some_and(|n| n.is_punct(b')')) =>
            {
                ".unwrap()"
            }
            "panic" if toks.get(idx + 1).is_some_and(|n| n.is_punct(b'!')) => "panic!",
            "todo" if toks.get(idx + 1).is_some_and(|n| n.is_punct(b'!')) => "todo!",
            "unimplemented" if toks.get(idx + 1).is_some_and(|n| n.is_punct(b'!')) => {
                "unimplemented!"
            }
            _ => continue,
        };
        let lineno = fa.clean.line_of(t.start);
        if fa.clean.allowed(lineno, RULE_PANIC_PATH) {
            continue;
        }
        out.push(Site {
            line: lineno + 1,
            what,
        });
    }
    out
}

/// The engines whose every bare-`pub` method is an entry point.
const ENGINES: [&str; 3] = ["SkylineEngine", "BatchEngine", "DynamicEngine"];

/// The public API surface the rule protects: bare-`pub` `run*` functions
/// in crates/core, every bare-`pub` method of [`ENGINES`], and the two
/// free functions that read outside input, `rn_graph::read_network` and
/// `rn_workload::stream_build`.
fn is_entry(ws: &Workspace, id: FnId) -> bool {
    let f = ws.fn_def(id);
    let rel = ws.fn_file(id).rel.as_str();
    let free =
        |krate: &str, name: &str| f.owner.is_none() && f.name == name && rel.starts_with(krate);
    let core = rel.starts_with("crates/core/src/")
        && (f.name.starts_with("run") || f.owner.as_deref().is_some_and(|o| ENGINES.contains(&o)));
    f.is_pub
        && (core
            || free("crates/graph/src/", "read_network")
            || free("crates/workload/src/", "stream_build"))
}

/// Runs the rule over the workspace call graph.
pub fn run(ws: &Workspace, out: &mut Vec<Violation>) {
    let allowed = |id: FnId| ws.fn_allowed(id, RULE_PANIC_PATH);
    let roots: Vec<FnId> = ws.fn_ids().filter(|&id| is_entry(ws, id)).collect();
    if roots.is_empty() {
        return;
    }
    // Forward BFS: everything an entry point may execute. A
    // definition-line allow exempts the function and stops traversal.
    let reached = ws.reach(&roots, true, &|id| allowed(id));
    for &id in reached.keys() {
        let sites = sites_in(ws, id);
        if sites.is_empty() {
            continue;
        }
        // chain_ids walks id → … → root; reversed it reads in call
        // direction from the entry point.
        let mut chain = ws.chain_ids(&reached, id);
        chain.reverse();
        let entry = chain.first().copied().unwrap_or(id);
        let path = chain
            .iter()
            .map(|&c| ws.fn_def(c).display_name())
            .collect::<Vec<_>>()
            .join(" -> ");
        for site in sites {
            out.push(Violation {
                file: ws.fn_file(id).rel.clone(),
                line: site.line,
                rule: RULE_PANIC_PATH,
                message: format!(
                    "{} reachable from public entry `{}` ({path}); return an error, \
                     use .expect(\"<invariant>\"), or justify with \
                     // lint: allow(panic-path)",
                    site.what,
                    ws.fn_def(entry).display_name()
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::FileAnalysis;

    fn lint(files: &[(&str, &str)]) -> Vec<Violation> {
        let ws = Workspace::build(
            files
                .iter()
                .map(|(rel, src)| FileAnalysis::new(rel, src, false))
                .collect(),
        );
        let mut out = Vec::new();
        run(&ws, &mut out);
        out
    }

    #[test]
    fn transitive_unwrap_reachable_from_entry_is_flagged() {
        let v = lint(&[
            (
                "crates/core/src/engine.rs",
                "pub fn run(q: Query) -> Out { step(q) }\nfn step(q: Query) -> Out { deep(q) }\n",
            ),
            (
                "crates/skyline/src/dominance.rs",
                "pub fn deep(q: Query) -> Out { q.first().unwrap() }\n",
            ),
        ]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, RULE_PANIC_PATH);
        assert_eq!(v[0].file, "crates/skyline/src/dominance.rs");
        assert!(v[0]
            .message
            .contains(".unwrap() reachable from public entry `run`"));
        assert!(v[0].message.contains("run -> step -> deep"));
    }

    #[test]
    fn unreachable_unwrap_and_expect_are_fine() {
        let v = lint(&[
            (
                "crates/core/src/engine.rs",
                "pub fn run(q: Query) -> Out { checked(q) }\nfn checked(q: Query) -> Out { q.first().expect(\"query validated non-empty\") }\n",
            ),
            (
                "crates/workload/src/gen.rs",
                "pub fn offline_tool() { std::fs::read(\"x\").unwrap(); }\n",
            ),
        ]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn panic_macros_count_and_site_allows_suppress() {
        let v = lint(&[(
            "crates/core/src/batch.rs",
            "pub fn run_batch(q: Query) -> Out {\n    if q.bad() { panic!(\"bad\"); }\n    todo!()\n}\n",
        )]);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().any(|v| v.message.contains("panic!")));
        assert!(v.iter().any(|v| v.message.contains("todo!")));
        let suppressed = lint(&[(
            "crates/core/src/batch.rs",
            "pub fn run_batch(q: Query) -> Out {\n    // lint: allow(panic-path) — poisoned-state abort is deliberate\n    if q.bad() { panic!(\"bad\"); }\n    q.ok()\n}\n",
        )]);
        assert!(suppressed.is_empty(), "{suppressed:?}");
    }

    #[test]
    fn definition_allow_exempts_and_blocks_traversal() {
        let v = lint(&[(
            "crates/core/src/engine.rs",
            "pub fn run(q: Query) -> Out { trusted(q) }\n// lint: allow(panic-path) — test-harness assertion helper\nfn trusted(q: Query) -> Out { inner(q) }\nfn inner(q: Query) -> Out { q.first().unwrap() }\n",
        )]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn engine_methods_and_input_readers_are_roots() {
        let v = lint(&[
            (
                "crates/core/src/dynamic.rs",
                "impl DynamicEngine {\n    pub fn apply(&mut self) { self.mutate() }\n    fn mutate(&mut self) { None::<u8>.unwrap(); }\n}\nimpl Helper {\n    pub fn apply_all(&self) { None::<u8>.unwrap(); }\n}\n",
            ),
            (
                "crates/graph/src/io.rs",
                "pub fn read_network(r: R) -> Net { parse(r) }\nfn parse(r: R) -> Net { r.lines().unwrap() }\npub fn write_network(g: Net) { g.out().unwrap() }\n",
            ),
            (
                "crates/workload/src/stream.rs",
                "pub fn stream_build(c: Config) -> Built { c.build().unwrap() }\n",
            ),
        ]);
        let mut entries: Vec<&str> = v
            .iter()
            .map(|v| v.message.split('`').nth(1).expect("entry named"))
            .collect();
        entries.sort_unstable();
        assert_eq!(
            entries,
            ["DynamicEngine::apply", "read_network", "stream_build"],
            "{v:?}"
        );
    }

    #[test]
    fn non_pub_and_non_core_run_fns_are_not_roots() {
        let v = lint(&[
            (
                "crates/core/src/engine.rs",
                "fn run_internal(q: Query) -> Out { q.first().unwrap() }\n",
            ),
            (
                "crates/workload/src/driver.rs",
                "pub fn run_bench(q: Query) -> Out { q.first().unwrap() }\n",
            ),
        ]);
        assert!(v.is_empty(), "{v:?}");
    }
}
