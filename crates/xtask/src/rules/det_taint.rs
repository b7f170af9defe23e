//! `det-taint`: nondeterminism sources must not reach
//! determinism-critical sinks through the call graph.
//!
//! The engine's contract is bitwise-identical skylines, partial results
//! and trace counters at 1/2/8 workers. A wall-clock read or a
//! hash-order traversal three calls below a function that constructs
//! `SkylineResult` breaks that contract without any single file looking
//! wrong — which is exactly the gap the per-file rules cannot see.

use crate::analysis::{FnId, Workspace};
use crate::report::Violation;
use crate::rules::RULE_DET_TAINT;

/// Methods whose call on a Hash* collection walks it in hash order.
const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "drain",
    "retain",
];

/// Classifies a function as a nondeterminism source, returning a short
/// label for the finding message.
fn source_kind(ws: &Workspace, id: FnId) -> Option<&'static str> {
    let f = ws.fn_def(id);
    if f.mentions.contains("Instant") || f.mentions.contains("SystemTime") {
        return Some("wall-clock read (Instant/SystemTime)");
    }
    if f.mentions.contains("RandomState") {
        return Some("randomized hash state (RandomState)");
    }
    if f.mentions.contains("thread_rng") {
        return Some("thread-local rng (thread_rng)");
    }
    if f.mentions.contains("ThreadId") {
        return Some("thread identity (ThreadId)");
    }
    if f.mentions.contains("HashMap") || f.mentions.contains("HashSet") {
        let iterates = f
            .calls
            .iter()
            .any(|c| !c.is_macro && HASH_ITER_METHODS.contains(&c.name.as_str()))
            || f.mentions.contains("for");
        if iterates {
            return Some("hash-order iteration (HashMap/HashSet)");
        }
    }
    None
}

/// Whether a function produces determinism-critical output: skyline
/// results, partial-result bounds, or recorded trace counters/events.
fn is_sink(ws: &Workspace, id: FnId) -> bool {
    let f = ws.fn_def(id);
    if f.mentions.contains("SkylineResult") || f.mentions.contains("PartialInfo") {
        return true;
    }
    let calls = |n: &str| f.calls.iter().any(|c| !c.is_macro && c.name == n);
    calls("incr")
        || (calls("add") && f.mentions.contains("Metric"))
        || (calls("event") && f.mentions.contains("Event"))
        || (calls("merge") && f.mentions.contains("QueryTrace"))
}

/// Blessed seams: paths through them are not taint. `crates/par` is
/// proven order-invariant by the 1/2/8-worker batch equivalence suites; the
/// storage fault plan is seeded and deterministic by construction.
/// Everything else blesses per-function with `// lint: allow(det-taint)`.
fn blessed(ws: &Workspace, id: FnId) -> bool {
    let rel = ws.fn_file(id).rel.as_str();
    rel.starts_with("crates/par/src/")
        || rel == "crates/storage/src/fault.rs"
        || ws.fn_allowed(id, RULE_DET_TAINT)
}

/// Runs the rule over the workspace call graph.
pub fn run(ws: &Workspace, out: &mut Vec<Violation>) {
    let sources: Vec<FnId> = ws
        .fn_ids()
        .filter(|&id| !blessed(ws, id) && source_kind(ws, id).is_some())
        .collect();
    if sources.is_empty() {
        return;
    }
    // Reverse BFS: everything that can transitively *call* a source is
    // tainted; blessed functions neither taint nor conduct taint.
    let tainted = ws.reach(&sources, false, &|id| blessed(ws, id));
    for &id in tainted.keys() {
        if !is_sink(ws, id) {
            continue;
        }
        // The chain walks sink → … → source; its last element is the
        // source whose kind names the finding.
        let chain = ws.chain_ids(&tainted, id);
        let Some(&src) = chain.last() else { continue };
        let kind = source_kind(ws, src).unwrap_or("nondeterminism source");
        let path = chain
            .iter()
            .map(|&c| ws.fn_def(c).display_name())
            .collect::<Vec<_>>()
            .join(" -> ");
        out.push(Violation {
            file: ws.fn_file(id).rel.clone(),
            line: ws.fn_line(id),
            rule: RULE_DET_TAINT,
            message: format!(
                "determinism-critical `{}` transitively reaches a {kind}: {path}; \
                 remove the source or bless a seam with // lint: allow(det-taint) \
                 plus a justification",
                ws.fn_def(id).display_name()
            ),
        });
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
    fn clock_reaching_skyline_sink_is_flagged() {
        let v = lint(&[
            (
                "crates/core/src/engine.rs",
                "pub fn finish(r: Raw) -> SkylineResult { stamp(); build(r) }\nfn build(r: Raw) -> SkylineResult { r.into() }\n",
            ),
            (
                "crates/core/src/stats.rs",
                "pub fn stamp() -> u64 { Instant::now().elapsed().as_nanos() as u64 }\n",
            ),
        ]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, RULE_DET_TAINT);
        assert_eq!(v[0].file, "crates/core/src/engine.rs");
        assert!(v[0].message.contains("wall-clock"));
        assert!(v[0].message.contains("finish -> stamp"));
    }

    #[test]
    fn blessed_seam_cuts_the_taint() {
        let v = lint(&[
            (
                "crates/core/src/engine.rs",
                "pub fn finish(r: Raw) -> SkylineResult { stamp(); r.into() }\n",
            ),
            (
                "crates/core/src/stats.rs",
                "/// Feeds only wall-time stats fields.\n// lint: allow(det-taint)\npub fn stamp() -> u64 { Instant::now().elapsed().as_nanos() as u64 }\n",
            ),
        ]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn par_crate_is_a_built_in_seam() {
        let v = lint(&[
            (
                "crates/core/src/batch.rs",
                "pub fn execute(r: Raw) -> SkylineResult { claim_next(); r.into() }\n",
            ),
            (
                "crates/par/src/pool.rs",
                "pub fn claim_next() -> usize { let t: ThreadId = current(); hash(t) }\n",
            ),
        ]);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn hash_iteration_needs_iteration_not_just_mention() {
        // Mentioning HashMap without iterating (e.g. point lookups only)
        // is hash-order-safe and must not taint.
        let v = lint(&[(
            "crates/core/src/x.rs",
            "pub fn get(m: &HashMap<u32, u32>, k: u32) -> Option<u32> { m.get(&k).copied() }\npub fn emit(m: &HashMap<u32, u32>) -> SkylineResult { get(m, 1); make() }\n",
        )]);
        assert!(v.is_empty(), "{v:?}");
        let bad = lint(&[(
            "crates/core/src/x.rs",
            "fn walk(m: &HashMap<u32, u32>) -> Vec<u32> { m.keys().copied().collect() }\npub fn emit(m: &HashMap<u32, u32>) -> SkylineResult { walk(m); make() }\n",
        )]);
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].message.contains("hash-order iteration"));
    }

    #[test]
    fn counter_recording_is_a_sink() {
        let v = lint(&[(
            "crates/core/src/ce.rs",
            "fn jitter() -> u64 { SystemTime::now().nanos() }\npub fn record(t: &mut QueryTrace) { t.incr(Metric::HeapPops, jitter()); }\n",
        )]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("record"));
    }
}
