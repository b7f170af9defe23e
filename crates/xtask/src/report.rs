//! Findings, their rendering, and the per-rule documentation backing
//! `xtask lint --explain <rule>`.

use std::collections::BTreeMap;
use std::fmt;

/// One finding of the lint pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Path relative to the linted root, with `/` separators.
    pub file: String,
    /// 1-based line of the finding.
    pub line: usize,
    /// Stable rule identifier (`float-ord`, `det-taint`, ...).
    pub rule: &'static str,
    /// Human-readable explanation with the suggested fix.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Canonical ordering: file, line, rule, message. Full — not just
/// (file, line) — so two findings on one line always render in the same
/// order and the JSON report is byte-identical across runs.
pub fn sort_violations(v: &mut [Violation]) {
    v.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
    });
}

/// Renders findings as stable machine-readable JSON for CI annotation.
///
/// Determinism contract (pinned by a unit test): the output depends
/// only on the findings — fixed key order, sorted rule counts, no
/// timestamps, no absolute paths — so two runs over the same tree
/// produce byte-identical reports.
pub fn render_json(violations: &[Violation]) -> String {
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for v in violations {
        *counts.entry(v.rule).or_default() += 1;
    }
    let mut out = String::new();
    out.push_str("{\n  \"schema\": 1,\n  \"tool\": \"xtask-lint\",\n  \"total\": ");
    out.push_str(&violations.len().to_string());
    out.push_str(",\n  \"counts\": {");
    for (i, (rule, n)) in counts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        json_string(rule, &mut out);
        out.push_str(": ");
        out.push_str(&n.to_string());
    }
    if !counts.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("},\n  \"violations\": [");
    for (i, v) in violations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {\"file\": ");
        json_string(&v.file, &mut out);
        out.push_str(", \"line\": ");
        out.push_str(&v.line.to_string());
        out.push_str(", \"rule\": ");
        json_string(v.rule, &mut out);
        out.push_str(", \"message\": ");
        json_string(&v.message, &mut out);
        out.push('}');
    }
    if !violations.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// Appends `s` as a JSON string literal (quotes, backslashes and
/// control characters escaped).
fn json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `(rule id, one-line summary, long-form explanation)` for every rule,
/// in the order `--explain` lists them.
pub const RULE_DOCS: &[(&str, &str, &str)] = &[
    (
        "float-ord",
        "no NaN-unsafe partial_cmp().unwrap()/.expect() comparators",
        "A comparator built as `a.partial_cmp(b).unwrap()` (or `.expect(..)`) panics the
moment a NaN reaches it — mid-query, inside a sort or heap operation. The
workspace's `rn_geom::OrdF64` wraps finite floats in a total order and makes that
failure unrepresentable; route every f64 comparison through it. Applies to test
code too: a NaN-panicking comparator in a test sort hides real NaNs.",
    ),
    (
        "hash-order",
        "no HashMap/HashSet in the query path (deterministic tie-breaking)",
        "HashMap/HashSet iteration order varies per process (SipHash keys are
randomized), so any traversal in the query path reorders candidates and with
them skyline tie-breaking — output would differ run to run. Use
BTreeMap/BTreeSet or a dense Vec index on the query path. Scope: the CE/EDC/LBC
drivers and the whole shortest-path crate. For cross-file flows the det-taint
rule takes over.",
    ),
    (
        "unsafe",
        "every crate root keeps #![forbid(unsafe_code)]",
        "Each crate root must carry `#![forbid(unsafe_code)]` so the guarantee cannot be
silently relaxed in a submodule; `forbid` (unlike `deny`) cannot be overridden
by an inner `allow`.",
    ),
    (
        "apsp",
        "no pre-computed all-pairs distance structures (Theorem 1 class)",
        "The paper's Theorem 1 proves LBC instance-optimal over algorithms that compute
network distances *on the fly*. A map keyed by (NodeId, NodeId) or
(ObjectId, ObjectId) — or anything named `apsp`/`all_pairs` — is materialised
all-pairs distance information and exits that algorithm class, invalidating the
optimality argument the reproduction rests on.",
    ),
    (
        "hot-lock",
        "no Mutex/RwLock tokens on the per-node hot path",
        "A Mutex/RwLock on the per-node hot path serialises every worker of the parallel
engine on one cache line, erasing the speedup the batch harness measures.
Shared state there must be atomics (see the index read counters) or
thread-local accumulation merged after the join (see rn_par::par_map_indexed).
This is the lexical rule for hot-path *files*; lock acquisitions reached
through calls into other files are covered by lock-reach.",
    ),
    (
        "metric-name",
        "metric-name literals must be in the crates/obs METRIC_NAMES registry",
        "Every string literal passed to `Metric::from_name` / `QueryTrace::get_name` is
checked against the marker-bracketed METRIC_NAMES table in crates/obs. A typo'd
counter name otherwise resolves to None and silently reads zero — in an
assertion, that hides a regression. Deliberate negative probes carry
`// lint: allow(metric-name)`.",
    ),
    (
        "det-taint",
        "nondeterminism sources must not reach determinism-critical sinks",
        "The engine's contract is bitwise-identical skylines, partial results and trace
counters at 1/2/8 workers. This rule walks the workspace call graph: a function
that produces a determinism-critical sink (constructs SkylineResult/PartialInfo,
or records QueryTrace counters) must not transitively call a nondeterminism
source — wall clocks (Instant/SystemTime), randomized hashing (RandomState,
HashMap/HashSet iteration), thread identity, or thread_rng. Blessed seams cut
the taint: everything in crates/par (the claiming primitives are proven
order-invariant by the 1/2/8-worker equivalence suites) and crates/storage's
seeded FaultPlan. In-crate seams — e.g. the Reporter clock that feeds only
wall-time stats fields — carry `// lint: allow(det-taint)` on the function
definition with a justification comment; the blessing also stops traversal
through that function.",
    ),
    (
        "panic-path",
        "no transitive panic sites reachable from public entry points",
        "Walks the call graph from every public entry point (the public `run*` functions
of crates/core, every public method of SkylineEngine, BatchEngine and
DynamicEngine, rn_graph::read_network and rn_workload::stream_build) and
reports each reachable bare `.unwrap()`, `panic!`, `todo!` or
`unimplemented!` — wherever it lives, in any crate. This supersedes the old per-line `unwrap` rule, which could only see the
query-path files themselves, not what they call. `.expect(\"<invariant>\")` with
a documented-invariant message remains the sanctioned form for truly
unreachable states (DESIGN.md §8), and unchecked indexing is deliberately out of
scope: dense Vec indexing via NodeMap is the hot-path design, and
`#![forbid(unsafe_code)]` already rules out get_unchecked. Suppress a justified
site with `// lint: allow(panic-path)` on its line; a definition-line allow
exempts the whole function and stops traversal through it.",
    ),
    (
        "lock-reach",
        "no lock acquisition reachable from a per-node hot loop",
        "Generalises hot-lock across files: a loop-bearing function in the hot scope
(shortest-path expansion, rn_par primitives, the algorithm drivers that run
inside workers) must not transitively call a function *outside* the hot scope
that acquires a Mutex/RwLock — that lock lands on the per-node path even though
no lock token appears in any hot file. Bless an uncontended-by-construction
seam (e.g. the storage session's buffer-pool lock, private to one worker) with
`// lint: allow(lock-reach)` on the acquiring function's definition line plus a
justification; the blessing also stops traversal through that function.",
    ),
    (
        "shard-lock",
        "no function in the sharded pool may acquire two shard locks",
        "The sharded buffer pool's no-deadlock argument is that no execution ever holds
two shard locks at once: every method acquires exactly one shard guard, drops
it, and only then may take another (the readahead path releases the demand
shard before staging). Two `.lock(` sites in one function body is the shape
that breaks this — worker A holds shard 0 wanting shard 1 while worker B holds
the reverse — so the rule flags the second site. A single `.lock(` inside a
loop is fine (each guard drops before the next acquisition). Scoped to
crates/storage/src/shard.rs, where every Mutex is a shard lock; the
uncontended-seam story the locks live under is lock-reach's job. Suppress a
proven-safe ordering with `// lint: allow(shard-lock)` on the function
definition or the flagged line.",
    ),
];

/// The long-form explanation for `rule`, if it exists.
pub fn explain_rule(rule: &str) -> Option<String> {
    RULE_DOCS
        .iter()
        .find(|(id, _, _)| *id == rule)
        .map(|(id, summary, long)| format!("{id} — {summary}\n\n{long}\n"))
}

/// Every rule id, for usage text and validation.
pub fn rule_ids() -> Vec<&'static str> {
    RULE_DOCS.iter().map(|(id, _, _)| *id).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violations_render_with_file_line_rule() {
        let v = Violation {
            file: "crates/sp/src/x.rs".into(),
            line: 3,
            rule: "panic-path",
            message: "m".into(),
        };
        assert_eq!(v.to_string(), "crates/sp/src/x.rs:3: [panic-path] m");
    }

    #[test]
    fn json_is_stable_and_escaped() {
        let mut v = vec![
            Violation {
                file: "b.rs".into(),
                line: 2,
                rule: "hash-order",
                message: "say \"hi\"\nback\\slash".into(),
            },
            Violation {
                file: "a.rs".into(),
                line: 9,
                rule: "float-ord",
                message: "m".into(),
            },
        ];
        sort_violations(&mut v);
        let one = render_json(&v);
        let two = render_json(&v);
        assert_eq!(one, two, "byte-identical across calls");
        assert!(one.contains("\"total\": 2"));
        assert!(one.contains("\"float-ord\": 1"));
        assert!(one.contains("say \\\"hi\\\"\\nback\\\\slash"));
        // Sorted: a.rs before b.rs.
        assert!(one.find("a.rs").expect("a.rs") < one.find("b.rs").expect("b.rs"));
    }

    #[test]
    fn empty_report_is_valid_and_stable() {
        let json = render_json(&[]);
        assert!(json.contains("\"total\": 0"));
        assert!(json.contains("\"violations\": []"));
    }

    #[test]
    fn every_rule_has_an_explanation() {
        for id in rule_ids() {
            let text = explain_rule(id).expect("explanation present");
            assert!(text.starts_with(id), "{id} explanation starts with its id");
            assert!(text.len() > 80, "{id} explanation is substantive");
        }
        assert!(explain_rule("no-such-rule").is_none());
    }
}
