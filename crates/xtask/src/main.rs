//! Workspace automation entry point: `cargo run -p xtask -- lint`.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint") => {
            let mut root = None;
            let mut json = false;
            let mut explain = None;
            loop {
                match args.next().as_deref() {
                    Some("--root") => match args.next() {
                        Some(p) => root = Some(PathBuf::from(p)),
                        None => {
                            eprintln!("--root requires a path");
                            return ExitCode::FAILURE;
                        }
                    },
                    Some("--json") => json = true,
                    Some("--explain") => match args.next() {
                        Some(r) => explain = Some(r),
                        None => {
                            eprintln!(
                                "--explain requires a rule id (one of: {})",
                                xtask::rule_ids().join(", ")
                            );
                            return ExitCode::FAILURE;
                        }
                    },
                    Some(other) => {
                        eprintln!("unknown argument: {other}");
                        return ExitCode::FAILURE;
                    }
                    None => break,
                }
            }
            if let Some(rule) = explain {
                return run_explain(&rule);
            }
            run_lint(&root.unwrap_or_else(workspace_root), json)
        }
        Some("bench-gate") => {
            let root = match args.next() {
                Some(flag) if flag == "--root" => match args.next() {
                    Some(p) => PathBuf::from(p),
                    None => {
                        eprintln!("--root requires a path");
                        return ExitCode::FAILURE;
                    }
                },
                Some(other) => {
                    eprintln!("unknown argument: {other}");
                    return ExitCode::FAILURE;
                }
                None => workspace_root(),
            };
            run_bench_gate(&root)
        }
        Some("help") | Some("--help") | Some("-h") | None => {
            print_usage();
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown task: {other}\n");
            print_usage();
            ExitCode::FAILURE
        }
    }
}

fn run_bench_gate(root: &std::path::Path) -> ExitCode {
    match xtask::bench::run_gate(root) {
        Err(e) => {
            eprintln!("bench-gate: {e}");
            ExitCode::FAILURE
        }
        Ok(outcomes) => {
            let mut failed = 0usize;
            for o in &outcomes {
                println!("{o}");
                if !o.pass() {
                    failed += 1;
                }
            }
            if failed == 0 {
                println!("bench-gate: {} check(s) within tolerance", outcomes.len());
                ExitCode::SUCCESS
            } else {
                println!(
                    "bench-gate: {failed} of {} check(s) regressed (see BENCH_BASELINE.json \
                     for the tolerance policy)",
                    outcomes.len()
                );
                ExitCode::FAILURE
            }
        }
    }
}

fn print_usage() {
    println!(
        "xtask — workspace automation\n\n\
         USAGE:\n    cargo run -p xtask -- <task>\n\n\
         TASKS:\n    lint [--root <path>] [--json] [--explain <rule>]\n                                 \
         run the domain-specific static analysis\n    \
         bench-gate [--root <path>]   compare BENCH_*.json against BENCH_BASELINE.json\n\n\
         LINT FLAGS:\n    --json             emit a stable machine-readable report on stdout\n    \
         --explain <rule>   print one rule's rationale and exit\n\n\
         RULES (per-file):\n    \
         float-ord    no NaN-unsafe partial_cmp().unwrap()/.expect() comparators\n    \
         hash-order   no HashMap/HashSet in the query path (deterministic tie-breaking)\n    \
         unsafe       every crate root keeps #![forbid(unsafe_code)]\n    \
         apsp         no pre-computed all-pairs distance structures (Theorem 1 class)\n    \
         hot-lock     no Mutex/RwLock tokens on the per-node hot path\n    \
         metric-name  metric-name literals must be in the crates/obs METRIC_NAMES registry\n\n\
         RULES (call-graph reachability):\n    \
         panic-path   no transitive panic sites reachable from public entry points\n    \
         det-taint    nondeterminism sources must not reach determinism-critical sinks\n    \
         lock-reach   no lock acquisition reachable from a per-node hot loop\n\n\
         Suppress a finding with `// lint: allow(<rule>)` on the same or preceding line;\n\
         on a fn definition line this blesses a seam for the reachability rules."
    );
}

fn run_explain(rule: &str) -> ExitCode {
    match xtask::explain_rule(rule) {
        Some(text) => {
            println!("{text}");
            ExitCode::SUCCESS
        }
        None => {
            eprintln!(
                "unknown rule: {rule} (known: {})",
                xtask::rule_ids().join(", ")
            );
            ExitCode::FAILURE
        }
    }
}

/// The workspace root: the manifest dir's grandparent when built by
/// cargo (crates/xtask → repo root), else the current directory.
fn workspace_root() -> PathBuf {
    match std::env::var_os("CARGO_MANIFEST_DIR") {
        Some(dir) => {
            let p = PathBuf::from(dir);
            p.ancestors().nth(2).map(|a| a.to_path_buf()).unwrap_or(p)
        }
        None => PathBuf::from("."),
    }
}

fn run_lint(root: &std::path::Path, json: bool) -> ExitCode {
    let violations = xtask::lint_workspace(root);
    if json {
        print!("{}", xtask::render_json(&violations));
    } else {
        for v in &violations {
            println!("{v}");
        }
        if violations.is_empty() {
            println!(
                "xtask lint: clean (rules: {})",
                xtask::rule_ids().join(", ")
            );
        } else {
            println!("xtask lint: {} violation(s)", violations.len());
        }
    }
    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
