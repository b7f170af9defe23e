//! Runs the complete §6 evaluation and prints every figure's series.
//!
//! ```text
//! cargo run --release -p rn-bench --bin experiments            # everything
//! cargo run --release -p rn-bench --bin experiments -- fig4    # one figure
//! MSQ_SEEDS=3 cargo run --release ...                          # fewer runs
//! MSQ_SCALE=small cargo run --release ...                      # CA-scale only
//! ```
//!
//! Each bench target (`cargo bench -p rn-bench`) runs one figure; this
//! binary is the all-in-one driver whose output backs EXPERIMENTS.md.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let want = |name: &str| args.is_empty() || args.iter().any(|a| a == name);

    if want("fig4") {
        rn_bench::figures::fig4_candidates();
    }
    if want("fig5") {
        rn_bench::figures::fig5_density();
    }
    if want("fig6q") || want("fig6") {
        rn_bench::figures::fig6_queries();
    }
    if want("fig6d") || want("fig6") {
        rn_bench::figures::fig6_density();
    }
    if want("ablation") {
        rn_bench::figures::ablation_analysis();
    }
    if want("throughput") {
        rn_bench::throughput::throughput();
    }
    if want("sweep") {
        rn_bench::sweep::sweep_report();
    }
    if want("oracle") {
        rn_bench::oracle::oracle_report();
    }
    if want("dynamic") {
        rn_bench::dynamic::dynamic_report();
    }
    if want("obs") || want("observability") {
        rn_bench::observability::observability();
    }
    // Opt-in only: the continental stream-build is deliberately excluded
    // from the no-args everything run.
    if args.iter().any(|a| a == "scale") {
        rn_bench::scale::scale_report();
    }
    if args.iter().any(|a| a == "scale-smoke") {
        rn_bench::scale::scale_smoke();
    }
}
