//! Dynamic-maintenance comparison: incremental skyline upkeep vs a fresh
//! registration after every churn batch, emitting `BENCH_8.json`. Run
//! with `cargo bench -p rn-bench --bench dynamic`. Environment knobs:
//! `MSQ_SEEDS`.

fn main() {
    rn_bench::dynamic::dynamic_report();
}
