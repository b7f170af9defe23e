//! Lower-bound oracle comparison: Euclid vs ALT bounds at matched
//! workloads, emitting `BENCH_7.json`. Run with
//! `cargo bench -p rn-bench --bench oracle`. Environment knobs:
//! `MSQ_SEEDS`, `MSQ_IO_MS`.

fn main() {
    rn_bench::oracle::oracle_report();
}
