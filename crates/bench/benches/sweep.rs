//! Distance-resolution cost of the batching algorithms (EDC, EDC-batch,
//! LBC, LBC-noplb) on the CA-like preset, emitting `BENCH_4.json`. Run
//! with `cargo bench -p rn-bench --bench sweep`. Environment knobs:
//! `MSQ_SEEDS`, `MSQ_IO_MS`.

fn main() {
    rn_bench::sweep::sweep_report();
}
