//! In-tree shim for [`criterion`](https://docs.rs/criterion).
//!
//! The registry is unreachable, so this crate provides a drop-in harness
//! for the `criterion_group!`/`criterion_main!` benches in `rn-bench`:
//! same macro grammar, same `Criterion`/`Bencher` method names. Timing is
//! a plain median-of-samples over `Instant::now()` — good enough to spot
//! order-of-magnitude regressions locally, with none of the real crate's
//! statistics, warm-up modelling, or HTML reports.
//!
//! Like the real crate, `cargo bench ... -- <filter>` runs only the
//! benchmarks whose id contains `<filter>` (a substring here, not a
//! regex); the group functions themselves, and their setup, still run.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

/// How `iter_batched` amortises setup; both variants behave the same here.
#[derive(Clone, Copy, Debug)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
}

/// Runs the measured closures and records wall-clock samples.
pub struct Bencher {
    iters_per_sample: u64,
    samples: Vec<Duration>,
}

impl Bencher {
    /// Measures `routine`, called in a tight loop per sample.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let sample_count = self.samples.capacity();
        for _ in 0..sample_count {
            let start = Instant::now();
            for _ in 0..self.iters_per_sample {
                std::hint::black_box(routine());
            }
            self.samples
                .push(start.elapsed() / self.iters_per_sample as u32);
        }
    }

    /// Measures `routine` on fresh inputs from `setup`, excluding setup
    /// time from the measurement.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let sample_count = self.samples.capacity();
        for _ in 0..sample_count {
            let mut total = Duration::ZERO;
            for _ in 0..self.iters_per_sample {
                let input = setup();
                let start = Instant::now();
                std::hint::black_box(routine(input));
                total += start.elapsed();
            }
            self.samples.push(total / self.iters_per_sample as u32);
        }
    }
}

/// The top-level harness handle, mirroring `criterion::Criterion`.
pub struct Criterion {
    sample_size: usize,
    iters_per_sample: u64,
    /// Only ids containing this run; `None` runs every benchmark.
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 50,
            iters_per_sample: 100,
            filter: None,
        }
    }
}

impl Criterion {
    /// Takes the name filter from the command line, as the real crate
    /// does: the first argument after the program name that does not
    /// start with `-` (cargo passes `--bench` before it).
    pub fn configure_from_args(mut self) -> Self {
        self.filter = name_filter(std::env::args().skip(1));
        self
    }

    /// Sets how many timing samples each benchmark records.
    pub fn sample_size(mut self, n: usize) -> Self {
        assert!(n >= 2, "sample_size must be at least 2");
        self.sample_size = n;
        self
    }

    /// Runs one named benchmark and prints a one-line summary, unless the
    /// name filter excludes `id`.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) -> &mut Self {
        if self
            .filter
            .as_deref()
            .is_some_and(|want| !id.contains(want))
        {
            return self;
        }
        let mut b = Bencher {
            iters_per_sample: self.iters_per_sample,
            samples: Vec::with_capacity(self.sample_size),
        };
        f(&mut b);
        let mut samples = b.samples;
        if samples.is_empty() {
            println!("{id:<40} (no samples)");
            return self;
        }
        samples.sort_unstable();
        let median = samples[samples.len() / 2];
        let min = samples[0];
        let max = samples[samples.len() - 1];
        println!(
            "{id:<40} median {:>12} (min {:>12}, max {:>12}, n={})",
            fmt_duration(median),
            fmt_duration(min),
            fmt_duration(max),
            samples.len(),
        );
        self
    }
}

/// The first argument that does not start with `-`.
fn name_filter(args: impl IntoIterator<Item = String>) -> Option<String> {
    args.into_iter().find(|a| !a.starts_with('-'))
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2} s", ns as f64 / 1_000_000_000.0)
    }
}

/// Declares a benchmark group, mirroring `criterion::criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config.configure_from_args();
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Declares the bench entry point, mirroring `criterion::criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_records_samples() {
        let mut c = Criterion::default().sample_size(5);
        let mut ran = 0u64;
        c.bench_function("smoke/iter", |b| b.iter(|| ran += 1));
        assert!(ran > 0);
    }

    #[test]
    fn iter_batched_uses_fresh_inputs() {
        let mut c = Criterion::default().sample_size(3);
        c.bench_function("smoke/batched", |b| {
            b.iter_batched(|| vec![1u8; 16], |v| v.len(), BatchSize::SmallInput)
        });
    }

    #[test]
    fn name_filter_skips_ids_that_do_not_contain_it() {
        let args = |v: &[&str]| v.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        assert_eq!(name_filter(args(&["--bench", "sp/"])), Some("sp/".into()));
        assert_eq!(name_filter(args(&["--bench"])), None);
        assert_eq!(name_filter(args(&[])), None);

        let mut c = Criterion {
            filter: name_filter(args(&["--bench", "sp/"])),
            ..Criterion::default().sample_size(2)
        };
        let mut ran: Vec<&str> = Vec::new();
        for id in ["sp/dijkstra", "rtree/nn", "storage/sp_probe", "sp/astar"] {
            c.bench_function(id, |b| {
                ran.push(id);
                b.iter(|| ());
            });
        }
        assert_eq!(ran, ["sp/dijkstra", "sp/astar"]);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_nanos(10)), "10 ns");
        assert_eq!(fmt_duration(Duration::from_micros(2)), "2.00 µs");
        assert_eq!(fmt_duration(Duration::from_millis(3)), "3.00 ms");
    }
}
