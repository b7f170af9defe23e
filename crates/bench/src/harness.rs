//! Experiment execution and table formatting.

use msq_core::{Algorithm, Metric, SkylineEngine};
use rn_workload::{generate_objects, generate_queries, Preset};

/// Number of averaged runs per data point by default. The paper averages
/// ten (§6.1: "the average of ten tests"); the default is three so a full
/// `cargo bench --workspace` stays in coffee-break territory — set
/// `MSQ_SEEDS=10` for paper-grade averaging.
pub const DEFAULT_SEEDS: u64 = 3;

/// Seeds to average over, honouring `MSQ_SEEDS`.
pub fn seed_count() -> u64 {
    std::env::var("MSQ_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(DEFAULT_SEEDS)
}

/// Simulated cost of one network page fault, in milliseconds (default
/// 5 ms ≈ an early-2000s random 4 KB disk read; override with
/// `MSQ_IO_MS`, `0` reports pure CPU wall-clock).
///
/// The paper's platform was disk-bound ("I/O is the overwhelming factor",
/// §6.4); on a modern in-memory simulation the CPU wall-clock alone would
/// invert the response-time ordering, so response times are reported as
/// `wall_clock + faults * io_ms` — the same I/O-dominated quantity the
/// paper measured, with the disk model made explicit.
pub fn io_ms() -> f64 {
    std::env::var("MSQ_IO_MS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&v: &f64| v >= 0.0)
        .unwrap_or(5.0)
}

/// One experiment setting: a network preset, an object density and a query
/// arity.
#[derive(Clone, Copy, Debug)]
pub struct Setting {
    /// The network preset (CA/AU/NA-like).
    pub preset: Preset,
    /// Object density ω = |D|/|E|.
    pub omega: f64,
    /// Number of query points |Q|.
    pub nq: usize,
}

/// Averaged metrics for one `(setting, algorithm)` pair.
#[derive(Clone, Copy, Debug, Default)]
pub struct AvgMetrics {
    /// Candidate ratio |C|/|D|.
    pub candidate_ratio: f64,
    /// Network disk pages accessed.
    pub pages: f64,
    /// Pure CPU wall-clock of the whole query, milliseconds.
    pub total_ms: f64,
    /// Pure CPU wall-clock until the first skyline point, milliseconds.
    pub initial_ms: f64,
    /// Total response time under the disk model: wall-clock plus
    /// `faults * io_ms()`, milliseconds.
    pub response_ms: f64,
    /// Initial response time under the disk model, milliseconds.
    pub initial_response_ms: f64,
    /// Skyline cardinality.
    pub skyline: f64,
    /// Network nodes expanded.
    pub expanded: f64,
}

/// Builds the engine for a setting (one fixed network/object seed per
/// setting, as the paper uses fixed real datasets).
pub fn build_engine(setting: &Setting) -> SkylineEngine {
    let net = setting.preset.generate(42);
    let objects = generate_objects(&net, setting.omega, 4242);
    SkylineEngine::build(net, objects)
}

/// Runs `algo` for `setting` over `seeds` query seeds (cold buffer each
/// run) and averages the metrics.
pub fn run_setting(
    engine: &SkylineEngine,
    setting: &Setting,
    algo: Algorithm,
    seeds: u64,
) -> AvgMetrics {
    let mut acc = AvgMetrics::default();
    let object_count = engine.object_count().max(1) as f64;
    let io = io_ms();
    for seed in 0..seeds {
        // §6.1 confines query points to a region covering 10 % of the
        // network; that is 10 % of the *area*, i.e. sqrt(0.1) of each axis.
        let queries = generate_queries(engine.network(), setting.nq, 0.316, 1000 + seed);
        let r = engine.run_cold(algo, &queries);
        acc.candidate_ratio += r.trace.get(Metric::QueryCandidates) as f64 / object_count;
        acc.pages += r.page_faults() as f64;
        let wall = r.stats.total_time.as_secs_f64() * 1e3;
        let first_wall = r
            .stats
            .initial_time
            .map(|d| d.as_secs_f64() * 1e3)
            .unwrap_or(0.0);
        acc.total_ms += wall;
        acc.initial_ms += first_wall;
        acc.response_ms += wall + r.page_faults() as f64 * io;
        acc.initial_response_ms += first_wall + r.stats.initial_pages.unwrap_or(0) as f64 * io;
        acc.skyline += r.skyline.len() as f64;
        acc.expanded += r.trace.get(Metric::SpHeapPops) as f64;
    }
    let k = seeds as f64;
    AvgMetrics {
        candidate_ratio: acc.candidate_ratio / k,
        pages: acc.pages / k,
        total_ms: acc.total_ms / k,
        initial_ms: acc.initial_ms / k,
        response_ms: acc.response_ms / k,
        initial_response_ms: acc.initial_response_ms / k,
        skyline: acc.skyline / k,
        expanded: acc.expanded / k,
    }
}

/// Averages a slice of metrics (used when pooling over settings).
pub fn average(ms: &[AvgMetrics]) -> AvgMetrics {
    let k = ms.len().max(1) as f64;
    let mut acc = AvgMetrics::default();
    for m in ms {
        acc.candidate_ratio += m.candidate_ratio;
        acc.pages += m.pages;
        acc.total_ms += m.total_ms;
        acc.initial_ms += m.initial_ms;
        acc.response_ms += m.response_ms;
        acc.initial_response_ms += m.initial_response_ms;
        acc.skyline += m.skyline;
        acc.expanded += m.expanded;
    }
    AvgMetrics {
        candidate_ratio: acc.candidate_ratio / k,
        pages: acc.pages / k,
        total_ms: acc.total_ms / k,
        initial_ms: acc.initial_ms / k,
        response_ms: acc.response_ms / k,
        initial_response_ms: acc.initial_response_ms / k,
        skyline: acc.skyline / k,
        expanded: acc.expanded / k,
    }
}

/// Formats one labelled row of per-algorithm values.
pub fn format_row(label: &str, values: &[f64], precision: usize) -> String {
    let mut s = format!("{label:>12} |");
    for v in values {
        s.push_str(&format!(" {v:>12.precision$}"));
    }
    s
}

/// Prints a table header for the given algorithm names.
pub fn print_header(title: &str, columns: &[&str]) {
    println!("\n=== {title} ===");
    let mut s = format!("{:>12} |", "");
    for c in columns {
        s.push_str(&format!(" {c:>12}"));
    }
    println!("{s}");
    println!("{}", "-".repeat(s.len()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averaging() {
        let a = AvgMetrics {
            candidate_ratio: 0.2,
            pages: 10.0,
            total_ms: 1.0,
            initial_ms: 0.5,
            response_ms: 51.0,
            initial_response_ms: 10.5,
            skyline: 3.0,
            expanded: 100.0,
        };
        let b = AvgMetrics {
            candidate_ratio: 0.4,
            pages: 30.0,
            total_ms: 3.0,
            initial_ms: 1.5,
            response_ms: 153.0,
            initial_response_ms: 31.5,
            skyline: 5.0,
            expanded: 300.0,
        };
        let m = average(&[a, b]);
        assert!((m.candidate_ratio - 0.3).abs() < 1e-12);
        assert!((m.pages - 20.0).abs() < 1e-12);
        assert!((m.skyline - 4.0).abs() < 1e-12);
    }

    #[test]
    fn row_formatting() {
        let s = format_row("CA", &[1.0, 2.5], 2);
        assert!(s.contains("CA"));
        assert!(s.contains("1.00"));
        assert!(s.contains("2.50"));
    }

    #[test]
    fn seed_count_default() {
        // Unless the env var is set by the caller, the default applies.
        if std::env::var("MSQ_SEEDS").is_err() {
            assert_eq!(seed_count(), DEFAULT_SEEDS);
        }
    }
}
