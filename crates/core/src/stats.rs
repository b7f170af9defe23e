//! Result records and per-query statistics.
//!
//! The evaluation (§6) compares the algorithms on candidate-set size,
//! network disk pages accessed, total response time and *initial* response
//! time (time until the first skyline point is reported). The counts live
//! in each result's deterministic trace; [`QueryStats`] holds the times.
//! [`Reporter`] captures the progressive-reporting side: algorithms push
//! each skyline point through it as soon as the point is confirmed, and
//! the reporter timestamps the first arrival.

use rn_graph::ObjectId;
use rn_obs::QueryTrace;
use rn_storage::IoStats;
use std::time::{Duration, Instant};

/// One confirmed network skyline point.
#[derive(Clone, Debug, PartialEq)]
pub struct SkylinePoint {
    /// The object.
    pub object: ObjectId,
    /// `vector[i]` is the network distance from the object to the i-th
    /// query point.
    pub vector: Vec<f64>,
}

/// The canonical bitwise form of a skyline: `(object id, vector bits)`
/// sorted by object id. Two skylines with equal forms hold the same
/// objects with bit-identical vectors, whatever their report order.
pub fn canonical(points: &[SkylinePoint]) -> Vec<(u32, Vec<u64>)> {
    let mut v: Vec<(u32, Vec<u64>)> = points
        .iter()
        .map(|p| (p.object.0, p.vector.iter().map(|d| d.to_bits()).collect()))
        .collect();
    v.sort();
    v
}

/// Collects progressively reported skyline points with timing and the
/// page cost of the first report (the I/O component of the paper's
/// "initial response time").
pub struct Reporter {
    start: Instant,
    first_at: Option<Duration>,
    points: Vec<SkylinePoint>,
    io: IoStats,
    start_faults: u64,
    first_faults: Option<u64>,
    trace: QueryTrace,
}

/// Wall-clock stopwatch behind the elapsed-time stats fields.
///
/// Every wall-clock read in the query path goes through this (or
/// [`Reporter`]) so the `det-taint` lint can check the rest of the
/// engine is clock-free: time feeds only the `*_time` measurements,
/// never counters, ordering, or result contents.
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts timing now.
    // lint: allow(det-taint) — wall time feeds only elapsed-time stats
    // fields, never counters, ordering, or result contents.
    pub fn start() -> Stopwatch {
        Stopwatch(Instant::now())
    }

    /// Wall time since [`Stopwatch::start`].
    pub fn elapsed(&self) -> Duration {
        self.0.elapsed()
    }
}

impl Reporter {
    /// Starts the clock and snapshots `io` so the first report's fault
    /// count can be measured.
    // lint: allow(det-taint) — the start timestamp feeds only the
    // wall-time stats fields (time_to_first, total_time).
    pub fn with_io(io: IoStats) -> Self {
        Reporter {
            start: Instant::now(),
            first_at: None,
            points: Vec::new(),
            start_faults: io.faults(),
            io,
            first_faults: None,
            trace: QueryTrace::new(),
        }
    }

    /// The query's observability recorder. Algorithm drivers bump
    /// [`rn_obs::Metric`] counters and emit [`rn_obs::Event`]s through
    /// this, on the one thread that runs the query (DESIGN.md §10).
    pub fn obs(&mut self) -> &mut QueryTrace {
        &mut self.trace
    }

    /// Detaches the recorded trace (leaving an empty one behind) so the
    /// engine can finish assembling it after the points are consumed.
    pub fn take_obs(&mut self) -> QueryTrace {
        std::mem::take(&mut self.trace)
    }

    /// Records a confirmed skyline point (timestamping the first).
    pub fn report(&mut self, point: SkylinePoint) {
        self.mark_first();
        self.points.push(point);
    }

    /// Timestamps the initial response *now*, without a point.
    ///
    /// LBC calls this the moment the first network nearest neighbour of
    /// the source query point is identified: that object is guaranteed to
    /// be a skyline member (nothing can beat it on the source dimension),
    /// so it can be handed to the user before its remaining distances are
    /// computed — this is why the paper's Figure 5(c)/6(c) show LBC's
    /// initial response as essentially immediate. Idempotent; a subsequent
    /// [`Reporter::report`] keeps the earlier timestamp.
    pub fn mark_first(&mut self) {
        if self.first_at.is_none() {
            self.first_at = Some(self.start.elapsed());
            self.first_faults = Some(self.io.faults().saturating_sub(self.start_faults));
        }
    }

    /// Time from construction to the first report, if any was made.
    pub fn time_to_first(&self) -> Option<Duration> {
        self.first_at
    }

    /// Network pages faulted before the first report, if any was made.
    pub fn pages_to_first(&self) -> Option<u64> {
        self.first_faults
    }

    /// Consumes the reporter, yielding the reported points in report order.
    pub fn into_points(self) -> Vec<SkylinePoint> {
        self.points
    }
}

/// The wall-clock side of one query execution, plus the page cost of its
/// first report. Work counts (candidates, pages, expansions, index reads)
/// live only in the deterministic [`QueryTrace`]; time never enters it
/// (DESIGN.md §18).
#[derive(Clone, Debug, Default)]
pub struct QueryStats {
    /// Wall-clock total response time.
    pub total_time: Duration,
    /// Wall-clock time until the first skyline point was reported.
    pub initial_time: Option<Duration>,
    /// Network pages faulted before the first skyline point was reported.
    pub initial_pages: Option<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reporter_timestamps_first_only() {
        let mut r = Reporter::with_io(IoStats::new());
        assert!(r.time_to_first().is_none());
        r.report(SkylinePoint {
            object: ObjectId(1),
            vector: vec![1.0],
        });
        let t1 = r.time_to_first().unwrap();
        std::thread::sleep(Duration::from_millis(2));
        r.report(SkylinePoint {
            object: ObjectId(2),
            vector: vec![2.0],
        });
        assert_eq!(r.time_to_first().unwrap(), t1, "first timestamp is sticky");
        let ids: Vec<ObjectId> = r.into_points().iter().map(|p| p.object).collect();
        assert_eq!(ids, [ObjectId(1), ObjectId(2)]);
    }
}
