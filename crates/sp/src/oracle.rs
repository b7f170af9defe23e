//! Precomputed network-distance lower-bound oracles — the [`LowerBound`]
//! seam behind the skyline pruning rules.
//!
//! Every pruning rule in the paper — EDC's Euclidean windows (§4.2),
//! LBC's `plb` (§4.3) — leans on *some* admissible lower bound of network
//! distance. The paper uses the Euclidean bound, which on road networks
//! is slack by the detour ratio δ = d_N/d_E. This module makes the bound
//! pluggable:
//!
//! * [`EuclidBound`] — the paper's bound, zero preprocessing, the
//!   default ([`EUCLID`]). Bitwise identical to the pre-seam engines.
//! * [`AltOracle`] — ALT landmarks (Goldberg & Harrelson): `k`
//!   farthest-point landmarks, one exhaustive [`Dijkstra`] table per
//!   landmark stored node-major, triangle bound `max_l |d(l,u) − d(l,v)|`.
//!
//! A\* does not read this seam: its heap keys are Euclidean distances
//! computed inline (`crate::astar`), and `DynamicEngine` resolves every
//! maintained row through that A\*. The two methods:
//!
//! * [`LowerBound::pair_bound`] prunes EDC windows and closures and
//!   raises LBC candidate seeds;
//! * [`LowerBound::node_bound`] has no engine caller; msqbench's
//!   `sp.lb_eval_ns` probe times it, and the admissibility and
//!   consistency tests check it.
//!
//! ALT's node bound is also consistent (DESIGN.md §14 has the argument),
//! but no engine relies on that.
//!
//! The ALT tables are `O(k·|V|)` lower-bound indexes, not the
//! `Θ(|V|²)` exact structure the paper's Theorem 1 optimality class
//! excludes (see DESIGN.md §14).
//!
//! Hit accounting uses relaxed atomics: the counters are commutative
//! sums, and the concurrent queries of a batch share one oracle.

use crate::ctx::NetCtx;
use crate::dijkstra::Dijkstra;
use rn_geom::Point;
use rn_graph::{EdgeId, NetPosition, NodeId, RoadNetwork};
use rn_index::MiddleLayer;
use rn_storage::NetworkStore;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Which lower bound an oracle implements.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BoundKind {
    /// Straight-line Euclidean distance (the paper's bound).
    Euclid,
    /// ALT landmark triangle bounds.
    Alt,
}

/// Construction recipe for a lower bound (the engine-facing knobs).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BoundSpec {
    /// No preprocessing; the zero-cost default.
    Euclid,
    /// ALT with `landmarks` farthest-point-seeded landmarks.
    Alt {
        /// Number of landmarks (each costs one exhaustive Dijkstra and
        /// `8·|V|` bytes of table).
        landmarks: usize,
    },
}

/// Snapshot of an oracle's hit accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LbCounters {
    /// Evaluations where the precomputed bound was strictly tighter
    /// than plain Euclid.
    pub oracle_hits: u64,
    /// Evaluations where Euclid was already at least as tight.
    pub euclid_fallbacks: u64,
}

/// Build-cost report for a constructed oracle. `build_ms` is filled by
/// the caller (wall clock stays out of this crate); `bytes` is a pure
/// function of network + knobs and therefore deterministic.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OracleBuildStats {
    /// Index footprint in bytes (distance tables + assignments).
    pub bytes: u64,
    /// Preprocessing wall time in milliseconds (caller-measured; 0 when
    /// nothing was built).
    pub build_ms: f64,
}

/// A network position anchored for lower-bound evaluation: the edge it
/// lies on, its planar point, and the pre-resolved endpoint distances
/// `(tu, tv)` to the edge's `(eu, ev)`.
///
/// Every network path to an on-edge position enters through one of the
/// two endpoints (or runs along the shared edge), so
/// `d(x, t) = min(d(x, eu) + tu, d(x, ev) + tv)` — the anchor lets the
/// oracles bound each branch with a node-level bound and keep the min.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LbTarget {
    /// The edge the position lies on.
    pub edge: EdgeId,
    /// Planar coordinates of the position.
    pub point: Point,
    /// First endpoint of the edge.
    pub eu: NodeId,
    /// Second endpoint of the edge.
    pub ev: NodeId,
    /// Along-edge distance from `eu` to the position.
    pub tu: f64,
    /// Along-edge distance from `ev` to the position.
    pub tv: f64,
}

impl LbTarget {
    /// Anchors `pos`, resolving its point and endpoint distances.
    pub fn of(net: &RoadNetwork, pos: &NetPosition) -> LbTarget {
        let edge = net.edge(pos.edge);
        let (tu, tv) = net.position_endpoint_dists(pos);
        LbTarget {
            edge: pos.edge,
            point: net.position_point(pos),
            eu: edge.u,
            ev: edge.v,
            tu,
            tv,
        }
    }
}

/// The pluggable lower-bound seam.
///
/// Implementations must be admissible everywhere (`bound ≤ d_N`): the
/// pruning rules discard work on the strength of a bound, so an
/// inadmissible one would change answers.
/// Admissibility is proptested against the brute APSP oracle
/// (`tests/oracle_bounds.rs`), which also checks that ALT's node bound
/// is consistent (`bound(u, t) ≤ w(u, v) + bound(v, t)` across every
/// edge) — a property no engine relies on since A\* keys its heap by
/// the Euclidean distance.
pub trait LowerBound: Send + Sync {
    /// Which bound this is.
    fn kind(&self) -> BoundKind;

    /// Admissible bound from node `n` (at planar point `p`) to the
    /// anchored position `t`. No engine reads it; msqbench's
    /// `sp.lb_eval_ns` probe times it. Never below the Euclidean bound
    /// `p.distance(t.point)`.
    fn node_bound(&self, n: NodeId, p: Point, t: &LbTarget) -> f64;

    /// Admissible bound between two anchored positions, used for
    /// pruning (EDC windows, LBC candidate seeds). Never below the
    /// Euclidean point distance.
    fn pair_bound(&self, a: &LbTarget, b: &LbTarget) -> f64;

    /// Snapshot of the hit accounting (zeros for [`EuclidBound`]).
    fn counters(&self) -> LbCounters {
        LbCounters::default()
    }

    /// Index footprint in bytes (0 for [`EuclidBound`]).
    fn build_bytes(&self) -> u64 {
        0
    }

    /// Notifies the bound that edge weights changed (DESIGN.md §15.3).
    ///
    /// A pure weight *increase* keeps precomputed tables admissible and
    /// consistent — old distances only under-estimate the new ones — so
    /// `decreased == false` is a no-op. A *decrease* can push true
    /// distances below the tables, so implementations with precomputed
    /// state must mark themselves stale and degrade every bound to its
    /// Euclidean floor (which the free-flow weight floor keeps valid
    /// under any update history). The default is a no-op: [`EuclidBound`]
    /// has no state to go stale.
    fn note_weight_change(&self, decreased: bool) {
        let _ = decreased;
    }

    /// `true` when a weight decrease has invalidated this bound's
    /// precomputed tables and evaluations return only the Euclidean
    /// floor. Never silently inadmissible: detection is the contract
    /// (`tests/oracle_bounds.rs` regression-tests it).
    fn is_degraded(&self) -> bool {
        false
    }
}

/// The paper's Euclidean bound: no tables, no counters, and bitwise
/// identical to the engines before the seam existed.
#[derive(Clone, Copy, Debug, Default)]
pub struct EuclidBound;

/// The process-wide default bound, borrowed by every [`NetCtx`] that
/// was not explicitly given an oracle.
pub static EUCLID: EuclidBound = EuclidBound;

impl LowerBound for EuclidBound {
    fn kind(&self) -> BoundKind {
        BoundKind::Euclid
    }

    #[inline]
    fn node_bound(&self, _n: NodeId, p: Point, t: &LbTarget) -> f64 {
        p.distance(&t.point)
    }

    #[inline]
    fn pair_bound(&self, a: &LbTarget, b: &LbTarget) -> f64 {
        a.point.distance(&b.point)
    }
}

/// Composes a node-level bound into an anchored-target bound: the min
/// over the two endpoint branches, floored by the Euclidean distance.
/// `node_lb(x)` must lower-bound `d_N(n, x)`; each branch
/// `node_lb(x) + off` then lower-bounds the paths entering through `x`,
/// and the min lower-bounds `d_N(n, t)`.
#[inline]
fn anchor_min(lb_eu: f64, lb_ev: f64, t: &LbTarget) -> f64 {
    (lb_eu + t.tu).min(lb_ev + t.tv)
}

/// Tallies one evaluation: `oracle` strictly above `euclid` is a hit.
#[inline]
fn tally(hits: &AtomicU64, fallbacks: &AtomicU64, oracle: f64, euclid: f64) {
    if oracle > euclid {
        hits.fetch_add(1, Ordering::Relaxed);
    } else {
        fallbacks.fetch_add(1, Ordering::Relaxed);
    }
}

/// Admissible pair bound between two anchored positions from a
/// node-pair lower bound: min over the four endpoint combinations, plus
/// the along-edge path when both share an edge.
fn pair_via_endpoints(node_lb: impl Fn(NodeId, NodeId) -> f64, a: &LbTarget, b: &LbTarget) -> f64 {
    let mut best = f64::INFINITY;
    for &(x, xo) in &[(a.eu, a.tu), (a.ev, a.tv)] {
        for &(y, yo) in &[(b.eu, b.tu), (b.ev, b.tv)] {
            best = best.min(node_lb(x, y) + xo + yo);
        }
    }
    if a.edge == b.edge {
        best = best.min((a.tu - b.tu).abs());
    }
    best
}

// ---------------------------------------------------------------------------
// ALT landmarks
// ---------------------------------------------------------------------------

/// ALT landmark oracle: `k` farthest-point landmarks, one exhaustive
/// Dijkstra distance table each, triangle bound
/// `max_l |d(l, u) − d(l, v)| ≤ d_N(u, v)` maxed with Euclid.
///
/// Landmark selection is fully deterministic: the seed is the
/// lowest-id non-isolated node, each subsequent landmark maximises the
/// minimum table distance to the landmarks chosen so far, and ties
/// break towards the lower node id — no RNG, no wall clock (the
/// det-taint discussion is in DESIGN.md §14).
pub struct AltOracle {
    /// Chosen landmark node ids (diagnostic; order = selection order).
    landmarks: Vec<NodeId>,
    /// The landmark tables, node-major: `rows[n * k + l] = d(l, n)` for
    /// the `k` chosen landmarks (`f64::INFINITY` off landmark `l`'s
    /// component), so one node's `k` distances sit in one contiguous row.
    rows: Vec<f64>,
    bytes: u64,
    hits: AtomicU64,
    fallbacks: AtomicU64,
    /// Set by a weight decrease: the tables were computed on weights
    /// that no longer upper-bound reality, so every evaluation degrades
    /// to the Euclidean floor until the oracle is rebuilt.
    stale: AtomicBool,
}

impl AltOracle {
    /// Builds the oracle with up to `landmarks` landmarks. All table
    /// fills run against a private store session, so the caller's I/O
    /// counters are untouched by preprocessing.
    pub fn build(
        net: &RoadNetwork,
        store: &NetworkStore,
        mid: &MiddleLayer,
        landmarks: usize,
    ) -> AltOracle {
        let session = store.session();
        let ctx = NetCtx::new(net, &session, mid);
        let n = net.node_count();
        let mut chosen: Vec<NodeId> = Vec::new();

        // Seed: distances from the lowest-id non-isolated node. Its
        // table is only used to pick the first landmark, then dropped.
        let seed = net.node_ids().find(|&id| !net.adjacent(id).is_empty());
        let mut score = match seed.and_then(|s| landmark_table(&ctx, s)) {
            Some(t) => t,
            None => vec![f64::INFINITY; n],
        };
        if seed.is_none() {
            return AltOracle {
                landmarks: chosen,
                rows: Vec::new(),
                bytes: 0,
                hits: AtomicU64::new(0),
                fallbacks: AtomicU64::new(0),
                stale: AtomicBool::new(false),
            };
        }

        // Rows are filled at a stride of the requested count (no more
        // than one landmark per node), one landmark's table at a time, so
        // the build never holds both layouts. The table is filled in
        // settle order first: random writes into the rows themselves made
        // the build about 20 % slower.
        let stride = landmarks.min(n);
        let mut rows = vec![f64::INFINITY; n * stride];
        while chosen.len() < landmarks {
            // Farthest point: argmax of the current score among finite,
            // not-yet-chosen, non-isolated nodes; ties keep the lowest id.
            let mut best: Option<(NodeId, f64)> = None;
            for id in net.node_ids() {
                let s = score[id.idx()];
                if !s.is_finite() || s <= 0.0 || net.adjacent(id).is_empty() {
                    continue;
                }
                if best.map_or(true, |(_, bs)| s > bs) {
                    best = Some((id, s));
                }
            }
            let Some((pick, _)) = best else { break };
            let Some(table) = landmark_table(&ctx, pick) else {
                break;
            };
            let l = chosen.len();
            for ((row, s), &d) in rows.chunks_exact_mut(stride).zip(&mut score).zip(&table) {
                *s = s.min(d);
                row[l] = d;
            }
            chosen.push(pick);
        }
        let k = chosen.len();
        if k < stride {
            // Fewer landmarks than requested: close the gaps in place.
            for i in 0..n {
                rows.copy_within(i * stride..i * stride + k, i * k);
            }
            rows.truncate(n * k);
            rows.shrink_to_fit();
        }

        let bytes = (rows.len() * std::mem::size_of::<f64>()) as u64;
        AltOracle {
            landmarks: chosen,
            rows,
            bytes,
            hits: AtomicU64::new(0),
            fallbacks: AtomicU64::new(0),
            stale: AtomicBool::new(false),
        }
    }

    /// The chosen landmark nodes, in selection order.
    pub fn landmarks(&self) -> &[NodeId] {
        &self.landmarks
    }

    /// Node `n`'s landmark distances, `d(l, n)` for each landmark `l`.
    #[inline]
    fn row(&self, n: NodeId) -> &[f64] {
        let k = self.landmarks.len();
        &self.rows[n.idx() * k..][..k]
    }

    /// Triangle bound between two *nodes*:
    /// `max_l |d(l, x) − d(l, y)| ≤ d_N(x, y)`, over the two contiguous
    /// rows without a branch. A landmark reaching exactly one node gives
    /// `|∞ − d| = ∞`, proving the nodes sit in different components; one
    /// reaching neither gives `∞ − ∞ = NaN`, which never wins a `>`, so it
    /// contributes nothing. All other terms are finite and non-negative,
    /// so the result is bit for bit the per-landmark maximum that skips
    /// unreached pairs and returns ∞ on a one-sided one (`oracle::tests`).
    /// Always inlined: `node_bound` calls it twice per evaluation.
    #[inline(always)]
    fn node_pair(&self, x: NodeId, y: NodeId) -> f64 {
        let mut best = 0.0f64;
        for (dx, dy) in self.row(x).iter().zip(self.row(y)) {
            let d = (dx - dy).abs();
            if d > best {
                best = d;
            }
        }
        best
    }
}

impl LowerBound for AltOracle {
    fn kind(&self) -> BoundKind {
        BoundKind::Alt
    }

    fn node_bound(&self, n: NodeId, p: Point, t: &LbTarget) -> f64 {
        let euclid = p.distance(&t.point);
        if self.stale.load(Ordering::Relaxed) {
            self.fallbacks.fetch_add(1, Ordering::Relaxed);
            return euclid;
        }
        let via = anchor_min(self.node_pair(n, t.eu), self.node_pair(n, t.ev), t);
        tally(&self.hits, &self.fallbacks, via, euclid);
        via.max(euclid)
    }

    fn pair_bound(&self, a: &LbTarget, b: &LbTarget) -> f64 {
        let euclid = a.point.distance(&b.point);
        if self.stale.load(Ordering::Relaxed) {
            self.fallbacks.fetch_add(1, Ordering::Relaxed);
            return euclid;
        }
        let via = pair_via_endpoints(|x, y| self.node_pair(x, y), a, b);
        tally(&self.hits, &self.fallbacks, via, euclid);
        via.max(euclid)
    }

    fn counters(&self) -> LbCounters {
        LbCounters {
            oracle_hits: self.hits.load(Ordering::Relaxed),
            euclid_fallbacks: self.fallbacks.load(Ordering::Relaxed),
        }
    }

    fn build_bytes(&self) -> u64 {
        self.bytes
    }

    fn note_weight_change(&self, decreased: bool) {
        if decreased {
            self.stale.store(true, Ordering::Relaxed);
        }
    }

    fn is_degraded(&self) -> bool {
        self.stale.load(Ordering::Relaxed)
    }
}

/// Exhaustive Dijkstra table from node `l`, sourced at offset 0 (or the
/// full length) of its first incident edge so the wavefront starts with
/// `d(l) = 0`. `None` for isolated nodes.
fn landmark_table(ctx: &NetCtx, l: NodeId) -> Option<Vec<f64>> {
    let &(e, _) = ctx.net.adjacent(l).first()?;
    let edge = ctx.net.edge(e);
    let pos = if edge.u == l {
        NetPosition::new(e, 0.0)
    } else {
        NetPosition::new(e, edge.length)
    };
    let mut out = vec![f64::INFINITY; ctx.net.node_count()];
    let mut dij = Dijkstra::new(ctx, pos);
    while let Some((n, d)) = dij.settle_next() {
        out[n.idx()] = d;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apsp_oracle::{all_pairs_node_distances, position_distance_oracle};
    use rand::prelude::*;
    use rand::rngs::StdRng;
    use rn_geom::EPSILON;
    use rn_graph::NetworkBuilder;

    /// Seeded random connected-ish network (mirrors the astar test rig).
    fn random_net(n: usize, seed: u64) -> RoadNetwork {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = NetworkBuilder::new();
        for _ in 0..n {
            b.add_node(Point::new(
                rng.random_range(0.0..100.0),
                rng.random_range(0.0..100.0),
            ));
        }
        // Chain for connectivity + random extras.
        for i in 1..n as u32 {
            b.add_straight_edge(NodeId(i - 1), NodeId(i)).unwrap();
        }
        for _ in 0..(2 * n) {
            let a = NodeId(rng.random_range(0..n as u32));
            let c = NodeId(rng.random_range(0..n as u32));
            if a != c {
                let _ = b.add_straight_edge(a, c);
            }
        }
        b.build().unwrap()
    }

    fn rand_pos(net: &RoadNetwork, rng: &mut StdRng) -> NetPosition {
        let e = EdgeId(rng.random_range(0..net.edge_count() as u32));
        let len = net.edge(e).length;
        NetPosition::new(e, rng.random_range(0.0..=len))
    }

    fn build_alt(net: &RoadNetwork) -> AltOracle {
        let store = NetworkStore::build(net);
        let mid = MiddleLayer::build(net, &[]);
        AltOracle::build(net, &store, &mid, 6)
    }

    #[test]
    fn euclid_bound_matches_raw_distance_bitwise() {
        let net = random_net(30, 7);
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..50 {
            let a = LbTarget::of(&net, &rand_pos(&net, &mut rng));
            let b = LbTarget::of(&net, &rand_pos(&net, &mut rng));
            assert_eq!(EUCLID.pair_bound(&a, &b), a.point.distance(&b.point));
            assert_eq!(
                EUCLID.node_bound(NodeId(0), net.point(NodeId(0)), &b),
                net.point(NodeId(0)).distance(&b.point)
            );
        }
    }

    #[test]
    fn oracle_node_pair_bounds_are_admissible() {
        for seed in 0..3 {
            let net = random_net(40, seed);
            let alt = build_alt(&net);
            let apsp = all_pairs_node_distances(&net);
            for x in net.node_ids() {
                for y in net.node_ids() {
                    let d = apsp[x.idx()][y.idx()];
                    let a = alt.node_pair(x, y);
                    assert!(
                        a <= d + EPSILON,
                        "ALT node bound {a} > d {d} for {x:?},{y:?} seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn oracle_pair_bounds_are_admissible_for_positions() {
        for seed in 0..3 {
            let net = random_net(35, 10 + seed);
            let alt = build_alt(&net);
            let reference = position_distance_oracle(&net);
            let mut rng = StdRng::seed_from_u64(99 + seed);
            for _ in 0..60 {
                let pa = rand_pos(&net, &mut rng);
                let pb = rand_pos(&net, &mut rng);
                let d = reference(&pa, &pb);
                let a = LbTarget::of(&net, &pa);
                let b = LbTarget::of(&net, &pb);
                let got = alt.pair_bound(&a, &b);
                assert!(got <= d + EPSILON, "pair bound {got} > d {d} (seed {seed})");
                assert!(got + EPSILON >= a.point.distance(&b.point), "below Euclid");
            }
        }
    }

    #[test]
    fn node_bounds_are_consistent_across_edges() {
        // h(u) ≤ w(u,v) + h(v) for every edge and sampled target: ALT's
        // node bound is a consistent potential.
        for seed in 0..3 {
            let net = random_net(40, 20 + seed);
            let alt = build_alt(&net);
            let mut rng = StdRng::seed_from_u64(7 + seed);
            for _ in 0..20 {
                let t = LbTarget::of(&net, &rand_pos(&net, &mut rng));
                for (ei, e) in net.edges().iter().enumerate() {
                    let hu = alt.node_bound(e.u, net.point(e.u), &t);
                    let hv = alt.node_bound(e.v, net.point(e.v), &t);
                    assert!(
                        hu <= e.length + hv + EPSILON,
                        "inconsistent over edge {ei} (seed {seed}): {hu} > {} + {hv}",
                        e.length
                    );
                    assert!(
                        hv <= e.length + hu + EPSILON,
                        "inconsistent (reverse) over edge {ei} (seed {seed})",
                    );
                }
            }
        }
    }

    #[test]
    fn alt_landmarks_are_deterministic_and_spread() {
        let net = random_net(50, 3);
        let store = NetworkStore::build(&net);
        let mid = MiddleLayer::build(&net, &[]);
        let a = AltOracle::build(&net, &store, &mid, 5);
        let b = AltOracle::build(&net, &store, &mid, 5);
        assert_eq!(
            a.landmarks(),
            b.landmarks(),
            "selection must be deterministic"
        );
        assert_eq!(a.landmarks().len(), 5);
        let mut uniq: Vec<NodeId> = a.landmarks().to_vec();
        uniq.sort_unstable_by_key(|n| n.0);
        uniq.dedup();
        assert_eq!(uniq.len(), 5, "landmarks must be distinct");
    }

    #[test]
    fn counters_accumulate_and_build_is_io_clean() {
        let net = random_net(30, 5);
        let store = NetworkStore::build(&net);
        let mid = MiddleLayer::build(&net, &[]);
        let before = store.stats().snapshot();
        let alt = AltOracle::build(&net, &store, &mid, 4);
        let after = store.stats().snapshot();
        assert_eq!(
            after.since(&before).logical,
            0,
            "preprocessing must not touch the caller's I/O counters"
        );
        assert_eq!(alt.counters(), LbCounters::default());
        let mut rng = StdRng::seed_from_u64(6);
        let a = LbTarget::of(&net, &rand_pos(&net, &mut rng));
        let b = LbTarget::of(&net, &rand_pos(&net, &mut rng));
        let _ = alt.pair_bound(&a, &b);
        let c = alt.counters();
        assert_eq!(c.oracle_hits + c.euclid_fallbacks, 1);
        assert!(alt.build_bytes() > 0);
    }

    /// Two seeded random blobs of `n` nodes each, far apart, with no
    /// edge between them.
    fn two_component_net(n: usize, seed: u64) -> RoadNetwork {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = NetworkBuilder::new();
        for base in [0.0, 500.0] {
            for _ in 0..n {
                b.add_node(Point::new(
                    base + rng.random_range(0.0..100.0),
                    rng.random_range(0.0..100.0),
                ));
            }
        }
        for first in [0, n as u32] {
            for i in first + 1..first + n as u32 {
                b.add_straight_edge(NodeId(i - 1), NodeId(i)).unwrap();
            }
            for _ in 0..n {
                let a = NodeId(first + rng.random_range(0..n as u32));
                let c = NodeId(first + rng.random_range(0..n as u32));
                if a != c {
                    let _ = b.add_straight_edge(a, c);
                }
            }
        }
        b.build().unwrap()
    }

    /// The per-landmark kernel the node-major rows replaced: one table
    /// at a time, with an explicit finiteness match.
    fn per_landmark_node_pair(tables: &[Vec<f64>], x: NodeId, y: NodeId) -> f64 {
        let mut best = 0.0f64;
        for table in tables {
            let dx = table[x.idx()];
            let dy = table[y.idx()];
            match (dx.is_finite(), dy.is_finite()) {
                (true, true) => best = best.max((dx - dy).abs()),
                (false, false) => {}
                _ => return f64::INFINITY,
            }
        }
        best
    }

    /// Checks `alt`'s kernel against the per-landmark reference over
    /// `tables` for every node pair, bit for bit. Returns how many pairs
    /// some landmark reached on one side only, and on neither.
    fn check_kernel(alt: &AltOracle, tables: &[Vec<f64>], n: usize) -> (u32, u32) {
        let (mut one_sided, mut neither) = (0u32, 0u32);
        for x in (0..n as u32).map(NodeId) {
            for y in (0..n as u32).map(NodeId) {
                let want = per_landmark_node_pair(tables, x, y);
                let k = tables.len();
                assert_eq!(
                    alt.node_pair(x, y).to_bits(),
                    want.to_bits(),
                    "k {k}: {x:?}, {y:?}"
                );
                let reached = |t: &Vec<f64>, v: NodeId| t[v.idx()].is_finite();
                one_sided += u32::from(tables.iter().any(|t| reached(t, x) != reached(t, y)));
                neither += u32::from(tables.iter().any(|t| !reached(t, x) && !reached(t, y)));
            }
        }
        (one_sided, neither)
    }

    #[test]
    fn alt_kernel_matches_the_per_landmark_reference_bitwise() {
        // Landmark counts 1, 5, 6 and 12, plus one the split network
        // cannot fill (40 asked, fewer than 30 reachable), which closes
        // the row gaps. The reference tables are recomputed from the
        // chosen landmarks, so the row layout is checked as well.
        let mut seen = (0u32, 0u32);
        let nets = [
            (random_net(40, 31), vec![1, 5, 6, 12]),
            (random_net(40, 32), vec![1, 5, 6, 12]),
            (two_component_net(30, 33), vec![1, 5, 6, 12, 40]),
        ];
        for (net, counts) in &nets {
            let store = NetworkStore::build(net);
            let mid = MiddleLayer::build(net, &[]);
            let session = store.session();
            let ctx = NetCtx::new(net, &session, &mid);
            for &k in counts {
                let alt = AltOracle::build(net, &store, &mid, k);
                let chosen = alt.landmarks().len();
                assert!(
                    chosen == k || (k == 40 && chosen < k),
                    "{chosen} of {k} landmarks"
                );
                let tables: Vec<Vec<f64>> = alt
                    .landmarks()
                    .iter()
                    .map(|&l| landmark_table(&ctx, l).unwrap())
                    .collect();
                let (a, b) = check_kernel(&alt, &tables, net.node_count());
                seen = (seen.0 + a, seen.1 + b);
            }
        }
        assert!(seen.0 > 0, "no landmark reached exactly one node");
        assert!(seen.1 > 0, "no landmark reached neither node");

        // Selection keeps every landmark in the seed's component, so no
        // pair above mixes reached and unreached landmarks. Synthetic
        // rows do.
        let mut rng = StdRng::seed_from_u64(34);
        let n = 24;
        for k in [1, 5, 6, 12] {
            let tables: Vec<Vec<f64>> = (0..k)
                .map(|_| {
                    (0..n)
                        .map(|_| {
                            if rng.random_bool(0.3) {
                                f64::INFINITY
                            } else {
                                rng.random_range(0.0..100.0)
                            }
                        })
                        .collect()
                })
                .collect();
            let alt = AltOracle {
                landmarks: (0..k as u32).map(NodeId).collect(),
                rows: (0..n * k).map(|i| tables[i % k][i / k]).collect(),
                bytes: 0,
                hits: AtomicU64::new(0),
                fallbacks: AtomicU64::new(0),
                stale: AtomicBool::new(false),
            };
            check_kernel(&alt, &tables, n);
        }
    }

    #[test]
    fn disconnected_components_bound_to_infinity() {
        let mut b = NetworkBuilder::new();
        let n0 = b.add_node(Point::new(0.0, 0.0));
        let n1 = b.add_node(Point::new(1.0, 0.0));
        let n2 = b.add_node(Point::new(50.0, 0.0));
        let n3 = b.add_node(Point::new(51.0, 0.0));
        b.add_straight_edge(n0, n1).unwrap();
        b.add_straight_edge(n2, n3).unwrap();
        let net = b.build().unwrap();
        let store = NetworkStore::build(&net);
        let mid = MiddleLayer::build(&net, &[]);
        let alt = AltOracle::build(&net, &store, &mid, 2);
        let a = LbTarget::of(&net, &NetPosition::new(EdgeId(0), 0.5));
        let c = LbTarget::of(&net, &NetPosition::new(EdgeId(1), 0.5));
        // Cross-component: a landmark on one side reaches exactly one of
        // the two nodes, so the triangle bound is infinite — admissible,
        // since the true distance is infinite too.
        assert!(alt.pair_bound(&a, &c).is_infinite());
        // Same-component bounds stay finite.
        let b2 = LbTarget::of(&net, &NetPosition::new(EdgeId(0), 0.9));
        assert!(alt.pair_bound(&a, &b2).is_finite());
    }
}
