//! Lower-bound oracle contracts.
//!
//! Property-checks what DESIGN.md §14 asks of the ALT oracle, against
//! brute-force APSP truth:
//!
//! * **admissibility** — the bound never exceeds the true network
//!   distance, for node-to-position bounds (`node_bound`, which
//!   msqbench's `sp.lb_eval_ns` probe times) and position-to-position bounds
//!   (`pair_bound`, which the pruning rules read). Every `LowerBound`
//!   must be admissible;
//! * **consistency** — `node_bound(u, t) <= w(u, v) + node_bound(v, t)`
//!   across every edge. ALT's node bound is a consistent potential, but
//!   no engine relies on that now: A\* keys its heap by the Euclidean
//!   distance.
//!
//! The CI contracts job runs this suite alongside the
//! `invariant-checks` feature legs.

use proptest::prelude::*;
use rn_geom::EPSILON;
use rn_graph::{EdgeId, NetPosition, NodeId, RoadNetwork};
use rn_index::MiddleLayer;
use rn_sp::apsp_oracle::{all_pairs_node_distances, position_distance_oracle};
use rn_sp::{AltOracle, EuclidBound, LbTarget, LowerBound};
use rn_storage::NetworkStore;
use rn_workload::{generate_network, NetGenConfig};

fn net_for(seed: u64, cols: usize, rows: usize) -> RoadNetwork {
    generate_network(&NetGenConfig {
        cols,
        rows,
        edges: cols * rows * 2,
        jitter: 0.3,
        detour_prob: 0.4,
        detour_stretch: (1.1, 1.6),
        seed,
    })
}

/// A deterministic spread of on-edge positions: edge indices stride the
/// edge list, offsets alternate along the edge.
fn sample_positions(net: &RoadNetwork, count: usize) -> Vec<NetPosition> {
    let ec = net.edge_count();
    let stride = (ec / count).max(1);
    (0..ec)
        .step_by(stride)
        .enumerate()
        .map(|(k, i)| {
            let e = EdgeId(i as u32);
            let frac = [0.0, 0.25, 0.5, 0.75, 1.0][k % 5];
            NetPosition::new(e, frac * net.edge(e).length)
        })
        .collect()
}

/// True network distance from node `u` to an anchored position: every
/// path enters through one of the two endpoints.
fn node_to_target(apsp: &[Vec<f64>], u: NodeId, t: &LbTarget) -> f64 {
    let via_u = apsp[u.idx()][t.eu.idx()] + t.tu;
    let via_v = apsp[u.idx()][t.ev.idx()] + t.tv;
    via_u.min(via_v)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Staleness regression (ISSUE 8, satellite c): a weight *decrease*
    /// can push true distances below a precomputed table, so after
    /// [`LowerBound::note_weight_change`] with `decreased = true` the
    /// oracle must (a) report itself degraded — never silently
    /// inadmissible — and (b) answer every bound with exactly its
    /// Euclidean floor, which the free-flow weight floor keeps
    /// admissible against the *mutated* graph. A pure increase leaves
    /// the tables valid and must not degrade anything.
    #[test]
    fn weight_decrease_degrades_oracles_to_admissible_euclid(
        seed in 0u64..500,
        cols in 4usize..7,
        rows in 4usize..7,
    ) {
        let mut net = net_for(seed, cols, rows);
        let store = NetworkStore::build(&net);
        let mid = MiddleLayer::build(&net, &[]);
        let alt = AltOracle::build(&net, &store, &mid, 5);

        // Increases never invalidate: tables only under-estimate more.
        alt.note_weight_change(false);
        prop_assert!(!alt.is_degraded());

        // Mutate: drop every stretched edge to its free-flow floor (the
        // deepest decrease the substrate permits), then notify.
        let mut any_decrease = false;
        for i in 0..net.edge_count() {
            let e = EdgeId(i as u32);
            let floor = net.edge(e).geometry.length();
            if net.edge(e).length > floor {
                net.set_edge_weight(e, floor);
                any_decrease = true;
            }
        }
        if !any_decrease {
            return Ok(()); // detour_prob 0.4 ⇒ almost never hit
        }
        alt.note_weight_change(true);
        prop_assert!(alt.is_degraded(), "decrease not detected by ALT");

        // Degraded bounds are exactly the Euclid floor and admissible
        // against APSP truth on the *mutated* network.
        let apsp = all_pairs_node_distances(&net);
        let pos_truth = position_distance_oracle(&net);
        let positions = sample_positions(&net, 9);
        let targets: Vec<LbTarget> = positions.iter().map(|p| LbTarget::of(&net, p)).collect();
        let n = net.node_count();
        for (i, (pa, ta)) in positions.iter().zip(&targets).enumerate() {
            for (pb, tb) in positions.iter().zip(&targets).skip(i) {
                let got = alt.pair_bound(ta, tb);
                prop_assert_eq!(
                    got.to_bits(),
                    EuclidBound.pair_bound(ta, tb).to_bits(),
                    "degraded pair bound is not the Euclid floor"
                );
                let truth = pos_truth(pa, pb);
                prop_assert!(
                    got <= truth + EPSILON,
                    "degraded pair bound {got} > d_N {truth} on mutated net"
                );
            }
        }
        for u in (0..n).step_by((n / 13).max(1)).map(|i| NodeId(i as u32)) {
            for t in &targets {
                let got = alt.node_bound(u, net.point(u), t);
                prop_assert_eq!(
                    got.to_bits(),
                    EuclidBound.node_bound(u, net.point(u), t).to_bits(),
                    "degraded node bound is not the Euclid floor"
                );
                let truth = node_to_target(&apsp, u, t);
                prop_assert!(
                    got <= truth + EPSILON,
                    "degraded node bound {got} > d_N {truth} on mutated net"
                );
            }
        }
        // Degraded evaluations are metered as Euclid fallbacks.
        prop_assert!(alt.counters().euclid_fallbacks > 0);
    }

    #[test]
    fn oracle_bounds_are_admissible_and_consistent(
        seed in 0u64..500,
        cols in 4usize..7,
        rows in 4usize..7,
    ) {
        let net = net_for(seed, cols, rows);
        let store = NetworkStore::build(&net);
        let mid = MiddleLayer::build(&net, &[]);
        let alt = AltOracle::build(&net, &store, &mid, 5);
        let apsp = all_pairs_node_distances(&net);
        let pos_truth = position_distance_oracle(&net);
        let positions = sample_positions(&net, 11);
        let targets: Vec<LbTarget> = positions.iter().map(|p| LbTarget::of(&net, p)).collect();

        // pair_bound admissibility on position pairs.
        for (i, (pa, ta)) in positions.iter().zip(&targets).enumerate() {
            for (pb, tb) in positions.iter().zip(&targets).skip(i) {
                let got = alt.pair_bound(ta, tb);
                let truth = pos_truth(pa, pb);
                prop_assert!(
                    got <= truth + EPSILON,
                    "pair bound {got} > d_N {truth} ({pa:?} -> {pb:?})"
                );
            }
        }
        // node_bound admissibility from a stride of source nodes.
        let n = net.node_count();
        for u in (0..n).step_by((n / 17).max(1)).map(|i| NodeId(i as u32)) {
            for t in &targets {
                let got = alt.node_bound(u, net.point(u), t);
                let truth = node_to_target(&apsp, u, t);
                prop_assert!(
                    got <= truth + EPSILON,
                    "node bound {got} > d_N {truth} (node {u:?} -> {t:?})"
                );
            }
        }
        // Consistency across every edge, for every sampled target.
        for (ei, e) in net.edges().iter().enumerate() {
            for t in &targets {
                let bu = alt.node_bound(e.u, net.point(e.u), t);
                let bv = alt.node_bound(e.v, net.point(e.v), t);
                prop_assert!(
                    bu <= e.length + bv + EPSILON,
                    "inconsistent at edge {ei}: {bu} > {} + {bv}",
                    e.length
                );
                prop_assert!(
                    bv <= e.length + bu + EPSILON,
                    "inconsistent at edge {ei} (rev): {bv} > {} + {bu}",
                    e.length
                );
            }
        }
    }
}
