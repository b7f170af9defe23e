//! Empirical verification of the paper's §5 analysis and Theorem 1
//! consequences, on generated workloads:
//!
//! * `N(LBC) ⊆ N(CE)` — LBC never expands more network nodes than CE;
//! * the plb ablation — LBC with lower bounds never expands more than
//!   LBC without them;
//! * `C(LBC) ≲ C(EDC)` — LBC's candidate set does not meaningfully exceed
//!   EDC's;
//! * LBC's initial response precedes CE's (the Fig 5(c)/6(c) claim).

use msq_core::Metric::{QueryCandidates, SpHeapPops};
use msq_core::{Algorithm, SkylineEngine};
use rn_graph::NetPosition;
use rn_workload::{generate_network, generate_objects, generate_queries, NetGenConfig};

fn workload(seed: u64) -> (SkylineEngine, Vec<NetPosition>) {
    let net = generate_network(&NetGenConfig {
        cols: 24,
        rows: 24,
        edges: 820,
        jitter: 0.3,
        detour_prob: 0.4,
        detour_stretch: (1.1, 1.5),
        seed,
    });
    let objects = generate_objects(&net, 0.5, seed + 1);
    let queries = generate_queries(&net, 4, 0.4, seed + 2);
    (SkylineEngine::build(net, objects), queries)
}

#[test]
fn lbc_expands_no_more_than_ce() {
    for seed in 0..6 {
        let (engine, queries) = workload(seed);
        let ce = engine.run_cold(Algorithm::Ce, &queries);
        let lbc = engine.run_cold(Algorithm::Lbc, &queries);
        assert_eq!(ce.ids(), lbc.ids(), "sanity: same skyline");
        let (n_lbc, n_ce) = (lbc.trace.get(SpHeapPops), ce.trace.get(SpHeapPops));
        assert!(
            n_lbc <= n_ce,
            "seed {seed}: N(LBC) = {n_lbc} must not exceed N(CE) = {n_ce}"
        );
    }
}

#[test]
fn plb_ablation_never_helps() {
    for seed in 0..6 {
        let (engine, queries) = workload(100 + seed);
        let with = engine.run_cold(Algorithm::Lbc, &queries);
        let without = engine.run_cold(Algorithm::LbcNoPlb, &queries);
        assert_eq!(with.ids(), without.ids());
        let (n_with, n_without) = (with.trace.get(SpHeapPops), without.trace.get(SpHeapPops));
        assert!(
            n_with <= n_without,
            "seed {seed}: plb expansions {n_with} > no-plb {n_without}"
        );
    }
}

#[test]
fn lbc_candidates_do_not_meaningfully_exceed_edc() {
    // The §5 containment is about candidate *spaces*; the measured counts
    // may differ by boundary objects enqueued before their dominators were
    // confirmed, so a small multiplicative tolerance is allowed.
    let mut total_lbc = 0u64;
    let mut total_edc = 0u64;
    for seed in 0..6 {
        let (engine, queries) = workload(200 + seed);
        let candidates = |algo| engine.run_cold(algo, &queries).trace.get(QueryCandidates);
        total_edc += candidates(Algorithm::Edc);
        total_lbc += candidates(Algorithm::Lbc);
    }
    assert!(
        total_lbc as f64 <= total_edc as f64 * 1.10 + 8.0,
        "C(LBC) = {total_lbc} should not meaningfully exceed C(EDC) = {total_edc}"
    );
}

#[test]
fn lbc_initial_response_work_is_smallest() {
    // Initial response in *pages faulted before the first report* — the
    // deterministic counterpart of Fig 5(c). LBC identifies the source's
    // first network NN almost immediately; CE needs an object visited by
    // every query point.
    let mut lbc_first = 0u64;
    let mut ce_first = 0u64;
    for seed in 0..6 {
        let (engine, queries) = workload(300 + seed);
        ce_first += engine
            .run_cold(Algorithm::Ce, &queries)
            .stats
            .initial_pages
            .expect("CE reported something");
        lbc_first += engine
            .run_cold(Algorithm::Lbc, &queries)
            .stats
            .initial_pages
            .expect("LBC reported something");
    }
    assert!(
        lbc_first < ce_first,
        "LBC first-report pages {lbc_first} must undercut CE's {ce_first}"
    );
}

#[test]
fn total_pages_ordering_holds_at_scale() {
    // The Fig 5(a) ordering on a mid-size workload: LBC <= EDC and
    // LBC <= CE in faulted pages (averaged across seeds to damp noise).
    let mut pages = [0u64; 3];
    for seed in 0..6 {
        let (engine, queries) = workload(400 + seed);
        for (k, algo) in [Algorithm::Ce, Algorithm::Edc, Algorithm::Lbc]
            .into_iter()
            .enumerate()
        {
            pages[k] += engine.run_cold(algo, &queries).page_faults();
        }
    }
    let [ce, edc, lbc] = pages;
    assert!(lbc <= edc, "LBC pages {lbc} > EDC pages {edc}");
    assert!(lbc <= ce, "LBC pages {lbc} > CE pages {ce}");
}

#[test]
fn skyline_members_are_mutually_nondominated_and_complete() {
    use rn_skyline::dominance::dominates;
    for seed in 0..4 {
        let (engine, queries) = workload(500 + seed);
        let r = engine.run_cold(Algorithm::Lbc, &queries);
        assert!(!r.skyline.is_empty());
        for a in &r.skyline {
            assert_eq!(a.vector.len(), queries.len());
            for b in &r.skyline {
                assert!(
                    !dominates(&a.vector, &b.vector) || a.object == b.object,
                    "skyline members must not dominate each other"
                );
            }
        }
    }
}
