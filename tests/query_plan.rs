//! One query path (DESIGN.md §18): every combination a [`QueryPlan`] can
//! express must return the brute-force answer, bitwise.
//!
//! * Every algorithm × exec mode (warm, cold, session) × attributes
//!   (none, one column) × source strategy (first, centroid, last) equals
//!   [`Algorithm::Brute`] with the same attributes under `canon`.
//! * A budget combined with a non-first source yields a sound prefix:
//!   confirmed vectors and unresolved lower bounds both come back in the
//!   caller's query order.
//! * The plan's input checks hold under every exec mode: an empty query
//!   set and a short attribute table panic wherever the plan runs (the
//!   warm cases live in the engine's unit tests and `attrs_extension`).

mod common;

use common::{assert_sound_prefix, canon, workload};
use msq_core::{Algorithm, AttrTable, Exec, Metric, QueryBudget, QueryPlan, SourceStrategy};
use rand::prelude::*;
use rand::rngs::StdRng;
use rn_storage::NetworkStore;

const ALL: [Algorithm; 6] = [
    Algorithm::Ce,
    Algorithm::Edc,
    Algorithm::EdcBatch,
    Algorithm::Lbc,
    Algorithm::LbcNoPlb,
    Algorithm::Brute,
];

#[test]
fn every_plan_combination_matches_brute() {
    for seed in 0..6 {
        let (engine, queries) = workload(seed, 8, 8, 90, 0.8, 3, 0.3, 1.4);
        let mut rng = StdRng::seed_from_u64(seed + 50);
        let table = AttrTable::new(
            (0..engine.object_count())
                .map(|_| vec![rng.random_range(1.0..100.0)])
                .collect(),
        );
        let session = engine.store_ref().session();
        let execs = [
            (Exec::Warm, "warm"),
            (Exec::Cold, "cold"),
            (Exec::Session(&session), "session"),
        ];
        let sources = [
            SourceStrategy::First,
            SourceStrategy::Centroid,
            SourceStrategy::Index(queries.len() - 1),
        ];
        for attrs in [None, Some(&table)] {
            let brute = canon(&engine.run_plan(&QueryPlan {
                attrs,
                ..QueryPlan::new(Algorithm::Brute, &queries)
            }));
            for algo in ALL {
                for (exec, mode) in execs {
                    for source in sources {
                        let r = engine.run_plan(&QueryPlan {
                            exec,
                            attrs,
                            source,
                            ..QueryPlan::new(algo, &queries)
                        });
                        let label = format!(
                            "seed {seed}, {} {mode}, attrs {}, {source:?}",
                            algo.name(),
                            attrs.is_some()
                        );
                        assert!(r.completion.is_complete(), "{label}");
                        assert_eq!(canon(&r), brute, "{label}");
                    }
                }
            }
        }
    }
}

#[test]
fn budgets_compose_with_a_non_first_source() {
    // Unresolved skyline members: the candidates whose lower bounds the
    // oracle can check.
    let mut checked = 0;
    for seed in [42, 7, 19] {
        let (engine, queries) = workload(seed, 8, 8, 80, 0.9, 3, 0.3, 1.4);
        let brute = engine.run(Algorithm::Brute, &queries);
        for algo in &ALL[..5] {
            for exec in [Exec::Warm, Exec::Cold] {
                for source in [SourceStrategy::Centroid, SourceStrategy::Index(2)] {
                    let plan = QueryPlan {
                        exec,
                        source,
                        ..QueryPlan::new(*algo, &queries)
                    };
                    let pops = engine.run_plan(&plan).trace.get(Metric::SpHeapPops);
                    for denom in [4, 2] {
                        let r = engine.run_plan(&QueryPlan {
                            budget: QueryBudget::unlimited()
                                .with_max_expansions((pops / denom).max(1)),
                            ..plan.clone()
                        });
                        let label = format!("seed {seed}, {}, {source:?}, 1/{denom}", algo.name());
                        assert_sound_prefix(&r, &brute, &label);
                        if let Some(p) = r.completion.partial() {
                            checked += p
                                .unresolved
                                .iter()
                                .filter(|u| brute.vector_of(u.object).is_some())
                                .count();
                        }
                    }
                }
            }
        }
    }
    assert!(checked > 0, "no cap left a skyline member unresolved");
}

/// Runs LBC under the exec mode `exec` builds from a fresh session, with
/// no query points or with a one-row attribute table.
fn run_invalid(exec: fn(&NetworkStore) -> Exec<'_>, empty: bool) {
    let (engine, queries) = workload(3, 4, 4, 20, 0.8, 2, 0.0, 1.0);
    let session = engine.store_ref().session();
    let short = AttrTable::new(vec![vec![1.0]]);
    engine.run_plan(&QueryPlan {
        exec: exec(&session),
        attrs: (!empty).then_some(&short),
        ..QueryPlan::new(Algorithm::Lbc, if empty { &[] } else { &queries })
    });
}

#[test]
#[should_panic(expected = "cover every object")]
fn short_attr_table_panics_under_session() {
    run_invalid(|s| Exec::Session(s), false);
}

#[test]
#[should_panic(expected = "at least one query point")]
fn empty_query_set_panics_cold() {
    run_invalid(|_| Exec::Cold, true);
}

#[test]
#[should_panic(expected = "at least one query point")]
fn empty_query_set_panics_under_session() {
    run_invalid(|s| Exec::Session(s), true);
}
