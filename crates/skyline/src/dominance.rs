//! The dominance relation.

/// `true` when `a` dominates `b`: `a` is no worse in every dimension and
/// strictly better in at least one (minimisation convention).
///
/// Equal vectors do **not** dominate each other — two objects at identical
/// distances from every query point are both skyline members.
///
/// # Panics
/// Debug-asserts equal lengths; comparing vectors of different arity is
/// always a bug.
#[inline]
pub fn dominates(a: &[f64], b: &[f64]) -> bool {
    let d = dominates_impl(a, b);
    // Contract: dominance is a strict partial order — irreflexive and
    // antisymmetric. A violation means a NaN (or a broken comparator)
    // slipped into a distance vector.
    #[cfg(feature = "invariant-checks")]
    {
        if d {
            assert!(
                !dominates_impl(b, a),
                "dominance antisymmetry violated for {a:?} vs {b:?}"
            );
        }
        if a == b {
            assert!(!d, "dominance irreflexivity violated for {a:?}");
        }
    }
    d
}

#[inline]
fn dominates_impl(a: &[f64], b: &[f64]) -> bool {
    debug_assert_eq!(a.len(), b.len(), "dominance needs equal arity");
    let mut strictly = false;
    for (x, y) in a.iter().zip(b) {
        if x > y {
            return false;
        }
        if x < y {
            strictly = true;
        }
    }
    strictly
}

/// `true` when `a` is component-wise `<= b` (dominates-or-equal). This is
/// the pruning test for MBR lower-bound corners: a subtree whose best
/// corner is merely *equal* to a known skyline vector can still contain
/// skyline points (ties), so callers usually want [`dominates`] instead;
/// `dominates_or_equal` exists for the conservative side of analyses.
#[inline]
pub fn dominates_or_equal(a: &[f64], b: &[f64]) -> bool {
    debug_assert_eq!(a.len(), b.len(), "dominance needs equal arity");
    a.iter().zip(b).all(|(x, y)| x <= y)
}

/// O(n²) reference skyline: indices of the non-dominated rows.
///
/// Used as ground truth by every skyline test in the workspace.
pub fn brute_force_skyline(rows: &[Vec<f64>]) -> Vec<usize> {
    (0..rows.len())
        .filter(|&i| {
            rows.iter()
                .enumerate()
                .all(|(j, other)| j == i || !dominates(other, &rows[i]))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn basic_dominance() {
        assert!(dominates(&[1.0, 2.0], &[2.0, 3.0]));
        assert!(dominates(&[1.0, 3.0], &[2.0, 3.0]));
        assert!(!dominates(&[1.0, 4.0], &[2.0, 3.0])); // incomparable
        assert!(!dominates(&[2.0, 3.0], &[1.0, 2.0]));
    }

    #[test]
    fn equal_vectors_do_not_dominate() {
        assert!(!dominates(&[1.0, 2.0], &[1.0, 2.0]));
        assert!(dominates_or_equal(&[1.0, 2.0], &[1.0, 2.0]));
    }

    #[test]
    fn one_dimension() {
        assert!(dominates(&[1.0], &[2.0]));
        assert!(!dominates(&[2.0], &[1.0]));
        assert!(!dominates(&[1.0], &[1.0]));
    }

    #[test]
    fn brute_force_small() {
        let rows = vec![
            vec![1.0, 5.0], // skyline
            vec![2.0, 4.0], // skyline
            vec![3.0, 4.5], // dominated by (2,4)
            vec![4.0, 1.0], // skyline
            vec![2.0, 4.0], // duplicate of row 1: both stay
        ];
        assert_eq!(brute_force_skyline(&rows), vec![0, 1, 3, 4]);
    }

    proptest! {
        #[test]
        fn antisymmetric(a in proptest::collection::vec(0.0..10.0f64, 3),
                         b in proptest::collection::vec(0.0..10.0f64, 3)) {
            prop_assert!(!(dominates(&a, &b) && dominates(&b, &a)));
        }

        #[test]
        fn irreflexive(a in proptest::collection::vec(0.0..10.0f64, 4)) {
            prop_assert!(!dominates(&a, &a));
        }

        #[test]
        fn transitive(a in proptest::collection::vec(0.0..4.0f64, 2),
                      b in proptest::collection::vec(0.0..4.0f64, 2),
                      c in proptest::collection::vec(0.0..4.0f64, 2)) {
            if dominates(&a, &b) && dominates(&b, &c) {
                prop_assert!(dominates(&a, &c));
            }
        }

        #[test]
        fn skyline_is_mutually_non_dominated(
            rows in proptest::collection::vec(proptest::collection::vec(0.0..5.0f64, 3), 1..40)
        ) {
            let sky = brute_force_skyline(&rows);
            for &i in &sky {
                for &j in &sky {
                    prop_assert!(!dominates(&rows[i], &rows[j]) || i == j);
                }
            }
            // Every non-member is dominated by some member.
            for i in 0..rows.len() {
                if !sky.contains(&i) {
                    prop_assert!(sky.iter().any(|&s| dominates(&rows[s], &rows[i])));
                }
            }
        }
    }
}
