//! Non-spatial attribute extension — §4.3's closing remark.
//!
//! "Note that for CE, EDC as well as LBC, they can be directly extended to
//! efficiently process more general cases where non-spatial attributes are
//! also considered (e.g., hotel prices). The non-spatial attributes are
//! static values. Therefore, they can be treated as normal attributes
//! which have pre-computed 'network distances' to all data objects."
//!
//! An [`AttrTable`] holds `k` static minimisation attributes per object
//! (price, rating-as-cost, ...). When a [`crate::QueryPlan`] carries one
//! in its `attrs` field, every object's skyline vector becomes
//! `(d_N(q_1, p), ..., d_N(q_n, p), a_1(p), ..., a_k(p))` and all three
//! algorithms adjudicate dominance over the full `n + k` dimensions, under
//! every [`crate::Exec`] mode:
//!
//! * the static dimensions are *exact from birth* — LBC's lower-bound
//!   machinery treats them as already-resolved coordinates, so a candidate
//!   can be discarded on price alone before any network expansion;
//! * R-tree subtrees use the dataset-wide per-attribute minimum as their
//!   (sound) static lower bound, since an MBR says nothing about the
//!   prices inside it.

use rn_graph::ObjectId;

/// Static attribute rows, dense by [`ObjectId`]. All rows share one arity;
/// smaller values are preferred (minimisation, like distances).
#[derive(Clone, Debug)]
pub struct AttrTable {
    rows: Vec<Vec<f64>>,
    arity: usize,
    lower: Vec<f64>,
}

impl AttrTable {
    /// Builds a table from per-object rows (`rows[i]` belongs to
    /// `ObjectId(i)`).
    ///
    /// # Panics
    /// Panics when rows have inconsistent arity, contain non-finite
    /// values, or the table is empty with zero-arity rows (use `None`
    /// instead of an empty table).
    pub fn new(rows: Vec<Vec<f64>>) -> Self {
        let arity = rows.first().map(|r| r.len()).unwrap_or(0);
        assert!(arity > 0, "attribute table needs at least one dimension");
        let mut lower = vec![f64::INFINITY; arity];
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), arity, "row {i} has inconsistent arity");
            for (l, &v) in lower.iter_mut().zip(row) {
                assert!(v.is_finite(), "row {i} has a non-finite attribute");
                *l = l.min(v);
            }
        }
        AttrTable { rows, arity, lower }
    }

    /// Number of objects covered.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when no objects are covered.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Number of static dimensions per object.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The attribute row of one object.
    pub fn row(&self, obj: ObjectId) -> &[f64] {
        &self.rows[obj.idx()]
    }

    /// Component-wise minimum over all rows — the sound lower bound for
    /// R-tree subtrees.
    pub fn lower(&self) -> &[f64] {
        &self.lower
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_exposes_lower_bounds() {
        let t = AttrTable::new(vec![vec![10.0, 3.0], vec![5.0, 7.0], vec![8.0, 1.0]]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.arity(), 2);
        assert_eq!(t.lower(), &[5.0, 1.0]);
        assert_eq!(t.row(ObjectId(1)), &[5.0, 7.0]);
    }

    #[test]
    #[should_panic(expected = "inconsistent arity")]
    fn rejects_ragged_rows() {
        AttrTable::new(vec![vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn rejects_nan() {
        AttrTable::new(vec![vec![f64::NAN]]);
    }

    #[test]
    #[should_panic(expected = "at least one dimension")]
    fn rejects_zero_arity() {
        AttrTable::new(vec![vec![], vec![]]);
    }
}
