//! Incremental affine evaluation along a lexicographic iteration walk.
//!
//! Trace generation evaluates `a = Q·i + q` for every dynamic iteration.
//! Evaluating the matrix product from scratch costs `m·n` multiplies per
//! iteration; but a lexicographic walk only ever *steps* the iteration
//! vector — by `+1` on one level, wrapping the deeper levels — so the
//! element vector moves by a precomputable constant delta per level:
//!
//! ```text
//! Δ_k = Q·e_k − Σ_{j>k} (trip_j − 1) · Q·e_j
//! ```
//!
//! An [`AccessCursor`] walks an iteration box maintaining `a` (and
//! optionally a scalar projection `⟨strides, a⟩`, which for dense file
//! layouts *is* the file offset) by pure vector/scalar additions.

use crate::access::AffineAccess;
use crate::space::IterSpace;

/// Incremental evaluator of one affine reference over one iteration box.
#[derive(Clone, Debug)]
pub struct AccessCursor {
    lower: Vec<i64>,
    upper: Vec<i64>,
    /// Current iteration vector (odometer state).
    i: Vec<i64>,
    /// Current element vector `Q·i + q`.
    a: Vec<i64>,
    /// Current scalar projection `⟨strides, a⟩` (0 when unprojected).
    proj: i64,
    /// `Q`'s columns: `cols[k][d] = Q[d][k]`.
    cols: Vec<Vec<i64>>,
    /// Element-vector delta applied when level `k` increments (deeper
    /// levels wrapping from their maximum back to their lower bound).
    deltas: Vec<Vec<i64>>,
    /// Scalar-projection counterpart of `deltas`.
    pdeltas: Vec<i64>,
    done: bool,
}

impl AccessCursor {
    /// Cursor over `space` without a scalar projection.
    pub fn new(access: &AffineAccess, space: &IterSpace) -> AccessCursor {
        Self::build(access, space, None)
    }

    /// Cursor additionally maintaining `⟨strides, a⟩` incrementally.
    /// `strides` must have one entry per array dimension.
    pub fn with_projection(
        access: &AffineAccess,
        space: &IterSpace,
        strides: &[i64],
    ) -> AccessCursor {
        assert_eq!(
            strides.len(),
            access.array_rank(),
            "projection rank mismatch"
        );
        Self::build(access, space, Some(strides))
    }

    fn build(access: &AffineAccess, space: &IterSpace, strides: Option<&[i64]>) -> AccessCursor {
        let n = space.rank();
        let m = access.array_rank();
        assert_eq!(access.iter_rank(), n, "cursor: access/space rank mismatch");
        let q = access.matrix();
        let cols: Vec<Vec<i64>> = (0..n)
            .map(|k| (0..m).map(|d| q.row(d)[k]).collect())
            .collect();
        // Δ_k = col_k − Σ_{j>k} (trip_j − 1)·col_j.
        let deltas: Vec<Vec<i64>> = (0..n)
            .map(|k| {
                let mut d = cols[k].clone();
                for (j, col) in cols.iter().enumerate().skip(k + 1) {
                    let wrap = space.trip_count(j) - 1;
                    for (dd, &c) in d.iter_mut().zip(col) {
                        *dd -= wrap * c;
                    }
                }
                d
            })
            .collect();
        let dot = |v: &[i64]| -> i64 {
            strides.map_or(0, |s| s.iter().zip(v).map(|(&x, &y)| x * y).sum())
        };
        let pdeltas = deltas.iter().map(|d| dot(d)).collect();
        let i: Vec<i64> = (0..n).map(|k| space.lower(k)).collect();
        let a = access.eval(&i);
        AccessCursor {
            lower: (0..n).map(|k| space.lower(k)).collect(),
            upper: (0..n).map(|k| space.upper(k)).collect(),
            proj: dot(&a),
            i,
            a,
            cols,
            deltas,
            pdeltas,
            done: false,
        }
    }

    /// Current iteration vector.
    pub fn iteration(&self) -> &[i64] {
        &self.i
    }

    /// Current element vector `Q·i + q`.
    pub fn element(&self) -> &[i64] {
        &self.a
    }

    /// Current scalar projection `⟨strides, a⟩` (0 if unprojected).
    pub fn projected(&self) -> i64 {
        self.proj
    }

    /// True once the walk has moved past the last iteration.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Iterations remaining in the current innermost segment (including
    /// the current one): stepping the innermost loop this many times
    /// visits them all with the element moving by a fixed stride per
    /// step. Returns 0 when exhausted.
    pub fn step_count(&self) -> i64 {
        if self.done {
            0
        } else {
            self.upper[self.upper.len() - 1] - self.i[self.i.len() - 1]
        }
    }

    /// Per-innermost-step movement of the scalar projection.
    pub fn innermost_step(&self) -> i64 {
        self.pdeltas[self.pdeltas.len() - 1]
    }

    /// Advance one iteration in lexicographic order. Returns the loop
    /// level that incremented, or `None` when the walk is exhausted.
    pub fn advance(&mut self) -> Option<usize> {
        if self.done {
            return None;
        }
        for k in (0..self.i.len()).rev() {
            if self.i[k] + 1 < self.upper[k] {
                self.i[k] += 1;
                for j in k + 1..self.i.len() {
                    self.i[j] = self.lower[j];
                }
                for (a, &d) in self.a.iter_mut().zip(&self.deltas[k]) {
                    *a += d;
                }
                self.proj += self.pdeltas[k];
                return Some(k);
            }
        }
        self.done = true;
        None
    }

    /// Step the innermost loop by `steps` without leaving the current
    /// segment (`steps < step_count()`).
    pub fn skip_innermost(&mut self, steps: i64) {
        debug_assert!(
            !self.done && steps < self.step_count(),
            "skip_innermost out of segment"
        );
        let last = self.i.len() - 1;
        self.i[last] += steps;
        let col = &self.cols[last];
        for (a, &c) in self.a.iter_mut().zip(col) {
            *a += steps * c;
        }
        self.proj += steps * self.pdeltas[last];
    }

    /// Consume the rest of the current innermost segment and advance to
    /// the start of the next one. Returns `false` when the walk is
    /// exhausted.
    pub fn finish_segment(&mut self) -> bool {
        let rem = self.step_count() - 1;
        if rem > 0 {
            self.skip_innermost(rem);
        }
        self.advance().is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flo_linalg::IMat;

    fn acc(rows: &[&[i64]], offset: Vec<i64>) -> AffineAccess {
        AffineAccess::new(IMat::from_rows(rows), offset)
    }

    #[test]
    fn cursor_matches_eval_everywhere() {
        let a = acc(&[&[1, 1], &[0, 2]], vec![3, -1]);
        let space = IterSpace::new(vec![-1, 2], vec![3, 6]);
        let mut c = AccessCursor::new(&a, &space);
        for i in space.iter() {
            assert_eq!(c.iteration(), &i[..]);
            assert_eq!(c.element(), &a.eval(&i)[..]);
            c.advance();
        }
        assert!(c.is_done());
        assert_eq!(c.advance(), None);
    }

    #[test]
    fn projection_tracks_dot_product() {
        let a = acc(&[&[0, 1], &[1, 0]], vec![0, 0]);
        let space = IterSpace::from_extents(&[3, 4]);
        let strides = [4, 1]; // row-major over a 4-wide array
        let mut c = AccessCursor::with_projection(&a, &space, &strides);
        for i in space.iter() {
            let e = a.eval(&i);
            assert_eq!(c.projected(), strides[0] * e[0] + strides[1] * e[1]);
            c.advance();
        }
    }

    #[test]
    fn step_count_spans_innermost_segments() {
        let a = acc(&[&[1, 0], &[0, 1]], vec![0, 0]);
        let space = IterSpace::from_extents(&[2, 5]);
        let mut c = AccessCursor::new(&a, &space);
        assert_eq!(c.step_count(), 5);
        assert_eq!(c.advance(), Some(1));
        assert_eq!(c.step_count(), 4);
        assert!(c.finish_segment());
        assert_eq!(c.iteration(), &[1, 0]);
        assert_eq!(c.step_count(), 5);
        assert!(!c.finish_segment());
        assert_eq!(c.step_count(), 0);
    }

    #[test]
    fn skip_innermost_keeps_state_consistent() {
        let a = acc(&[&[2, -1], &[1, 3]], vec![5, 0]);
        let space = IterSpace::from_extents(&[3, 7]);
        let mut c = AccessCursor::new(&a, &space);
        c.skip_innermost(4);
        assert_eq!(c.iteration(), &[0, 4]);
        assert_eq!(c.element(), &a.eval(&[0, 4])[..]);
        assert_eq!(c.advance(), Some(1));
        assert_eq!(c.element(), &a.eval(&[0, 5])[..]);
    }

    #[test]
    fn rank_one_nest() {
        let a = acc(&[&[3]], vec![1]);
        let space = IterSpace::from_extents(&[4]);
        let mut c = AccessCursor::new(&a, &space);
        assert_eq!(c.step_count(), 4);
        assert_eq!(c.element(), &[1]);
        assert!(!c.finish_segment());
        assert!(c.is_done());
    }
}
