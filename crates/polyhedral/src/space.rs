//! Iteration and data spaces.
//!
//! Both spaces are rectangular boxes (the paper's evaluation kernels all
//! have loop bounds that are constants or loop-invariant parameters, and the
//! polyhedral machinery of Step I only uses the *linear part* of accesses,
//! so boxes capture everything the algorithms need).

/// An `n`-dimensional iteration space: `lower[k] <= i_k < upper[k]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IterSpace {
    lower: Vec<i64>,
    upper: Vec<i64>,
}

impl IterSpace {
    /// Box with the given inclusive lower and exclusive upper bounds.
    pub fn new(lower: Vec<i64>, upper: Vec<i64>) -> IterSpace {
        assert_eq!(lower.len(), upper.len(), "IterSpace: bound rank mismatch");
        assert!(
            lower.iter().zip(&upper).all(|(l, u)| l < u),
            "IterSpace: empty dimension (lower >= upper)"
        );
        IterSpace { lower, upper }
    }

    /// Box `0 <= i_k < extents[k]`.
    pub fn from_extents(extents: &[i64]) -> IterSpace {
        IterSpace::new(vec![0; extents.len()], extents.to_vec())
    }

    /// Number of loop levels `n`.
    pub fn rank(&self) -> usize {
        self.lower.len()
    }

    /// Inclusive lower bound of dimension `k`.
    pub fn lower(&self, k: usize) -> i64 {
        self.lower[k]
    }

    /// Exclusive upper bound of dimension `k`.
    pub fn upper(&self, k: usize) -> i64 {
        self.upper[k]
    }

    /// Trip count of loop `k`.
    pub fn trip_count(&self, k: usize) -> i64 {
        self.upper[k] - self.lower[k]
    }

    /// Product of all trip counts = total number of iterations.
    pub fn total_iterations(&self) -> i64 {
        (0..self.rank()).map(|k| self.trip_count(k)).product()
    }

    /// Whether `i` lies inside the space.
    pub fn contains(&self, i: &[i64]) -> bool {
        i.len() == self.rank()
            && i.iter()
                .enumerate()
                .all(|(k, &v)| v >= self.lower[k] && v < self.upper[k])
    }

    /// Lexicographic iterator over all iteration vectors, one allocated
    /// vector per iteration. A reference walker for tests and naive
    /// oracles only: the layout pass and trace generation walk spaces a
    /// segment at a time with [`AccessCursor`](crate::AccessCursor)s.
    pub fn iter(&self) -> IterSpaceIter<'_> {
        IterSpaceIter {
            space: self,
            cur: Some(self.lower.clone()),
        }
    }
}

/// Lexicographic iterator over an [`IterSpace`].
pub struct IterSpaceIter<'a> {
    space: &'a IterSpace,
    cur: Option<Vec<i64>>,
}

impl Iterator for IterSpaceIter<'_> {
    type Item = Vec<i64>;
    fn next(&mut self) -> Option<Vec<i64>> {
        let cur = self.cur.take()?;
        let mut next = cur.clone();
        // Increment like an odometer, innermost dimension fastest.
        for k in (0..self.space.rank()).rev() {
            next[k] += 1;
            if next[k] < self.space.upper(k) {
                self.cur = Some(next);
                return Some(cur);
            }
            next[k] = self.space.lower(k);
        }
        // Wrapped past the last vector.
        self.cur = None;
        Some(cur)
    }
}

/// An `m`-dimensional data space: `0 <= a_k < extents[k]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DataSpace {
    extents: Vec<i64>,
}

impl DataSpace {
    /// Data space with the given per-dimension extents (all positive).
    pub fn new(extents: Vec<i64>) -> DataSpace {
        assert!(!extents.is_empty(), "DataSpace: zero-rank array");
        assert!(
            extents.iter().all(|&e| e > 0),
            "DataSpace: non-positive extent"
        );
        DataSpace { extents }
    }

    /// Array rank `m`.
    pub fn rank(&self) -> usize {
        self.extents.len()
    }

    /// Extent of dimension `k`.
    pub fn extent(&self, k: usize) -> i64 {
        self.extents[k]
    }

    /// All extents.
    pub fn extents(&self) -> &[i64] {
        &self.extents
    }

    /// Total number of elements.
    pub fn num_elements(&self) -> i64 {
        self.extents.iter().product()
    }

    /// Whether `a` is a valid element index vector.
    pub fn contains(&self, a: &[i64]) -> bool {
        a.len() == self.rank()
            && a.iter()
                .enumerate()
                .all(|(k, &v)| v >= 0 && v < self.extents[k])
    }

    /// Row-major linearization of an element index.
    pub fn linearize(&self, a: &[i64]) -> i64 {
        debug_assert!(
            self.contains(a),
            "linearize: {a:?} outside {:?}",
            self.extents
        );
        let mut off = 0;
        for (k, &v) in a.iter().enumerate() {
            off = off * self.extents[k] + v;
        }
        off
    }

    /// Inverse of [`linearize`](DataSpace::linearize).
    pub fn delinearize(&self, mut off: i64) -> Vec<i64> {
        debug_assert!(
            off >= 0 && off < self.num_elements(),
            "delinearize out of range"
        );
        let mut a = vec![0; self.rank()];
        for k in (0..self.rank()).rev() {
            a[k] = off % self.extents[k];
            off /= self.extents[k];
        }
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iterspace_basics() {
        let s = IterSpace::new(vec![0, 1], vec![3, 4]);
        assert_eq!(s.rank(), 2);
        assert_eq!(s.trip_count(0), 3);
        assert_eq!(s.trip_count(1), 3);
        assert_eq!(s.total_iterations(), 9);
        assert!(s.contains(&[0, 1]));
        assert!(s.contains(&[2, 3]));
        assert!(!s.contains(&[3, 1]));
        assert!(!s.contains(&[0, 0]));
        assert!(!s.contains(&[0]));
    }

    #[test]
    #[should_panic(expected = "empty dimension")]
    fn empty_dimension_rejected() {
        IterSpace::new(vec![0], vec![0]);
    }

    #[test]
    fn lexicographic_iteration() {
        let s = IterSpace::from_extents(&[2, 3]);
        let all: Vec<Vec<i64>> = s.iter().collect();
        assert_eq!(
            all,
            vec![
                vec![0, 0],
                vec![0, 1],
                vec![0, 2],
                vec![1, 0],
                vec![1, 1],
                vec![1, 2]
            ]
        );
    }

    #[test]
    fn iteration_count_matches_total() {
        let s = IterSpace::new(vec![-1, 2, 0], vec![2, 4, 2]);
        assert_eq!(s.iter().count() as i64, s.total_iterations());
    }

    #[test]
    fn one_dim_iteration() {
        let s = IterSpace::from_extents(&[4]);
        assert_eq!(s.iter().count(), 4);
    }

    #[test]
    fn dataspace_basics() {
        let d = DataSpace::new(vec![4, 5]);
        assert_eq!(d.rank(), 2);
        assert_eq!(d.num_elements(), 20);
        assert!(d.contains(&[3, 4]));
        assert!(!d.contains(&[4, 0]));
        assert!(!d.contains(&[-1, 0]));
    }

    #[test]
    fn linearize_roundtrip() {
        let d = DataSpace::new(vec![3, 4, 5]);
        for off in 0..d.num_elements() {
            let a = d.delinearize(off);
            assert!(d.contains(&a));
            assert_eq!(d.linearize(&a), off);
        }
    }

    #[test]
    fn linearize_is_row_major() {
        let d = DataSpace::new(vec![2, 3]);
        assert_eq!(d.linearize(&[0, 0]), 0);
        assert_eq!(d.linearize(&[0, 2]), 2);
        assert_eq!(d.linearize(&[1, 0]), 3);
    }

    #[test]
    #[should_panic(expected = "non-positive extent")]
    fn zero_extent_rejected() {
        DataSpace::new(vec![3, 0]);
    }
}
