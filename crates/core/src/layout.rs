//! File layouts: the mapping from array elements to file offsets.
//!
//! A [`FileLayout`] is an injective map from the elements of one
//! disk-resident array to offsets in its file (§2's "file layout"). The
//! conventional layouts (row-major, column-major, arbitrary dimension
//! permutations — the search space of the reindexing baseline \[27\]) are
//! closed-form; the paper's inter-node layout is carried as the explicit
//! address table Algorithm 1 constructs at compile time.

use flo_json::Json;
use flo_polyhedral::DataSpace;

/// A file layout for one array.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FileLayout {
    /// Row-major (the paper's default layout).
    RowMajor,
    /// Column-major (dimensions reversed).
    ColMajor,
    /// A general dimension permutation: `perm[k]` is the original
    /// dimension stored at position `k` of the permuted order (outermost
    /// first). `DimPerm(vec![0, 1, …])` is row-major.
    DimPerm(Vec<usize>),
    /// The inter-node hierarchical layout of §4: an explicit element →
    /// offset table (indexed by row-major element index).
    Hierarchical(HierLayout),
}

/// The table-backed hierarchical layout produced by Algorithm 1.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HierLayout {
    /// `table[row_major_index(a)]` = file offset of element `a`.
    pub table: Vec<u64>,
    /// One past the largest assigned offset (the file's extent in
    /// elements, holes included).
    pub file_elems: u64,
}

impl FileLayout {
    /// File offset (in elements) of array element `a` under this layout.
    pub fn offset_of(&self, space: &DataSpace, a: &[i64]) -> u64 {
        debug_assert!(space.contains(a), "offset_of: {a:?} outside array");
        match self {
            FileLayout::RowMajor => space.linearize(a) as u64,
            FileLayout::ColMajor => {
                let m = space.rank();
                let mut off: i64 = 0;
                for k in (0..m).rev() {
                    off = off * space.extent(k) + a[k];
                }
                off as u64
            }
            FileLayout::DimPerm(perm) => {
                debug_assert_eq!(perm.len(), space.rank(), "DimPerm rank mismatch");
                let mut off: i64 = 0;
                for &k in perm {
                    off = off * space.extent(k) + a[k];
                }
                off as u64
            }
            FileLayout::Hierarchical(h) => h.table[space.linearize(a) as usize],
        }
    }

    /// Per-dimension element strides for dense layouts: the offset of
    /// element `a` is exactly `Σ_k strides[k]·a[k]` (no constant term).
    /// `None` for table-backed hierarchical layouts, whose offsets are
    /// not linear in the element index.
    ///
    /// This is what makes *incremental* offset evaluation possible: when
    /// an element vector moves by a delta `Δ` (an [`AccessCursor`] step),
    /// the offset moves by the precomputable scalar `⟨strides, Δ⟩`.
    ///
    /// [`AccessCursor`]: flo_polyhedral::AccessCursor
    pub fn strides(&self, space: &DataSpace) -> Option<Vec<i64>> {
        let m = space.rank();
        match self {
            FileLayout::RowMajor => {
                let mut s = vec![1i64; m];
                for k in (0..m - 1).rev() {
                    s[k] = s[k + 1] * space.extent(k + 1);
                }
                Some(s)
            }
            FileLayout::ColMajor => {
                let mut s = vec![1i64; m];
                for k in 1..m {
                    s[k] = s[k - 1] * space.extent(k - 1);
                }
                Some(s)
            }
            FileLayout::DimPerm(perm) => {
                debug_assert_eq!(perm.len(), m, "DimPerm rank mismatch");
                let mut s = vec![0i64; m];
                let mut acc = 1i64;
                for &k in perm.iter().rev() {
                    s[k] = acc;
                    acc *= space.extent(k);
                }
                Some(s)
            }
            FileLayout::Hierarchical(_) => None,
        }
    }

    /// The file's extent in elements (equals the array size for dense
    /// layouts; may exceed it for hierarchical layouts with padding
    /// holes).
    pub fn file_elems(&self, space: &DataSpace) -> u64 {
        match self {
            FileLayout::Hierarchical(h) => h.file_elems,
            _ => space.num_elements() as u64,
        }
    }

    /// All dimension permutations of an `m`-dimensional array — the search
    /// space of the profiler-driven reindexing baseline \[27\] ("for a
    /// three-dimensional disk-resident array, six possible file layouts").
    pub fn all_permutations(m: usize) -> Vec<FileLayout> {
        let mut perms = Vec::new();
        let mut cur: Vec<usize> = (0..m).collect();
        heap_permute(&mut cur, m, &mut perms);
        perms.sort();
        perms.into_iter().map(FileLayout::DimPerm).collect()
    }

    /// Short human-readable description.
    pub fn describe(&self) -> String {
        match self {
            FileLayout::RowMajor => "row-major".into(),
            FileLayout::ColMajor => "column-major".into(),
            FileLayout::DimPerm(p) => format!("dim-perm{p:?}"),
            FileLayout::Hierarchical(_) => "inter-node hierarchical".into(),
        }
    }

    /// Serialize to JSON — the wire form `flo-serve` layout responses
    /// use. Deterministic: the same layout always renders to the same
    /// bytes (hierarchical tables are emitted in index order).
    pub fn to_json(&self) -> Json {
        match self {
            FileLayout::RowMajor => Json::obj().set("kind", "row-major"),
            FileLayout::ColMajor => Json::obj().set("kind", "col-major"),
            FileLayout::DimPerm(p) => Json::obj().set("kind", "dim-perm").set(
                "perm",
                p.iter().map(|&d| Json::from(d as u64)).collect::<Vec<_>>(),
            ),
            FileLayout::Hierarchical(h) => Json::obj()
                .set("kind", "hierarchical")
                .set("file_elems", h.file_elems)
                .set(
                    "table",
                    h.table.iter().map(|&o| Json::from(o)).collect::<Vec<_>>(),
                ),
        }
    }

    /// A stable 64-bit fingerprint of this layout: FNV-1a over the
    /// deterministic wire form. Equal layouts always fingerprint equal,
    /// and any structural change (a permuted dimension, one table entry)
    /// changes the hash.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.to_json().to_string().bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Combined fingerprint of a whole program's layout assignment, in
    /// slot order: two runs that fingerprint equal ran under the same
    /// layouts, so a sweep can group capacity points that share a trace.
    pub fn fingerprint_all<'a>(layouts: impl IntoIterator<Item = &'a FileLayout>) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for l in layouts {
            let f = l.fingerprint();
            for b in f.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// Inverse of [`FileLayout::to_json`].
    pub fn from_json(json: &Json) -> Result<FileLayout, String> {
        let kind = json
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("layout lacks `kind`")?;
        match kind {
            "row-major" => Ok(FileLayout::RowMajor),
            "col-major" => Ok(FileLayout::ColMajor),
            "dim-perm" => {
                let perm = json
                    .get("perm")
                    .and_then(Json::as_arr)
                    .ok_or("dim-perm layout lacks `perm`")?
                    .iter()
                    .map(|v| v.as_u64().map(|d| d as usize))
                    .collect::<Option<Vec<usize>>>()
                    .ok_or("`perm` entries must be non-negative integers")?;
                Ok(FileLayout::DimPerm(perm))
            }
            "hierarchical" => {
                let file_elems = json
                    .get("file_elems")
                    .and_then(Json::as_u64)
                    .ok_or("hierarchical layout lacks `file_elems`")?;
                let table = json
                    .get("table")
                    .and_then(Json::as_arr)
                    .ok_or("hierarchical layout lacks `table`")?
                    .iter()
                    .map(Json::as_u64)
                    .collect::<Option<Vec<u64>>>()
                    .ok_or("`table` entries must be non-negative integers")?;
                Ok(FileLayout::Hierarchical(HierLayout { table, file_elems }))
            }
            other => Err(format!("unknown layout kind {other:?}")),
        }
    }
}

fn heap_permute(cur: &mut Vec<usize>, k: usize, out: &mut Vec<Vec<usize>>) {
    if k <= 1 {
        out.push(cur.clone());
        return;
    }
    for i in 0..k {
        heap_permute(cur, k - 1, out);
        if k.is_multiple_of(2) {
            cur.swap(i, k - 1);
        } else {
            cur.swap(0, k - 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn space() -> DataSpace {
        DataSpace::new(vec![3, 4])
    }

    #[test]
    fn json_round_trips_every_kind() {
        let layouts = [
            FileLayout::RowMajor,
            FileLayout::ColMajor,
            FileLayout::DimPerm(vec![2, 0, 1]),
            FileLayout::Hierarchical(HierLayout {
                table: vec![0, 4, 1, 5, 2, 6, 3, 7],
                file_elems: 8,
            }),
        ];
        for l in &layouts {
            let back = FileLayout::from_json(&l.to_json()).unwrap();
            assert_eq!(&back, l, "round trip of {}", l.describe());
            // The wire form is deterministic.
            assert_eq!(back.to_json().to_string(), l.to_json().to_string());
        }
        assert!(FileLayout::from_json(&Json::obj().set("kind", "nope")).is_err());
        assert!(FileLayout::from_json(&Json::obj()).is_err());
    }

    #[test]
    fn fingerprints_separate_layouts() {
        let layouts = [
            FileLayout::RowMajor,
            FileLayout::ColMajor,
            FileLayout::DimPerm(vec![0, 1]),
            FileLayout::DimPerm(vec![1, 0]),
            FileLayout::Hierarchical(HierLayout {
                table: vec![0, 2, 1, 3],
                file_elems: 4,
            }),
            FileLayout::Hierarchical(HierLayout {
                table: vec![0, 2, 3, 1],
                file_elems: 4,
            }),
        ];
        let prints: Vec<u64> = layouts.iter().map(FileLayout::fingerprint).collect();
        let distinct: HashSet<u64> = prints.iter().copied().collect();
        assert_eq!(distinct.len(), layouts.len(), "all layouts must differ");
        // Stable across clones and re-serialization.
        for l in &layouts {
            assert_eq!(l.clone().fingerprint(), l.fingerprint());
            let back = FileLayout::from_json(&l.to_json()).unwrap();
            assert_eq!(back.fingerprint(), l.fingerprint());
        }
        // Combined fingerprint is order-sensitive and differs from parts.
        let ab = FileLayout::fingerprint_all([&layouts[0], &layouts[1]]);
        let ba = FileLayout::fingerprint_all([&layouts[1], &layouts[0]]);
        assert_ne!(ab, ba);
        assert_ne!(ab, layouts[0].fingerprint());
    }

    #[test]
    fn row_major_matches_linearize() {
        let s = space();
        assert_eq!(FileLayout::RowMajor.offset_of(&s, &[0, 0]), 0);
        assert_eq!(FileLayout::RowMajor.offset_of(&s, &[0, 3]), 3);
        assert_eq!(FileLayout::RowMajor.offset_of(&s, &[1, 0]), 4);
        assert_eq!(FileLayout::RowMajor.offset_of(&s, &[2, 3]), 11);
    }

    #[test]
    fn col_major_transposes() {
        let s = space();
        assert_eq!(FileLayout::ColMajor.offset_of(&s, &[0, 0]), 0);
        assert_eq!(FileLayout::ColMajor.offset_of(&s, &[1, 0]), 1);
        assert_eq!(FileLayout::ColMajor.offset_of(&s, &[0, 1]), 3);
        assert_eq!(FileLayout::ColMajor.offset_of(&s, &[2, 3]), 11);
    }

    #[test]
    fn dim_perm_identity_is_row_major() {
        let s = space();
        let id = FileLayout::DimPerm(vec![0, 1]);
        let rev = FileLayout::DimPerm(vec![1, 0]);
        for a in [[0i64, 0], [1, 2], [2, 3]] {
            assert_eq!(id.offset_of(&s, &a), FileLayout::RowMajor.offset_of(&s, &a));
            assert_eq!(
                rev.offset_of(&s, &a),
                FileLayout::ColMajor.offset_of(&s, &a)
            );
        }
    }

    #[test]
    fn every_dense_layout_is_a_bijection() {
        let s = DataSpace::new(vec![2, 3, 4]);
        for layout in FileLayout::all_permutations(3) {
            let mut seen = HashSet::new();
            for e in 0..s.num_elements() {
                let a = s.delinearize(e);
                let off = layout.offset_of(&s, &a);
                assert!(off < 24, "offset out of range for {}", layout.describe());
                assert!(
                    seen.insert(off),
                    "duplicate offset for {}",
                    layout.describe()
                );
            }
            assert_eq!(seen.len(), 24);
        }
    }

    #[test]
    fn permutation_count_is_factorial() {
        assert_eq!(FileLayout::all_permutations(1).len(), 1);
        assert_eq!(FileLayout::all_permutations(2).len(), 2);
        assert_eq!(FileLayout::all_permutations(3).len(), 6);
        assert_eq!(FileLayout::all_permutations(4).len(), 24);
    }

    #[test]
    fn permutations_are_distinct() {
        let perms = FileLayout::all_permutations(3);
        let keys: HashSet<String> = perms.iter().map(FileLayout::describe).collect();
        assert_eq!(keys.len(), 6);
    }

    #[test]
    fn hierarchical_uses_table() {
        let s = DataSpace::new(vec![2, 2]);
        let layout = FileLayout::Hierarchical(HierLayout {
            table: vec![10, 4, 7, 0],
            file_elems: 11,
        });
        assert_eq!(layout.offset_of(&s, &[0, 0]), 10);
        assert_eq!(layout.offset_of(&s, &[1, 1]), 0);
        assert_eq!(layout.file_elems(&s), 11);
    }

    #[test]
    fn dense_file_extent_equals_array() {
        let s = space();
        assert_eq!(FileLayout::RowMajor.file_elems(&s), 12);
    }

    #[test]
    fn strides_reproduce_offsets() {
        let s = DataSpace::new(vec![3, 4, 5]);
        let mut layouts = FileLayout::all_permutations(3);
        layouts.push(FileLayout::RowMajor);
        layouts.push(FileLayout::ColMajor);
        for layout in &layouts {
            let strides = layout.strides(&s).expect("dense layouts have strides");
            for e in 0..s.num_elements() {
                let a = s.delinearize(e);
                let linear: i64 = strides.iter().zip(&a).map(|(&st, &v)| st * v).sum();
                assert_eq!(
                    linear as u64,
                    layout.offset_of(&s, &a),
                    "strides disagree with offset_of for {}",
                    layout.describe()
                );
            }
        }
        let hier = FileLayout::Hierarchical(HierLayout {
            table: vec![0],
            file_elems: 1,
        });
        assert_eq!(hier.strides(&s), None, "hierarchical layouts have none");
    }
}
