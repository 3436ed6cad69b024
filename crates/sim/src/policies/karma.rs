//! KARMA: hint-based exclusive multi-level cache partitioning.
//!
//! KARMA (Yadgar, Factor & Schuster, FAST'07) assumes the application
//! discloses its access pattern as *ranges* of blocks with known access
//! frequencies. Each cache level is partitioned among ranges by *marginal
//! gain* — hot, small ranges are pinned closest to the client; colder
//! ranges live lower; the coldest bypass caching entirely (READ-DISCARD).
//! Placement is exclusive: a range is cached at exactly one level.
//!
//! Our reproduction keeps KARMA's essential structure at per-file (=
//! per-array) granularity, which is precisely the hint a compiler can
//! produce: for each array, the number of distinct blocks and the number of
//! accesses. Allocation greedily assigns the ranges with the highest
//! accesses-per-block to the I/O layer until its aggregate capacity is
//! spent, then to the storage layer, and the remainder to no cache.
//!
//! The paper's observation that the layout optimization *increases*
//! KARMA's effectiveness ("more localized data accesses enable KARMA to
//! generate more accurate hints") emerges naturally here: the optimized
//! layout shrinks each array's per-thread block footprint, so more hot
//! ranges fit in the upper partitions.

use crate::block::FileId;
use crate::topology::Topology;

/// One hinted range: a whole file (disk-resident array).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RangeHint {
    /// The file this range covers.
    pub file: FileId,
    /// Number of distinct blocks in the range.
    pub num_blocks: u64,
    /// Total dynamic accesses expected to the range.
    pub accesses: u64,
}

impl RangeHint {
    /// Marginal gain of caching one block of this range: expected accesses
    /// per block. Compared as a rational (`accesses / num_blocks`) without
    /// floating point.
    fn gain_key(&self) -> (u64, u64) {
        (self.accesses, self.num_blocks.max(1))
    }
}

/// The application hints handed to KARMA before a run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KarmaHints {
    /// Per-file ranges (whole-application view, used for the storage
    /// layer's allocation).
    pub ranges: Vec<RangeHint>,
    /// Per-I/O-node views: `group_ranges[g]` describes the blocks and
    /// accesses of each file as seen *through I/O node g*. Empty means
    /// "use the global ranges for every node". Localized layouts shrink
    /// these footprints, which is exactly how the paper's optimization
    /// makes KARMA's hints more effective (§5.4).
    pub group_ranges: Vec<Vec<RangeHint>>,
}

impl KarmaHints {
    /// Build hints from `(file, num_blocks, accesses)` triples.
    pub fn from_triples(triples: &[(FileId, u64, u64)]) -> KarmaHints {
        KarmaHints {
            ranges: triples
                .iter()
                .map(|&(file, num_blocks, accesses)| RangeHint {
                    file,
                    num_blocks,
                    accesses,
                })
                .collect(),
            group_ranges: Vec::new(),
        }
    }
}

/// The cache level a range is assigned to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KarmaLevel {
    /// Cached in the I/O-node caches.
    Io,
    /// Cached in the storage-node caches.
    Storage,
    /// Not cached anywhere (READ-DISCARD).
    Bypass,
}

/// The result of KARMA's partitioning decision: the level of every
/// (I/O node, file) pair, in one dense table.
///
/// File ids are array indices (small and dense), so the table has one
/// column per file up to the largest hinted id. It has one row per I/O
/// node plus a last row holding each file's storage-side level, which
/// answers for I/O node indices past the topology. Files outside the
/// table are unhinted and cached at the I/O level (KARMA falls back to
/// LRU-like behaviour without hints), as is everything under
/// [`KarmaAssignment::default`], which installs no allocation.
#[derive(Clone, Debug, Default)]
pub struct KarmaAssignment {
    /// I/O nodes of the topology; row `io_nodes` is the storage-side row.
    io_nodes: usize,
    /// Columns per row: one past the largest hinted file id.
    files: usize,
    /// Row-major `(io_nodes + 1) × files` levels.
    levels: Vec<KarmaLevel>,
    /// Per column: the file has a global range or is admitted at some
    /// I/O node (the files [`KarmaAssignment::census`] counts).
    hinted: Vec<bool>,
}

fn sort_by_gain(ranges: &mut [RangeHint]) {
    // Sort by marginal gain (accesses/num_blocks) descending; compare
    // a/b vs c/d as a*d vs c*b to stay exact. Ties break on FileId for
    // determinism.
    ranges.sort_by(|x, y| {
        let (ax, bx) = x.gain_key();
        let (ay, by) = y.gain_key();
        ((ay as u128) * (bx as u128))
            .cmp(&((ax as u128) * (by as u128)))
            .then(x.file.cmp(&y.file))
    });
}

impl KarmaAssignment {
    /// Partition the caches among the hinted ranges by decreasing
    /// marginal gain: each I/O-node cache is partitioned among the ranges
    /// *it* serves (per-group hints when provided), and the storage layer
    /// among the remaining ranges.
    pub fn allocate(hints: &KarmaHints, topo: &Topology) -> KarmaAssignment {
        let files = hints
            .ranges
            .iter()
            .chain(hints.group_ranges.iter().flatten())
            .map(|r| r.file as usize + 1)
            .max()
            .unwrap_or(0);
        let mut hinted = vec![false; files];
        // Per-I/O-node admission: `admitted[g * files + f]`.
        let mut admitted = vec![false; topo.io_nodes * files];
        for (g, row) in admitted.chunks_mut(files.max(1)).enumerate() {
            let mut ranges = if hints.group_ranges.len() == topo.io_nodes {
                hints.group_ranges[g].clone()
            } else {
                hints.ranges.clone()
            };
            sort_by_gain(&mut ranges);
            let mut left = topo.io_cache_blocks as i128;
            for r in &ranges {
                let sz = r.num_blocks as i128;
                if sz <= left {
                    left -= sz;
                    row[r.file as usize] = true;
                    hinted[r.file as usize] = true;
                }
            }
        }
        // Storage layer: global ranges not I/O-admitted everywhere compete
        // for the aggregate storage capacity.
        let mut ranges = hints.ranges.clone();
        sort_by_gain(&mut ranges);
        let mut storage_left = topo.total_storage_cache() as i128;
        let mut storage_row = vec![KarmaLevel::Io; files];
        for r in &ranges {
            let f = r.file as usize;
            hinted[f] = true;
            let everywhere = (0..topo.io_nodes).all(|g| admitted[g * files + f]);
            let sz = r.num_blocks as i128;
            storage_row[f] = if everywhere {
                KarmaLevel::Io
            } else if sz <= storage_left {
                storage_left -= sz;
                KarmaLevel::Storage
            } else {
                KarmaLevel::Bypass
            };
        }
        let mut levels: Vec<KarmaLevel> = admitted
            .iter()
            .enumerate()
            .map(|(i, &io)| {
                if io {
                    KarmaLevel::Io
                } else {
                    storage_row[i % files]
                }
            })
            .collect();
        levels.extend(storage_row);
        KarmaAssignment {
            io_nodes: topo.io_nodes,
            files,
            levels,
            hinted,
        }
    }

    /// Level of `file` for requests arriving through I/O node `io_idx`.
    #[inline]
    pub fn level_for(&self, io_idx: usize, file: FileId) -> KarmaLevel {
        let file = file as usize;
        if file >= self.files {
            return KarmaLevel::Io;
        }
        self.levels[io_idx.min(self.io_nodes) * self.files + file]
    }

    /// Level assigned to `file` viewed from I/O node 0 (compatibility
    /// helper for tests).
    pub fn level_of(&self, file: FileId) -> KarmaLevel {
        self.level_for(0, file)
    }

    /// Number of ranges assigned to each level `(io, storage, bypass)`
    /// from the node-0 viewpoint.
    pub fn census(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for f in (0..self.files).filter(|&f| self.hinted[f]) {
            match self.level_for(0, f as FileId) {
                KarmaLevel::Io => c.0 += 1,
                KarmaLevel::Storage => c.1 += 1,
                KarmaLevel::Bypass => c.2 += 1,
            }
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::KarmaRule;
    use std::collections::BTreeSet;

    fn topo() -> Topology {
        // total io cache = 2*8 = 16 blocks; storage = 1*16 = 16 blocks.
        Topology::tiny()
    }

    #[test]
    fn hot_small_ranges_go_high() {
        // tiny(): each I/O-node cache holds 8 blocks; storage aggregate 16.
        let hints = KarmaHints::from_triples(&[
            (0, 6, 1000), // gain ~167 → admitted at every I/O cache
            (1, 10, 100), // too big for an I/O cache → Storage (6 left after)
            (2, 10, 10),  // does not fit the remaining storage → Bypass
        ]);
        let asg = KarmaAssignment::allocate(&hints, &topo());
        assert_eq!(asg.level_of(0), KarmaLevel::Io);
        assert_eq!(asg.level_of(1), KarmaLevel::Storage);
        assert_eq!(asg.level_of(2), KarmaLevel::Bypass);
        assert_eq!(asg.census(), (1, 1, 1));
    }

    #[test]
    fn exact_fit_is_admitted() {
        let hints = KarmaHints::from_triples(&[(0, 8, 100)]);
        let asg = KarmaAssignment::allocate(&hints, &topo());
        assert_eq!(asg.level_of(0), KarmaLevel::Io);
    }

    #[test]
    fn gain_ordering_is_per_block_not_total() {
        // File 0: 100 accesses over 12 blocks (gain ~8.3) — too large for
        // an 8-block I/O cache anyway → Storage.
        // File 1: 90 accesses over 4 blocks (gain 22.5) → wins the I/O slot
        // even though its total accesses are lower.
        let hints = KarmaHints::from_triples(&[(0, 12, 100), (1, 4, 90)]);
        let asg = KarmaAssignment::allocate(&hints, &topo());
        assert_eq!(asg.level_of(1), KarmaLevel::Io);
        assert_eq!(asg.level_of(0), KarmaLevel::Storage);
    }

    #[test]
    fn unhinted_file_defaults_to_io() {
        let asg = KarmaAssignment::allocate(&KarmaHints::default(), &topo());
        assert_eq!(asg.level_of(42), KarmaLevel::Io);
    }

    #[test]
    fn deterministic_tie_break() {
        // Two equal-gain files that each fill a whole I/O cache: the lower
        // FileId wins the partition, the other falls to storage.
        let hints = KarmaHints::from_triples(&[(1, 8, 100), (0, 8, 100)]);
        let asg = KarmaAssignment::allocate(&hints, &topo());
        assert_eq!(asg.level_of(0), KarmaLevel::Io);
        assert_eq!(asg.level_of(1), KarmaLevel::Storage);
    }

    #[test]
    fn per_group_hints_differ_between_nodes() {
        // Node 0 sees file 0 small (fits); node 1 sees it huge (does not).
        let mut hints = KarmaHints::from_triples(&[(0, 100, 1000)]);
        hints.group_ranges = vec![
            vec![RangeHint {
                file: 0,
                num_blocks: 4,
                accesses: 1000,
            }],
            vec![RangeHint {
                file: 0,
                num_blocks: 100,
                accesses: 1000,
            }],
        ];
        let asg = KarmaAssignment::allocate(&hints, &topo());
        assert_eq!(asg.level_for(0, 0), KarmaLevel::Io);
        assert_ne!(asg.level_for(1, 0), KarmaLevel::Io);
    }

    /// The dense table answers exactly what the oracle's hash-map rule
    /// does, for every (I/O node, file) pair: hinted, unhinted and
    /// past-the-end files, per-group and global hints, duplicate ranges,
    /// and one I/O node index past the topology. The census agrees with
    /// the rule's too.
    #[test]
    fn dense_table_matches_hashmap_rule() {
        fn next(x: &mut u64, n: u64) -> u64 {
            *x ^= *x << 13;
            *x ^= *x >> 7;
            *x ^= *x << 17;
            *x % n
        }
        fn random_ranges(x: &mut u64, n: u64) -> Vec<RangeHint> {
            (0..n)
                .map(|_| {
                    let file = next(x, 9) as FileId;
                    let num_blocks = 1 + next(x, 20);
                    // Every other range takes one of four per-block gains,
                    // so equal gains on different files (the tie-break)
                    // come up often.
                    let accesses = match next(x, 2) {
                        0 => next(x, 2000),
                        _ => num_blocks * 25 * (1 + next(x, 4)),
                    };
                    RangeHint {
                        file,
                        num_blocks,
                        accesses,
                    }
                })
                .collect()
        }
        let mut cases = vec![
            KarmaHints::default(),
            KarmaHints::from_triples(&[(0, 6, 1000), (1, 10, 100), (2, 10, 10)]),
            KarmaHints::from_triples(&[(3, 4, 90), (3, 12, 100), (7, 2, 5)]),
            KarmaHints::from_triples(&[(1, 8, 100), (0, 8, 100), (2, 16, 200)]),
        ];
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for _ in 0..200 {
            let n = 1 + next(&mut x, 6);
            let mut hints = KarmaHints {
                ranges: random_ranges(&mut x, n),
                group_ranges: Vec::new(),
            };
            if next(&mut x, 3) > 0 {
                // Two groups match the topology; three make it fall back
                // to the global ranges.
                let groups = if next(&mut x, 4) == 0 { 3 } else { 2 };
                hints.group_ranges = (0..groups)
                    .map(|_| {
                        let n = next(&mut x, 6);
                        random_ranges(&mut x, n)
                    })
                    .collect();
            }
            cases.push(hints);
        }
        let mut topo = topo();
        for (case, hints) in cases.iter().enumerate() {
            topo.io_cache_blocks = [4, 8, 12][case % 3];
            let asg = KarmaAssignment::allocate(hints, &topo);
            let rule = KarmaRule::allocate(hints, &topo);
            for io_idx in 0..=topo.io_nodes {
                for file in 0..12 {
                    assert_eq!(
                        asg.level_for(io_idx, file),
                        rule.level_for(io_idx, file),
                        "case {case} io node {io_idx} file {file}"
                    );
                }
            }
            let hinted: BTreeSet<FileId> = (rule.level_of_file.keys())
                .chain(rule.io_admitted.iter().flatten())
                .copied()
                .collect();
            let mut census = (0, 0, 0);
            for f in hinted {
                match rule.level_for(0, f) {
                    KarmaLevel::Io => census.0 += 1,
                    KarmaLevel::Storage => census.1 += 1,
                    KarmaLevel::Bypass => census.2 += 1,
                }
            }
            assert_eq!(asg.census(), census, "case {case}");
        }
        let none = KarmaAssignment::default();
        for file in [0, 1, 42, FileId::MAX] {
            assert_eq!(none.level_for(0, file), KarmaLevel::Io);
            assert_eq!(none.level_for(5, file), KarmaLevel::Io);
        }
        assert_eq!(none.census(), (0, 0, 0));
    }
}
