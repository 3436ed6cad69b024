//! The pass oracle: Algorithm 1 against a naive reference walk.
//!
//! [`reference_layout`] assigns addresses the slow, obvious way: each
//! thread's iterations come from [`ThreadSchedule::iterations`], every
//! reference is evaluated with `eval_into` and `linearize`d, and phase 2
//! always runs, as a sort of the leftover elements by `(s, row-major
//! index)`. It shares no walk and no fill code with
//! [`build_hier_layout`]. The suites compare the two table for table on
//! every pass the experiments run and on seeded random nests.

use super::*;
use crate::pass::{run_layout_pass, run_pass_with, PassOptions};
use crate::target::{HierLevel, HierSpec, TargetLayers};
use flo_bench::experiments::fig7c::SCALES;
use flo_bench::topology_for;
use flo_linalg::{IMat, SplitMix64};
use flo_parallel::ThreadSchedule;
use flo_workloads::Scale;

/// Algorithm 1 element by element: the executable specification of
/// [`build_hier_layout`].
fn reference_layout(
    space: &DataSpace,
    d_row: &[i64],
    smap: SMapping,
    partition: &BlockPartition,
    addr: &ChunkAddresser,
    primary: Option<PrimaryRef<'_>>,
) -> HierLayout {
    let total = space.num_elements() as usize;
    let chunk = addr.chunk_elems();
    let mut table = vec![UNASSIGNED; total];
    // Thread t's n-th element goes to offset n % chunk of its chunk n / chunk.
    let mut placed = vec![0u64; partition.num_threads()];
    let mut assign = |table: &mut [u64], t: usize, e: usize| {
        if table[e] == UNASSIGNED {
            let n = placed[t];
            table[e] = addr.chunk_start(t, n / chunk) + n % chunk;
            placed[t] += 1;
        }
    };
    if let Some(p) = &primary {
        let mut elem = vec![0i64; space.rank()];
        for t in 0..partition.num_threads() {
            for i in ThreadSchedule::new(p.nest_space, partition, t).iterations() {
                for access in &p.accesses {
                    access.eval_into(&i, &mut elem);
                    assert!(space.contains(&elem), "reference escapes the array");
                    assign(&mut table, t, space.linearize(&elem) as usize);
                }
            }
        }
    }
    let iter_lo = partition.block(0).lo;
    let iter_hi = partition.block(partition.num_blocks() - 1).hi;
    let mut rest: Vec<(i64, usize)> = (0..total)
        .filter(|&e| table[e] == UNASSIGNED)
        .map(|e| (flo_linalg::dot(&space.delinearize(e as i64), d_row), e))
        .collect();
    rest.sort_unstable();
    for (s, e) in rest {
        let iu = (s - smap.beta)
            .div_euclid(smap.alpha)
            .clamp(iter_lo, iter_hi - 1);
        let t = partition.thread_of_block(partition.block_of_coord(iu));
        assign(&mut table, t, e);
    }
    let file_elems = table.iter().max().expect("non-empty table") + 1;
    HierLayout { table, file_elems }
}

/// The first element whose address differs, for a readable failure.
fn first_difference(a: &HierLayout, b: &HierLayout) -> Option<String> {
    if a.table.len() != b.table.len() {
        return Some(format!("{} vs {} elements", a.table.len(), b.table.len()));
    }
    if let Some(e) = (0..a.table.len()).find(|&e| a.table[e] != b.table[e]) {
        return Some(format!(
            "element {e}: offset {} vs {}",
            a.table[e], b.table[e]
        ));
    }
    (a.file_elems != b.file_elems)
        .then(|| format!("file_elems {} vs {}", a.file_elems, b.file_elems))
}

/// What `run_layout_pass` builds for every app at `scale`, under every
/// target and at each of Fig. 7(c)'s capacity points, against the same
/// pass over the reference walk.
fn assert_passes_match_reference(scale: Scale) {
    let base = topology_for(scale);
    let mut tables = 0;
    for w in flo_workloads::all(scale) {
        for target in TargetLayers::all() {
            for &(num, den, point) in &SCALES {
                let topo = base.with_cache_scale(num, den);
                let opts = PassOptions::default_for(&topo).with_target(target);
                let fast = run_layout_pass(&w.program, &topo, &opts);
                let naive = run_pass_with(&w.program, &topo, &opts, reference_layout);
                assert_eq!(fast.layouts.len(), naive.layouts.len());
                for (k, pair) in fast.layouts.iter().zip(&naive.layouts).enumerate() {
                    let ctx = format!("{} {target:?} {point} array {k}", w.name);
                    match pair {
                        (FileLayout::Hierarchical(f), FileLayout::Hierarchical(n)) => {
                            if let Some(diff) = first_difference(f, n) {
                                panic!("{ctx}: {diff}");
                            }
                            tables += 1;
                        }
                        (f, n) => assert_eq!(f, n, "{ctx}"),
                    }
                }
            }
        }
    }
    assert!(tables > 0, "no optimized array at {scale:?} scale");
}

#[test]
fn small_scale_passes_match_reference() {
    assert_passes_match_reference(Scale::Small);
}

/// Full scale takes about 12 s in release on a 2-vCPU VM and far longer
/// in debug; CI runs it with
/// `cargo test --release -p flo-core -- --include-ignored`.
#[test]
#[ignore]
fn full_scale_passes_match_reference() {
    assert_passes_match_reference(Scale::Full);
}

/// Random 2-deep nests over 2-D arrays: primary references with up to
/// two stencil neighbours, partitioning rows with negative entries, and
/// `α` up to 8, so that phase 1 often leaves elements to phase 2.
#[test]
fn random_nests_match_reference() {
    let mut rng = SplitMix64::new(0xA160_0001);
    let (mut cases, mut with_phase2) = (0, 0);
    while cases < 400 {
        let data = DataSpace::new(vec![rng.range_i64(2, 12), rng.range_i64(2, 12)]);
        let iter = IterSpace::from_extents(&[rng.range_i64(1, 9), rng.range_i64(1, 9)]);
        let q = IMat::from_vec(2, 2, (0..4).map(|_| rng.range_i64(-2, 2)).collect());
        let base = vec![rng.range_i64(0, 8), rng.range_i64(0, 8)];
        let mut accesses = vec![AffineAccess::new(q.clone(), base.clone())];
        for _ in 0..rng.range_usize(0, 2) {
            let mut off = base.clone();
            off[rng.range_usize(0, 1)] += if rng.bool() { 1 } else { -1 };
            accesses.push(AffineAccess::new(q.clone(), off));
        }
        // An affine image of a box is extreme at its corners.
        let corners = [
            [0, 0],
            [0, iter.upper(1) - 1],
            [iter.upper(0) - 1, 0],
            [iter.upper(0) - 1, iter.upper(1) - 1],
        ];
        let in_bounds = accesses
            .iter()
            .all(|a| corners.iter().all(|c| data.contains(&a.eval(c))));
        let u = rng.range_usize(0, 1);
        let mut d_row = vec![rng.range_i64(-2, 2), rng.range_i64(-2, 2)];
        // Step I's α = d·Q·e_u, normalized positive.
        let mut alpha = d_row[0] * q.row(0)[u] + d_row[1] * q.row(1)[u];
        if alpha < 0 {
            d_row.iter_mut().for_each(|d| *d = -*d);
            alpha = -alpha;
        }
        if !in_bounds || alpha == 0 {
            continue;
        }
        let smap = SMapping {
            alpha,
            beta: flo_linalg::dot(&d_row, &base),
        };
        let partition = BlockPartition::new(&iter, u, rng.range_usize(1, 6), 4);
        let spec = HierSpec {
            levels: vec![
                HierLevel {
                    caches: 2,
                    capacity_elems: 4 * rng.range_i64(1, 8) as u64,
                },
                HierLevel {
                    caches: 1,
                    capacity_elems: 64,
                },
            ],
            threads: 4,
            group_of_thread: vec![0, 0, 1, 1],
            block_elems: [1, 2, 4][rng.range_usize(0, 2)],
        };
        let addr = if rng.bool() {
            ChunkAddresser::for_data(&spec, (data.num_elements() as u64).div_ceil(4))
        } else {
            ChunkAddresser::new(&spec)
        };
        let primary = rng.range_usize(0, 4) > 0;
        let primary = || {
            primary.then(|| PrimaryRef {
                nest_space: &iter,
                accesses: accesses.iter().collect(),
            })
        };
        let fast = build_hier_layout(&data, &d_row, smap, &partition, &addr, primary());
        let naive = reference_layout(&data, &d_row, smap, &partition, &addr, primary());
        if let Some(diff) = first_difference(&fast, &naive) {
            panic!("case {cases} ({data:?}, {iter:?}, {accesses:?}, d {d_row:?}): {diff}");
        }
        // Count the cases where phase 1 leaves elements to phase 2.
        let mut touched = vec![false; fast.table.len()];
        if let Some(p) = primary() {
            for i in iter.iter() {
                for a in &p.accesses {
                    touched[data.linearize(&a.eval(&i)) as usize] = true;
                }
            }
        }
        with_phase2 += usize::from(touched.contains(&false));
        cases += 1;
    }
    assert!(
        with_phase2 >= 100,
        "only {with_phase2} of {cases} cases left elements to phase 2"
    );
}

/// A primary nest that touches all elements but one: phase 2 must place
/// the last one.
#[test]
fn one_untouched_element_goes_to_phase_2() {
    let data = DataSpace::new(vec![5, 3]);
    let iter = IterSpace::from_extents(&[4, 3]);
    let access = AffineAccess::from_rows(&[&[1, 0], &[0, 1]], vec![0, 0]);
    let partition = BlockPartition::new(&iter, 0, 4, 4);
    let spec = HierSpec {
        levels: vec![
            HierLevel {
                caches: 2,
                capacity_elems: 8,
            },
            HierLevel {
                caches: 1,
                capacity_elems: 32,
            },
        ],
        threads: 4,
        group_of_thread: vec![0, 0, 1, 1],
        block_elems: 2,
    };
    let addr = ChunkAddresser::new(&spec);
    let smap = SMapping { alpha: 1, beta: 0 };
    // The nest touches rows 0..4 and, through two constant references,
    // elements (4, 0) and (4, 1): only (4, 2) is left.
    let fixed = |col| AffineAccess::from_rows(&[&[0, 0], &[0, 0]], vec![4, col]);
    let (left, right) = (fixed(0), fixed(1));
    let primary = || {
        Some(PrimaryRef {
            nest_space: &iter,
            accesses: vec![&access, &left, &right],
        })
    };
    let fast = build_hier_layout(&data, &[1, 0], smap, &partition, &addr, primary());
    let naive = reference_layout(&data, &[1, 0], smap, &partition, &addr, primary());
    assert_eq!(first_difference(&fast, &naive), None);
}
