//! Fig. 7(c) — sensitivity to storage-cache capacities. The paper:
//! "when the cache sizes are small, our approach brings more
//! improvements", because small caches make locality exploitation more
//! critical.

use crate::cache::RunCaches;
use crate::experiments::{mean, r3, try_par_over_suite};
use crate::harness::{normalized_exec_sweep, RunOverrides, Scheme};
use crate::tablefmt::Table;
use crate::BenchError;
use crate::{suite_from_env, topology_for};
use flo_sim::{PolicyKind, SweepPoint};
use flo_workloads::Scale;

/// Capacity multipliers swept (default = 1×).
pub const SCALES: [(usize, usize, &str); 5] = [
    (1, 4, "1/4x"),
    (1, 2, "1/2x"),
    (1, 1, "1x"),
    (2, 1, "2x"),
    (4, 1, "4x"),
];

/// The swept capacity points over `base`.
pub fn sweep_points(base: &flo_sim::Topology) -> Vec<SweepPoint> {
    SCALES
        .iter()
        .map(|&(num, den, _)| SweepPoint::of(&base.with_cache_scale(num, den)))
        .collect()
}

/// Run the sweep. The whole capacity axis is evaluated by the one-pass
/// sweep engine ([`normalized_exec_sweep`]): per application, the five
/// `Default` baselines cost one trace pass instead of five, and the
/// `Inter` side batches whichever points its layout pass maps to the same
/// layouts. Within a row the `Default` sweep runs beside the `Inter`
/// side's five layout passes and then its groups, which run side by side
/// too; the suite fans out over the applications on top, so two rows run
/// at once on two workers. `FLO_THREADS=1` makes it all sequential, with
/// the same table.
pub fn run(scale: Scale) -> Result<Table, BenchError> {
    run_with_policy(scale, PolicyKind::LruInclusive)
}

/// [`run`] under an explicit cache-management policy — what the `fig7c`
/// binary executes when `FLO_POLICY` is set, so `flostat diff` can put
/// e.g. KARMA's capacity sensitivity next to inclusive LRU's. Non-LRU
/// policies take the per-point simulation path instead of the one-pass
/// sweep engine.
pub fn run_with_policy(scale: Scale, policy: PolicyKind) -> Result<Table, BenchError> {
    let base_topo = topology_for(scale);
    let suite = suite_from_env(scale);
    let headers: Vec<&str> = std::iter::once("application")
        .chain(SCALES.iter().map(|&(_, _, n)| n))
        .collect();
    let caches = RunCaches::new();
    let points = sweep_points(&base_topo);
    let rows = try_par_over_suite(&suite, |w| {
        normalized_exec_sweep(
            &caches,
            w,
            &base_topo,
            &points,
            policy,
            Scheme::Inter,
            &RunOverrides::default(),
        )
    })?;
    // The default (LRU) title is what the checked-in `results/` tables
    // carry; only policy overrides annotate it.
    let title = if policy == PolicyKind::LruInclusive {
        "Fig. 7(c) — normalized execution time vs cache capacity".to_string()
    } else {
        format!(
            "Fig. 7(c) — normalized execution time vs cache capacity ({})",
            policy.name()
        )
    };
    let mut t = Table::new(&title, &headers);
    for (w, norms) in suite.iter().zip(&rows) {
        let mut cells = vec![w.name.to_string()];
        cells.extend(norms.iter().map(|&n| r3(n)));
        t.row(cells);
    }
    let mut avg = vec!["AVERAGE".to_string()];
    for c in 0..SCALES.len() {
        let col: Vec<f64> = rows.iter().map(|r| r[c]).collect();
        avg.push(r3(mean(&col)));
    }
    t.row(avg);
    t.note("smaller caches → lower normalized time (bigger win), per the paper");
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smaller_caches_bigger_wins() {
        let t = run(Scale::Small).unwrap();
        let quarter = t.cell_f64("AVERAGE", "1/4x").unwrap();
        let four = t.cell_f64("AVERAGE", "4x").unwrap();
        // The clean monotone trend appears at full scale; at test scale we
        // only require the two ends to be within noise of each other.
        assert!(
            quarter < four + 0.05,
            "small caches must benefit at least as much: 1/4x={quarter}, 4x={four}"
        );
    }
}
