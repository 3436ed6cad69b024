//! One module per experiment of §5. Every module exposes
//! `run(scale) -> Result<Table, BenchError>` so binaries and integration
//! tests share the same entry points and invalid inputs surface as typed
//! errors rather than panics.

pub mod fig7a;
pub mod fig7b;
pub mod fig7c;
pub mod fig7d;
pub mod fig7e;
pub mod fig7f;
pub mod fig7g;
pub mod fig7h;
pub mod figr;
pub mod optstats;
pub mod table1;
pub mod table2;
pub mod table3;

use flo_workloads::Workload;

/// Format a ratio with three decimals.
pub(crate) fn r3(x: f64) -> String {
    format!("{x:.3}")
}

/// Format a percentage with one decimal.
pub(crate) fn pct(x: f64) -> String {
    format!("{:.1}", x * 100.0)
}

/// Geometric-free average of a slice.
pub(crate) fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Run `f` over the suite in parallel, preserving order.
pub(crate) fn par_over_suite<T: Send>(
    suite: &[Workload],
    f: impl Fn(&Workload) -> T + Sync + Send,
) -> Vec<T> {
    flo_parallel::parallel_map(suite, f)
}

/// [`par_over_suite`] for fallible per-app work: every app still runs (the
/// parallel map is oblivious to failures), then the first error wins.
pub(crate) fn try_par_over_suite<T: Send>(
    suite: &[Workload],
    f: impl Fn(&Workload) -> Result<T, crate::BenchError> + Sync + Send,
) -> Result<Vec<T>, crate::BenchError> {
    flo_parallel::parallel_map(suite, f).into_iter().collect()
}
