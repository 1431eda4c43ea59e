//! Multi-core CPU execution of the `Ax` kernel.
//!
//! The CPU baselines of the paper run one MPI rank per core, each owning a
//! contiguous block of elements.  This module does the same on threads: the
//! elements are cut into one contiguous run per core and every run executes
//! exactly the single-thread element loop ([`crate::PoissonOperator`] passes
//! it in), so "parallel" is the sequential path on `cores` threads rather
//! than a kernel of its own.  Elements are independent and each element's
//! arithmetic is unchanged, so results are bitwise identical to one thread.

use rayon::prelude::*;

/// Number of elements per run when `num_elements` are split over the host's
/// cores: `ceil(E / cores)`, so there is at most one run per core.
fn elements_per_run(num_elements: usize) -> usize {
    num_elements.div_ceil(rayon::current_num_threads()).max(1)
}

/// Apply `run_kernel` to one contiguous element run per core.
///
/// `run_kernel(u, w, g)` receives the run's slices of the input, the output
/// and the six geometric-factor planes; `npts = (N+1)³` is the element size.
///
/// # Panics
/// Panics if `u`, `w` and the planes differ in length or the length is not a
/// multiple of `npts`.
// lint: alloc-free (one run per core: no per-call or per-element scratch)
pub fn for_each_run<K>(u: &[f64], w: &mut [f64], g_planes: [&[f64]; 6], npts: usize, run_kernel: K)
where
    K: Fn(&[f64], &mut [f64], [&[f64]; 6]) + Sync,
{
    assert_eq!(u.len(), w.len(), "output field size mismatch");
    assert_eq!(u.len() % npts, 0, "field is not a whole number of elements");
    for plane in g_planes {
        assert_eq!(plane.len(), u.len(), "geometric plane length mismatch");
    }
    if u.is_empty() {
        return;
    }
    let run_len = elements_per_run(u.len() / npts) * npts;
    w.par_chunks_mut(run_len)
        .enumerate()
        .for_each(|(run, w_run)| {
            let (start, end) = (run * run_len, run * run_len + w_run.len());
            run_kernel(
                &u[start..end],
                w_run,
                g_planes.map(|plane| &plane[start..end]),
            );
        });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_cover_every_element_once_in_order() {
        for elements in [1, 2, 3, 7, 64] {
            let npts = 8;
            let u: Vec<f64> = (0..elements * npts).map(|i| i as f64).collect();
            let g = [&u[..]; 6];
            let mut w = vec![0.0; u.len()];
            for_each_run(&u, &mut w, g, npts, |u_run, w_run, g_run| {
                assert_eq!(w_run.len() % npts, 0, "runs hold whole elements");
                assert!(w_run.len() <= elements_per_run(elements) * npts);
                assert!(
                    g_run.iter().all(|&plane| plane == u_run),
                    "planes align with u"
                );
                for (w, u) in w_run.iter_mut().zip(u_run) {
                    *w = u + 1.0;
                }
            });
            let expect: Vec<f64> = u.iter().map(|u| u + 1.0).collect();
            assert_eq!(w, expect, "{elements} elements");
        }
    }

    #[test]
    fn there_is_at_most_one_run_per_core() {
        let cores = rayon::current_num_threads();
        for elements in [1_usize, 2, 3, 7, 64, 1000] {
            let runs = elements.div_ceil(elements_per_run(elements));
            assert!(
                runs <= cores.min(elements),
                "{elements} elements: {runs} runs"
            );
        }
    }
}
