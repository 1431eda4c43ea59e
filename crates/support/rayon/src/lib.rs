//! Vendored stand-in for the slice-parallelism subset of `rayon` that this
//! workspace uses (`par_chunks_mut(..).enumerate().for_each_init(..)`).
//!
//! The offline build environment cannot fetch the real `rayon`, so this crate
//! provides the same API backed by `std::thread::scope`: the chunk list is
//! divided into contiguous runs, one per available core, and each worker
//! thread owns a private `for_each_init` state.  The last run executes on the
//! calling thread, so a split over `n` cores spawns `n - 1` threads.
//! Semantics match rayon where it matters for this workspace: every chunk is
//! visited exactly once with its global index, chunk-local arithmetic is
//! unchanged (so results are bitwise identical to sequential execution), and
//! the closure requirements (`Sync` operations over `Send` data) are the
//! same.

#![deny(missing_docs)]
#![deny(unsafe_code)]

use std::num::NonZeroUsize;
use std::sync::OnceLock;

/// Number of threads a parallel iteration splits its work over: the host's
/// available parallelism, read once per process.
#[must_use]
pub fn current_num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// Rayon-style prelude: import the parallel-slice extension trait.
pub mod prelude {
    pub use crate::ParallelSliceMut;
}

/// Extension trait adding parallel chunk iteration to mutable slices.
pub trait ParallelSliceMut<T: Send> {
    /// Split the slice into chunks of `chunk_size` (the last chunk may be
    /// shorter) for parallel traversal.
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T> {
        assert!(chunk_size > 0, "chunk size must be positive");
        ParChunksMut {
            slice: self,
            chunk_size,
        }
    }
}

/// Parallel iterator over mutable chunks of a slice.
pub struct ParChunksMut<'a, T> {
    slice: &'a mut [T],
    chunk_size: usize,
}

impl<'a, T: Send> ParChunksMut<'a, T> {
    /// Pair every chunk with its index.
    #[must_use]
    pub fn enumerate(self) -> EnumeratedChunksMut<'a, T> {
        EnumeratedChunksMut(self)
    }

    /// Run `op` on every chunk in parallel.
    pub fn for_each<F>(self, op: F)
    where
        F: Fn(&mut [T]) + Sync,
    {
        self.enumerate().for_each(|(_, chunk)| op(chunk));
    }
}

/// An enumerated parallel chunk iterator.
pub struct EnumeratedChunksMut<'a, T>(ParChunksMut<'a, T>);

impl<T: Send> EnumeratedChunksMut<'_, T> {
    /// Run `op` on every `(index, chunk)` pair in parallel.
    pub fn for_each<F>(self, op: F)
    where
        F: Fn((usize, &mut [T])) + Sync,
    {
        self.for_each_init(|| (), |(), item| op(item));
    }

    /// Run `op` on every `(index, chunk)` pair in parallel, giving each
    /// worker thread its own state created by `init`.
    pub fn for_each_init<S, INIT, F>(self, init: INIT, op: F)
    where
        INIT: Fn() -> S + Sync,
        F: Fn(&mut S, (usize, &mut [T])) + Sync,
    {
        let chunk_size = self.0.chunk_size;
        let slice = self.0.slice;
        if slice.is_empty() {
            return;
        }
        let num_chunks = slice.len().div_ceil(chunk_size);
        let threads = current_num_threads().min(num_chunks);

        if threads <= 1 {
            let mut state = init();
            for (index, chunk) in slice.chunks_mut(chunk_size).enumerate() {
                op(&mut state, (index, chunk));
            }
            return;
        }

        let run_len = num_chunks.div_ceil(threads) * chunk_size;
        let run = |base: usize, items: &mut [T]| {
            let mut state = init();
            for (offset, chunk) in items.chunks_mut(chunk_size).enumerate() {
                op(&mut state, (base + offset, chunk));
            }
        };
        let run = &run;
        std::thread::scope(|scope| {
            let mut runs = slice.chunks_mut(run_len).enumerate();
            let last = runs.next_back();
            for (r, chunks) in runs {
                scope.spawn(move || run(r * run_len / chunk_size, chunks));
            }
            if let Some((r, chunks)) = last {
                run(r * run_len / chunk_size, chunks);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn every_chunk_is_visited_once_with_its_global_index() {
        let mut data = vec![0usize; 103]; // deliberately not a multiple of 4
        data.as_mut_slice()
            .par_chunks_mut(4)
            .enumerate()
            .for_each_init(
                || (),
                |(), (index, chunk)| {
                    for v in chunk.iter_mut() {
                        *v = index + 1;
                    }
                },
            );
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i / 4 + 1);
        }
    }

    #[test]
    fn init_runs_at_most_once_per_thread() {
        let inits = AtomicUsize::new(0);
        let mut data = vec![0u8; 64];
        data.as_mut_slice()
            .par_chunks_mut(1)
            .enumerate()
            .for_each_init(
                || inits.fetch_add(1, Ordering::SeqCst),
                |_, (_, chunk)| chunk[0] = 1,
            );
        assert!(inits.load(Ordering::SeqCst) <= crate::current_num_threads().min(64));
        assert!(data.iter().all(|&v| v == 1));
    }

    #[test]
    fn the_last_run_executes_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let mut data = vec![false; 4];
        data.as_mut_slice()
            .par_chunks_mut(1)
            .enumerate()
            .for_each(|(_, chunk)| chunk[0] = std::thread::current().id() == caller);
        // The caller's chunks are exactly the last run: a non-empty suffix,
        // and not everything when there is more than one run.
        assert!(data[3], "the last chunk belongs to the last run");
        assert!(data.windows(2).all(|w| !w[0] || w[1]), "{data:?}");
        assert_eq!(data[0], crate::current_num_threads() == 1);
    }

    #[test]
    fn empty_slices_are_a_no_op() {
        let mut data: Vec<f64> = Vec::new();
        data.as_mut_slice()
            .par_chunks_mut(8)
            .for_each(|_| panic!("must not be called"));
    }
}
