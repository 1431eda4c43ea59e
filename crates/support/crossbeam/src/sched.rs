//! A pluggable schedule hook for systematic concurrency testing.
//!
//! Every queue operation in [`crate::deque`] and [`crate::channel`] passes
//! through [`yield_point`] before it touches shared state.  In production no
//! scheduler is installed and the call is a single relaxed atomic load — the
//! hook exists so a loom-style explorer (see `sem_serve::explore`) can
//! serialize a pool of worker threads and drive them through chosen
//! interleavings: each *controlled* thread parks at every yield point until
//! the installed [`Scheduler`] grants it the next step.
//!
//! A scheduler is installed on one thread and scoped to the pools that
//! thread starts: a pool captures [`PoolSched::current`] on its starting
//! thread and hands it to each worker, which opts in with
//! [`PoolSched::controlled`].  Every other thread — the caller that seeds
//! queues, pools started by unrelated tests running at the same time —
//! passes through untouched, so installing a scheduler perturbs only the
//! pool under test.

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The shared-state operation a controlled thread is about to perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SchedOp {
    /// `Injector::push`.
    InjectorPush,
    /// `Injector::steal`.
    InjectorSteal,
    /// `Worker::push`.
    WorkerPush,
    /// `Worker::pop` (owner side).
    WorkerPop,
    /// `Stealer::steal` (thief side).
    WorkerSteal,
    /// `channel::Sender::send`.
    ChannelSend,
    /// `channel::Receiver::recv` / `try_recv`.
    ChannelRecv,
}

impl SchedOp {
    /// Short stable mnemonic (used in schedule traces).
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            SchedOp::InjectorPush => "ip",
            SchedOp::InjectorSteal => "is",
            SchedOp::WorkerPush => "wp",
            SchedOp::WorkerPop => "wo",
            SchedOp::WorkerSteal => "ws",
            SchedOp::ChannelSend => "cs",
            SchedOp::ChannelRecv => "cr",
        }
    }
}

/// A schedule controller for a pool of cooperating threads.
///
/// Implementations typically *block* inside [`Scheduler::thread_started`] and
/// [`Scheduler::yield_point`] until they decide it is the calling thread's
/// turn, which serializes the pool and makes the interleaving a pure function
/// of the controller's choices.
pub trait Scheduler: Send + Sync {
    /// A controlled thread came up and identifies as `index`.  Called once
    /// per thread, before any yield point from that thread.
    fn thread_started(&self, index: usize);

    /// A controlled thread is about to perform `op`.  Returning hands the
    /// thread one step: it runs until its next yield point (or until it
    /// finishes).
    fn yield_point(&self, index: usize, op: SchedOp);

    /// A controlled thread is done: it will reach no further yield points.
    fn thread_finished(&self, index: usize);

    /// Whether the steal operation `op` the controlled thread `index` is
    /// about to perform should observe simulated contention
    /// ([`crate::deque::Steal::Retry`]) instead of touching the queue.
    ///
    /// Called *after* [`Scheduler::yield_point`] grants the step, so the
    /// decision rides the granted step rather than adding one.  The
    /// default — no contention, ever — preserves the vendored deque's
    /// uncontended behaviour; explorers override it to drive the
    /// contended-sweep paths that a mutex-backed deque can otherwise
    /// never reach.
    fn steal_contended(&self, index: usize, op: SchedOp) -> bool {
        let _ = (index, op);
        false
    }
}

/// Fast-path flag: how many threads have a scheduler installed.  While it
/// is zero every yield point is a single relaxed load.
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// The scheduler installed on this thread, handed to the pools it starts.
    static INSTALLED: RefCell<Option<Arc<dyn Scheduler>>> = const { RefCell::new(None) };

    /// This thread's control registration: its pool index plus the
    /// scheduler its pool captured.
    static CONTROL: RefCell<Option<(usize, Arc<dyn Scheduler>)>> = const { RefCell::new(None) };
}

/// Install `scheduler` as the schedule controller of the pools the calling
/// thread starts from now until [`uninstall`].
///
/// # Panics
/// Panics if the calling thread already has a scheduler installed.
pub fn install(scheduler: Arc<dyn Scheduler>) {
    INSTALLED.with(|slot| {
        let mut slot = slot.borrow_mut();
        assert!(
            slot.is_none(),
            "a schedule controller is already installed on this thread"
        );
        *slot = Some(scheduler);
    });
    ACTIVE.fetch_add(1, Ordering::SeqCst);
}

/// Remove the calling thread's scheduler (no-op when none is installed).
pub fn uninstall() {
    if INSTALLED.with(|slot| slot.borrow_mut().take()).is_some() {
        ACTIVE.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The schedule controller of one pool, captured on the thread that starts
/// the pool and shared with its workers.
pub struct PoolSched(Option<Arc<dyn Scheduler>>);

impl PoolSched {
    /// The scheduler installed on the calling thread, if any.  A pool calls
    /// this once at start, on the thread that starts it.
    #[must_use]
    pub fn current() -> Self {
        if ACTIVE.load(Ordering::SeqCst) == 0 {
            return Self(None);
        }
        Self(INSTALLED.with(|slot| slot.borrow().as_ref().map(Arc::clone)))
    }

    /// Register the calling thread as controlled pool member `index` for
    /// the lifetime of the returned guard.  Inert when the pool captured no
    /// scheduler.
    #[must_use]
    pub fn controlled(&self, index: usize) -> ControlGuard {
        let Some(scheduler) = &self.0 else {
            return ControlGuard { registered: false };
        };
        CONTROL.with(|cell| *cell.borrow_mut() = Some((index, Arc::clone(scheduler))));
        scheduler.thread_started(index);
        ControlGuard { registered: true }
    }
}

/// RAII registration of a controlled thread (see [`PoolSched::controlled`]).
#[derive(Debug)]
pub struct ControlGuard {
    registered: bool,
}

impl Drop for ControlGuard {
    fn drop(&mut self) {
        if !self.registered {
            return;
        }
        CONTROL.with(|cell| {
            if let Some((index, scheduler)) = cell.borrow_mut().take() {
                scheduler.thread_finished(index);
            }
        });
    }
}

/// The instrumentation point every queue operation passes through.  A single
/// relaxed load when no scheduler is installed; a scheduling decision when
/// the calling thread is controlled.
#[inline]
pub(crate) fn yield_point(op: SchedOp) {
    if ACTIVE.load(Ordering::Relaxed) == 0 {
        return;
    }
    yield_point_slow(op);
}

#[cold]
fn yield_point_slow(op: SchedOp) {
    let control = CONTROL.with(|cell| {
        cell.borrow()
            .as_ref()
            .map(|(index, scheduler)| (*index, Arc::clone(scheduler)))
    });
    if let Some((index, scheduler)) = control {
        scheduler.yield_point(index, op);
    }
}

/// Ask the calling thread's pool scheduler whether the steal `op` it is
/// about to perform should fail with simulated contention.  Always false in
/// production (no scheduler installed) and for uncontrolled threads.
#[inline]
pub(crate) fn simulate_contention(op: SchedOp) -> bool {
    if ACTIVE.load(Ordering::Relaxed) == 0 {
        return false;
    }
    simulate_contention_slow(op)
}

#[cold]
fn simulate_contention_slow(op: SchedOp) -> bool {
    let control = CONTROL.with(|cell| {
        cell.borrow()
            .as_ref()
            .map(|(index, scheduler)| (*index, Arc::clone(scheduler)))
    });
    match control {
        Some((index, scheduler)) => scheduler.steal_contended(index, op),
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// A recorder that never blocks: counts events per phase.
    struct Recorder {
        started: AtomicUsize,
        yields: AtomicUsize,
        finished: AtomicUsize,
    }

    impl Scheduler for Recorder {
        fn thread_started(&self, _index: usize) {
            self.started.fetch_add(1, Ordering::SeqCst);
        }
        fn yield_point(&self, _index: usize, _op: SchedOp) {
            self.yields.fetch_add(1, Ordering::SeqCst);
        }
        fn thread_finished(&self, _index: usize) {
            self.finished.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn recorder() -> Arc<Recorder> {
        Arc::new(Recorder {
            started: AtomicUsize::new(0),
            yields: AtomicUsize::new(0),
            finished: AtomicUsize::new(0),
        })
    }

    #[test]
    fn uncontrolled_threads_pass_through_without_a_scheduler() {
        // No install on this thread: ops run normally and the guard is inert.
        let guard = PoolSched::current().controlled(0);
        let injector = crate::deque::Injector::new();
        injector.push(1);
        assert_eq!(injector.steal().success(), Some(1));
        drop(guard);
    }

    #[test]
    fn controlled_threads_report_to_the_installed_scheduler() {
        let recorder = recorder();
        install(Arc::clone(&recorder) as Arc<dyn Scheduler>);
        let pool = PoolSched::current();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _guard = pool.controlled(3);
                let worker = crate::deque::Worker::new_fifo();
                worker.push(7);
                assert_eq!(worker.pop(), Some(7));
            });
        });
        uninstall();
        assert_eq!(recorder.started.load(Ordering::SeqCst), 1);
        assert_eq!(recorder.finished.load(Ordering::SeqCst), 1);
        // Two deque ops passed through the hook.
        assert_eq!(recorder.yields.load(Ordering::SeqCst), 2);
        // After uninstall the hook is inert again.
        let _guard = PoolSched::current().controlled(0);
        let injector = crate::deque::Injector::new();
        injector.push(1);
        assert_eq!(recorder.yields.load(Ordering::SeqCst), 2);
    }

    /// Grants every step; injects contention into the first `budget`
    /// injector steals.
    struct Contender {
        budget: AtomicUsize,
    }

    impl Scheduler for Contender {
        fn thread_started(&self, _index: usize) {}
        fn yield_point(&self, _index: usize, _op: SchedOp) {}
        fn thread_finished(&self, _index: usize) {}
        fn steal_contended(&self, _index: usize, op: SchedOp) -> bool {
            if op != SchedOp::InjectorSteal {
                return false;
            }
            self.budget
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |left| {
                    left.checked_sub(1)
                })
                .is_ok()
        }
    }

    #[test]
    fn a_scheduler_installed_on_one_thread_never_captures_another_threads_pool() {
        let recorder = recorder();
        install(Arc::clone(&recorder) as Arc<dyn Scheduler>);
        // A pool started on another thread (an unrelated test running at the
        // same time) captures nothing, even while this thread has a
        // scheduler installed.
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let pool = PoolSched::current();
                std::thread::scope(|inner| {
                    inner.spawn(|| {
                        let _guard = pool.controlled(7);
                        let worker = crate::deque::Worker::new_fifo();
                        worker.push(1);
                        assert_eq!(worker.pop(), Some(1));
                    });
                });
            });
        });
        uninstall();
        assert_eq!(recorder.started.load(Ordering::SeqCst), 0);
        assert_eq!(recorder.yields.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn a_scheduler_can_inject_retry_into_controlled_steals() {
        install(Arc::new(Contender {
            budget: AtomicUsize::new(2),
        }) as Arc<dyn Scheduler>);
        let pool = PoolSched::current();
        let injector = crate::deque::Injector::new();
        injector.push(9);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _guard = pool.controlled(0);
                // The first two steals see simulated contention, the third
                // lands; worker-deque steals are untouched.
                assert!(injector.steal().is_retry());
                assert!(injector.steal().is_retry());
                assert_eq!(injector.steal().success(), Some(9));
            });
        });
        uninstall();
        // Uncontrolled threads never see injected contention.
        injector.push(4);
        assert_eq!(injector.steal().success(), Some(4));
    }
}
