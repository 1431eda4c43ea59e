//! The traced run's instruments: an in-memory span recorder, and wrappers
//! around each layer's public entry point that time every call into it.
//!
//! Spans are recorded only from the benchmark's own code, around calls into
//! the crates; the crates themselves are not instrumented.  The wrappers
//! change no arithmetic: the traced solves are checked bitwise against the
//! untraced ones.

use sem_accel::{AxBackend, Backend, ExecSpec};
use sem_kernel::AxImplementation;
use sem_mesh::{BoxMesh, ElementField, GatherScatter, MeshDeformation};
use sem_obs::WallTimer;
use sem_solver::{AnyPreconditioner, LocalOperator, PoissonProblem, Preconditioner};
use std::cell::{Cell, RefCell};
use std::fmt::Write as _;

/// One closed span: a layer call with its start and end (seconds since the
/// recorder started), the span that was open around it, and the workload
/// unit it belongs to.
struct Span {
    name: &'static str,
    start: f64,
    end: f64,
    parent: Option<usize>,
    unit: usize,
}

/// Spans kept in memory and written out once, at the end of the run.
pub struct Tracer {
    clock: WallTimer,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    unit: Cell<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            clock: WallTimer::start(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            unit: Cell::new(0),
        }
    }

    /// Attribute the spans that follow to workload unit `unit`.
    pub fn set_unit(&self, unit: usize) {
        self.unit.set(unit);
    }

    /// Run `f` inside a span named `name`.
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start: self.clock.elapsed_wall_seconds(),
                end: f64::NAN,
                parent: self.open.borrow().last().copied(),
                unit: self.unit.get(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let result = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[index].end = self.clock.elapsed_wall_seconds();
        result
    }

    /// Total seconds and number of the spans named `name`.
    pub fn total(&self, name: &str) -> (f64, usize) {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0), |(t, n), s| (t + s.end - s.start, n + 1))
    }

    /// Chrome trace-event JSON (the format of the repository's
    /// `OBS_trace.json`): one complete event per span on one track, so
    /// nested layer calls render under the call that made them.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from(
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{\"name\":\"thread_name\",\"ph\":\"M\",\
             \"pid\":0,\"tid\":0,\"args\":{\"name\":\"benchmark\"}}",
        );
        for (id, s) in self.spans.borrow().iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                ",{{\"name\":\"{}\",\"cat\":\"measured\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\
                 \"ts\":{},\"dur\":{},\"args\":{{\"span\":{id},\"parent\":{parent},\"unit\":{}}}}}",
                s.name,
                s.start * 1e6,
                (s.end - s.start) * 1e6,
                s.unit
            );
        }
        out.push_str("]}");
        out
    }
}

/// The session's `AxBackend` as CG's `LocalOperator`, timing the kernel
/// (`ax`) and the gather–scatter (`dssum`) separately.
///
/// It claims the fused pass so CG calls [`LocalOperator::apply_dssum_into`],
/// which composes the two calls exactly as the default does.
pub struct TracedAx<'a> {
    pub inner: &'a dyn AxBackend,
    pub tracer: &'a Tracer,
}

impl LocalOperator for TracedAx<'_> {
    fn degree(&self) -> usize {
        self.inner.degree()
    }

    fn num_elements(&self) -> usize {
        self.inner.num_elements()
    }

    fn apply_local_into(&self, u: &ElementField, w: &mut ElementField) {
        self.tracer.time("ax", || self.inner.apply_into(u, w));
    }

    fn flops_per_application(&self) -> u64 {
        self.inner.flops_per_application()
    }

    fn seconds_per_application(&self) -> Option<f64> {
        self.inner.simulated_seconds_per_application()
    }

    fn fuses_dssum(&self) -> bool {
        true
    }

    fn apply_dssum_into(&self, u: &ElementField, gs: &GatherScatter, w: &mut ElementField) {
        self.apply_local_into(u, w);
        self.tracer.time("dssum", || gs.direct_stiffness_sum(w));
    }
}

/// The session's preconditioner, timing each application (`precond`).
pub struct TracedPrecond<'a> {
    pub inner: &'a AnyPreconditioner,
    pub tracer: &'a Tracer,
}

impl Preconditioner for TracedPrecond<'_> {
    fn apply_into(&self, r: &ElementField, z: &mut ElementField) {
        self.tracer.time("precond", || self.inner.apply_into(r, z));
    }

    fn seconds_per_application(&self) -> Option<f64> {
        self.inner.seconds_per_application()
    }
}

/// A session assembled from its parts, as `SemSystem::builder` assembles
/// it, with each part's set-up timed.
pub struct Session {
    pub execution: Box<dyn AxBackend>,
    pub problem: PoissonProblem,
    pub precond: AnyPreconditioner,
}

impl Session {
    pub fn build(tracer: &Tracer, backend: &Backend, degree: usize, per_side: usize) -> Self {
        let mesh = tracer.time("setup.mesh", || {
            BoxMesh::new(degree, [per_side; 3], [1.0; 3], MeshDeformation::None)
        });
        let execution = tracer.time("setup.backend", || backend.instantiate(&mesh));
        let implementation = match backend.exec {
            ExecSpec::Cpu(implementation) => implementation,
            _ => AxImplementation::Optimized,
        };
        let problem = tracer.time("setup.mesh", || PoissonProblem::new(mesh, implementation));
        let mut precond = tracer.time("setup.precond", || problem.preconditioner(backend.precond));
        if let Some(seconds) = execution.simulated_seconds_per_precond(backend.precond) {
            precond = precond.with_modeled_seconds(seconds);
        }
        Self {
            execution,
            problem,
            precond,
        }
    }
}
