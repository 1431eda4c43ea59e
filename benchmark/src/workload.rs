//! The workloads, the public entry points they drive, and the check every
//! answer must pass.

use sem_accel::{Backend, SemSystem};
use sem_mesh::ElementField;
use sem_obs::WallTimer;
use sem_serve::{policy_by_name, ProblemSpec, ServeOptions, ServeRequest, Server};
use sem_solver::CgOptions;

/// Relative residual every answer must reach on the reference operator.
pub const VERIFY_TOLERANCE: f64 = 1e-9;

/// CG stopping rule of every solve (the serving host's default).
pub const CG: CgOptions = CgOptions {
    max_iterations: 2000,
    tolerance: 1e-10,
    record_history: false,
};

/// Which public entry point one unit of work calls.
#[derive(Clone, Copy)]
pub enum Entry {
    /// One `SemSystem::solve_rhs`, waiting for it before the next.
    Solve,
    /// One `SemSystem::solve_many` of this many right-hand sides per shape.
    Batch(usize),
}

pub struct Workload {
    pub name: &'static str,
    /// Registry name of every session's backend and preconditioner.
    pub backend: &'static str,
    /// `(degree, elements per side)` of each problem shape.
    pub shapes: &'static [(usize, usize)],
    pub entry: Entry,
    pub forcing: Forcing,
}

/// How a right-hand side is made from its seed.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Forcing {
    /// `ServeRequest::seeded`: the serving host's seeded polynomial forcing.
    Request,
    /// Seeded amplitudes of four fixed low sine modes: smooth and zero on the
    /// boundary, so Jacobi-preconditioned CG needs tens of iterations instead
    /// of the hundreds the masked polynomial forcing takes on a large mesh.
    Modes,
}

/// One right-hand side of a unit: its shape and seed.
#[derive(Clone, Copy)]
pub struct Request {
    pub shape: usize,
    pub key: u64,
}

// Why these two: see `BENCHMARK.json`.  They put the most weight on
// different layers: Ax and dssum (large), the preconditioner and set-up
// (small batch).
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "cg-large-parallel",
        backend: "cpu:parallel",
        shapes: &[(7, 12)],
        entry: Entry::Solve,
        forcing: Forcing::Modes,
    },
    Workload {
        name: "cg-small-fdm-batch",
        backend: "cpu:optimized+fdm",
        shapes: &[(5, 4), (7, 4), (9, 4)],
        entry: Entry::Batch(8),
        forcing: Forcing::Request,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Self> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    pub fn backend(&self) -> Backend {
        Backend::from_name(self.backend).expect("workload backends are registry names")
    }

    fn per_shape(&self) -> usize {
        match self.entry {
            Entry::Solve => 1,
            Entry::Batch(n) => n,
        }
    }

    /// The right-hand sides of unit `unit`, grouped by shape.  Each gets its
    /// own seed, drawn from the workload seed, so the same seed always gives
    /// the same inputs.
    pub fn requests(&self, seed: u64, unit: usize) -> Vec<Request> {
        let mut out = Vec::new();
        for shape in 0..self.shapes.len() {
            for i in 0..self.per_shape() {
                let key = mix(mix(mix(seed) ^ unit as u64) ^ ((shape as u64) << 32 | i as u64));
                out.push(Request { shape, key });
            }
        }
        out
    }

    fn spec(&self, shape: usize) -> ProblemSpec {
        let (degree, per_side) = self.shapes[shape];
        ProblemSpec::cube(degree, per_side)
    }

    /// Assemble `request`'s right-hand side on `system` (of its shape).
    pub fn assemble(&self, request: Request, system: &SemSystem) -> ElementField {
        match self.forcing {
            Forcing::Request => {
                ServeRequest::seeded(self.spec(request.shape), request.key).assemble_rhs(system)
            }
            Forcing::Modes => {
                let mut key = request.key;
                let mut amplitude = || {
                    key = mix(key);
                    0.5 + (key >> 11) as f64 / (1_u64 << 53) as f64
                };
                let c = [amplitude(), amplitude(), amplitude(), amplitude()];
                let pi = std::f64::consts::PI;
                system.problem().right_hand_side(move |x, y, z| {
                    let (sx, sy, sz) = ((pi * x).sin(), (pi * y).sin(), (pi * z).sin());
                    let (s2x, s2y, s2z) = (
                        (2.0 * pi * x).sin(),
                        (2.0 * pi * y).sin(),
                        (2.0 * pi * z).sin(),
                    );
                    c[0] * sx * sy * sz
                        + c[1] * s2x * sy * sz
                        + c[2] * sx * s2y * sz
                        + c[3] * sx * sy * s2z
                })
            }
        }
    }

    /// Build one session per shape.
    pub fn build_sessions(&self) -> Vec<SemSystem> {
        let backend = self.backend();
        self.shapes
            .iter()
            .map(|&(degree, per_side)| {
                SemSystem::builder()
                    .degree(degree)
                    .elements([per_side; 3])
                    .backend(backend.clone())
                    .build()
            })
            .collect()
    }
}

/// SplitMix64: derives independent per-request seeds from the workload seed.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Run one unit through the workload's entry point on `sessions` (one per
/// shape), timing only the entry calls: right-hand sides are assembled
/// before the clock starts.  Returns the measured seconds and the answers.
pub fn run_unit(
    workload: &Workload,
    sessions: &[SemSystem],
    requests: &[Request],
    verifier: &Verifier,
) -> (f64, Vec<Answer>) {
    let mut wall = 0.0;
    let mut answers = Vec::new();
    for (shape, session) in sessions.iter().enumerate() {
        let batch: Vec<Request> = requests
            .iter()
            .filter(|r| r.shape == shape)
            .copied()
            .collect();
        let rhss: Vec<ElementField> = batch
            .iter()
            .map(|&r| workload.assemble(r, verifier.system(shape)))
            .collect();
        let timer = WallTimer::start();
        let reports = match workload.entry {
            Entry::Solve => vec![session.solve_rhs(&rhss[0], CG)],
            Entry::Batch(_) => session.solve_many(&rhss, CG),
        };
        wall += timer.elapsed_wall_seconds();
        for ((request, rhs), report) in batch.into_iter().zip(rhss).zip(reports) {
            answers.push(Answer {
                request,
                rhs,
                converged: report.converged() && report.solution.cg.fault.is_none(),
                solution: report.solution.solution,
            });
        }
    }
    (wall, answers)
}

/// The serving host (`sem-serve`) on the workload's problems: one closed
/// batch of manufactured requests (the seeded right-hand sides are the
/// workload's own business; the host only packs, places and re-sequences)
/// through `Server::serve_async` with the model-optimal policy on two slots
/// of the workload's backend, after one untimed serve that builds the
/// slots' sessions.
pub struct ServeProbe {
    /// Wall seconds of the serve outside the busiest slot's jobs:
    /// admission, packing, placement, stealing and re-sequencing.
    pub overhead_s: f64,
    /// Busy slot-seconds per wall second.
    pub concurrency: f64,
    pub steals: usize,
    pub jobs: usize,
    pub attempted: usize,
    pub failed: usize,
}

impl ServeProbe {
    pub fn measure(workload: &Workload, verifier: &Verifier) -> Self {
        let options = ServeOptions {
            max_batch: 4,
            ..ServeOptions::default()
        };
        let mut server = Server::from_registry_names(&[workload.backend; 2], options);
        let requests: Vec<ServeRequest> = (0..workload.shapes.len())
            .flat_map(|shape| {
                vec![ServeRequest::manufactured(workload.spec(shape)); workload.per_shape()]
            })
            .collect();
        let mut policy = policy_by_name("model-optimal").expect("a registered policy");
        let _ = server.serve_async(&requests, policy.as_mut());
        let timer = WallTimer::start();
        let report = server.serve_async(&requests, policy.as_mut());
        let wall = timer.elapsed_wall_seconds();
        let busy = report.busy_wall_seconds();
        let verified = report
            .outcomes
            .iter()
            .filter(|outcome| {
                // Requests are laid out shape by shape.
                let shape = outcome.request / workload.per_shape();
                let system = verifier.system(shape);
                let rhs = requests[outcome.request].assemble_rhs(system);
                outcome.converged
                    && outcome.fault.is_none()
                    && sem_serve::relative_residual(system, &rhs, &outcome.solution)
                        <= VERIFY_TOLERANCE
            })
            .count();
        Self {
            overhead_s: wall
                - report
                    .devices
                    .iter()
                    .map(|d| d.busy_wall_seconds)
                    .fold(0.0, f64::max),
            concurrency: busy / wall,
            steals: report.total_steals(),
            jobs: report.jobs.len(),
            attempted: requests.len(),
            failed: requests.len() - verified,
        }
    }
}

/// One answer returned by an entry point.
pub struct Answer {
    pub request: Request,
    pub rhs: ElementField,
    pub converged: bool,
    pub solution: ElementField,
}

/// The `cpu:reference` operator on every shape: answers are checked there,
/// never on the backend that produced them.
pub struct Verifier {
    systems: Vec<SemSystem>,
}

impl Verifier {
    pub fn new(workload: &Workload) -> Self {
        let systems = workload
            .shapes
            .iter()
            .map(|&(degree, per_side)| {
                SemSystem::builder()
                    .degree(degree)
                    .elements([per_side; 3])
                    .backend_named("cpu:reference+none")
                    .build()
            })
            .collect();
        Self { systems }
    }

    pub fn system(&self, shape: usize) -> &SemSystem {
        &self.systems[shape]
    }

    /// Whether `answer` converged and its relative residual, recomputed on
    /// the reference operator, is within [`VERIFY_TOLERANCE`].
    pub fn check(&self, answer: &Answer) -> bool {
        let system = self.system(answer.request.shape);
        answer.converged
            && sem_serve::relative_residual(system, &answer.rhs, &answer.solution)
                <= VERIFY_TOLERANCE
    }
}

/// Whether two fields are bitwise identical.
pub fn same_bits(a: &ElementField, b: &ElementField) -> bool {
    a.as_slice().len() == b.as_slice().len()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}
