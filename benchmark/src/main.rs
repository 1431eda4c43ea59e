//! The repository's benchmark: time to solution and batch throughput of the
//! SEM stack, measured from outside the program through its public entry
//! points, with every answer verified on the reference operator.
//!
//! ```text
//! sem-benchmark --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` is a separate run
//! that splits the same work into layers (Ax, dssum, preconditioner, CG
//! vector ops, set-up, simulator, serving host) and writes its spans as
//! Chrome trace-event JSON under `.bench_out/`.  The last stdout line is the
//! result object; the line before it records the run's metadata and the
//! provenance of every metric (measured, modelled, computed or count).

#![forbid(unsafe_code)]

mod host;
mod trace;
mod workload;

use host::{peak_rss_mb, HostInfo, Roofline};
use sem_accel::{AxBackend, CpuBackend, FpgaSimBackend};
use sem_kernel::AxImplementation;
use sem_mesh::ElementField;
use sem_obs::WallTimer;
use sem_solver::{CgOutcome, CgScratch, CgSolver};
use std::fmt::Write as _;
use trace::{Session, TracedAx, TracedPrecond, Tracer};
use workload::{run_unit, same_bits, ServeProbe, Verifier, Workload, CG, WORKLOADS};

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = Workload::by_name(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` (one of {})", names.join(", "))
    })?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: u32 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be 1..=600".to_string());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds: f64::from(seconds),
        trace,
    })
}

/// One reported metric with its unit and provenance.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    provenance: &'static str,
}

const MEASURED: &str = "measured";
const MODELLED: &str = "modelled";
const COMPUTED: &str = "computed";
const COUNT: &str = "count";

#[derive(Default)]
struct Outcome {
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
    /// Extra `key: json` pairs for the metadata line.
    notes: Vec<(&'static str, String)>,
}

impl Outcome {
    fn metric(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        provenance: &'static str,
    ) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            provenance,
        });
    }
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        0.5 * (values[n / 2 - 1] + values[n / 2])
    }
}

/// Seconds to build every session the workload uses, timed directly after
/// an untimed build that pages in the allocator's memory, so the sample
/// times the build itself.
fn setup_seconds(w: &Workload) -> f64 {
    drop(w.build_sessions());
    let timer = WallTimer::start();
    let sessions = w.build_sessions();
    let seconds = timer.elapsed_wall_seconds();
    drop(sessions);
    seconds
}

/// A JSON array of numbers.
fn json_list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(f64::to_string).collect();
    format!("[{}]", items.join(","))
}

/// The untraced run: the end-to-end metrics.
fn end_to_end(args: &Args) -> Outcome {
    let w = args.workload;
    let mut out = Outcome::default();
    let verifier = Verifier::new(w);
    let mut setup = vec![setup_seconds(w)];
    let sessions = w.build_sessions();

    let mut per_rhs = Vec::new();
    let (mut wall, mut verified_total) = (0.0, 0);
    let clock = WallTimer::start();
    // Unit 0 warms caches and lazy state; it is verified but not timed.
    let mut unit = 0;
    while unit == 0 || per_rhs.len() < 3 || clock.elapsed_wall_seconds() < args.seconds {
        let requests = w.requests(args.seed, unit);
        let (unit_wall, answers) = run_unit(w, &sessions, &requests, &verifier);
        let verified = answers.iter().filter(|a| verifier.check(a)).count();
        out.attempted += requests.len();
        out.failed += requests.len() - verified;
        if unit > 0 {
            per_rhs.push(unit_wall / requests.len() as f64);
            wall += unit_wall;
            verified_total += verified;
        }
        unit += 1;
        // One more set-up sample after every unit, so the samples spread over
        // the whole run and their median rides out the host's load swings.
        setup.push(setup_seconds(w));
    }
    while setup.len() < 5 {
        setup.push(setup_seconds(w));
    }
    out.notes.push(("solve_s_samples", json_list(&per_rhs)));
    out.notes.push(("setup_s_samples", json_list(&setup)));
    out.metric("solve_s", median(&mut per_rhs), "s", MEASURED);
    out.metric(
        "solves_per_s",
        verified_total as f64 / wall,
        "1/s",
        MEASURED,
    );
    out.metric("setup_s", median(&mut setup), "s", MEASURED);
    out.metric("peak_rss_mb", peak_rss_mb(), "MiB", MEASURED);
    out
}

/// A CG solve through the session's own operator and preconditioner, as
/// `SemSystem::solve_rhs` runs it: the baseline the traced solve is checked
/// and timed against.
fn plain_solve(session: &Session, rhs: &ElementField) -> (CgOutcome, f64) {
    let timer = WallTimer::start();
    let gs = session.problem.gather_scatter();
    let solver = CgSolver::new(session.execution.as_ref(), gs, session.problem.mask(), CG);
    let mut scratch = CgScratch::for_operator(session.execution.as_ref());
    let outcome = solver.solve_with_scratch(rhs, &session.precond, &mut scratch);
    (outcome, timer.elapsed_wall_seconds())
}

/// The same solve with every layer call wrapped in a span.
fn traced_solve(tracer: &Tracer, session: &Session, rhs: &ElementField) -> CgOutcome {
    tracer.time("solve", || {
        let ax = TracedAx {
            inner: session.execution.as_ref(),
            tracer,
        };
        let precond = TracedPrecond {
            inner: &session.precond,
            tracer,
        };
        let gs = session.problem.gather_scatter();
        let solver = CgSolver::new(&ax, gs, session.problem.mask(), CG);
        let mut scratch = CgScratch::for_operator(&ax);
        tracer.time("cg", || {
            solver.solve_with_scratch(rhs, &precond, &mut scratch)
        })
    })
}

/// Seconds one call of `f` takes.
fn seconds_of(f: impl FnOnce()) -> f64 {
    let timer = WallTimer::start();
    f();
    timer.elapsed_wall_seconds()
}

/// `cpu:parallel` against the single-thread specialized kernel on the same
/// operand (the workload's degree-7 shape): median single-thread seconds
/// over median parallel seconds, interleaved.
fn parallel_speedup(w: &Workload, sessions: &[Session]) -> f64 {
    let shape = w.shapes.iter().position(|s| s.0 == 7).unwrap_or(0);
    let mesh = sessions[shape].problem.mesh();
    let single = CpuBackend::new(mesh, AxImplementation::Specialized);
    let parallel = CpuBackend::new(mesh, AxImplementation::Parallel);
    let u = mesh.evaluate(|x, y, z| (x + 0.3) * (y - 0.7) * (z + 0.11));
    let mut out = ElementField::zeros(mesh.degree(), mesh.num_elements());
    let (mut t_single, mut t_parallel) = (Vec::new(), Vec::new());
    for _ in 0..7 {
        t_single.push(seconds_of(|| single.apply_into(&u, &mut out)));
        t_parallel.push(seconds_of(|| parallel.apply_into(&u, &mut out)));
    }
    median(&mut t_single) / median(&mut t_parallel)
}

/// The FPGA simulator on each of the workload's shapes: host seconds per
/// `FpgaSimBackend::apply_into` (measured), the cycle model's seconds per
/// Ax and preconditioner application (modelled), and the model's GFLOP/s
/// against the paper's Table I at each degree (computed).
struct SimProbe {
    host_s_per_apply: f64,
    ax_s: Vec<f64>,
    precond_s: Vec<f64>,
    table1_rel_err: f64,
    /// Per degree: the model's and the paper's GFLOP/s, as JSON.
    table1: String,
}

impl SimProbe {
    fn measure(w: &Workload, sessions: &[Session]) -> Self {
        let device = perf_model::FpgaDevice::stratix10_gx2800();
        let spec = w.backend().precond;
        let mut host = Vec::new();
        let (mut ax_s, mut precond_s) = (Vec::new(), Vec::new());
        for session in sessions {
            let mesh = session.problem.mesh();
            let sim = FpgaSimBackend::new(mesh, device.clone());
            let u = mesh.evaluate(|x, y, z| (x + 0.3) * (y - 0.7) * (z + 0.11));
            let mut out = ElementField::zeros(mesh.degree(), mesh.num_elements());
            let mut samples: Vec<f64> = (0..5)
                .map(|_| seconds_of(|| sim.apply_into(&u, &mut out)))
                .collect();
            host.push(median(&mut samples));
            ax_s.push(sim.simulated_seconds_per_application().unwrap_or(0.0));
            precond_s.push(sim.simulated_seconds_per_precond(spec).unwrap_or(0.0));
        }
        let mut rows = Vec::new();
        let mut table1_rel_err = 0.0_f64;
        for paper in perf_model::measured_table1() {
            if !w.shapes.iter().any(|&(degree, _)| degree == paper.degree) {
                continue;
            }
            let model = fpga_sim::FpgaAccelerator::for_degree(paper.degree, &device)
                .estimate(4096)
                .gflops;
            let err = (model - paper.gflops).abs() / paper.gflops;
            table1_rel_err = table1_rel_err.max(err);
            rows.push(format!(
                "{{\"degree\":{},\"model_gflops\":{model},\"paper_gflops\":{},\"rel_err\":{err}}}",
                paper.degree, paper.gflops
            ));
        }
        Self {
            host_s_per_apply: host.iter().sum::<f64>() / host.len() as f64,
            ax_s,
            precond_s,
            table1_rel_err,
            table1: format!("[{}]", rows.join(",")),
        }
    }
}

/// Bytes one dssum sweep touches, computed from the array sizes: the CSR
/// offsets and local indices, plus a read and a write of every shared node.
fn dssum_bytes(session: &Session) -> f64 {
    let gs = session.problem.gather_scatter();
    let shared = gs.multiplicity().iter().filter(|&&m| m > 1.0).count();
    (8 * (gs.num_global_dofs() + 1) + 8 * gs.num_local_dofs() + 16 * shared) as f64
}

/// The traced run: the per-layer metrics.
#[allow(clippy::too_many_lines)]
fn traced(args: &Args, host: &HostInfo) -> Outcome {
    let w = args.workload;
    let mut out = Outcome::default();
    let tracer = Tracer::new();
    // First, while little else is allocated: the triad arrays are large.
    let roofline = tracer.time("probe.roofline", || Roofline::measure(host));
    let verifier = Verifier::new(w);
    let entry_sessions = w.build_sessions();
    let backend = w.backend();
    let sessions: Vec<Session> = w
        .shapes
        .iter()
        .map(|&(degree, per_side)| Session::build(&tracer, &backend, degree, per_side))
        .collect();
    let speedup = tracer.time("probe.parallel", || parallel_speedup(w, &sessions));
    let sim = tracer.time("probe.fpga_sim", || SimProbe::measure(w, &sessions));

    let (mut flops, mut ax_bytes, mut roofline_seconds, mut dssum_total_bytes) =
        (0.0, 0.0, 0.0, 0.0);
    let (mut iterations, mut solves, mut fpga_solve_s) = (0, 0, 0.0);
    let mut plain_wall = 0.0;
    let dssum_per_call: Vec<f64> = sessions.iter().map(dssum_bytes).collect();
    let clock = WallTimer::start();
    let mut unit = 0;
    while unit == 0 || clock.elapsed_wall_seconds() < args.seconds {
        tracer.set_unit(unit);
        let requests = w.requests(args.seed, unit);
        let (_, answers) = tracer.time("entry", || {
            run_unit(w, &entry_sessions, &requests, &verifier)
        });
        out.attempted += requests.len();
        let mut verified = 0;
        for answer in &answers {
            let shape = answer.request.shape;
            let session = &sessions[shape];
            let rhs = &answer.rhs;
            // Alternate which solve runs first, so neither always finds the
            // other's data in cache.
            let (plain, wall, traced) = if solves % 2 == 0 {
                let (plain, wall) = plain_solve(session, rhs);
                (plain, wall, traced_solve(&tracer, session, rhs))
            } else {
                let traced = traced_solve(&tracer, session, rhs);
                let (plain, wall) = plain_solve(session, rhs);
                (plain, wall, traced)
            };
            plain_wall += wall;
            let ok = verifier.check(answer)
                && traced.converged
                && same_bits(&traced.solution, &answer.solution)
                && same_bits(&plain.solution, &answer.solution);
            verified += usize::from(ok);
            let (degree, per_side) = w.shapes[shape];
            let elements = per_side.pow(3);
            let apps = traced.operator_applications as f64;
            let app_flops = session.execution.flops_per_application() as f64;
            flops += apps * app_flops;
            ax_bytes += apps * sem_kernel::ops::total_bytes(degree, elements) as f64;
            roofline_seconds += apps * app_flops / (roofline.bound_gflops(degree) * 1e9);
            dssum_total_bytes += apps * dssum_per_call[shape];
            iterations += traced.iterations;
            fpga_solve_s +=
                apps * sim.ax_s[shape] + traced.precond_applications as f64 * sim.precond_s[shape];
            solves += 1;
        }
        out.failed += requests.len() - verified;
        unit += 1;
    }

    let n = solves.max(1) as f64;
    let (solve_s, _) = tracer.total("solve");
    let (cg_s, _) = tracer.total("cg");
    let (ax_s, ax_calls) = tracer.total("ax");
    let (dssum_s, dssum_calls) = tracer.total("dssum");
    let (precond_s, precond_calls) = tracer.total("precond");
    let vec_s = cg_s - ax_s - dssum_s - precond_s;
    let serve = tracer.time("probe.serve", || ServeProbe::measure(w, &verifier));
    out.attempted += serve.attempted;
    out.failed += serve.failed;

    out.metric("ax.s", ax_s / n, "s", MEASURED);
    out.metric("ax.share", ax_s / solve_s, "ratio", MEASURED);
    out.metric("ax.calls", ax_calls as f64 / n, "count", COUNT);
    out.metric("ax.gflops", flops / ax_s / 1e9, "GFLOP/s", MEASURED);
    out.metric("ax.gbs", ax_bytes / ax_s / 1e9, "GB/s", COMPUTED);
    out.metric(
        "ax.roofline_frac",
        roofline_seconds / ax_s,
        "ratio",
        MEASURED,
    );
    out.metric("ax.parallel_speedup", speedup, "ratio", MEASURED);
    out.metric("dssum.s", dssum_s / n, "s", MEASURED);
    out.metric("dssum.share", dssum_s / solve_s, "ratio", MEASURED);
    out.metric("dssum.calls", dssum_calls as f64 / n, "count", COUNT);
    out.metric(
        "dssum.gbs",
        dssum_total_bytes / dssum_s / 1e9,
        "GB/s",
        COMPUTED,
    );
    out.metric("precond.s", precond_s / n, "s", MEASURED);
    out.metric("precond.share", precond_s / solve_s, "ratio", MEASURED);
    out.metric("precond.calls", precond_calls as f64 / n, "count", COUNT);
    out.metric("cg.vec_s", vec_s / n, "s", MEASURED);
    out.metric("cg.vec_share", vec_s / solve_s, "ratio", MEASURED);
    out.metric("cg.iterations", iterations as f64 / n, "count", COUNT);
    out.metric("setup.mesh_s", tracer.total("setup.mesh").0, "s", MEASURED);
    out.metric(
        "setup.precond_s",
        tracer.total("setup.precond").0,
        "s",
        MEASURED,
    );
    out.metric(
        "setup.backend_s",
        tracer.total("setup.backend").0,
        "s",
        MEASURED,
    );
    out.metric(
        "fpga.sim_host_s_per_apply",
        sim.host_s_per_apply,
        "s",
        MEASURED,
    );
    let per_apply = sim.ax_s.iter().sum::<f64>() / sim.ax_s.len() as f64;
    out.metric("fpga.modeled_s_per_apply", per_apply, "s", MODELLED);
    out.metric("fpga.modeled_s_per_solve", fpga_solve_s / n, "s", MODELLED);
    out.metric("fpga.table1_rel_err", sim.table1_rel_err, "ratio", COMPUTED);
    out.metric("serve.overhead_s", serve.overhead_s, "s", MEASURED);
    out.metric("serve.concurrency", serve.concurrency, "ratio", MEASURED);
    out.metric("serve.steals", serve.steals as f64, "count", COUNT);
    out.metric("serve.jobs", serve.jobs as f64, "count", COUNT);
    out.metric("host.triad_gbs", roofline.triad_gbs, "GB/s", MEASURED);
    out.metric("host.fma_gflops", roofline.fma_gflops, "GFLOP/s", MEASURED);
    out.metric(
        "unattributed_share",
        (solve_s - cg_s) / solve_s,
        "ratio",
        MEASURED,
    );
    out.metric(
        "trace.overhead_share",
        solve_s / plain_wall - 1.0,
        "ratio",
        MEASURED,
    );

    out.notes.push(("traced_units", unit.to_string()));
    out.notes.push(("traced_solves", solves.to_string()));
    out.notes
        .push(("triad_array_bytes", roofline.triad_array_bytes.to_string()));
    out.notes.push(("table1_gx2800_4096_elements", sim.table1));
    let path = format!(".bench_out/trace-{}-seed{}.json", w.name, args.seed);
    let written = std::fs::create_dir_all(".bench_out")
        .and_then(|()| std::fs::write(&path, tracer.chrome_json()));
    if let Err(error) = written {
        eprintln!("could not write {path}: {error}");
        out.failed += 1;
    }
    out.notes.push(("trace_file", format!("\"{path}\"")));
    out
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!(
                "{error}\nusage: sem-benchmark --workload <name> --seed <n> --seconds <n> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let host = HostInfo::probe();
    let mut out = if args.trace {
        traced(&args, &host)
    } else {
        end_to_end(&args)
    };
    // A metric that is not a finite number is a failed measurement.
    let broken = out.metrics.iter().filter(|m| !m.value.is_finite()).count();
    out.failed += broken;
    out.attempted = out.attempted.max(1);

    let mut meta = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"host_cores\":{},\
         \"llc_bytes\":{},\"rustc\":\"{}\",\"commit\":\"{}\"",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host.cores,
        host.llc_bytes,
        host.rustc,
        host.commit
    );
    for (key, value) in &out.notes {
        let _ = write!(meta, ",\"{key}\":{value}");
    }
    meta.push_str(",\"provenance\":{");
    let mut metrics = String::new();
    for (i, m) in out.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(meta, "{sep}\"{}\":\"{}\"", m.name, m.provenance);
        let value = if m.value.is_finite() { m.value } else { -1.0 };
        let _ = write!(
            metrics,
            "{sep}\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
            m.name, m.unit
        );
    }
    meta.push_str("}}");
    println!("{meta}");
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed
    );
    if out.failed > 0 {
        std::process::exit(1);
    }
}
