//! `invdes_bend`: adjoint inverse design of the 80×80 bend, single-threaded.
//!
//! Back-to-back rounds of `ROUND_ITERATIONS` iterations, each from a seeded
//! random start. One long run converges onto a projected design that
//! repeats bit for bit, after which every iteration is a factor-cache hit;
//! short rounds from fresh starts keep every iteration a new factorization.

use crate::layers::{self, Case, Layers};
use crate::stats::{self, Op};
use crate::trace::{Tracer, ROOT};
use crate::{Counters, Workload};
use maps_core::{ComplexField2d, RealField2d, SolveFieldError};
use maps_data::{DeviceKind, DeviceResolution, DeviceSpec};
use maps_fdfd::{FdfdSolver, PmlConfig, PowerObjective};
use maps_invdes::{
    ExactAdjoint, GradientEvaluation, GradientSolver, InitStrategy, InverseDesigner, OptimConfig,
    OptimError,
};
use std::cell::Cell;
use std::time::Instant;

const ROUND_ITERATIONS: usize = 30;

/// Lowest transmission a finished round may end at. When the benchmark
/// was written, 250 rounds from these starts (seeds 1–20 and 101–110) all
/// ended at 0.944 or more; the floor sits well below that, so only a
/// broken gradient or solver trips it.
const ROUND_FLOOR: f64 = 0.8;

/// Designs of the traced phase replayed through the exact solver layers.
const REPLAY_CASES: usize = 6;

/// Wraps the gradient to time it from outside and to end a round when the
/// timed phase is over: past `until` it refuses with `DeadlineExceeded`,
/// which the designer does not retry.
struct Timed<'a> {
    inner: &'a ExactAdjoint,
    until: Instant,
    tracer: Option<&'a Tracer>,
    /// Span id reserved for the iteration in progress, the gradient's parent.
    iteration: Cell<u64>,
    finite: Cell<bool>,
}

impl GradientSolver for Timed<'_> {
    fn objective_and_gradient(
        &self,
        eps_r: &RealField2d,
        source: &ComplexField2d,
        omega: f64,
        objective: &PowerObjective,
    ) -> Result<GradientEvaluation, SolveFieldError> {
        if Instant::now() >= self.until {
            return Err(SolveFieldError::DeadlineExceeded {
                detail: "timed phase over".into(),
            });
        }
        let t0 = Instant::now();
        let eval = self
            .inner
            .objective_and_gradient(eps_r, source, omega, objective);
        if let Some(t) = self.tracer {
            t.record(
                t.id(),
                self.iteration.get(),
                "invdes.gradient",
                t0,
                Instant::now(),
            );
        }
        if let Ok(e) = &eval {
            self.finite.set(
                e.objective.is_finite() && e.grad_eps.as_slice().iter().all(|g| g.is_finite()),
            );
        }
        eval
    }

    fn name(&self) -> &str {
        "timed-exact-adjoint"
    }
}

pub struct Bend {
    seed: u64,
    device: DeviceSpec,
    solver: ExactAdjoint,
    round: u64,
    /// Round of each op of the last phase, and each finished round's final
    /// objective.
    op_rounds: Vec<u64>,
    finished: Vec<(u64, f64)>,
    cases: Vec<Case>,
}

impl Bend {
    pub fn new(seed: u64) -> Self {
        let mut device = DeviceKind::Bending.build(DeviceResolution::high());
        let solver = ExactAdjoint::new(FdfdSolver::with_pml(PmlConfig::auto(device.grid().dl)));
        device
            .problem
            .calibrate(solver.solver())
            .expect("bend calibration");
        maps_fdfd::factor_cache::global().clear();
        Bend {
            seed,
            device,
            solver,
            round: 0,
            op_rounds: Vec::new(),
            finished: Vec::new(),
            cases: Vec::new(),
        }
    }

    fn designer(&self, round: u64) -> InverseDesigner {
        InverseDesigner::new(OptimConfig {
            iterations: ROUND_ITERATIONS,
            learning_rate: 0.12,
            beta_start: 1.5,
            beta_growth: 1.12,
            filter_radius: 1.5,
            init: InitStrategy::Random {
                seed: self.seed.wrapping_mul(1_000_003).wrapping_add(round),
                mean: 0.5,
                amplitude: 0.3,
            },
            ..OptimConfig::default()
        })
    }
}

impl Workload for Bend {
    fn window(&self) -> usize {
        8
    }

    fn run(&mut self, until: Instant, tracer: Option<&Tracer>) -> Vec<Op> {
        self.op_rounds.clear();
        self.finished.clear();
        let problem = &self.device.problem;
        let mut ops = Vec::new();
        while Instant::now() < until {
            let round = self.round;
            self.round += 1;
            let timed = Timed {
                inner: &self.solver,
                until,
                tracer,
                iteration: Cell::new(tracer.map_or(ROOT, Tracer::id)),
                finite: Cell::new(false),
            };
            let mut last = f64::NAN;
            let mut open = Instant::now();
            let result =
                self.designer(round)
                    .run_with_callback(problem, &timed, |rec, density, _| {
                        let now = Instant::now();
                        if let Some(t) = tracer {
                            t.record(
                                timed.iteration.replace(t.id()),
                                ROOT,
                                "invdes.iteration",
                                open,
                                now,
                            );
                        }
                        if self.cases.len() < REPLAY_CASES && tracer.is_some() {
                            self.cases.push(Case {
                                eps: problem.eps_for(density),
                                source: problem.source().expect("bend mode source"),
                                omega: problem.omega(),
                                pml: *self.solver.solver().pml(),
                            });
                        }
                        last = rec.objective;
                        ops.push(Op {
                            end: now,
                            ms: (now - open).as_secs_f64() * 1e3,
                            ok: !rec.recovered && timed.finite.get(),
                        });
                        self.op_rounds.push(round);
                        open = now;
                    });
            match result {
                Ok(_) => self.finished.push((round, last)),
                Err(OptimError::Solve(SolveFieldError::DeadlineExceeded { .. })) => {}
                Err(e) => panic!("inverse design round {round} failed: {e}"),
            }
        }
        ops
    }

    fn verify(&mut self, ops: &mut [Op], delta: &Counters) -> Result<(), String> {
        delta.check_clean()?;
        if delta.hits != 0 || delta.misses != ops.len() as u64 {
            return Err(format!(
                "invdes_bend must factorize once per iteration: {} hits, {} misses over {} iterations",
                delta.hits,
                delta.misses,
                ops.len()
            ));
        }
        if let Some(lowest) = self.finished.iter().map(|f| f.1).reduce(f64::min) {
            eprintln!(
                "invdes_bend: {} rounds finished, lowest final transmission {lowest:.4}",
                self.finished.len()
            );
        }
        for (round, last) in &self.finished {
            if last.is_nan() || *last < ROUND_FLOOR {
                eprintln!("perfbench: round {round} ended at {last:.4} < floor {ROUND_FLOOR}");
                for (op, r) in ops.iter_mut().zip(&self.op_rounds) {
                    op.ok &= r != round;
                }
            }
        }
        Ok(())
    }

    fn layers(
        &mut self,
        tracer: &Tracer,
        ops: &[Op],
        delta: &Counters,
        fill: bool,
        out: &mut Layers,
    ) {
        let gradient = tracer.mean_ms("invdes.gradient");
        let iteration = stats::mean(&ops.iter().map(|o| o.ms).collect::<Vec<_>>());
        out.put("invdes.gradient_ms", gradient);
        out.put("invdes.update_ms", iteration - gradient);
        if fill {
            return;
        }
        layers::put_cache(out, delta, ops.len());
        // Each replayed design runs through the whole gradient from a cold
        // cache and through its solver layers, in alternating order so host
        // drift does not favour either. The layers under one gradient are
        // one assembly, one factorization, and the forward and adjoint
        // substitutions.
        let problem = &self.device.problem;
        let source = problem.source().expect("bend mode source");
        let objective = problem.objective().expect("bend objective");
        for (i, c) in std::mem::take(&mut self.cases).into_iter().enumerate() {
            if i % 2 == 1 {
                layers::replay_case(tracer, &c);
            }
            maps_fdfd::factor_cache::global().clear();
            let eval = tracer.time("invdes.gradient.replay", || {
                self.solver
                    .objective_and_gradient(&c.eps, &source, c.omega, &objective)
            });
            std::hint::black_box(eval.expect("replayed gradient"));
            if i % 2 == 0 {
                layers::replay_case(tracer, &c);
            }
        }
        layers::put_exact(tracer, out);
        let solver_ms = tracer.mean_ms("fdfd.assemble")
            + tracer.mean_ms("linalg.factorize")
            + 2.0 * tracer.mean_ms("linalg.substitute");
        out.put(
            "obs.covered_share",
            solver_ms / tracer.mean_ms("invdes.gradient.replay"),
        );
    }

    fn work(&self) -> Vec<(&'static str, f64)> {
        let grid = self.device.grid();
        let (band, flops) = layers::band_work(grid.nx, grid.ny);
        vec![
            ("factorizations_per_op", 1.0),
            ("band_mb_per_factorization", band / 1e6),
            ("lu_gflop_per_factorization", flops / 1e9),
            ("substitutions_per_op", 2.0),
        ]
    }

    fn stop(self: Box<Self>) {}
}
