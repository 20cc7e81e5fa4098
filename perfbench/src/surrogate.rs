//! `surrogate_fno`: the cheap rung of the multi-fidelity ladder — an FNO
//! (`FnoConfig::default()`, f64, identity normalizer) behind the same
//! `FieldSolver` interface as the exact solver, on seeded 40×40 bend
//! designs with the bend's mode source.

use crate::layers::{self, Case, Layers};
use crate::stats::Op;
use crate::trace::{Tracer, ROOT};
use crate::{Counters, Workload};
use maps_core::{ComplexField2d, FieldSolver, RealField2d};
use maps_data::{DeviceKind, DeviceResolution};
use maps_fdfd::PmlConfig;
use maps_invdes::InitStrategy;
use maps_linalg::fft::{fft2, ifft2};
use maps_linalg::Complex64;
use maps_nn::{FnoConfig, Model};
use maps_tensor::spectral::spectral_conv_forward;
use maps_tensor::{Params, Tensor};
use maps_train::{decode_field, encode_input, FieldNormalizer, NeuralFieldSolver};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// Distinct designs the loop cycles through; each one's first answer is
/// checked against the taped forward after the phase, and every later
/// answer against that first one.
const DESIGNS: usize = 16;

/// Largest accepted relative difference between answers that must agree.
const AGREE_TOL: f64 = 1e-12;

fn rel_diff(a: &[Complex64], b: &[Complex64]) -> f64 {
    let num: f64 = a.iter().zip(b).map(|(x, y)| (*x - *y).norm_sqr()).sum();
    let den: f64 = b.iter().map(|y| y.norm_sqr()).sum();
    (num / den.max(f64::MIN_POSITIVE)).sqrt()
}

pub struct Fno {
    solver: NeuralFieldSolver<maps_nn::Fno>,
    config: FnoConfig,
    designs: Vec<RealField2d>,
    source: ComplexField2d,
    omega: f64,
    cursor: usize,
    /// First answer per design, and the design of each op of the last phase.
    first: Vec<Option<Vec<Complex64>>>,
    op_designs: Vec<usize>,
}

impl Fno {
    pub fn new(seed: u64) -> Self {
        let device = DeviceKind::Bending.build(DeviceResolution::low());
        let problem = &device.problem;
        let (nx, ny) = problem.design_size;
        let designs = (0..DESIGNS as u64)
            .map(|i| {
                let theta = InitStrategy::Random {
                    seed: seed.wrapping_mul(7919).wrapping_add(i),
                    mean: 0.5,
                    amplitude: 0.5,
                }
                .build(nx, ny);
                problem.eps_for(&theta)
            })
            .collect();
        let config = FnoConfig::default();
        let mut params = Params::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let model = maps_nn::Fno::new(&mut params, &mut rng, config);
        let fno = Fno {
            solver: NeuralFieldSolver::new(model, params, FieldNormalizer::identity()),
            config,
            designs,
            source: problem.source().expect("bend mode source"),
            omega: problem.omega(),
            cursor: 0,
            first: vec![None; DESIGNS],
            op_designs: Vec::new(),
        };
        // One untimed forward pass, so first-touch allocation is setup.
        black_box(fno.solver.solve_ez(&fno.designs[0], &fno.source, fno.omega))
            .expect("warm-up solve");
        fno
    }

    /// The taped training-path forward of `eps`, decoded like the solver.
    fn taped(&self, eps: &RealField2d) -> Vec<Complex64> {
        let model = self.solver.model();
        let input = encode_input(eps, &self.source, self.omega, model.wants_wave_prior());
        let (pred, _tape) = model
            .forward(self.solver.params(), input.trace())
            .split_tape();
        let jmax = self
            .source
            .as_slice()
            .iter()
            .map(|z| z.abs())
            .fold(0.0f64, f64::max);
        decode_field(&pred, eps.grid(), FieldNormalizer::identity())
            .as_slice()
            .iter()
            .map(|z| *z * jmax)
            .collect()
    }
}

impl Workload for Fno {
    fn window(&self) -> usize {
        14
    }

    fn run(&mut self, until: Instant, tracer: Option<&Tracer>) -> Vec<Op> {
        self.op_designs.clear();
        let mut ops = Vec::new();
        while Instant::now() < until {
            let d = self.cursor % DESIGNS;
            self.cursor += 1;
            let t0 = Instant::now();
            let answer = self
                .solver
                .solve_ez(&self.designs[d], &self.source, self.omega);
            let t1 = Instant::now();
            if let Some(t) = tracer {
                t.record(t.id(), ROOT, "train.solve_ez", t0, t1);
            }
            let ok = match answer {
                Ok(field) => {
                    let field = field.as_slice();
                    match &self.first[d] {
                        Some(first) => rel_diff(field, first) <= AGREE_TOL,
                        None => {
                            self.first[d] = Some(field.to_vec());
                            true
                        }
                    }
                }
                Err(_) => false,
            };
            ops.push(Op {
                end: t1,
                ms: (t1 - t0).as_secs_f64() * 1e3,
                ok,
            });
            self.op_designs.push(d);
        }
        ops
    }

    fn verify(&mut self, ops: &mut [Op], delta: &Counters) -> Result<(), String> {
        delta.check_clean()?;
        for d in 0..DESIGNS {
            let Some(first) = &self.first[d] else {
                continue;
            };
            if rel_diff(first, &self.taped(&self.designs[d])) > AGREE_TOL {
                for (op, od) in ops.iter_mut().zip(&self.op_designs) {
                    op.ok &= *od != d;
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
        let model = self.solver.model();
        let params = self.solver.params();
        let normalizer = self.solver.normalizer();
        // One spectral layer at the model's shape: width channels in and
        // out, 40×40, `modes` kept per axis.
        let (w, m) = (self.config.width, self.config.modes);
        let grid = self.designs[0].grid();
        let (h, wd) = (grid.ny, grid.nx);
        let mut rng = StdRng::seed_from_u64(0x5EC7);
        let mut random = |shape: &[usize]| {
            let n = shape.iter().product();
            Tensor::<f64>::from_vec(shape, (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect())
        };
        let x = random(&[1, w, h, wd]);
        let w_re = random(&[w, w, 2 * m, 2 * m]);
        let w_im = random(&[w, w, 2 * m, 2 * m]);

        // Every layer is replayed per design next to the whole operation,
        // in alternating order, so the parts and the whole see the same
        // host state.
        for (i, eps) in self.designs.iter().enumerate() {
            let whole = || {
                black_box(tracer.time("train.solve_ez.replay", || {
                    self.solver.solve_ez(eps, &self.source, self.omega)
                }))
                .expect("replayed surrogate solve");
            };
            if i % 2 == 0 {
                whole();
            }
            let input = tracer.time("train.encode", || {
                encode_input(eps, &self.source, self.omega, model.wants_wave_prior())
            });
            let pred = tracer.time("nn.infer", || model.infer(params, input));
            black_box(tracer.time("train.decode", || decode_field(&pred, grid, normalizer)));
            if i % 2 == 1 {
                whole();
            }
            black_box(tracer.time("tensor.spectral_conv", || {
                spectral_conv_forward(&x, &w_re, &w_im, m, m)
            }));
            let mut data: Vec<Complex64> = eps
                .as_slice()
                .iter()
                .map(|e| Complex64::from_re(*e))
                .collect();
            tracer.time("linalg.fft_pair", || {
                fft2(&mut data, h, wd);
                ifft2(&mut data, h, wd);
            });
            black_box(&data);
        }

        let infer = tracer.mean_ms("nn.infer");
        let spectral = tracer.mean_ms("tensor.spectral_conv");
        let encode_decode = tracer.mean_ms("train.encode") + tracer.mean_ms("train.decode");
        out.put("nn.infer_ms", infer);
        out.put("tensor.spectral_conv_ms", spectral);
        out.put("linalg.fft_pair_ms", tracer.mean_ms("linalg.fft_pair"));
        out.put("nn.other_ms", infer - self.config.depth as f64 * spectral);
        out.put("train.encode_decode_ms", encode_decode);
        if fill {
            return;
        }
        layers::put_cache(out, delta, ops.len());
        out.put(
            "obs.covered_share",
            (encode_decode + infer) / tracer.mean_ms("train.solve_ez.replay"),
        );
        // The exact rung on the same designs, for the fidelity ladder.
        let cases: Vec<Case> = self
            .designs
            .iter()
            .take(3)
            .map(|eps| Case {
                eps: eps.clone(),
                source: self.source.clone(),
                omega: self.omega,
                pml: PmlConfig::auto(grid.dl),
            })
            .collect();
        layers::replay_exact(tracer, &cases, out);
    }

    fn work(&self) -> Vec<(&'static str, f64)> {
        let grid = self.designs[0].grid();
        let c = self.config;
        // Each spectral layer transforms every input channel forward and
        // every output channel back.
        vec![
            ("spectral_calls_per_op", c.depth as f64),
            ("fft2_per_op", (c.depth * 2 * c.width) as f64),
            ("fft2_rows", grid.ny as f64),
            ("fft2_cols", grid.nx as f64),
            ("factorizations_per_op", 0.0),
        ]
    }

    fn stop(self: Box<Self>) {}
}
