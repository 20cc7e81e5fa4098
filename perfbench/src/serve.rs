//! The two `mapsd` workloads: `serve_hot` (`POST /solve`, warm cache,
//! field returned) and `label_sweep` (`POST /label`, fresh designs).
//!
//! Both run closed loops against an in-process daemon started with the
//! shipped defaults on an ephemeral port. Every input body is generated
//! from the seed before the timed phase.

use crate::layers::{self, Case, Layers};
use crate::stats::{self, Op};
use crate::trace::{Tracer, ROOT};
use crate::{Counters, Workload};
use maps_core::{ComplexField2d, Grid2d, RealField2d};
use maps_data::{DeviceKind, DeviceResolution};
use maps_fdfd::{FdfdSolver, PmlConfig};
use maps_invdes::{InitStrategy, Patch};
use maps_linalg::Complex64;
use maps_mapsd::{
    http_post, parse_envelope, render_job_result, serve, Daemon, DaemonConfig, JobKind, JobResult,
    SolveResult, Timings,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Value;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Largest accepted relative residual ‖Ax − b‖/‖b‖ of a returned field.
/// The banded LU lands near 1e-13 on these grids.
const RESIDUAL_TOL: f64 = 1e-8;

/// Designs `serve_hot` draws from; the factor cache holds 4.
const HOT_DESIGNS: usize = 3;

/// Frequencies per `/label` request.
const LABEL_K: usize = 4;

/// `/label` grid orientations (nx, ny), cycled in this order: the same
/// cell count both ways, bandwidth nx.
const LABEL_SHAPES: [(usize, usize); 3] = [(48, 96), (48, 96), (96, 48)];

/// Label designs generated per second of run time, above the parent
/// commit's ~7 requests/s. A faster program wraps around the pool; a
/// design's factors are evicted long before it comes round again.
const LABEL_POOL_PER_S: f64 = 8.0;

/// Label requests re-checked with the field returned after a phase.
const LABEL_RECHECKS: usize = 3;

/// Answers per client kept from a traced phase for the renderer replay.
const RENDER_REPLAYS: usize = 32;

/// One request input: a design, its sparse source, and its frequencies.
struct Design {
    eps: RealField2d,
    source: ComplexField2d,
    omegas: Vec<f64>,
}

impl Design {
    fn body(&self, return_field: bool) -> String {
        let grid = self.eps.grid();
        let mut s = String::with_capacity(24 * grid.len() + 256);
        s.push_str(&format!(
            "{{\"nx\":{},\"ny\":{},\"dx\":{},\"return_field\":{return_field},\"eps\":[",
            grid.nx, grid.ny, grid.dl
        ));
        for (i, v) in self.eps.as_slice().iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&v.to_string());
        }
        s.push_str("],\"source\":[");
        let mut first = true;
        for iy in 0..grid.ny {
            for ix in 0..grid.nx {
                let j = self.source.get(ix, iy);
                if j != Complex64::ZERO {
                    if !first {
                        s.push(',');
                    }
                    first = false;
                    s.push_str(&format!("[{ix},{iy},{},{}]", j.re, j.im));
                }
            }
        }
        s.push(']');
        if let [omega] = self.omegas[..] {
            s.push_str(&format!(",\"omega\":{omega}}}"));
        } else {
            let w: Vec<String> = self.omegas.iter().map(f64::to_string).collect();
            s.push_str(&format!(",\"omegas\":[{}]}}", w.join(",")));
        }
        s
    }

    /// Relative residual of a returned field (re/im interleaved) at `omega`
    /// against the operator the daemon solves with.
    fn residual(&self, omega: f64, field: &[f64]) -> f64 {
        let grid = self.eps.grid();
        if field.len() != 2 * grid.len() {
            return f64::INFINITY;
        }
        let ez = ComplexField2d::from_vec(
            grid,
            field
                .chunks_exact(2)
                .map(|p| Complex64::new(p[0], p[1]))
                .collect(),
        );
        FdfdSolver::new().residual(&self.eps, &self.source, omega, &ez)
    }

    fn case(&self) -> Case {
        Case {
            eps: self.eps.clone(),
            source: self.source.clone(),
            omega: self.omegas[0],
            pml: PmlConfig::default(),
        }
    }
}

/// The parts of a response the checks and layer metrics use.
struct Reply {
    status: u16,
    ok: Vec<bool>,
    norms: Vec<f64>,
    fields: Vec<Vec<f64>>,
    direct: bool,
    timings: Timings,
    queue_ms: f64,
}

fn num(v: &Value, name: &str) -> Option<f64> {
    v.field(name).ok()?.as_f64().ok()
}

fn parse_reply(status: u16, body: &str) -> Option<Reply> {
    let root: Value = serde_json::from_str(body).ok()?;
    let t = root.field("timings").ok()?;
    let mut reply = Reply {
        status,
        ok: Vec::new(),
        norms: Vec::new(),
        fields: Vec::new(),
        direct: true,
        timings: Timings {
            queue_us: num(t, "queue_us")?,
            factorize_us: num(t, "factorize_us")?,
            solve_us: num(t, "solve_us")?,
            total_us: num(t, "total_us")?,
        },
        queue_ms: num(&root, "queue_ms")?,
    };
    for r in root.field("results").ok()?.as_arr().ok()? {
        reply.ok.push(r.field("ok").ok()?.as_bool().ok()?);
        reply.norms.push(num(r, "field_norm").unwrap_or(f64::NAN));
        reply.direct &= r.field("fidelity").ok().and_then(|f| f.as_str().ok()) == Some("direct");
        if let Ok(f) = r.field("field") {
            let values: Option<Vec<f64>> =
                f.as_arr().ok()?.iter().map(|x| x.as_f64().ok()).collect();
            reply.fields.push(values?);
        }
    }
    Some(reply)
}

/// What one timed request left behind for later checks and layer metrics.
struct Record {
    design: usize,
    norms: Vec<f64>,
    timings: Timings,
    response_bytes: usize,
    /// The parsed answer, kept for the first few requests of a traced
    /// phase and replayed through the renderer.
    reply: Option<JobResult>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Hot,
    Label,
}

pub struct Mapsd {
    mode: Mode,
    seed: u64,
    daemon: Option<Daemon>,
    addr: String,
    designs: Vec<Design>,
    bodies: Vec<String>,
    /// Design index of each `/solve` request, in the order they are sent.
    order: Vec<usize>,
    cursor: usize,
    records: Vec<Record>,
}

fn start_daemon() -> (Daemon, String) {
    let daemon = serve(DaemonConfig {
        addr: "127.0.0.1:0".to_string(),
        ..DaemonConfig::default()
    })
    .expect("start mapsd");
    let addr = daemon.local_addr().to_string();
    (daemon, addr)
}

/// A random 80×80 bend design with the bend's mode source and frequency.
fn bend_design(problem: &maps_invdes::DesignProblem, source: &ComplexField2d, seed: u64) -> Design {
    let (nx, ny) = problem.design_size;
    let theta: Patch = InitStrategy::Random {
        seed,
        mean: 0.5,
        amplitude: 0.5,
    }
    .build(nx, ny);
    Design {
        eps: problem.eps_for(&theta),
        source: source.clone(),
        omegas: vec![problem.omega()],
    }
}

/// A fresh gray design on one of the label grids, a point source at a
/// seeded interior cell, and `LABEL_K` distinct seeded frequencies.
fn label_design(seed: u64, index: usize) -> Design {
    let mut rng = StdRng::seed_from_u64(seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let (nx, ny) = LABEL_SHAPES[index % LABEL_SHAPES.len()];
    let grid = Grid2d::new(nx, ny, 0.05);
    let eps = RealField2d::from_vec(
        grid,
        (0..grid.len())
            .map(|_| rng.gen_range(2.085..12.11))
            .collect(),
    );
    let margin = PmlConfig::default().thickness + 2;
    let mut source = ComplexField2d::zeros(grid);
    source.set(
        rng.gen_range(margin..nx - margin),
        rng.gen_range(margin..ny - margin),
        Complex64::ONE,
    );
    let omegas = (0..LABEL_K)
        .map(|_| maps_core::omega_for_wavelength(rng.gen_range(1.50..1.60)))
        .collect();
    Design {
        eps,
        source,
        omegas,
    }
}

impl Mapsd {
    pub fn hot(seed: u64) -> Self {
        maps_fdfd::factor_cache::global().clear();
        let device = DeviceKind::Bending.build(DeviceResolution::high());
        let problem = &device.problem;
        let source = problem.source().expect("bend mode source");
        let designs: Vec<Design> = (0..HOT_DESIGNS as u64)
            .map(|i| bend_design(problem, &source, seed.wrapping_mul(31).wrapping_add(i)))
            .collect();
        let bodies: Vec<String> = designs.iter().map(|d| d.body(true)).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let order = (0..1 << 16)
            .map(|_| rng.gen_range(0..HOT_DESIGNS))
            .collect();
        let (daemon, addr) = start_daemon();
        // Warm the factor cache with every design the loop draws from.
        for body in &bodies {
            let (status, _) = http_post(&addr, "/solve", body).expect("warm-up request");
            assert_eq!(status, 200, "warm-up request refused");
        }
        Mapsd {
            mode: Mode::Hot,
            seed,
            daemon: Some(daemon),
            addr,
            designs,
            bodies,
            order,
            cursor: 0,
            records: Vec::new(),
        }
    }

    pub fn label(seed: u64, seconds: f64) -> Self {
        maps_fdfd::factor_cache::global().clear();
        let pool = ((seconds * LABEL_POOL_PER_S) as usize).div_ceil(3) * 3;
        let designs: Vec<Design> = (0..pool).map(|i| label_design(seed, i)).collect();
        let bodies = designs.iter().map(|d| d.body(false)).collect();
        let (daemon, addr) = start_daemon();
        Mapsd {
            mode: Mode::Label,
            seed,
            daemon: Some(daemon),
            addr,
            designs,
            bodies,
            order: Vec::new(),
            cursor: 0,
            records: Vec::new(),
        }
    }

    fn path(&self) -> &'static str {
        match self.mode {
            Mode::Hot => "/solve",
            Mode::Label => "/label",
        }
    }

    fn coalesce(&self) -> Option<&'static str> {
        match self.mode {
            Mode::Hot => Some("hit"),
            Mode::Label => None,
        }
    }

    fn clients(&self) -> usize {
        match self.mode {
            Mode::Hot => 2,
            Mode::Label => 1,
        }
    }

    /// Checks one answer; the hot path checks every returned field here.
    fn answer_ok(&self, design: &Design, reply: &Reply) -> bool {
        let expected = design.omegas.len();
        if reply.status != 200 || !reply.direct || reply.ok.len() != expected {
            return false;
        }
        if !reply.ok.iter().all(|ok| *ok) || !reply.norms.iter().all(|n| n.is_finite()) {
            return false;
        }
        match self.mode {
            Mode::Hot => {
                reply.fields.len() == expected
                    && design
                        .omegas
                        .iter()
                        .zip(&reply.fields)
                        .all(|(w, f)| design.residual(*w, f) <= RESIDUAL_TOL)
            }
            Mode::Label => true,
        }
    }
}

/// Rebuilds the daemon's result from a parsed answer, for the renderer
/// replay: same status, timings, norms and fields. `/solve` answers report
/// a cache hit; `/label` answers ride the batch plane, which reports none.
fn job_result(reply: &Reply, coalesce: Option<&'static str>) -> JobResult {
    JobResult {
        id: None,
        status: reply.status,
        queue_ms: reply.queue_ms,
        results: reply
            .norms
            .iter()
            .enumerate()
            .map(|(i, n)| SolveResult {
                field_norm: Some(*n),
                field: reply.fields.get(i).cloned(),
                fidelity: Some("direct"),
                served_by: Some("fdfd-direct".to_string()),
                coalesce,
                factorize_ms: 0.0,
                solve_ms: reply.timings.solve_us / 1e3,
                error_kind: None,
                error: None,
            })
            .collect(),
        error: None,
        trace_id: Some("0123456789abcdef0123456789abcdef".to_string()),
        timings: reply.timings,
        retries: 0,
    }
}

impl Workload for Mapsd {
    fn window(&self) -> usize {
        match self.mode {
            Mode::Hot => 90,
            Mode::Label => 6,
        }
    }

    fn run(&mut self, until: Instant, tracer: Option<&Tracer>) -> Vec<Op> {
        self.records.clear();
        let next = AtomicUsize::new(self.cursor);
        let out = Mutex::new((Vec::new(), Vec::new()));
        let this = &*self;
        std::thread::scope(|s| {
            for _ in 0..this.clients() {
                s.spawn(|| {
                    let mut local: (Vec<Op>, Vec<Record>) = (Vec::new(), Vec::new());
                    while Instant::now() < until {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let d = match this.mode {
                            Mode::Hot => this.order[i % this.order.len()],
                            Mode::Label => i % this.designs.len(),
                        };
                        let id = tracer.map(Tracer::id);
                        let t0 = Instant::now();
                        let answered = http_post(&this.addr, this.path(), &this.bodies[d]);
                        let t1 = Instant::now();
                        if let (Some(t), Some(id)) = (tracer, id) {
                            t.record(id, ROOT, "mapsd.request", t0, t1);
                        }
                        let response_bytes = answered.as_ref().map_or(0, |(_, b)| b.len());
                        let reply = answered.ok().and_then(|(st, b)| parse_reply(st, &b));
                        let ok = reply
                            .as_ref()
                            .is_some_and(|r| this.answer_ok(&this.designs[d], r));
                        // Keep a few parsed answers for the renderer replay.
                        let keep = tracer.is_some() && local.1.len() < RENDER_REPLAYS;
                        local.0.push(Op {
                            end: t1,
                            ms: (t1 - t0).as_secs_f64() * 1e3,
                            ok,
                        });
                        local.1.push(Record {
                            design: d,
                            norms: reply.as_ref().map(|r| r.norms.clone()).unwrap_or_default(),
                            timings: reply.as_ref().map(|r| r.timings).unwrap_or_default(),
                            response_bytes,
                            reply: reply
                                .as_ref()
                                .filter(|_| keep)
                                .map(|r| job_result(r, this.coalesce())),
                        });
                    }
                    let mut all = out.lock().expect("client results");
                    all.0.extend(local.0);
                    all.1.extend(local.1);
                });
            }
        });
        self.cursor = next.into_inner();
        let (ops, records) = out.into_inner().expect("client results");
        self.records = records;
        ops
    }

    fn verify(&mut self, ops: &mut [Op], delta: &Counters) -> Result<(), String> {
        delta.check_clean()?;
        match self.mode {
            Mode::Hot => {
                if delta.misses != 0 || delta.hits < ops.len() as u64 {
                    return Err(format!(
                        "serve_hot must be all factor-cache hits: {} hits, {} misses over {} requests",
                        delta.hits,
                        delta.misses,
                        ops.len()
                    ));
                }
            }
            Mode::Label => {
                if delta.hits != 0 {
                    return Err(format!(
                        "label_sweep must never hit the factor cache: {} hits",
                        delta.hits
                    ));
                }
                // Re-solve a seeded sample with the field returned: every
                // frequency must meet the residual bound and reproduce the
                // norm the timed answer reported.
                let mut rng = StdRng::seed_from_u64(self.seed ^ self.cursor as u64);
                for _ in 0..LABEL_RECHECKS.min(ops.len()) {
                    let k = rng.gen_range(0..ops.len());
                    let rec = &self.records[k];
                    let design = &self.designs[rec.design];
                    let reply = http_post(&self.addr, "/label", &design.body(true))
                        .ok()
                        .and_then(|(st, b)| parse_reply(st, &b));
                    let ok = reply.is_some_and(|r| {
                        r.status == 200
                            && r.fields.len() == design.omegas.len()
                            && rec.norms.len() == design.omegas.len()
                            && design.omegas.iter().enumerate().all(|(j, w)| {
                                design.residual(*w, &r.fields[j]) <= RESIDUAL_TOL
                                    && (r.norms[j] - rec.norms[j]).abs() <= 1e-9 * rec.norms[j]
                            })
                    });
                    ops[k].ok &= ok;
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
        let n = ops.len() as f64;
        let server: Vec<f64> = self
            .records
            .iter()
            .map(|r| r.timings.total_us / 1e3)
            .collect();
        let queue: Vec<f64> = self
            .records
            .iter()
            .map(|r| r.timings.queue_us / 1e3)
            .collect();
        let latency: Vec<f64> = ops.iter().map(|o| o.ms).collect();
        let unattributed: Vec<f64> = latency.iter().zip(&server).map(|(c, s)| c - s).collect();
        out.put("mapsd.server_ms", stats::mean(&server));
        out.put("mapsd.queue_ms", stats::mean(&queue));
        out.put("mapsd.unattributed_ms", stats::mean(&unattributed));
        out.put("mapsd.shed_ratio", delta.shed as f64 / n);
        out.put("mapsd.degraded_ratio", delta.degraded as f64 / n);
        out.put("mapsd.coalesce_hit_ratio", delta.coalesce_hits as f64 / n);
        layers::put_cache(out, delta, ops.len());

        // Replay the daemon's parser and renderer on this phase's own
        // bodies and answers, in request order.
        let path = self.path();
        let job = match self.mode {
            Mode::Hot => JobKind::Solve,
            Mode::Label => JobKind::Label,
        };
        for rec in self.records.iter().take(2 * RENDER_REPLAYS) {
            let body = &self.bodies[rec.design];
            let env = tracer.time("mapsd.parse", || parse_envelope(job, body));
            assert!(env.is_ok(), "replayed {path} body must parse");
            if let Some(result) = &rec.reply {
                std::hint::black_box(tracer.time("mapsd.render", || render_job_result(result)));
            }
        }
        let parse = tracer.mean_ms("mapsd.parse");
        let render = tracer.mean_ms("mapsd.render");
        out.put("mapsd.parse_ms", parse);
        out.put("mapsd.render_ms", render);
        if fill {
            return;
        }
        out.put(
            "obs.covered_share",
            (parse + stats::mean(&server) + render) / stats::mean(&latency),
        );
        let cases: Vec<Case> = match self.mode {
            Mode::Hot => self.designs.iter().map(Design::case).collect(),
            Mode::Label => self
                .designs
                .iter()
                .take(LABEL_SHAPES.len())
                .map(Design::case)
                .collect(),
        };
        layers::replay_exact(tracer, &cases, out);
    }

    fn work(&self) -> Vec<(&'static str, f64)> {
        let shapes: Vec<(usize, usize)> = match self.mode {
            Mode::Hot => vec![(80, 80)],
            Mode::Label => LABEL_SHAPES.to_vec(),
        };
        let per_factorization: Vec<(f64, f64)> = shapes
            .iter()
            .map(|(nx, ny)| layers::band_work(*nx, *ny))
            .collect();
        let bodies: Vec<f64> = self.bodies.iter().map(|b| b.len() as f64).collect();
        let responses: Vec<f64> = self
            .records
            .iter()
            .map(|r| r.response_bytes as f64)
            .collect();
        // Steady state serves every /solve from the cache; every /label
        // frequency is a fresh factorization.
        let factorizations = match self.mode {
            Mode::Hot => 0.0,
            Mode::Label => LABEL_K as f64,
        };
        vec![
            ("factorizations_per_op", factorizations),
            (
                "band_mb_per_factorization",
                stats::mean(
                    &per_factorization
                        .iter()
                        .map(|w| w.0 / 1e6)
                        .collect::<Vec<_>>(),
                ),
            ),
            (
                "lu_gflop_per_factorization",
                stats::mean(
                    &per_factorization
                        .iter()
                        .map(|w| w.1 / 1e9)
                        .collect::<Vec<_>>(),
                ),
            ),
            ("request_kb", stats::mean(&bodies) / 1e3),
            ("response_kb", stats::mean(&responses) / 1e3),
        ]
    }

    fn stop(mut self: Box<Self>) {
        if let Some(d) = self.daemon.take() {
            d.stop();
        }
    }
}
