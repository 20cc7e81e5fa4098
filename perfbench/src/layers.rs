//! Per-layer metrics: the names the traced run reports, and the exact
//! solver replays every workload runs on its own inputs.
//!
//! Layers are named after the crates. Each value is a per-operation mean.
//! Replays call one public function of a layer at a time, single-threaded,
//! on the workload's own designs.

use crate::trace::Tracer;
use crate::Kind;
use maps_core::{ComplexField2d, FieldSolver, RealField2d};
use maps_fdfd::{FdfdSolver, HelmholtzOperator, PmlConfig};
use std::collections::BTreeMap;
use std::hint::black_box;

/// Every per-layer metric, its unit, and the workload whose layers produce
/// it when the traced workload does not call that layer.
pub const PER_LAYER: &[(&str, &str, Kind)] = &[
    ("mapsd.server_ms", "ms", Kind::ServeHot),
    ("mapsd.queue_ms", "ms", Kind::ServeHot),
    ("mapsd.unattributed_ms", "ms", Kind::ServeHot),
    ("mapsd.parse_ms", "ms", Kind::ServeHot),
    ("mapsd.render_ms", "ms", Kind::ServeHot),
    ("mapsd.shed_ratio", "ratio", Kind::ServeHot),
    ("mapsd.degraded_ratio", "ratio", Kind::ServeHot),
    ("mapsd.coalesce_hit_ratio", "ratio", Kind::ServeHot),
    ("fdfd.factor_cache.hit_ratio", "ratio", Kind::ServeHot),
    ("fdfd.factorizations_per_op", "count", Kind::ServeHot),
    ("fdfd.assemble_ms", "ms", Kind::ServeHot),
    ("fdfd.solve_warm_ms", "ms", Kind::ServeHot),
    ("linalg.factorize_ms", "ms", Kind::ServeHot),
    ("linalg.substitute_ms", "ms", Kind::ServeHot),
    ("linalg.fft_pair_ms", "ms", Kind::SurrogateFno),
    ("tensor.spectral_conv_ms", "ms", Kind::SurrogateFno),
    ("nn.infer_ms", "ms", Kind::SurrogateFno),
    ("nn.other_ms", "ms", Kind::SurrogateFno),
    ("train.encode_decode_ms", "ms", Kind::SurrogateFno),
    ("invdes.gradient_ms", "ms", Kind::InvdesBend),
    ("invdes.update_ms", "ms", Kind::InvdesBend),
    ("obs.trace_overhead_ratio", "ratio", Kind::ServeHot),
    ("obs.covered_share", "ratio", Kind::ServeHot),
];

/// Collected per-layer values; the first value put under a name wins, so
/// the traced workload's own figures are never overwritten by a fill.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn put(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.0.entry(name).or_insert(value);
    }

    /// Workloads whose layers are still missing, each listed once.
    pub fn missing_homes(&self) -> Vec<Kind> {
        let mut homes = Vec::new();
        for (name, _, home) in PER_LAYER {
            if !self.0.contains_key(name) && !homes.contains(home) {
                homes.push(*home);
            }
        }
        homes
    }

    /// Every per-layer metric with its unit, in declaration order.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        PER_LAYER
            .iter()
            .map(|(name, unit, _)| {
                let v = *self
                    .0
                    .get(name)
                    .unwrap_or_else(|| panic!("per-layer metric {name} was not measured"));
                (*name, v, *unit)
            })
            .collect()
    }
}

/// One exact-solver input drawn from a workload.
pub struct Case {
    pub eps: RealField2d,
    pub source: ComplexField2d,
    pub omega: f64,
    pub pml: PmlConfig,
}

/// Warm solves and substitutions timed per case: each is a few
/// milliseconds, so several samples steady the mean.
const WARM_REPS: usize = 5;

/// Replays assembly, factorization, substitution and the warm cached solve
/// on `cases`, and puts their per-call means.
pub fn replay_exact(tracer: &Tracer, cases: &[Case], out: &mut Layers) {
    for c in cases {
        replay_case(tracer, c);
    }
    put_exact(tracer, out);
}

/// Records the exact solver layers' spans for one case.
pub fn replay_case(tracer: &Tracer, c: &Case) {
    let a = tracer.time("fdfd.assemble", || {
        HelmholtzOperator::new(&c.eps, c.omega, &c.pml).to_banded()
    });
    let lu = tracer
        .time("linalg.factorize", || a.factorize())
        .expect("replayed factorization");
    let b = FdfdSolver::rhs(&c.source, c.omega);
    for _ in 0..WARM_REPS {
        black_box(tracer.time("linalg.substitute", || lu.solve(&b)));
    }
    let solver = FdfdSolver::with_pml(c.pml);
    solver
        .solve_ez(&c.eps, &c.source, c.omega)
        .expect("warming solve");
    for _ in 0..WARM_REPS {
        let x = tracer.time("fdfd.solve_warm", || {
            solver.solve_ez(&c.eps, &c.source, c.omega)
        });
        black_box(x.expect("warm solve"));
    }
}

/// Puts the per-call means of the spans [`replay_case`] recorded.
pub fn put_exact(tracer: &Tracer, out: &mut Layers) {
    out.put("fdfd.assemble_ms", tracer.mean_ms("fdfd.assemble"));
    out.put("linalg.factorize_ms", tracer.mean_ms("linalg.factorize"));
    out.put("linalg.substitute_ms", tracer.mean_ms("linalg.substitute"));
    out.put("fdfd.solve_warm_ms", tracer.mean_ms("fdfd.solve_warm"));
}

/// Factor-cache figures of a timed phase of `ops` operations.
pub fn put_cache(out: &mut Layers, delta: &crate::Counters, ops: usize) {
    let lookups = delta.hits + delta.misses;
    out.put(
        "fdfd.factor_cache.hit_ratio",
        if lookups == 0 {
            0.0
        } else {
            delta.hits as f64 / lookups as f64
        },
    );
    out.put(
        "fdfd.factorizations_per_op",
        delta.misses as f64 / ops as f64,
    );
}

/// Computed band storage (bytes) and LU flop estimate of one factorization
/// of an `nx × ny` grid, unknowns ordered along x (bandwidth `nx`).
pub fn band_work(nx: usize, ny: usize) -> (f64, f64) {
    let n = (nx * ny) as f64;
    let bw = nx as f64;
    // LAPACK band storage keeps 2·kl + ku + 1 = 3·bw + 1 diagonals of
    // 16-byte complex values; each of n pivots updates a bw × 2·bw block
    // with complex multiply-adds (8 real flops each).
    ((3.0 * bw + 1.0) * n * 16.0, 8.0 * n * bw * 2.0 * bw)
}
