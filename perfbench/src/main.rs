//! `perfbench` — the end-to-end and per-layer benchmark of the MAPS stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_hot --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Workloads (see `perfbench/README.md` for why each exists):
//!
//! - `serve_hot`: 2 closed-loop clients `POST /solve` against an in-process
//!   `mapsd`, every answer a factor-cache hit, field returned.
//! - `label_sweep`: 1 closed-loop client `POST /label`, a fresh design with
//!   4 frequencies per request, grid orientation cycling 48×96, 48×96, 96×48.
//! - `invdes_bend`: back-to-back 30-iteration adjoint rounds on the 80×80
//!   bend, each from a seeded random start, so every iteration factorizes.
//! - `surrogate_fno`: FNO surrogate solves of seeded 40×40 bend designs.
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` the run alternates untraced and traced quarters and the
//! last line carries the per-layer metrics. Every operation's output is
//! checked; a failed self-check fails the run (exit code 1).

mod invdes;
mod layers;
mod serve;
mod stats;
mod surrogate;
mod trace;

use layers::Layers;
use stats::Op;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Setups timed before the timed phase (the last one is kept and run) and
/// after it; `setup_s` is their median. Spreading the samples over the run
/// keeps one burst or lull of the host from setting the figure.
const SETUPS_BEFORE: usize = 3;
const SETUPS_AFTER: usize = 2;

/// Traced time spent on each other workload whose layers the traced
/// workload never calls, so every trace run reports every layer.
const FILL_SECONDS: f64 = 1.5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ServeHot,
    LabelSweep,
    InvdesBend,
    SurrogateFno,
}

impl Kind {
    fn parse(name: &str) -> Option<Kind> {
        Some(match name {
            "serve_hot" => Kind::ServeHot,
            "label_sweep" => Kind::LabelSweep,
            "invdes_bend" => Kind::InvdesBend,
            "surrogate_fno" => Kind::SurrogateFno,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Kind::ServeHot => "serve_hot",
            Kind::LabelSweep => "label_sweep",
            Kind::InvdesBend => "invdes_bend",
            Kind::SurrogateFno => "surrogate_fno",
        }
    }

    /// Builds the workload: generates every input from `seed`, starts what
    /// it serves from, and warms the caches it relies on.
    fn setup(self, seed: u64, seconds: f64) -> Box<dyn Workload> {
        match self {
            Kind::ServeHot => Box::new(serve::Mapsd::hot(seed)),
            Kind::LabelSweep => Box::new(serve::Mapsd::label(seed, seconds)),
            Kind::InvdesBend => Box::new(invdes::Bend::new(seed)),
            Kind::SurrogateFno => Box::new(surrogate::Fno::new(seed)),
        }
    }
}

/// Process-wide counters read before and after a timed phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub hits: u64,
    pub misses: u64,
    pub shed: u64,
    pub degraded: u64,
    pub coalesce_hits: u64,
}

impl Counters {
    pub fn read() -> Self {
        let c = |name: &str| maps_obs::counter(name).get();
        Counters {
            hits: c("fdfd.factor_cache.hit"),
            misses: c("fdfd.factor_cache.miss"),
            shed: c("mapsd.shed"),
            degraded: c("mapsd.degraded.relaxed") + c("mapsd.degraded.fallback"),
            coalesce_hits: c("mapsd.coalesce.hit"),
        }
    }

    pub fn since(self, before: Counters) -> Counters {
        Counters {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            shed: self.shed - before.shed,
            degraded: self.degraded - before.degraded,
            coalesce_hits: self.coalesce_hits - before.coalesce_hits,
        }
    }

    /// Self-check shared by every workload: nothing shed, nothing degraded.
    pub fn check_clean(&self) -> Result<(), String> {
        if self.shed > 0 || self.degraded > 0 {
            return Err(format!(
                "{} shed and {} degraded answers in the timed phase",
                self.shed, self.degraded
            ));
        }
        Ok(())
    }
}

/// One benchmark workload.
pub trait Workload {
    /// Completions per throughput window, fixed so a window lasts about a
    /// second when the benchmark was written.
    fn window(&self) -> usize;
    /// Runs the closed loop until `until`, recording spans when traced.
    fn run(&mut self, until: Instant, tracer: Option<&Tracer>) -> Vec<Op>;
    /// Output checks made after a timed phase (failing ops are marked) and
    /// the workload's self-checks on the phase's counter deltas.
    fn verify(&mut self, ops: &mut [Op], delta: &Counters) -> Result<(), String>;
    /// Per-layer metrics of the layers this workload calls, from the traced
    /// phase and from replays on its own inputs. `fill` skips the exact
    /// solver replays every workload reports for itself.
    fn layers(
        &mut self,
        tracer: &Tracer,
        ops: &[Op],
        delta: &Counters,
        fill: bool,
        out: &mut Layers,
    );
    /// Computed (not measured) work per operation.
    fn work(&self) -> Vec<(&'static str, f64)>;
    /// Stops everything the workload started and waits for it.
    fn stop(self: Box<Self>);
}

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let kind = Kind::parse(workload).ok_or_else(|| format!("unknown workload {workload}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds >= 1.0) {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Args {
        kind,
        seed,
        seconds,
        trace,
    })
}

fn timed_setup(kind: Kind, seed: u64, seconds: f64) -> (Box<dyn Workload>, f64) {
    let t0 = Instant::now();
    let w = kind.setup(seed, seconds);
    (w, t0.elapsed().as_secs_f64())
}

/// One timed phase: the ops, their counter deltas, and the self-check.
struct Phase {
    start: Instant,
    ops: Vec<Op>,
    delta: Counters,
    checked: Result<(), String>,
}

fn phase(w: &mut dyn Workload, seconds: f64, tracer: Option<&Tracer>) -> Phase {
    let before = Counters::read();
    let start = Instant::now();
    let mut ops = w.run(start + Duration::from_secs_f64(seconds), tracer);
    let delta = Counters::read().since(before);
    let checked = if ops.is_empty() {
        Err("no operation completed".to_string())
    } else {
        w.verify(&mut ops, &delta)
    };
    Phase {
        start,
        ops,
        delta,
        checked,
    }
}

/// Peak resident set (VmHWM) of this process, MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The machine the numbers were measured on.
fn machine() -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpus_online = std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0);
    format!(
        "{{\"nproc\":{cores},\"cpus_online\":{cpus_online},\"mapsd_workers\":{},\
         \"rayon_workers\":{cores},\"profile\":\"{}\",\"rustflags\":\"{}\",\
         \"fma\":{},\"avx2\":{},\"avx512f\":{}}}",
        maps_mapsd::DaemonConfig::default().workers,
        env!("PERFBENCH_PROFILE"),
        env!("PERFBENCH_RUSTFLAGS"),
        cfg!(target_feature = "fma"),
        cfg!(target_feature = "avx2"),
        cfg!(target_feature = "avx512f"),
    )
}

fn json_metrics(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <serve_hot|label_sweep|invdes_bend|surrogate_fno> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let (mut w, mut setup_times) = {
        let (w, t) = timed_setup(args.kind, args.seed, args.seconds);
        (w, vec![t])
    };

    let mut tracers = Vec::new();
    let (phases, metrics) = if args.trace {
        // Untraced and traced quarters alternate, so host drift does not
        // pass for tracing overhead; layer figures come from the last
        // traced quarter.
        let quarter = args.seconds / 4.0;
        let mut plain = vec![phase(w.as_mut(), quarter, None)];
        let first = Tracer::new();
        let mut traced = vec![phase(w.as_mut(), quarter, Some(&first))];
        plain.push(phase(w.as_mut(), quarter, None));
        let tracer = Tracer::new();
        traced.push(phase(w.as_mut(), quarter, Some(&tracer)));
        let last = traced.last().expect("traced quarter");
        let mut layers = Layers::default();
        w.layers(&tracer, &last.ops, &last.delta, false, &mut layers);
        let op_ms = |ps: &[Phase]| {
            let ms: Vec<f64> = ps.iter().flat_map(|p| p.ops.iter().map(|o| o.ms)).collect();
            stats::median(&ms)
        };
        layers.put("obs.trace_overhead_ratio", op_ms(&traced) / op_ms(&plain));
        let work = w.work();
        w.stop();
        tracers.extend([first, tracer]);
        let mut phases: Vec<Phase> = plain.into_iter().chain(traced).collect();
        // Layers this workload never calls are measured on the workload
        // that does, from the same seed.
        for home in layers.missing_homes() {
            let t = Tracer::new();
            let mut h = home.setup(args.seed, FILL_SECONDS);
            let p = phase(h.as_mut(), FILL_SECONDS, Some(&t));
            h.layers(&t, &p.ops, &p.delta, true, &mut layers);
            h.stop();
            tracers.push(t);
            phases.push(p);
        }
        println!(
            "{{\"workload\": \"{}\", \"work_computed\": {}}}",
            args.kind.name(),
            work_json(&work)
        );
        (phases, layers.metrics())
    } else {
        for _ in 1..SETUPS_BEFORE {
            w.stop();
            let (next, t) = timed_setup(args.kind, args.seed, args.seconds);
            w = next;
            setup_times.push(t);
        }
        let p = phase(w.as_mut(), args.seconds, None);
        let peak_rss = peak_rss_mb();
        let ms: Vec<f64> = p.ops.iter().map(|o| o.ms).collect();
        let rates = stats::window_rates(p.start, &p.ops, w.window());
        let attempted = p.ops.len();
        let ok = p.ops.iter().filter(|o| o.ok).count();
        if rates.is_empty() {
            eprintln!("perfbench: fewer than one throughput window completed");
            return ExitCode::FAILURE;
        }
        // Ungated statistics, printed so their spread can be compared with
        // the gated p90 latency and p10 window rate.
        println!(
            "{{\"workload\": \"{}\", \"samples\": {attempted}, \"windows\": {}, \
             \"latency_p25_ms\": {}, \"latency_p50_ms\": {}, \"throughput_mean_per_s\": {}, \
             \"throughput_p50_per_s\": {}, \"throughput_p75_per_s\": {}, \"work_computed\": {}}}",
            args.kind.name(),
            rates.len(),
            stats::quantile(&ms, 0.25),
            stats::median(&ms),
            attempted as f64
                / (p.ops.iter().map(|o| o.end).max().expect("ops") - p.start).as_secs_f64(),
            stats::median(&rates),
            stats::quantile(&rates, 0.75),
            work_json(&w.work()),
        );
        w.stop();
        for _ in 0..SETUPS_AFTER {
            let (other, t) = timed_setup(args.kind, args.seed, args.seconds);
            other.stop();
            setup_times.push(t);
        }
        let metrics = vec![
            ("setup_s", stats::median(&setup_times), "s"),
            ("throughput_p10_per_s", stats::quantile(&rates, 0.1), "1/s"),
            ("latency_p90_ms", stats::quantile(&ms, 0.9), "ms"),
            ("success_ratio", ok as f64 / attempted as f64, "ratio"),
            ("peak_rss_mb", peak_rss, "MB"),
        ];
        (vec![p], metrics)
    };

    // Spans of the traced phase, then of each fill, one file each.
    for (i, t) in tracers.iter().enumerate() {
        let path = PathBuf::from(".perfbench").join(format!(
            "{}-seed{}-spans{i}.jsonl",
            args.kind.name(),
            args.seed
        ));
        if let Err(e) = t.write_jsonl(&path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
    }

    println!("{{\"machine\": {}}}", machine());
    let attempted: usize = phases.iter().map(|p| p.ops.len()).sum();
    let failed: usize = phases
        .iter()
        .map(|p| p.ops.iter().filter(|o| !o.ok).count())
        .sum();
    let mut correct = failed == 0;
    for p in &phases {
        if let Err(e) = &p.checked {
            eprintln!("perfbench: self-check failed: {e}");
            correct = false;
        }
    }
    if let Some((name, v, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        eprintln!("perfbench: metric {name} is {v}");
        return ExitCode::FAILURE;
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_metrics(&metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn work_json(work: &[(&str, f64)]) -> String {
    let body: Vec<String> = work.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!("{{{}}}", body.join(", "))
}
