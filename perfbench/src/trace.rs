//! In-memory spans recorded by the benchmark around its calls into each
//! layer. Nothing inside the program is instrumented: a span covers one
//! public call made from this crate. Spans stay in memory and are written
//! out as JSON lines when the run ends.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Parent id of a span that has none.
pub const ROOT: u64 = 0;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

pub struct Tracer {
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            next: AtomicU64::new(ROOT + 1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Reserves an id, so children can name a parent that closes after them.
    pub fn id(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a closed span under a reserved id.
    pub fn record(&self, id: u64, parent: u64, name: &'static str, start: Instant, end: Instant) {
        self.spans.lock().expect("span buffer").push(Span {
            id,
            parent,
            name,
            start,
            end,
        });
    }

    /// Times `f` as a fresh root span and returns its result.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(self.id(), ROOT, name, start, Instant::now());
        out
    }

    /// Mean duration (ms) of the spans called `name`.
    pub fn mean_ms(&self, name: &str) -> f64 {
        let d: Vec<f64> = self
            .spans
            .lock()
            .expect("span buffer")
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect();
        assert!(!d.is_empty(), "no spans named {name}");
        crate::stats::mean(&d)
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut spans = self.spans.lock().expect("span buffer").clone();
        spans.sort_by_key(|s| s.start);
        for s in &spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1}}}",
                s.id,
                s.parent,
                s.name,
                (s.start - self.epoch).as_secs_f64() * 1e6,
                (s.end - self.epoch).as_secs_f64() * 1e6,
            )?;
        }
        out.flush()
    }
}
