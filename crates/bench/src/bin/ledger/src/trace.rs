//! Spans recorded from the benchmark's side of each layer boundary, and the
//! density adapter that times the model's forward passes.
//!
//! Spans live in memory until the run ends; the harness writes them out
//! afterwards. Each has a name, start, end, parent span and request id.
//! Counters at the same boundary (forward calls, rows) are kept for every
//! call, even after the span buffer is full.

use std::io::{BufWriter, Write as _};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use naru_core::{ConditionalDensity, Engine, InferenceScratch};
use naru_tensor::Matrix;

/// Spans kept per run; later spans are counted as dropped.
const SPAN_CAPACITY: usize = 200_000;
const NONE: u64 = u64::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    id: u64,
    name: &'static str,
    start: Instant,
    end: Instant,
    parent: u64,
    request: u64,
}

/// Forward-pass counters, cumulative over the tracer's life.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ModelCounts {
    pub calls: u64,
    pub rows: u64,
    pub forward_ns: u64,
    /// Multiply-add FLOPs of those passes, computed from the shapes.
    pub flops: u64,
}

impl ModelCounts {
    pub fn since(self, earlier: ModelCounts) -> ModelCounts {
        ModelCounts {
            calls: self.calls - earlier.calls,
            rows: self.rows - earlier.rows,
            forward_ns: self.forward_ns - earlier.forward_ns,
            flops: self.flops - earlier.flops,
        }
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    dropped: AtomicU64,
    next_id: AtomicU64,
    /// Request and parent span that forward passes on the calling thread
    /// belong to; `NONE` where the caller cannot know (worker threads).
    current_request: AtomicU64,
    current_parent: AtomicU64,
    calls: AtomicU64,
    rows: AtomicU64,
    forward_ns: AtomicU64,
    flops: AtomicU64,
}

impl Tracer {
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(SPAN_CAPACITY)),
            dropped: AtomicU64::new(0),
            next_id: AtomicU64::new(0),
            current_request: AtomicU64::new(NONE),
            current_parent: AtomicU64::new(NONE),
            calls: AtomicU64::new(0),
            rows: AtomicU64::new(0),
            forward_ns: AtomicU64::new(0),
            flops: AtomicU64::new(0),
        })
    }

    /// Reserves a span id, so children can name a parent that ends later.
    pub fn reserve(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a span under a reserved `id`.
    pub fn record(
        &self,
        id: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u64>,
        request: Option<u64>,
    ) {
        let span = Span { id, name, start, end, parent: parent.unwrap_or(NONE), request: request.unwrap_or(NONE) };
        let mut spans = self.spans.lock().expect("span buffer lock poisoned by a panicking recorder");
        if spans.len() < SPAN_CAPACITY {
            spans.push(span);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a child span with a fresh id.
    pub fn child(&self, name: &'static str, start: Instant, end: Instant, parent: u64, request: u64) {
        self.record(self.reserve(), name, start, end, Some(parent), Some(request));
    }

    /// Attributes forward passes on the calling thread to a request.
    pub fn enter(&self, request: u64, parent: u64) {
        self.current_request.store(request, Ordering::Relaxed);
        self.current_parent.store(parent, Ordering::Relaxed);
    }

    pub fn leave(&self) {
        self.enter(NONE, NONE);
    }

    fn forward(&self, start: Instant, end: Instant, rows: u64, flops: u64) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.rows.fetch_add(rows, Ordering::Relaxed);
        self.flops.fetch_add(flops, Ordering::Relaxed);
        self.forward_ns.fetch_add((end - start).as_nanos() as u64, Ordering::Relaxed);
        let request = self.current_request.load(Ordering::Relaxed);
        let parent = self.current_parent.load(Ordering::Relaxed);
        let some = |v: u64| (v != NONE).then_some(v);
        self.record(self.reserve(), "model.forward", start, end, some(parent), some(request));
    }

    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    pub fn model_counts(&self) -> ModelCounts {
        ModelCounts {
            calls: self.calls.load(Ordering::Relaxed),
            rows: self.rows.load(Ordering::Relaxed),
            forward_ns: self.forward_ns.load(Ordering::Relaxed),
            flops: self.flops.load(Ordering::Relaxed),
        }
    }

    /// Writes every kept span as JSON: times in microseconds since the
    /// tracer was created, `null` for an absent parent or request.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span buffer lock poisoned by a panicking recorder");
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        let us = |t: Instant| (t - self.epoch).as_secs_f64() * 1e6;
        let opt = |v: u64| if v == NONE { "null".to_owned() } else { v.to_string() };
        writeln!(out, "{{\"dropped\": {}, \"spans\": [", self.dropped.load(Ordering::Relaxed))?;
        for (i, s) in spans.iter().enumerate() {
            let sep = if i + 1 < spans.len() { "," } else { "" };
            writeln!(
                out,
                "{{\"id\": {}, \"name\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}, \"parent\": {}, \"request\": {}}}{sep}",
                s.id,
                s.name,
                us(s.start),
                us(s.end),
                opt(s.parent),
                opt(s.request)
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

/// A [`ConditionalDensity`] that forwards every call to an engine's density
/// and times `conditionals_into`, the forward pass the sampler runs once
/// per column step.
///
/// `prepare_relaxed` keeps the trait's no-op default: the wrapped engine
/// already prepared its density when it was built, and `supports_relaxed`
/// reports that density's answer, so provenance tags stay honest.
pub struct TimedDensity {
    engine: Engine,
    tracer: Arc<Tracer>,
    /// FLOPs per sample path of a forward pass, by column.
    flops_per_row: Vec<u64>,
}

impl TimedDensity {
    /// A new engine over `engine`'s density that times every forward pass,
    /// with the same session defaults and statistics sidecar.
    pub fn engine(engine: &Engine, tracer: &Arc<Tracer>, flops_per_row: Vec<u64>) -> Engine {
        let defaults = engine.session();
        let density = Self { engine: engine.clone(), tracer: Arc::clone(tracer), flops_per_row };
        let timed = Engine::new(density, engine.num_rows())
            .with_samples(defaults.num_samples())
            .with_seed(defaults.seed())
            .with_tier_config(engine.tier_config().clone());
        match engine.table_stats() {
            Some(stats) => timed.with_shared_table_stats(Arc::clone(stats)),
            None => timed,
        }
    }
}

impl ConditionalDensity for TimedDensity {
    fn num_columns(&self) -> usize {
        self.engine.density().num_columns()
    }

    fn domain_sizes(&self) -> &[usize] {
        self.engine.density().domain_sizes()
    }

    fn supports_relaxed(&self) -> bool {
        self.engine.density().supports_relaxed()
    }

    fn conditionals(&self, tuples: &[Vec<u32>], col: usize) -> Matrix {
        self.engine.density().conditionals(tuples, col)
    }

    fn conditionals_into(
        &self,
        tuples: &[u32],
        num_cols: usize,
        col: usize,
        out: &mut Matrix,
        scratch: &mut InferenceScratch,
    ) {
        let start = Instant::now();
        self.engine.density().conditionals_into(tuples, num_cols, col, out, scratch);
        let rows = tuples.len().checked_div(num_cols).unwrap_or(0) as u64;
        let flops = rows * self.flops_per_row.get(col).copied().unwrap_or(0);
        self.tracer.forward(start, Instant::now(), rows, flops);
    }

    fn log_likelihood(&self, tuples: &[Vec<u32>]) -> Vec<f64> {
        self.engine.density().log_likelihood(tuples)
    }
}
