//! What every workload shares: the fixed scale, the timed set-up, the
//! metric catalog, and the layer measurements that need no server.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Cursor;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use naru_core::{ColumnEncoding, Engine, ModelConfig, NaruConfig, NaruEstimator};
use naru_data::synthetic::dmv_like;
use naru_data::Table;
use naru_net::{decode_served, encode_served, read_request, HttpLimits};
use naru_query::{decode_query, encode_query, q_error, try_count_matches, Estimate, Provenance, Query, QueryKey};
use naru_serve::{ServeStats, ServedEstimate};
use naru_tensor::{matmul_a_bt_into, Matrix};

use crate::gen::InputRecord;
use crate::json::Json;
use crate::measure::{geometric_mean, median, Summary};
use crate::trace::Tracer;

/// Seed of the modeled table; fixed, unlike the workload seed.
pub const TABLE_SEED: u64 = 42;

/// The workloads, in the order `run` without `--workload` executes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PlanDistinct,
    PlanSubsets,
    ServeOpen,
    HttpCheap,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::PlanDistinct, Workload::PlanSubsets, Workload::ServeOpen, Workload::HttpCheap];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PlanDistinct => "plan-distinct",
            Workload::PlanSubsets => "plan-subsets",
            Workload::ServeOpen => "serve-open",
            Workload::HttpCheap => "http-cheap",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The latency tail `tail_ms` reports: the highest percentile with ten
    /// samples beyond it at this workload's reference sample count, fixed so
    /// a faster program reports the same percentile. A run with too few
    /// samples for it falls back to the rule (see [`Summary::capped`]).
    /// serve-open's 600 requests would allow p95, but its p90 and above sit
    /// past the knee where requests start waiting behind a whole batch, and
    /// moved by 13–30% from seed to seed; p75 moved by about 5%.
    pub fn latency_tail(self) -> f64 {
        match self {
            Workload::PlanDistinct => 95.0,
            Workload::PlanSubsets | Workload::ServeOpen => 75.0,
            Workload::HttpCheap => 99.0,
        }
    }
}

/// Every input-size constant of the benchmark. [`FULL`] is what
/// `BENCHMARK.json` measures; [`SMOKE`] only checks that the harness runs.
#[derive(Debug)]
pub struct Scale {
    pub label: &'static str,
    pub rows: usize,
    pub epochs: usize,
    pub samples: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Unrecorded requests that warm sessions (and the cache) first.
    pub warmup: usize,
    /// Answers per check that are recomputed by a reference path.
    pub check_sample: usize,
    /// plan-distinct: distinct queries on offer, and how many of the first
    /// ones, stratified by true cardinality, the q-error is taken over.
    pub distinct_pool: usize,
    pub distinct_accuracy: usize,
    /// plan-subsets: base queries on offer, filters per base query, and how
    /// many of the first plans the q-error is taken over.
    pub plan_pool: usize,
    pub plan_filters: usize,
    pub plan_accuracy: usize,
    /// plans whose batched walk is compared against single walks.
    pub plan_checked: usize,
    /// plans the memo call ratio is counted on.
    pub memo_plans: usize,
    /// serve-open: Poisson arrival rate, class mix, hot pool and cache.
    pub serve_rate: f64,
    pub easy_share: f64,
    pub hot_share: f64,
    pub hot_pool: usize,
    pub zipf_s: f64,
    pub cache_capacity: usize,
    /// http-cheap: distinct easy queries the clients cycle through, and how
    /// many of the first ones, stratified by true cardinality, the q-error is
    /// taken over.
    pub http_pool: usize,
    pub http_accuracy: usize,
}

pub const FULL: Scale = Scale {
    label: "full",
    rows: 20_000,
    epochs: 5,
    samples: 1000,
    setup_reps: 3,
    warmup: 20,
    check_sample: 24,
    distinct_pool: 4000,
    distinct_accuracy: 500,
    plan_pool: 600,
    plan_filters: 5,
    plan_accuracy: 64,
    plan_checked: 3,
    memo_plans: 10,
    serve_rate: 50.0,
    easy_share: 0.30,
    hot_share: 0.30,
    hot_pool: 200,
    zipf_s: 1.1,
    cache_capacity: 128,
    http_pool: 4000,
    http_accuracy: 1000,
};

pub const SMOKE: Scale = Scale {
    label: "smoke",
    rows: 2_000,
    epochs: 1,
    samples: 64,
    setup_reps: 1,
    warmup: 4,
    check_sample: 4,
    distinct_pool: 2000,
    distinct_accuracy: 10,
    plan_pool: 300,
    plan_filters: 3,
    plan_accuracy: 2,
    plan_checked: 2,
    memo_plans: 2,
    serve_rate: 100.0,
    easy_share: 0.25,
    hot_share: 0.30,
    hot_pool: 20,
    zipf_s: 1.1,
    cache_capacity: 8,
    http_pool: 200,
    http_accuracy: 20,
};

impl Scale {
    pub fn naru_config(&self) -> NaruConfig {
        let mut config = NaruConfig::small().with_samples(self.samples);
        config.train.epochs = self.epochs;
        // Per-epoch evaluation and the entropy pass only produce diagnostics;
        // off, set-up times training alone.
        config.train.eval_tuples = 0;
        config.train.compute_data_entropy = false;
        config
    }
}

/// What one invocation asks for.
pub struct Ctx {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: &'static Scale,
    pub out: Option<PathBuf>,
}

impl Ctx {
    pub fn table(&self) -> Table {
        dmv_like(self.scale.rows, TABLE_SEED)
    }
}

/// Metrics a user of naru sees, measured with tracing off; every workload
/// reports all of them.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("qps", "1/s"),
    ("qerr_p50", "ratio"),
    ("qerr_gmean", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Metrics of single layers, from the traced pass. A layer a workload does
/// not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("train.s", "s"),
    ("train.tuples_per_s", "1/s"),
    ("engine.build_s", "s"),
    ("tensor.matmul_gflops", "GFLOP/s"),
    ("tensor.flops_per_estimate", "count"),
    ("model.calls_per_estimate", "count"),
    ("model.rows_per_estimate", "count"),
    ("model.forward_ms_per_estimate", "ms"),
    ("model.forward_share", "ratio"),
    ("sampler.self_ms_per_estimate", "ms"),
    ("sampler.live_path_ratio", "ratio"),
    ("sampler.memo_call_ratio", "ratio"),
    ("query.compile_us", "us"),
    ("query.key_us", "us"),
    ("query.wire_encode_us", "us"),
    ("query.wire_decode_us", "us"),
    ("tiered.tier0_share", "ratio"),
    ("tiered.tier1_share", "ratio"),
    ("tiered.tier2_share", "ratio"),
    ("tiered.fast_path_us", "us"),
    ("serve.submit_us", "us"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_tail_ms", "ms"),
    ("serve.exec_p50_ms", "ms"),
    ("serve.batch_wait_tail_ms", "ms"),
    ("serve.batch_size_mean", "count"),
    ("serve.fused_batch_ratio", "ratio"),
    ("serve.worker_busy_ratio", "ratio"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.evictions_per_request", "ratio"),
    ("serve.easy_tail_ms", "ms"),
    ("net.parse_us", "us"),
    ("net.encode_served_us", "us"),
    ("net.decode_served_us", "us"),
    ("net.residual_p50_ms", "ms"),
    ("loadgen.late_tail_ms", "ms"),
    ("trace.overhead", "ratio"),
    ("trace.unexplained_share", "ratio"),
    ("trace.dropped_spans", "count"),
];

/// Named values checked against a catalog: a name outside it is a bug in
/// the harness, and so is a catalog name left unset.
#[derive(Debug, Clone)]
pub struct Metrics {
    catalog: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    pub fn end_to_end() -> Self {
        Self { catalog: &END_TO_END, values: BTreeMap::new() }
    }

    /// Every per-layer metric starts at 0: unexercised layers stay there.
    pub fn per_layer() -> Self {
        Self { catalog: &PER_LAYER, values: PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect() }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(self.catalog.iter().any(|&(n, _)| n == name), "metric {name} is not in the catalog");
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(f64::NAN)
    }

    /// `(name, value, unit)` for every catalog entry, or the first missing
    /// or non-finite one.
    pub fn complete(&self) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
        self.catalog
            .iter()
            .map(|&(name, unit)| match self.values.get(name) {
                Some(&v) if v.is_finite() => Ok((name, v, unit)),
                Some(v) => Err(format!("metric {name} is not finite ({v})")),
                None => Err(format!("metric {name} was not measured")),
            })
            .collect()
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.catalog
                .iter()
                .map(|&(name, unit)| {
                    let value = Json::Num(self.get(name));
                    (name.to_owned(), crate::json::obj([("value", value), ("unit", unit.into())]))
                })
                .collect(),
        )
    }
}

/// One run's result, before it is printed.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Metrics,
    /// The traced pass's per-layer metrics and spans, when one ran.
    pub traced: Option<(Metrics, Arc<Tracer>)>,
    /// Inputs and sample counts, recorded next to the numbers.
    pub record: BTreeMap<String, Json>,
}

/// A failed correctness check; the run aborts without printing numbers.
pub fn check(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!("correctness check failed: {}", what()))
    }
}

/// Timings of the set-up repetitions, each from the start of training to a
/// ready-to-serve system.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub setup_s: f64,
    pub train_s: f64,
    pub build_s: f64,
    pub tuples_per_s: f64,
}

/// Trains, builds the engine and runs `finish` (server start-up, where the
/// workload has one) `scale.setup_reps` times; returns the last system and
/// the median of each timing. Earlier systems are dropped, which stops
/// their threads.
pub fn setup<T>(
    table: &Table,
    scale: &Scale,
    mut finish: impl FnMut(&Engine) -> Result<T, String>,
) -> Result<(Engine, T, SetupTimes), String> {
    let config = scale.naru_config();
    let mut last = None;
    let (mut setup, mut train, mut build, mut rate) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..scale.setup_reps.max(1) {
        let start = Instant::now();
        let (estimator, report) = NaruEstimator::train(table, &config);
        let trained = Instant::now();
        let engine = estimator.into_engine();
        let built = Instant::now();
        let system = finish(&engine)?;
        setup.push((Instant::now() - start).as_secs_f64());
        train.push((trained - start).as_secs_f64());
        build.push((built - trained).as_secs_f64());
        let epoch_s: f64 = report.epochs.iter().map(|e| e.seconds).sum();
        rate.push((table.num_rows() * report.epochs.len()) as f64 / epoch_s.max(1e-9));
        last = Some((engine, system));
    }
    let (engine, system) = last.expect("at least one set-up repetition");
    let times = SetupTimes {
        setup_s: median(&setup),
        train_s: median(&train),
        build_s: median(&build),
        tuples_per_s: median(&rate),
    };
    Ok((engine, system, times))
}

pub fn set_setup_layers(layers: &mut Metrics, times: &SetupTimes) {
    layers.set("train.s", times.train_s);
    layers.set("train.tuples_per_s", times.tuples_per_s);
    layers.set("engine.build_s", times.build_s);
}

/// Multiply-add FLOPs per sample path of one forward pass for each column:
/// the dense trunk plus that column's output block (and its embedding
/// decode). Computed from the model configuration, not measured.
pub fn flops_per_row(domains: &[usize], model: &ModelConfig) -> Vec<u64> {
    let (trunk, width) = trunk_shape(domains, model);
    let trunk_flops: usize = trunk.iter().map(|&(k, n)| k * n).sum();
    model
        .encoding
        .choose_all(domains)
        .iter()
        .zip(domains)
        .map(|(encoding, &domain)| {
            let head = match encoding {
                ColumnEncoding::Embedding { dim } if model.embedding_reuse => width * dim + dim * domain,
                _ => width * domain,
            };
            2 * (trunk_flops + head) as u64
        })
        .collect()
}

/// `(inputs, outputs)` of each hidden layer, and the last hidden width.
fn trunk_shape(domains: &[usize], model: &ModelConfig) -> (Vec<(usize, usize)>, usize) {
    let encodings = model.encoding.choose_all(domains);
    let mut width: usize = encodings.iter().zip(domains).map(|(e, &d)| e.width(d)).sum();
    let mut layers = Vec::new();
    for &h in &model.hidden_sizes {
        layers.push((width, h));
        width = h;
    }
    (layers, width)
}

/// Achieved rate of `matmul_a_bt_into` at the hidden-layer shapes of the
/// model with `rows` sample paths: median of repeated timed calls.
pub fn matmul_gflops(domains: &[usize], model: &ModelConfig, rows: usize) -> f64 {
    const REPS: usize = 15;
    let (layers, _) = trunk_shape(domains, model);
    let rows = rows.max(1);
    let (mut flops, mut seconds) = (0.0, 0.0);
    for (k, n) in layers {
        let fill =
            |r: usize, c: usize| Matrix::from_vec(r, c, (0..r * c).map(|i| ((i % 13) as f32 - 6.0) * 0.01).collect());
        let (a, b) = (fill(rows, k), fill(n, k));
        let mut c = Matrix::zeros(rows, n);
        matmul_a_bt_into(&a, &b, &mut c);
        let times: Vec<f64> = (0..REPS)
            .map(|_| {
                let start = Instant::now();
                matmul_a_bt_into(black_box(&a), black_box(&b), &mut c);
                black_box(&c);
                start.elapsed().as_secs_f64()
            })
            .collect();
        flops += (2 * rows * k * n) as f64;
        seconds += median(&times);
    }
    flops / seconds.max(1e-12) / 1e9
}

/// Mean microseconds per item of `f` over `items`, median of five passes.
fn per_item_us<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let passes: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            for item in items {
                f(item);
            }
            start.elapsed().as_secs_f64() * 1e6 / items.len() as f64
        })
        .collect();
    median(&passes)
}

/// The request bytes a client sends for `query`, as `NetClient` frames them.
pub fn captured_request(query: &Query) -> Vec<u8> {
    let body = encode_query(query);
    format!("POST /estimate HTTP/1.1\r\nHost: naru\r\nContent-Length: {}\r\n\r\n{body}", body.len()).into_bytes()
}

/// Per-call costs of the query and wire codecs on this workload's own
/// queries and answers: the layers below the server that need no socket.
pub fn codec_layers(layers: &mut Metrics, queries: &[Query], answers: &[Estimate], num_columns: usize) {
    layers.set("query.compile_us", per_item_us(queries, |q| drop(black_box(q.try_constraints(num_columns)))));
    layers.set("query.key_us", per_item_us(queries, |q| drop(black_box(QueryKey::new(q, num_columns)))));
    layers.set("query.wire_encode_us", per_item_us(queries, |q| drop(black_box(encode_query(q)))));
    let encoded: Vec<String> = queries.iter().map(encode_query).collect();
    layers.set("query.wire_decode_us", per_item_us(&encoded, |s| drop(black_box(decode_query(s)))));
    let requests: Vec<Vec<u8>> = queries.iter().map(captured_request).collect();
    let limits = HttpLimits::default();
    layers.set(
        "net.parse_us",
        per_item_us(&requests, |bytes| drop(black_box(read_request(&mut Cursor::new(bytes.as_slice()), &limits)))),
    );
    let stats = ServeStats {
        queue_wait: Duration::from_micros(40),
        execution: Duration::from_micros(900),
        worker: 1,
        batch_size: 2,
    };
    let served: Vec<ServedEstimate> = answers.iter().map(|e| ServedEstimate { estimate: e.clone(), stats }).collect();
    layers.set("net.encode_served_us", per_item_us(&served, |s| drop(black_box(encode_served(s)))));
    let bodies: Vec<String> = served.iter().map(encode_served).collect();
    layers.set("net.decode_served_us", per_item_us(&bodies, |b| drop(black_box(decode_served(b)))));
}

/// The three tiers, in the order of the `tiered.tier*_share` metrics.
pub const TIERS: [Provenance; 3] = [Provenance::Tier0Exact, Provenance::Tier1Sketch, Provenance::Tier2Model];

/// Shares of `total` answers by tier from per-tier counts, and the median
/// fast-path (tier 0/1) time of `sample`.
pub fn tier_layers(layers: &mut Metrics, counts: [u64; 3], total: usize, sample: &[Estimate]) {
    for (name, count) in ["tiered.tier0_share", "tiered.tier1_share", "tiered.tier2_share"].into_iter().zip(counts) {
        layers.set(name, count as f64 / total.max(1) as f64);
    }
    let fast: Vec<f64> = sample
        .iter()
        .filter(|e| matches!(e.provenance, Provenance::Tier0Exact | Provenance::Tier1Sketch))
        .map(|e| e.wall_time.as_secs_f64() * 1e6)
        .collect();
    layers.set("tiered.fast_path_us", median(&fast));
}

/// Answers per tier.
pub fn tier_counts(answers: &[Estimate]) -> [u64; 3] {
    TIERS.map(|tier| answers.iter().filter(|e| e.provenance == tier).count() as u64)
}

/// Candidates drawn per query a stratified set keeps (see
/// [`QueryGen::stratified`](crate::gen::QueryGen::stratified)).
pub const OVERSAMPLE: usize = 5;

/// The true cardinality of `query`: the stratification key of accuracy
/// sets.
pub fn truth(table: &Table, query: &Query) -> u64 {
    try_count_matches(table, query).expect("generated queries are in range")
}

/// q-error of each answer against the table (rows floored at 1).
pub fn q_errors(table: &Table, pairs: &[(&Query, &Estimate)]) -> Vec<f64> {
    pairs.iter().map(|(query, estimate)| q_error(estimate.estimated_rows, truth(table, query) as f64)).collect()
}

/// What a workload measured, in the units every workload reports.
pub struct Measured<'a> {
    /// Latency of each unit: an estimate, a plan, a request.
    pub latencies_ms: &'a [f64],
    pub qps: f64,
    /// q-error of each answer in the accuracy set.
    pub qerrs: &'a [f64],
    pub inputs: &'a InputRecord,
    pub generator_threads: usize,
    pub program_threads: String,
}

/// The end-to-end metrics, and the record of inputs, threads and sample
/// counts behind them.
pub fn end_to_end(
    ctx: &Ctx,
    times: &SetupTimes,
    measured: Measured,
) -> Result<(Metrics, BTreeMap<String, Json>), String> {
    let latency = Summary::capped(measured.latencies_ms, ctx.workload.latency_tail());
    let qerr = Summary::of(measured.qerrs);
    let mut metrics = Metrics::end_to_end();
    metrics.set("setup_s", times.setup_s);
    metrics.set("p50_ms", latency.p50);
    metrics.set("tail_ms", latency.tail);
    metrics.set("qps", measured.qps);
    metrics.set("qerr_p50", qerr.p50);
    metrics.set("qerr_gmean", geometric_mean(measured.qerrs));
    metrics.set("peak_rss_mb", crate::measure::peak_rss_mb()?);
    let mut record = BTreeMap::new();
    record.insert("inputs".to_owned(), measured.inputs.to_json());
    record.insert("latency_ms".to_owned(), summary_json(measured.latencies_ms, &latency));
    record.insert("qerr".to_owned(), summary_json(measured.qerrs, &qerr));
    record.insert("generator_threads".to_owned(), measured.generator_threads.into());
    record.insert("program_threads".to_owned(), measured.program_threads.into());
    Ok((metrics, record))
}

/// The sample count and order statistics behind a reported median and
/// tail.
fn summary_json(values: &[f64], summary: &Summary) -> Json {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = |p: f64| Json::from(crate::measure::percentile(&sorted, p));
    crate::json::obj([
        ("n", summary.n.into()),
        ("p50", summary.p50.into()),
        ("tail_percentile", summary.tail_p.into()),
        ("tail", summary.tail.into()),
        ("p90", at(90.0)),
        ("p95", at(95.0)),
        ("p99", at(99.0)),
        ("mean", summary.mean.into()),
        ("max", summary.max.into()),
    ])
}

/// Evenly spaced indices into `0..len`, at most `count` of them.
pub fn spread(len: usize, count: usize) -> Vec<usize> {
    if len == 0 || count == 0 {
        return Vec::new();
    }
    let step = (len / count).max(1);
    (0..len).step_by(step).take(count).collect()
}

/// Two answers are the same when their selectivities are bit-identical and
/// they walked the same number of live paths.
pub fn same_answer(a: &Estimate, b: &Estimate) -> bool {
    a.selectivity.to_bits() == b.selectivity.to_bits() && a.live_paths == b.live_paths
}

#[cfg(test)]
mod tests {
    use super::*;
    use naru_net::ReadOutcome;
    use naru_query::Predicate;

    #[test]
    fn captured_requests_and_served_bodies_parse_back() {
        // The codec timings must time the success paths.
        let query = Query::new(vec![Predicate::eq(0, 1), Predicate::le(6, 900)]);
        match read_request(&mut Cursor::new(captured_request(&query)), &HttpLimits::default()) {
            Ok(ReadOutcome::Request(request)) => {
                assert_eq!(decode_query(&String::from_utf8(request.body).unwrap()), Ok(query))
            }
            other => panic!("captured request did not parse: {other:?}"),
        }
        let estimate = Estimate::sampled(0.25, 1000, 900, Duration::from_micros(700));
        let stats =
            ServeStats { queue_wait: Duration::from_micros(40), execution: Duration::ZERO, worker: 0, batch_size: 1 };
        let decoded = decode_served(&encode_served(&ServedEstimate { estimate: estimate.clone(), stats })).unwrap();
        assert_eq!(decoded.estimate.selectivity, estimate.selectivity);
    }
}
