//! `serve-open`: independent users sending to an in-process [`Server`] on a
//! seeded Poisson schedule (open loop), so requests queue, batch, route
//! across tiers and hit or miss the estimate cache.

use std::collections::{HashSet, VecDeque};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use naru_core::Engine;
use naru_data::Table;
use naru_query::{try_count_matches, Provenance, Query, QueryKey};
use naru_serve::{MetricsSnapshot, ServeConfig, ServeError, ServedEstimate, Server, SubmitOptions};

use crate::common::{
    check, codec_layers, end_to_end, flops_per_row, matmul_gflops, q_errors, same_answer, set_setup_layers, setup,
    spread, tier_counts, tier_layers, truth, Ctx, Measured, Metrics, Outcome, Scale, SetupTimes, OVERSAMPLE,
};
use crate::gen::{InputRecord, QueryGen, Zipf, EASY_FILTERS, PAPER_FILTERS};
use crate::json::Json;
use crate::measure::{median, nproc, Summary};
use crate::trace::{ModelCounts, TimedDensity, Tracer};

/// How long the collector waits on the oldest open ticket per round.
const COLLECT_TICK: Duration = Duration::from_millis(1);
/// Past the schedule's end, requests still open after this count as failed.
const DRAIN_LIMIT: Duration = Duration::from_secs(30);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    /// 1–2 filters: the statistics tiers answer without the model.
    Easy,
    /// Zipf-popular paper-protocol queries from a pool larger than the cache.
    Hot,
    /// Fresh distinct paper-protocol queries.
    Cold,
}

struct Arrival {
    offset_s: f64,
    class: Class,
    query: Query,
}

/// One request's life as the load generator saw it.
struct Done {
    due: Instant,
    sent: Instant,
    submitted: Instant,
    finished: Instant,
    response: Result<ServedEstimate, ServeError>,
}

impl Done {
    fn latency_ms(&self) -> f64 {
        (self.finished - self.due).as_secs_f64() * 1e3
    }

    fn served(&self) -> Option<&ServedEstimate> {
        self.response.as_ref().ok()
    }

    /// Served by a worker, as opposed to a cache hit resolved at submit.
    fn worker_served(&self) -> Option<&ServedEstimate> {
        self.served().filter(|s| s.estimate.provenance != Provenance::CacheHit)
    }
}

/// The schedule, and the warm-up queries: the most popular half-cache of
/// hot queries, then a class mix from the warm-up stream.
fn inputs(scale: &Scale, table: &Table, seed: u64, seconds: f64) -> (Vec<Arrival>, Vec<Query>) {
    let mut gen = QueryGen::measured(table, seed);
    let key = |q: &Query| truth(table, q);
    let hot = gen.stratified(PAPER_FILTERS, scale.hot_pool, OVERSAMPLE, key);
    let zipf = Zipf::new(scale.hot_pool, scale.zipf_s);
    let shares = [scale.easy_share, scale.hot_share, 1.0 - scale.easy_share - scale.hot_share];
    let offsets = gen.poisson(scale.serve_rate, seconds);
    let classes = gen.classes(offsets.len(), &shares);
    let count = |c: usize| classes.iter().filter(|&&k| k == c).count();
    let mut easy = gen.stratified(EASY_FILTERS, count(0), OVERSAMPLE, key).into_iter();
    let mut cold = gen.stratified(PAPER_FILTERS, count(2), OVERSAMPLE, key).into_iter();
    let mut arrivals = Vec::with_capacity(offsets.len());
    for (offset_s, class) in offsets.into_iter().zip(classes) {
        let (class, query) = match class {
            0 => (Class::Easy, easy.next()),
            1 => (Class::Hot, hot.get(zipf.sample(gen.unit())).cloned()),
            _ => (Class::Cold, cold.next()),
        };
        arrivals.push(Arrival { offset_s, class, query: query.expect("one query per scheduled class slot") });
    }
    let mut warm_gen = QueryGen::warmup(table, seed);
    let mut warm: Vec<Query> = hot.iter().take(scale.cache_capacity / 2).cloned().collect();
    for class in warm_gen.classes(scale.warmup, &shares) {
        warm.push(match class {
            0 => warm_gen.query(EASY_FILTERS),
            1 => hot[zipf.sample(warm_gen.unit())].clone(),
            _ => warm_gen.query(PAPER_FILTERS),
        });
    }
    (arrivals, warm)
}

fn start_server(engine: &Engine, scale: &Scale) -> Result<Server, String> {
    Server::start(engine.clone(), ServeConfig::default().with_cache_capacity(scale.cache_capacity))
        .map_err(|e| format!("server start: {e}"))
}

/// Submits every warm-up query at once and waits for all of them.
fn warm_up(server: &Server, warm: &[Query]) -> Result<(), String> {
    let tickets: Vec<_> = warm
        .iter()
        .map(|q| server.submit(q.clone()).map_err(|e| format!("warm-up submit: {e}")))
        .collect::<Result<_, _>>()?;
    for ticket in tickets {
        ticket.wait().map_err(|e| format!("warm-up request: {e}"))?;
    }
    Ok(())
}

/// Drives the schedule: one thread submits each request when it is due,
/// one collects completions (waiting a tick on the oldest open ticket and
/// polling the rest). Latency counts from the due time.
fn open_loop(server: &Server, arrivals: &[Arrival]) -> Vec<Done> {
    let start = Instant::now() + Duration::from_millis(20);
    let (tx, rx) = mpsc::channel();
    let mut done: Vec<Option<Done>> = arrivals.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for (i, arrival) in arrivals.iter().enumerate() {
                let due = start + Duration::from_secs_f64(arrival.offset_s);
                let now = Instant::now();
                if due > now {
                    // Pacing an open loop: the submitter waits for each
                    // request's due time, whatever the server is doing.
                    #[allow(clippy::disallowed_methods)]
                    std::thread::sleep(due - now);
                }
                let sent = Instant::now();
                let result = server.try_submit_with(arrival.query.clone(), SubmitOptions::default());
                let submitted = Instant::now();
                if tx.send((i, due, sent, submitted, result)).is_err() {
                    return;
                }
            }
        });
        let mut open = VecDeque::new();
        let drain_by = start + Duration::from_secs_f64(arrivals.last().map_or(0.0, |a| a.offset_s)) + DRAIN_LIMIT;
        let mut finish = |i: usize, due, sent, submitted, response| {
            done[i] = Some(Done { due, sent, submitted, finished: Instant::now(), response });
        };
        loop {
            if open.is_empty() {
                let Ok((i, due, sent, submitted, result)) = rx.recv() else { break };
                match result {
                    Ok(ticket) => open.push_back((i, due, sent, submitted, ticket)),
                    Err(e) => finish(i, due, sent, submitted, Err(e)),
                }
            }
            while let Ok((i, due, sent, submitted, result)) = rx.try_recv() {
                match result {
                    Ok(ticket) => open.push_back((i, due, sent, submitted, ticket)),
                    Err(e) => finish(i, due, sent, submitted, Err(e)),
                }
            }
            let overdue = Instant::now() > drain_by;
            for round in 0..open.len() {
                let Some((i, due, sent, submitted, ticket)) = open.pop_front() else { break };
                let wait = if round == 0 { COLLECT_TICK } else { Duration::ZERO };
                match ticket.wait_timeout(wait) {
                    Ok(response) => finish(i, due, sent, submitted, response),
                    Err(ticket) if overdue => {
                        ticket.cancel();
                        finish(i, due, sent, submitted, Err(ServeError::WorkerLost));
                    }
                    Err(ticket) => open.push_back((i, due, sent, submitted, ticket)),
                }
            }
        }
    });
    done.into_iter().map(|d| d.expect("the collector resolves every submitted request")).collect()
}

/// One pass over the schedule: warm-up, the measured schedule, then
/// shutdown. Counters are taken around the measured part only.
struct Pass {
    done: Vec<Done>,
    before: MetricsSnapshot,
    after: MetricsSnapshot,
    model: ModelCounts,
    workers: usize,
}

fn pass(server: Server, arrivals: &[Arrival], warm: &[Query], tracer: Option<&Tracer>) -> Result<Pass, String> {
    warm_up(&server, warm)?;
    let before = server.metrics();
    let counts = tracer.map(Tracer::model_counts).unwrap_or_default();
    let workers = server.num_workers();
    let done = open_loop(&server, arrivals);
    let model = tracer.map(|t| t.model_counts().since(counts)).unwrap_or_default();
    let after = server.shutdown();
    // Every submission is a cache hit, accepted or rejected; every
    // accepted request leaves exactly once.
    let submitted = (warm.len() + arrivals.len()) as u64;
    check(after.accepted + after.rejected + after.cache_hits == submitted, || {
        format!("{} submissions, but counters say {after:?}", submitted)
    })?;
    check(after.accounted() == after.accepted, || format!("accounting identity broken: {after:?}"))?;
    Ok(Pass { done, before, after, model, workers })
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let scale = ctx.scale;
    let table = ctx.table();
    let (engine, server, times) = setup(&table, scale, |engine| start_server(engine, scale))?;
    let (arrivals, warm) = inputs(scale, &table, ctx.seed, ctx.seconds);
    let base = pass(server, &arrivals, &warm, None)?;
    check_answers(scale, &table, &engine, &arrivals, &base.done)?;

    let served: Vec<(&Query, &naru_query::Estimate)> =
        arrivals.iter().zip(&base.done).filter_map(|(a, d)| d.served().map(|s| (&a.query, &s.estimate))).collect();
    // q-error once per distinct query: a repeat is the same answer, and
    // weighted by popularity, a seed's few hottest queries set the mean.
    let mut seen = HashSet::new();
    let accuracy: Vec<(&Query, &naru_query::Estimate)> = served
        .iter()
        .filter(|(q, _)| seen.insert(QueryKey::new(q, table.num_columns()).expect("generated queries are in range")))
        .copied()
        .collect();
    let latencies: Vec<f64> = base.done.iter().filter(|d| d.served().is_some()).map(Done::latency_ms).collect();
    // Answers per second from the first due time to the last completion.
    let first_due = base.done.iter().map(|d| d.due).min();
    let last_done = base.done.iter().map(|d| d.finished).max();
    let span_s = match (first_due, last_done) {
        (Some(a), Some(b)) => (b - a).as_secs_f64(),
        _ => ctx.seconds,
    };
    let mut inputs = InputRecord::new(table.num_columns());
    arrivals.iter().for_each(|a| inputs.note(&a.query));
    let (end_to_end, mut record) = end_to_end(
        ctx,
        &times,
        Measured {
            latencies_ms: &latencies,
            qps: served.len() as f64 / span_s,
            qerrs: &q_errors(&table, &accuracy),
            inputs: &inputs,
            generator_threads: 2,
            program_threads: format!("{} serve workers (nproc {})", base.workers, nproc()),
        },
    )?;
    let class_count = |c: Class| arrivals.iter().filter(|a| a.class == c).count();
    record.insert(
        "classes".to_owned(),
        crate::json::obj([
            ("easy", class_count(Class::Easy).into()),
            ("hot", class_count(Class::Hot).into()),
            ("cold", class_count(Class::Cold).into()),
        ]),
    );
    record.insert("server_counters".to_owned(), Json::from(base.after.to_json().replace('\n', " ")));

    let failed = base.done.iter().filter(|d| d.response.is_err()).count() as u64;
    let traced = if ctx.trace { Some(traced(ctx, &engine, &arrivals, &warm, &base, &times)?) } else { None };
    Ok(Outcome { attempted: arrivals.len() as u64, failed, end_to_end, traced, record })
}

/// Model and cache-hit answers equal a reference tiered session's (a hit
/// may hold any tier's answer); tier-0 answers equal the exact count.
fn check_answers(
    scale: &Scale,
    table: &Table,
    engine: &Engine,
    arrivals: &[Arrival],
    done: &[Done],
) -> Result<(), String> {
    let with = |p: Provenance| -> Vec<usize> {
        (0..done.len()).filter(|&i| done[i].served().is_some_and(|s| s.estimate.provenance == p)).collect()
    };
    let mut reference = engine.tiered_session();
    for provenance in [Provenance::Tier2Model, Provenance::CacheHit] {
        let indices = with(provenance);
        for i in spread(indices.len(), scale.check_sample).into_iter().map(|k| indices[k]) {
            let served = &done[i].served().expect("filtered to served").estimate;
            let expected = reference.estimate(&arrivals[i].query).map_err(|e| format!("reference walk: {e}"))?;
            check(same_answer(served, &expected), || {
                format!("{provenance:?} answer {served:?} != reference {expected:?}")
            })?;
        }
    }
    let exact = with(Provenance::Tier0Exact);
    for i in spread(exact.len(), scale.check_sample).into_iter().map(|k| exact[k]) {
        let served = done[i].served().expect("filtered to served").estimate.cardinality();
        let truth = try_count_matches(table, &arrivals[i].query).map_err(|e| e.to_string())?;
        check(served == truth, || format!("tier-0 answer {served} != exact count {truth}"))?;
    }
    Ok(())
}

/// The traced pass: the same schedule against a server whose engine times
/// each forward pass. Spans are built from each request's recorded
/// instants; queue wait and execution come from the server's own
/// per-request stats, anchored at submission and at completion.
fn traced(
    ctx: &Ctx,
    engine: &Engine,
    arrivals: &[Arrival],
    warm: &[Query],
    base: &Pass,
    times: &SetupTimes,
) -> Result<(Metrics, Arc<Tracer>), String> {
    let scale = ctx.scale;
    let config = scale.naru_config();
    let tracer = Tracer::new();
    let timed = TimedDensity::engine(engine, &tracer, flops_per_row(engine.domain_sizes(), &config.model));
    let server = start_server(&timed, scale)?;
    let run = pass(server, arrivals, warm, Some(&tracer))?;
    let m = run.model;
    for (i, (a, b)) in run.done.iter().zip(&base.done).enumerate() {
        if let (Some(a), Some(b)) = (a.served(), b.served()) {
            check(same_answer(&a.estimate, &b.estimate), || {
                format!("request {i}: traced answer differs from untraced")
            })?;
        }
    }

    let (mut e2e, mut explained) = (0.0, 0.0);
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let mut queue_wait = Vec::new();
    let mut exec = Vec::new();
    let mut batch_wait = Vec::new();
    let mut batch_size = Vec::new();
    for (i, d) in run.done.iter().enumerate() {
        let request = i as u64;
        let root = tracer.reserve();
        tracer.record(root, "request", d.due, d.finished, None, Some(request));
        tracer.child("loadgen.late", d.due, d.sent, root, request);
        tracer.child("serve.submit", d.sent, d.submitted, root, request);
        e2e += ms(d.finished - d.due);
        explained += ms(d.submitted - d.due);
        if let Some(s) = d.worker_served() {
            let (qw, ex) = (s.stats.queue_wait, s.stats.execution);
            tracer.child("serve.queue_wait", d.sent, d.sent + qw, root, request);
            tracer.child("serve.exec", d.finished.checked_sub(ex).unwrap_or(d.finished), d.finished, root, request);
            explained += ms(qw) + ms(ex);
            queue_wait.push(ms(qw));
            exec.push(ms(ex));
            batch_wait.push((ms(d.finished - d.sent) - ms(qw) - ms(ex)).max(0.0));
            batch_size.push(s.stats.batch_size as f64);
        }
    }

    let mut layers = Metrics::per_layer();
    set_setup_layers(&mut layers, times);
    let answered: Vec<naru_query::Estimate> =
        run.done.iter().filter_map(|d| d.served().map(|s| s.estimate.clone())).collect();
    let n = answered.len().max(1) as f64;
    let forward_ms = m.forward_ns as f64 / 1e6;
    layers.set("model.calls_per_estimate", m.calls as f64 / n);
    layers.set("model.rows_per_estimate", m.rows as f64 / n);
    layers.set("model.forward_ms_per_estimate", forward_ms / n);
    let exec_total: f64 = exec.iter().sum();
    layers.set("model.forward_share", forward_ms / e2e.max(1e-12));
    layers.set("sampler.self_ms_per_estimate", (exec_total - forward_ms).max(0.0) / n);
    let walked: Vec<usize> = answered.iter().filter_map(|e| e.live_paths).collect();
    layers.set(
        "sampler.live_path_ratio",
        walked.iter().sum::<usize>() as f64 / (walked.len().max(1) * scale.samples) as f64,
    );
    layers.set("tensor.flops_per_estimate", m.flops as f64 / n);
    let rows_per_call = (m.rows / m.calls.max(1)) as usize;
    layers.set("tensor.matmul_gflops", matmul_gflops(engine.domain_sizes(), &config.model, rows_per_call));
    let queries: Vec<Query> = arrivals.iter().map(|a| a.query.clone()).collect();
    codec_layers(&mut layers, &queries, &answered, engine.num_columns());
    tier_layers(&mut layers, tier_counts(&answered), answered.len(), &answered);

    let submit_us: Vec<f64> = run.done.iter().map(|d| (d.submitted - d.sent).as_secs_f64() * 1e6).collect();
    layers.set("serve.submit_us", median(&submit_us));
    let qw = Summary::of(&queue_wait);
    layers.set("serve.queue_wait_p50_ms", qw.p50);
    layers.set("serve.queue_wait_tail_ms", qw.tail);
    layers.set("serve.exec_p50_ms", median(&exec));
    layers.set("serve.batch_wait_tail_ms", Summary::of(&batch_wait).tail);
    layers.set("serve.batch_size_mean", Summary::of(&batch_size).mean);
    let (a, b) = (&run.after, &run.before);
    layers.set(
        "serve.fused_batch_ratio",
        (a.fused_batches - b.fused_batches) as f64 / (a.batches - b.batches).max(1) as f64,
    );
    layers.set("serve.worker_busy_ratio", exec_total / 1e3 / (run.workers as f64 * ctx.seconds));
    let lookups = (a.cache_hits + a.cache_misses) - (b.cache_hits + b.cache_misses);
    layers.set("serve.cache_hit_rate", (a.cache_hits - b.cache_hits) as f64 / lookups.max(1) as f64);
    layers.set(
        "serve.evictions_per_request",
        (a.cache_evictions - b.cache_evictions) as f64 / arrivals.len().max(1) as f64,
    );
    let easy: Vec<f64> = arrivals
        .iter()
        .zip(&run.done)
        .filter(|(a, d)| a.class == Class::Easy && d.served().is_some())
        .map(|(_, d)| d.latency_ms())
        .collect();
    layers.set("serve.easy_tail_ms", Summary::of(&easy).tail);
    let late: Vec<f64> = run.done.iter().map(|d| ms(d.sent - d.due)).collect();
    layers.set("loadgen.late_tail_ms", Summary::of(&late).tail);

    let traced_p50 =
        Summary::of(&run.done.iter().filter(|d| d.served().is_some()).map(Done::latency_ms).collect::<Vec<_>>()).p50;
    let untraced_p50 =
        Summary::of(&base.done.iter().filter(|d| d.served().is_some()).map(Done::latency_ms).collect::<Vec<_>>()).p50;
    layers.set("trace.overhead", traced_p50 / untraced_p50 - 1.0);
    layers.set("trace.unexplained_share", 1.0 - explained / e2e.max(1e-12));
    Ok((layers, tracer))
}
