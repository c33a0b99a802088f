//! `http-cheap`: keep-alive clients in a closed loop against a
//! [`NetServer`] over loopback, sending 1–2-filter queries that the
//! statistics tiers answer with no model walk — so the protocol, admission,
//! the queue and the worker hand-off are what the time measures.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use naru_bench::client::NetClient;
use naru_core::Engine;
use naru_data::Table;
use naru_net::{NetConfig, NetServer, WireEstimate};
use naru_query::{try_count_matches, Estimate, Provenance, Query};
use naru_serve::{MetricsSnapshot, ServeConfig, Server};

use crate::common::{
    check, codec_layers, end_to_end, flops_per_row, matmul_gflops, q_errors, same_answer, set_setup_layers, setup,
    tier_layers, truth, Ctx, Measured, Metrics, Outcome, Scale, SetupTimes, OVERSAMPLE, TIERS,
};
use crate::gen::{InputRecord, QueryGen, EASY_FILTERS};
use crate::json::Json;
use crate::measure::{median, nproc, Summary};
use crate::trace::{TimedDensity, Tracer};

/// Answers kept in full per client: the accuracy set and the answers the
/// checks compare.
fn kept_per_client(scale: &Scale, clients: usize) -> usize {
    scale.http_accuracy.div_ceil(clients)
}

/// One client's closed loop. Per-request storage stays small (an `f32` per
/// request untraced) so the harness's own memory barely grows with
/// throughput, which `peak_rss_mb` would otherwise pick up.
#[derive(Default)]
struct ClientRun {
    /// Round-trip time of every request.
    latencies_ms: Vec<f32>,
    /// Traced pass only: each request's start, the server-reported queue
    /// wait and execution in ms, and its micro-batch size.
    detail: Vec<(Instant, f32, f32, u16)>,
    /// Answers by tier 0, 1 and 2.
    tiers: [u64; 3],
    /// The first answers in full, by pool position.
    kept: Vec<(usize, Estimate)>,
    failed: u64,
}

struct Pass {
    clients: Vec<ClientRun>,
    before: MetricsSnapshot,
    after: MetricsSnapshot,
    elapsed_s: f64,
}

impl Pass {
    fn requests(&self) -> usize {
        self.clients.iter().map(|c| c.latencies_ms.len()).sum()
    }

    fn latencies(&self) -> Vec<f64> {
        self.clients.iter().flat_map(|c| c.latencies_ms.iter().map(|&v| f64::from(v))).collect()
    }
}

fn start_net(engine: &Engine) -> Result<NetServer, String> {
    let serve = Server::start(engine.clone(), ServeConfig::default()).map_err(|e| format!("server start: {e}"))?;
    NetServer::start(serve, NetConfig::default()).map_err(|e| format!("net server start: {e}"))
}

/// What every client of a pass shares.
#[derive(Clone, Copy)]
struct Load<'a> {
    addr: SocketAddr,
    pool: &'a [Query],
    warm: &'a [Query],
    clients: usize,
    /// Answers each client keeps in full.
    keep: usize,
    seconds: f64,
    traced: bool,
}

/// Client `c` of `load.clients` sends pool positions `c, c + clients, …`,
/// wrapping around, until the time is up.
fn client_loop(load: &Load, c: usize, barrier: &Barrier) -> Result<ClientRun, String> {
    let Load { addr, pool, warm, clients, keep, seconds, traced } = *load;
    let mut client = NetClient::connect(addr, Duration::from_secs(10)).map_err(|e| format!("connect: {e}"))?;
    for query in warm {
        client.estimate(query).map_err(|e| format!("warm-up request: {e}"))?;
    }
    barrier.wait();
    // Room for 40k requests a second without regrowing: pages are touched
    // only as they fill, so the reservation itself costs no memory.
    let mut run = ClientRun { latencies_ms: Vec::with_capacity(seconds as usize * 40_000), ..ClientRun::default() };
    let start = Instant::now();
    let mut position = c;
    while start.elapsed().as_secs_f64() < seconds {
        let query = &pool[position % pool.len()];
        let t0 = Instant::now();
        let result = client.estimate(query);
        run.latencies_ms.push((t0.elapsed().as_secs_f64() * 1e3) as f32);
        match result {
            Ok(WireEstimate { estimate, stats }) => {
                if traced {
                    let ms = |d: Duration| (d.as_secs_f64() * 1e3) as f32;
                    let batch = u16::try_from(stats.batch_size).unwrap_or(u16::MAX);
                    run.detail.push((t0, ms(stats.queue_wait), ms(estimate.wall_time), batch));
                }
                if let Some(tier) = TIERS.iter().position(|&t| t == estimate.provenance) {
                    run.tiers[tier] += 1;
                }
                if run.kept.len() < keep {
                    run.kept.push((position % pool.len(), estimate));
                }
            }
            Err(_) => run.failed += 1,
        }
        position += clients;
    }
    Ok(run)
}

fn pass(
    net: NetServer,
    pool: &[Query],
    warm: &[Query],
    scale: &Scale,
    seconds: f64,
    traced: bool,
) -> Result<Pass, String> {
    let clients = nproc().min(2);
    let load =
        Load { addr: net.local_addr(), pool, warm, clients, keep: kept_per_client(scale, clients), seconds, traced };
    let barrier = Barrier::new(clients + 1);
    let before = net.metrics();
    let (runs, elapsed_s) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (load, barrier) = (&load, &barrier);
                scope.spawn(move || client_loop(load, c, barrier))
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let runs: Vec<Result<ClientRun, String>> = handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("client thread panicked".to_owned())))
            .collect();
        (runs, start.elapsed().as_secs_f64())
    });
    let clients = runs.into_iter().collect::<Result<Vec<_>, _>>()?;
    let after = net.shutdown();
    check(after.accounted() == after.accepted, || format!("accounting identity broken: {after:?}"))?;
    Ok(Pass { clients, before, after, elapsed_s })
}

fn kept(pass: &Pass) -> BTreeMap<usize, &Estimate> {
    pass.clients.iter().flat_map(|c| c.kept.iter().map(|(i, e)| (*i, e))).collect()
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let scale = ctx.scale;
    let table = ctx.table();
    let (engine, net, times) = setup(&table, scale, start_net)?;
    let mut gen = QueryGen::measured(&table, ctx.seed);
    let mut pool = gen.stratified(EASY_FILTERS, scale.http_accuracy, OVERSAMPLE, |q| truth(&table, q));
    pool.extend((pool.len()..scale.http_pool).map(|_| gen.distinct(EASY_FILTERS)));
    let mut warm_gen = QueryGen::warmup(&table, ctx.seed);
    let warm: Vec<Query> = (0..scale.warmup).map(|_| warm_gen.query(EASY_FILTERS)).collect();

    let base = pass(net, &pool, &warm, scale, ctx.seconds, false)?;
    let answers = kept(&base);
    check_answers(&table, &engine, &pool, &answers)?;
    let accuracy: Vec<(&Query, &Estimate)> =
        answers.iter().filter(|(i, _)| **i < scale.http_accuracy).map(|(i, e)| (&pool[*i], *e)).collect();
    check(accuracy.len() == scale.http_accuracy.min(pool.len()), || {
        format!("only {} of the first {} pool queries were answered", accuracy.len(), scale.http_accuracy)
    })?;
    let failed: u64 = base.clients.iter().map(|c| c.failed).sum();
    let mut inputs = InputRecord::new(table.num_columns());
    for (c, run) in base.clients.iter().enumerate() {
        (0..run.latencies_ms.len()).for_each(|k| inputs.note(&pool[(c + k * base.clients.len()) % pool.len()]));
    }
    let (end_to_end, mut record) = end_to_end(
        ctx,
        &times,
        Measured {
            latencies_ms: &base.latencies(),
            qps: (base.requests() as u64 - failed) as f64 / base.elapsed_s,
            qerrs: &q_errors(&table, &accuracy),
            inputs: &inputs,
            generator_threads: base.clients.len(),
            program_threads: format!(
                "{} serve workers, {} handler threads (nproc {})",
                ServeConfig::default().num_workers,
                NetConfig::default().handler_threads,
                nproc()
            ),
        },
    )?;
    record.insert("server_counters".to_owned(), Json::from(base.after.to_json().replace('\n', " ")));
    let traced = if ctx.trace { Some(traced(ctx, &engine, &pool, &warm, &base, &times)?) } else { None };
    Ok(Outcome { attempted: base.requests() as u64, failed, end_to_end, traced, record })
}

/// HTTP answers equal in-process tiered answers, and tier-0 answers equal
/// the exact count.
fn check_answers(
    table: &Table,
    engine: &Engine,
    pool: &[Query],
    answers: &BTreeMap<usize, &Estimate>,
) -> Result<(), String> {
    let mut session = engine.tiered_session();
    for (&i, &wire) in answers {
        let local = session.estimate(&pool[i]).map_err(|e| format!("in-process estimate: {e}"))?;
        check(same_answer(wire, &local) && wire.provenance == local.provenance, || {
            format!("HTTP answer {wire:?} != in-process {local:?} for {:?}", pool[i])
        })?;
        if wire.provenance == Provenance::Tier0Exact {
            let truth = try_count_matches(table, &pool[i]).map_err(|e| e.to_string())?;
            check(wire.cardinality() == truth, || {
                format!("tier-0 answer {} != exact count {truth}", wire.cardinality())
            })?;
        }
    }
    Ok(())
}

/// The traced pass: the same clients against a server whose engine times
/// each forward pass (these queries should need none). Each request is a
/// span with the server-reported queue wait and execution as children,
/// anchored at the request's start and end.
fn traced(
    ctx: &Ctx,
    engine: &Engine,
    pool: &[Query],
    warm: &[Query],
    base: &Pass,
    times: &SetupTimes,
) -> Result<(Metrics, Arc<Tracer>), String> {
    let scale = ctx.scale;
    let config = scale.naru_config();
    let tracer = Tracer::new();
    let timed = TimedDensity::engine(engine, &tracer, flops_per_row(engine.domain_sizes(), &config.model));
    let counts_before = tracer.model_counts();
    let run = pass(start_net(&timed)?, pool, warm, scale, ctx.seconds, true)?;
    let m = tracer.model_counts().since(counts_before);
    let (traced_answers, base_answers) = (kept(&run), kept(base));
    for (i, a) in &traced_answers {
        if let Some(b) = base_answers.get(i) {
            check(same_answer(a, b), || format!("pool query {i}: traced answer differs from untraced"))?;
        }
    }

    let dur = |ms: f32| Duration::from_secs_f64(f64::from(ms.max(0.0)) / 1e3);
    let (mut e2e, mut explained) = (0.0, 0.0);
    let (mut queue_wait, mut exec, mut batch, mut residual) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut request = 0u64;
    for client in &run.clients {
        for (&(start, qw, ex, size), &rtt) in client.detail.iter().zip(&client.latencies_ms) {
            let (root, end) = (tracer.reserve(), start + dur(rtt));
            tracer.record(root, "request", start, end, None, Some(request));
            tracer.child("serve.queue_wait", start, start + dur(qw), root, request);
            tracer.child("serve.exec", end - dur(ex.min(rtt)), end, root, request);
            e2e += f64::from(rtt);
            explained += f64::from(qw + ex);
            queue_wait.push(f64::from(qw));
            exec.push(f64::from(ex));
            batch.push(f64::from(size));
            residual.push(f64::from(rtt - qw - ex).max(0.0));
            request += 1;
        }
    }

    let mut layers = Metrics::per_layer();
    set_setup_layers(&mut layers, times);
    let answered: Vec<Estimate> = traced_answers.values().map(|e| (*e).clone()).collect();
    let n = run.requests().max(1) as f64;
    layers.set("model.calls_per_estimate", m.calls as f64 / n);
    layers.set("model.rows_per_estimate", m.rows as f64 / n);
    layers.set("model.forward_ms_per_estimate", m.forward_ns as f64 / 1e6 / n);
    layers.set("model.forward_share", m.forward_ns as f64 / 1e6 / e2e.max(1e-12));
    layers.set("tensor.flops_per_estimate", m.flops as f64 / n);
    layers.set("tensor.matmul_gflops", matmul_gflops(engine.domain_sizes(), &config.model, scale.samples));
    let queries: Vec<Query> = pool.iter().take(1000).cloned().collect();
    codec_layers(&mut layers, &queries, &answered, engine.num_columns());
    // Tier shares over every answer; the fast-path time over the kept ones.
    let tiers = run.clients.iter().fold([0u64; 3], |acc, c| [0, 1, 2].map(|t| acc[t] + c.tiers[t]));
    tier_layers(&mut layers, tiers, run.requests(), &answered);

    let qw = Summary::of(&queue_wait);
    layers.set("serve.queue_wait_p50_ms", qw.p50);
    layers.set("serve.queue_wait_tail_ms", qw.tail);
    layers.set("serve.exec_p50_ms", median(&exec));
    layers.set("serve.batch_size_mean", Summary::of(&batch).mean);
    let (a, b) = (&run.after, &run.before);
    layers.set(
        "serve.fused_batch_ratio",
        (a.fused_batches - b.fused_batches) as f64 / (a.batches - b.batches).max(1) as f64,
    );
    let workers = ServeConfig::default().num_workers as f64;
    layers.set("serve.worker_busy_ratio", exec.iter().sum::<f64>() / 1e3 / (workers * run.elapsed_s));
    layers.set("net.residual_p50_ms", median(&residual));

    let traced_p50 = Summary::of(&run.latencies()).p50;
    layers.set("trace.overhead", traced_p50 / Summary::of(&base.latencies()).p50 - 1.0);
    layers.set("trace.unexplained_share", 1.0 - explained / e2e.max(1e-12));
    Ok((layers, tracer))
}
