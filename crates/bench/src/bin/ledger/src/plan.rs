//! The two closed-loop workloads of a single caller planning queries:
//! `plan-distinct` (the paper's setting, one estimate per distinct query)
//! and `plan-subsets` (one batch per plan over every sub-conjunction of
//! its predicates, which the batch path's prefix memo shares work across).

use std::sync::Arc;
use std::time::Instant;

use naru_core::Engine;
use naru_query::{Estimate, EstimateError, Query};

use crate::common::{
    check, codec_layers, end_to_end, flops_per_row, matmul_gflops, q_errors, same_answer, set_setup_layers, setup,
    spread, tier_counts, tier_layers, truth, Ctx, Measured, Metrics, Outcome, SetupTimes, Workload, OVERSAMPLE,
};
use crate::gen::{sub_conjunctions, InputRecord, QueryGen, PAPER_FILTERS};
use crate::json::Json;
use crate::measure::{nproc, Summary};
use crate::trace::{ModelCounts, TimedDensity, Tracer};

type Answer = Result<Estimate, EstimateError>;

fn same_result(a: &Answer, b: &Answer) -> bool {
    match (a, b) {
        (Ok(a), Ok(b)) => same_answer(a, b),
        (Err(a), Err(b)) => a == b,
        _ => false,
    }
}

/// Seed and count of plan-subsets' column-set templates: fixed, so every
/// run mixes the same column sets.
const TEMPLATE_SEED: u64 = 0x7e4d_9a7e;
const TEMPLATES: usize = 11;

/// One closed-loop pass: each unit is one estimate (plan-distinct) or one
/// plan's batch (plan-subsets).
#[derive(Default)]
struct Pass {
    latencies_ms: Vec<f64>,
    answers: Vec<Vec<Answer>>,
    elapsed_s: f64,
    model: ModelCounts,
}

impl Pass {
    fn estimates(&self) -> usize {
        self.answers.iter().map(Vec::len).sum()
    }

    fn failed(&self) -> usize {
        self.answers.iter().flatten().filter(|a| a.is_err()).count()
    }
}

/// Runs `units` through `walk` until `seconds` pass or the units run out,
/// after warming the same session on `warm`. With a tracer, every unit is
/// a `request` span and the forward passes inside it are its children.
fn closed_loop(
    engine: &Engine,
    units: &[Vec<Query>],
    warm: &[Vec<Query>],
    seconds: f64,
    tracer: Option<&Tracer>,
) -> Pass {
    let mut session = engine.session();
    let walk = |session: &mut naru_core::Session, unit: &[Query]| -> Vec<Answer> {
        match unit {
            [single] => vec![session.estimate(single)],
            batch => session.estimate_batch(batch),
        }
    };
    for unit in warm {
        walk(&mut session, unit);
    }
    let before = tracer.map(Tracer::model_counts).unwrap_or_default();
    let mut pass = Pass::default();
    let start = Instant::now();
    for (i, unit) in units.iter().enumerate() {
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let id = tracer.map(|t| {
            let id = t.reserve();
            t.enter(i as u64, id);
            id
        });
        let t0 = Instant::now();
        let answers = walk(&mut session, unit);
        let t1 = Instant::now();
        if let (Some(t), Some(id)) = (tracer, id) {
            t.leave();
            t.record(id, "request", t0, t1, None, Some(i as u64));
        }
        pass.latencies_ms.push((t1 - t0).as_secs_f64() * 1e3);
        pass.answers.push(answers);
    }
    pass.elapsed_s = start.elapsed().as_secs_f64();
    pass.model = tracer.map(|t| t.model_counts().since(before)).unwrap_or_default();
    pass
}

/// The workload's inputs: the units of work and the warm-up units.
fn inputs(ctx: &Ctx, table: &naru_data::Table) -> (Vec<Vec<Query>>, Vec<Vec<Query>>) {
    let scale = ctx.scale;
    let mut gen = QueryGen::measured(table, ctx.seed);
    let mut warm = QueryGen::warmup(table, ctx.seed);
    match ctx.workload {
        Workload::PlanSubsets => {
            // A plan's cost is set by which columns it filters (how far its
            // sub-queries walk, and how much of the walk they share), so
            // plans take turns through fixed column-set templates and the
            // seed draws only operators and literals.
            let templates = QueryGen::measured(table, TEMPLATE_SEED).column_sets(scale.plan_filters, TEMPLATES);
            let units = (0..scale.plan_pool).map(|i| sub_conjunctions(&gen.on_columns(&templates[i % TEMPLATES])));
            let warm =
                (0..scale.warmup.div_ceil(10)).map(|i| sub_conjunctions(&warm.on_columns(&templates[i % TEMPLATES])));
            (units.collect(), warm.collect())
        }
        _ => {
            let mut pool = gen.stratified(PAPER_FILTERS, scale.distinct_accuracy, OVERSAMPLE, |q| truth(table, q));
            pool.extend((pool.len()..scale.distinct_pool).map(|_| gen.distinct(PAPER_FILTERS)));
            let units = pool.into_iter().map(|q| vec![q]).collect();
            let warm = (0..scale.warmup).map(|_| vec![warm.query(PAPER_FILTERS)]).collect();
            (units, warm)
        }
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let scale = ctx.scale;
    let table = ctx.table();
    let n = table.num_columns();
    let subsets = ctx.workload == Workload::PlanSubsets;
    let (engine, (), times) = setup(&table, scale, |_| Ok(()))?;
    let (units, warm) = inputs(ctx, &table);

    let base = closed_loop(&engine, &units, &warm, ctx.seconds, None);
    let done = base.answers.len();
    check(done < units.len(), || {
        format!("all {} units answered before the time ran out; raise the pool", units.len())
    })?;
    check(done > 0, || "no unit finished within the run".to_owned())?;

    // Every checked answer must equal a fresh reference session's: for
    // plans, the batch against each sub-query walked singly.
    let checked: Vec<usize> =
        if subsets { (0..scale.plan_checked.min(done)).collect() } else { spread(done, scale.check_sample) };
    for &i in &checked {
        let mut reference = engine.session();
        for (query, answer) in units[i].iter().zip(&base.answers[i]) {
            let single = reference.estimate(query);
            check(same_result(&single, answer), || {
                format!("unit {i}: answer {answer:?} differs from the reference walk {single:?}")
            })?;
        }
    }

    // q-error over a fixed prefix of the units, so accuracy does not
    // depend on how many units the time allowed; units past the timed
    // loop are answered afterwards.
    let accuracy_units = if subsets { scale.plan_accuracy } else { scale.distinct_accuracy };
    let mut late = engine.session();
    let accuracy_answers: Vec<Vec<Answer>> = units[..accuracy_units.min(units.len())]
        .iter()
        .enumerate()
        .map(|(i, unit)| match base.answers.get(i) {
            Some(answers) => answers.clone(),
            None => unit.iter().map(|q| late.estimate(q)).collect(),
        })
        .collect();
    let mut pairs = Vec::new();
    for (unit, answers) in units.iter().zip(&accuracy_answers) {
        for (query, answer) in unit.iter().zip(answers) {
            let estimate = answer.as_ref().map_err(|e| format!("accuracy query {query:?} failed: {e}"))?;
            pairs.push((query, estimate));
        }
    }
    let mut inputs = InputRecord::new(n);
    units[..done].iter().flatten().for_each(|q| inputs.note(q));
    check(subsets || inputs.dedup_ratio() == 1.0, || format!("dedup ratio {} != 1", inputs.dedup_ratio()))?;
    let (end_to_end, mut record) = end_to_end(
        ctx,
        &times,
        Measured {
            latencies_ms: &base.latencies_ms,
            qps: base.estimates() as f64 / base.elapsed_s,
            qerrs: &q_errors(&table, &pairs),
            inputs: &inputs,
            generator_threads: 1,
            program_threads: format!("1 session; tensor kernels up to {}", nproc().min(8)),
        },
    )?;
    record.insert("estimates_per_unit".to_owned(), Json::from(units[0].len()));
    let traced = if ctx.trace { Some(traced(ctx, &engine, &units, &warm, &base, &times)?) } else { None };
    Ok(Outcome { attempted: base.estimates() as u64, failed: base.failed() as u64, end_to_end, traced, record })
}

/// The traced pass: the same units through an engine whose density times
/// each forward pass. Its answers must equal the untraced pass's.
fn traced(
    ctx: &Ctx,
    engine: &Engine,
    units: &[Vec<Query>],
    warm: &[Vec<Query>],
    base: &Pass,
    times: &SetupTimes,
) -> Result<(Metrics, Arc<Tracer>), String> {
    let scale = ctx.scale;
    let config = scale.naru_config();
    let tracer = Tracer::new();
    let timed = TimedDensity::engine(engine, &tracer, flops_per_row(engine.domain_sizes(), &config.model));
    let pass = closed_loop(&timed, units, warm, ctx.seconds, Some(&tracer));
    for (i, (a, b)) in pass.answers.iter().zip(&base.answers).enumerate() {
        let same = a.iter().zip(b).all(|(a, b)| same_result(a, b));
        check(same, || format!("unit {i}: traced answers differ from untraced ones"))?;
    }

    let mut layers = Metrics::per_layer();
    set_setup_layers(&mut layers, times);
    let estimates = pass.estimates().max(1) as f64;
    let m = pass.model;
    let total_ms: f64 = pass.latencies_ms.iter().sum();
    let forward_ms = m.forward_ns as f64 / 1e6;
    layers.set("model.calls_per_estimate", m.calls as f64 / estimates);
    layers.set("model.rows_per_estimate", m.rows as f64 / estimates);
    layers.set("model.forward_ms_per_estimate", forward_ms / estimates);
    layers.set("model.forward_share", forward_ms / total_ms.max(1e-12));
    layers.set("tensor.flops_per_estimate", m.flops as f64 / estimates);
    let rows_per_call = (m.rows / m.calls.max(1)) as usize;
    layers.set("tensor.matmul_gflops", matmul_gflops(engine.domain_sizes(), &config.model, rows_per_call));

    let answered: Vec<Estimate> = pass.answers.iter().flatten().filter_map(|a| a.as_ref().ok().cloned()).collect();
    let queries: Vec<Query> = units[..pass.answers.len()].iter().flatten().take(1000).cloned().collect();
    codec_layers(&mut layers, &queries, &answered[..answered.len().min(1000)], engine.num_columns());
    tier_layers(&mut layers, tier_counts(&answered), answered.len(), &answered);
    let compile_ms = layers.get("query.compile_us") / 1e3;
    layers.set("sampler.self_ms_per_estimate", (total_ms - forward_ms) / estimates - compile_ms);
    let live: usize = answered.iter().filter_map(|e| e.live_paths).sum();
    layers.set("sampler.live_path_ratio", live as f64 / (answered.len().max(1) * scale.samples) as f64);
    if ctx.workload == Workload::PlanSubsets {
        layers.set("sampler.memo_call_ratio", memo_call_ratio(&timed, &tracer, &units[..scale.memo_plans]));
    }

    let untraced = Summary::of(&base.latencies_ms).p50;
    layers.set("trace.overhead", Summary::of(&pass.latencies_ms).p50 / untraced - 1.0);
    layers.set("trace.unexplained_share", 1.0 - forward_ms / total_ms.max(1e-12));
    Ok((layers, tracer))
}

/// Forward calls a plan's batch makes, over the calls its sub-queries make
/// walked one at a time, summed over `plans`; fresh sessions on both sides.
fn memo_call_ratio(timed: &Engine, tracer: &Tracer, plans: &[Vec<Query>]) -> f64 {
    let (mut batched, mut single) = (0, 0);
    for plan in plans {
        let c0 = tracer.model_counts();
        let _ = timed.session().estimate_batch(plan);
        let c1 = tracer.model_counts();
        let mut session = timed.session();
        for query in plan {
            let _ = session.estimate(query);
        }
        let c2 = tracer.model_counts();
        batched += c1.since(c0).calls;
        single += c2.since(c1).calls;
    }
    batched as f64 / single.max(1) as f64
}
