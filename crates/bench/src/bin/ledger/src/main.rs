//! `ledger`: the benchmark `BENCHMARK.json` describes. It drives naru only
//! through its public entry points and times those calls from outside.
//!
//! ```text
//! ledger run [--workload W|all] [--seed S] [--seconds T] [--trace 0|1] [--out DIR] [--smoke]
//! ledger compare PARENT_DIR CHANGE_DIR [--benchmark BENCHMARK.json]
//! ```
//!
//! `run --trace 0` prints the end-to-end metrics (tracing off); `run --trace
//! 1` also reruns the workload traced and prints the per-layer metrics. The
//! runner of `BENCHMARK.json` passes `--trace` on every call, so the traced
//! run is this flag rather than a subcommand of its own.
//! The last line of each workload's output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. A failed correctness
//! check exits 1 before any number is printed; bad arguments exit 2.

mod common;
mod compare;
mod gen;
mod http;
mod json;
mod measure;
mod plan;
mod serve;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{SystemTime, UNIX_EPOCH};

use common::{Ctx, Outcome, Workload, FULL, SMOKE};
use json::{obj, Json};

/// `--seconds` when not given: the `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 12.0;

const USAGE: &str = "usage: ledger run [--workload W|all] [--seed S] [--seconds T] [--trace 0|1] [--out DIR] [--smoke]\n       ledger compare PARENT_DIR CHANGE_DIR [--benchmark FILE]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => measure_cmd(&args[1..]),
        Some("compare") => compare_cmd(&args[1..]),
        _ => usage(""),
    }
}

fn usage(problem: &str) -> ExitCode {
    if !problem.is_empty() {
        eprintln!("ledger: {problem}");
    }
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn measure_cmd(args: &[String]) -> ExitCode {
    let mut workloads = Workload::ALL.to_vec();
    let mut trace = false;
    let (mut seed, mut seconds, mut out, mut scale) = (1u64, DEFAULT_SECONDS, None, &FULL);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            scale = &SMOKE;
            continue;
        }
        let Some(value) = it.next() else { return usage(&format!("{flag} needs a value")) };
        match flag.as_str() {
            "--workload" if value == "all" => workloads = Workload::ALL.to_vec(),
            "--workload" => match Workload::from_name(value) {
                Some(w) => workloads = vec![w],
                None => return usage(&format!("unknown workload {value}")),
            },
            "--seed" => match value.parse() {
                Ok(v) => seed = v,
                Err(_) => return usage(&format!("bad seed {value}")),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(v) if v > 0.0 && v.is_finite() => seconds = v,
                _ => return usage(&format!("bad seconds {value}")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage(&format!("bad trace flag {value}")),
            },
            "--out" => out = Some(PathBuf::from(value)),
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    for workload in workloads {
        let ctx = Ctx { workload, seed, seconds, trace, scale, out: out.clone() };
        if let Err(problem) = measure(&ctx) {
            eprintln!("ledger: {}: {problem}", workload.name());
            return ExitCode::from(1);
        }
    }
    ExitCode::SUCCESS
}

fn run_workload(ctx: &Ctx) -> Result<Outcome, String> {
    match ctx.workload {
        Workload::PlanDistinct | Workload::PlanSubsets => plan::run(ctx),
        Workload::ServeOpen => serve::run(ctx),
        Workload::HttpCheap => http::run(ctx),
    }
}

/// Runs one workload, prints its numbers and writes its files.
fn measure(ctx: &Ctx) -> Result<(), String> {
    let started_ms = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0.0, |d| d.as_secs_f64() * 1e3);
    let mut outcome = run_workload(ctx)?;
    if let Some((layers, tracer)) = outcome.traced.as_mut() {
        layers.set("trace.dropped_spans", tracer.dropped() as f64);
    }
    let shown = match &outcome.traced {
        Some((layers, _)) => layers,
        None => &outcome.end_to_end,
    };
    let values = shown.complete()?;
    outcome.end_to_end.complete()?;

    let name = ctx.workload.name();
    println!("== {name} (seed {}, {} s, {}, trace {})", ctx.seed, ctx.seconds, ctx.scale.label, u8::from(ctx.trace));
    for (key, value) in &outcome.record {
        println!("   {key}: {}", value.render());
    }
    for (metric, value, unit) in &values {
        println!("   {metric:<32} {value:>14.6} {unit}");
    }

    let mut file = outcome.record.clone();
    file.insert("workload".to_owned(), name.into());
    file.insert("seed".to_owned(), ctx.seed.into());
    file.insert("seconds".to_owned(), ctx.seconds.into());
    file.insert("started_unix_ms".to_owned(), started_ms.into());
    file.insert("nproc".to_owned(), measure::nproc().into());
    file.insert("scale".to_owned(), format!("{:?}", ctx.scale).into());
    file.insert("correct".to_owned(), true.into());
    file.insert("attempted".to_owned(), outcome.attempted.into());
    file.insert("failed".to_owned(), outcome.failed.into());
    file.insert("metrics".to_owned(), outcome.end_to_end.to_json());
    if let Some(dir) = &ctx.out {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let write = |path: &Path, json: &Json| {
            std::fs::write(path, json.render() + "\n").map_err(|e| format!("{}: {e}", path.display()))
        };
        if let Some((layers, tracer)) = &outcome.traced {
            file.insert("layers".to_owned(), layers.to_json());
            write(&dir.join(format!("layers-{name}-{}.json", ctx.seed)), &Json::Obj(file))?;
            let spans = dir.join(format!("trace-{name}-{}.json", ctx.seed));
            tracer.write(&spans).map_err(|e| format!("{}: {e}", spans.display()))?;
        } else {
            write(&dir.join(format!("run-{name}-{}.json", ctx.seed)), &Json::Obj(file))?;
        }
    }

    let metrics = Json::Obj(
        values
            .iter()
            .map(|&(metric, value, unit)| (metric.to_owned(), obj([("value", value.into()), ("unit", unit.into())])))
            .collect(),
    );
    let result = obj([
        ("correct", true.into()),
        ("attempted", outcome.attempted.into()),
        ("failed", outcome.failed.into()),
        ("metrics", metrics),
    ]);
    println!("{}", result.render());
    Ok(())
}

fn compare_cmd(args: &[String]) -> ExitCode {
    let mut dirs = Vec::new();
    let mut benchmark = PathBuf::from("BENCHMARK.json");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--benchmark" {
            match it.next() {
                Some(path) => benchmark = PathBuf::from(path),
                None => return usage("--benchmark needs a path"),
            }
        } else {
            dirs.push(PathBuf::from(arg));
        }
    }
    let [parent, change] = dirs.as_slice() else { return usage("compare needs PARENT_DIR and CHANGE_DIR") };
    match compare::compare(parent, change, &benchmark) {
        Ok(table) => {
            print!("{table}");
            ExitCode::SUCCESS
        }
        Err(problem) => {
            eprintln!("ledger: compare: {problem}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn benchmark_json() -> Json {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../../../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root")).unwrap()
    }

    fn listed(json: &Json, key: &str) -> BTreeSet<(String, String)> {
        json.get(key)
            .map(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or_default().to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn smoke(workload: Workload) -> Outcome {
        let ctx = Ctx { workload, seed: 3, seconds: 0.3, trace: true, scale: &SMOKE, out: None };
        run_workload(&ctx).unwrap_or_else(|e| panic!("{}: {e}", workload.name()))
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_code_emits() {
        let json = benchmark_json();
        let workloads: BTreeSet<String> = listed(&json, "workloads").into_iter().map(|(name, _)| name).collect();
        assert_eq!(workloads, Workload::ALL.iter().map(|w| w.name().to_owned()).collect());
        let pairs = |catalog: &[(&str, &str)]| -> BTreeSet<(String, String)> {
            catalog.iter().map(|&(n, u)| (n.to_owned(), u.to_owned())).collect()
        };
        assert_eq!(listed(&json, "end_to_end"), pairs(&common::END_TO_END));
        assert_eq!(listed(&json, "per_layer"), pairs(&common::PER_LAYER));
        let command: Vec<&str> = json.get("command").unwrap().as_arr().iter().filter_map(Json::as_str).collect();
        assert!(command.contains(&"run"), "the command runs the `run` subcommand");
        assert_eq!(json.get("run_seconds").and_then(Json::as_f64), Some(DEFAULT_SECONDS));
    }

    #[test]
    fn every_workload_runs_at_smoke_scale_and_emits_every_metric() {
        for workload in Workload::ALL {
            let outcome = smoke(workload);
            let names = |values: Vec<(&'static str, f64, &'static str)>| -> Vec<&'static str> {
                values.into_iter().map(|(n, _, _)| n).collect()
            };
            let e2e = names(outcome.end_to_end.complete().unwrap());
            assert_eq!(e2e, common::END_TO_END.map(|(n, _)| n));
            let (layers, _) = outcome.traced.expect("trace pass ran");
            assert_eq!(names(layers.complete().unwrap()), common::PER_LAYER.map(|(n, _)| n));
            assert!(outcome.attempted > 0 && outcome.failed == 0, "{}", workload.name());
            assert!(outcome.end_to_end.get("setup_s") > 0.0 && outcome.end_to_end.get("p50_ms") > 0.0);
        }
    }
}
