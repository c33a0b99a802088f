//! `ledger compare PARENT CHANGE`: the pairing rule for judging a change
//! against its parent from two directories of `run` results.
//!
//! Runs pair up by workload and seed. A change improves a metric only when
//! it wins at least nine in ten of at least ten pairs, ties counting for
//! neither side, and the medians differ by more than the parent's own
//! interquartile range. It regresses when its median is worse by more than
//! the metric's bound from `BENCHMARK.json`. Where the parent's spread is
//! wider than that bound the row is unresolved, unless every change run
//! beats every parent run. A gain does not count when the change fails a
//! larger share of its operations than the parent: each workload gets a
//! `fail_ratio` row, regressed on any increase, and an increase turns the
//! workload's improved rows into unresolved ones.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::Json;
use crate::measure::{median, quartiles};

pub const MIN_PAIRS: usize = 10;
const WIN_SHARE: f64 = 0.9;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

/// Judges one (metric, workload) from paired runs: `parent[i]` and
/// `change[i]` share a seed.
pub fn verdict(parent: &[f64], change: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let n = parent.len().min(change.len());
    let (Some(pq), true) = (quartiles(parent), n >= MIN_PAIRS) else {
        return Verdict::Unresolved;
    };
    let better = |a: f64, b: f64| if lower_is_better { a < b } else { a > b };
    let wins = parent.iter().zip(change).filter(|&(&p, &c)| better(c, p)).count();
    let (mp, mc) = (median(parent), median(change));
    let spread = pq[2] - pq[0];
    if wins as f64 >= WIN_SHARE * n as f64 && better(mc, mp) && (mc - mp).abs() > spread {
        return Verdict::Improved;
    }
    let scale = mp.abs().max(f64::MIN_POSITIVE);
    let worse_share = if lower_is_better { (mc - mp) / scale } else { (mp - mc) / scale };
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    if spread / scale > bound && !all_better {
        Verdict::Unresolved
    } else if worse_share > bound {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    }
}

/// Failed operations over attempted ones, pooled over `runs` of
/// `(attempted, failed)`.
fn fail_ratio(runs: &[(u64, u64)]) -> f64 {
    let (attempted, failed) = runs.iter().fold((0, 0), |(a, f), &(ra, rf)| (a + ra, f + rf));
    failed as f64 / attempted.max(1) as f64
}

/// Judges the failures of paired runs, each `(attempted, failed)`: any
/// increase in the share that failed is a regression.
pub fn failure_verdict(parent: &[(u64, u64)], change: &[(u64, u64)]) -> Verdict {
    if fail_ratio(change) > fail_ratio(parent) {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    }
}

/// A metric's verdict once the workload's failures are known: no gain
/// counts while more operations fail than at the parent.
pub fn discounted(metric: Verdict, failures: Verdict) -> Verdict {
    match (metric, failures) {
        (Verdict::Improved, Verdict::Regressed) => Verdict::Unresolved,
        (metric, _) => metric,
    }
}

struct RunFile {
    workload: String,
    seed: u64,
    started_ms: f64,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

fn load_runs(dir: &Path) -> Result<Vec<RunFile>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut runs = Vec::new();
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default();
        if !(name.starts_with("run-") && name.ends_with(".json")) {
            continue;
        }
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let field = |k: &str| json.get(k).ok_or_else(|| format!("{}: no {k}", path.display()));
        let metrics = match field("metrics")? {
            Json::Obj(map) => {
                map.iter().filter_map(|(k, v)| v.get("value").and_then(Json::as_f64).map(|v| (k.clone(), v))).collect()
            }
            _ => return Err(format!("{}: metrics is not an object", path.display())),
        };
        let count = |k: &str| -> Result<u64, String> {
            field(k)?.as_f64().map(|v| v as u64).ok_or_else(|| format!("{}: {k} is not a number", path.display()))
        };
        runs.push(RunFile {
            workload: field("workload")?.as_str().unwrap_or_default().to_owned(),
            seed: field("seed")?.as_f64().unwrap_or(-1.0) as u64,
            started_ms: field("started_unix_ms")?.as_f64().unwrap_or(0.0),
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        });
    }
    Ok(runs)
}

/// `(name, lower_is_better, bound)` of every end-to-end metric.
fn bounds(benchmark: &Json) -> Vec<(String, bool, f64)> {
    benchmark
        .get("end_to_end")
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).unwrap_or_default().to_owned();
            let lower = m.get("better").and_then(Json::as_str) == Some("lower");
            (name, lower, m.get("bound").and_then(Json::as_f64).unwrap_or(0.0))
        })
        .collect()
}

/// Renders one row per (workload, metric). Fails when the pairs did not
/// alternate which side ran first.
pub fn compare(parent_dir: &Path, change_dir: &Path, benchmark: &Path) -> Result<String, String> {
    let text = std::fs::read_to_string(benchmark).map_err(|e| format!("{}: {e}", benchmark.display()))?;
    let metrics = bounds(&Json::parse(&text)?);
    let (parent, change) = (load_runs(parent_dir)?, load_runs(change_dir)?);
    let mut workloads: Vec<&str> = parent.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();

    let mut out = format!(
        "{:<14} {:<12} {:>5} {:>28} {:>28} {:>6}  verdict\n",
        "workload", "metric", "pairs", "parent median [q1, q3]", "change median [q1, q3]", "wins"
    );
    for workload in workloads {
        let mut pairs: Vec<(&RunFile, &RunFile)> = parent
            .iter()
            .filter(|p| p.workload == workload)
            .filter_map(|p| change.iter().find(|c| c.workload == workload && c.seed == p.seed).map(|c| (p, c)))
            .collect();
        pairs.sort_by(|a, b| a.0.started_ms.min(a.1.started_ms).total_cmp(&b.0.started_ms.min(b.1.started_ms)));
        let parent_first: Vec<bool> = pairs.iter().map(|(p, c)| p.started_ms < c.started_ms).collect();
        if parent_first.windows(2).any(|w| w[0] == w[1]) {
            return Err(format!("{workload}: pairs must alternate which side runs first"));
        }
        let p_counts: Vec<(u64, u64)> = pairs.iter().map(|(p, _)| (p.attempted, p.failed)).collect();
        let c_counts: Vec<(u64, u64)> = pairs.iter().map(|(_, c)| (c.attempted, c.failed)).collect();
        let failures = failure_verdict(&p_counts, &c_counts);
        out.push_str(&format!(
            "{:<14} {:<12} {:>5} {:>28} {:>28} {:>6}  {:?}\n",
            workload,
            "fail_ratio",
            pairs.len(),
            format!("{:.6}", fail_ratio(&p_counts)),
            format!("{:.6}", fail_ratio(&c_counts)),
            "-",
            failures
        ));
        for (name, lower, bound) in &metrics {
            let (p, c): (Vec<f64>, Vec<f64>) =
                pairs.iter().filter_map(|(p, c)| Some((*p.metrics.get(name)?, *c.metrics.get(name)?))).unzip();
            let better = |a: f64, b: f64| if *lower { a < b } else { a > b };
            let wins = p.iter().zip(&c).filter(|&(&p, &c)| better(c, p)).count();
            let describe = |v: &[f64]| match quartiles(v) {
                Some(q) => format!("{:.4} [{:.4}, {:.4}]", median(v), q[0], q[2]),
                None => "-".to_owned(),
            };
            out.push_str(&format!(
                "{:<14} {:<12} {:>5} {:>28} {:>28} {:>6}  {:?}\n",
                workload,
                name,
                p.len().min(c.len()),
                describe(&p),
                describe(&c),
                format!("{wins}/{}", p.len().min(c.len())),
                discounted(verdict(&p, &c, *lower, *bound), failures)
            ));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ten values around `center` with a ±1% wobble.
    fn runs(center: f64) -> Vec<f64> {
        (0..10).map(|i| center * (1.0 + 0.01 * ((i % 5) as f64 - 2.0) / 2.0)).collect()
    }

    #[test]
    fn a_consistent_gain_beyond_the_parent_spread_is_an_improvement() {
        assert_eq!(verdict(&runs(100.0), &runs(90.0), true, 0.1), Verdict::Improved);
        assert_eq!(verdict(&runs(100.0), &runs(110.0), false, 0.1), Verdict::Improved);
    }

    #[test]
    fn noise_within_the_bound_is_unchanged() {
        let mut change = runs(100.0);
        change.rotate_left(3);
        assert_eq!(verdict(&runs(100.0), &change, true, 0.1), Verdict::Unchanged);
        // A small consistent shift inside the parent's spread is no gain.
        assert_eq!(verdict(&runs(100.0), &runs(99.9), true, 0.1), Verdict::Unchanged);
    }

    #[test]
    fn a_median_worse_by_more_than_the_bound_regresses() {
        assert_eq!(verdict(&runs(100.0), &runs(115.0), true, 0.1), Verdict::Regressed);
        assert_eq!(verdict(&runs(100.0), &runs(85.0), false, 0.1), Verdict::Regressed);
    }

    #[test]
    fn spread_wider_than_the_bound_or_too_few_pairs_is_unresolved() {
        let wide: Vec<f64> = (0..10).map(|i| if i % 2 == 0 { 60.0 } else { 140.0 }).collect();
        assert_eq!(verdict(&wide, &runs(105.0), true, 0.1), Verdict::Unresolved);
        // ...unless every change run beats every parent run; the gap is
        // still inside the parent's spread, so that is no claimed gain.
        assert_eq!(verdict(&wide, &runs(50.0), true, 0.1), Verdict::Unchanged);
        assert_eq!(verdict(&runs(100.0)[..9], &runs(90.0)[..9], true, 0.1), Verdict::Unresolved);
    }

    #[test]
    fn more_failures_regress_and_void_a_gain() {
        let parent = [(1000, 0); 10];
        let mut change = parent;
        assert_eq!(failure_verdict(&parent, &change), Verdict::Unchanged);
        change[4].1 = 1;
        assert_eq!(failure_verdict(&parent, &change), Verdict::Regressed);
        // The share, not the count: more attempts may fail as many.
        assert_eq!(failure_verdict(&[(1000, 2)], &[(2000, 4)]), Verdict::Unchanged);
        // A latency gain bought by failing more requests is no gain.
        let faster = verdict(&runs(100.0), &runs(90.0), true, 0.1);
        assert_eq!(discounted(faster, failure_verdict(&parent, &change)), Verdict::Unresolved);
        assert_eq!(discounted(faster, Verdict::Unchanged), Verdict::Improved);
        assert_eq!(discounted(Verdict::Regressed, Verdict::Regressed), Verdict::Regressed);
    }

    #[test]
    fn nine_wins_in_ten_are_needed() {
        let parent = runs(100.0);
        let mut change = runs(90.0);
        change[0] = 200.0;
        change[1] = 200.0;
        // 8 wins of 10: no claim, and the median is not worse either.
        assert_eq!(verdict(&parent, &change, true, 0.1), Verdict::Unchanged);
        change[1] = 90.0;
        assert_eq!(verdict(&parent, &change, true, 0.1), Verdict::Improved);
    }
}
