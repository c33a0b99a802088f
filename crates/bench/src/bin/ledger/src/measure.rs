//! Order statistics and process measurements shared by every workload.

/// Percentiles the tail rule may report, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
const MIN_BEYOND: usize = 10;

/// Nearest-rank index of percentile `p` in a sorted sample of `n`. The
/// slack keeps decimal percentiles such as 99.9 from rounding up a rank.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1)) - 1
}

/// The highest percentile on the ladder that has at least ten samples
/// beyond it in a sample of `n`; the median when none has.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER.into_iter().find(|&p| n.saturating_sub(rank(n, p) + 1) >= MIN_BEYOND).unwrap_or(50.0)
}

/// Nearest-rank percentile of an ascending sample; 0 for an empty one.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted.get(rank(sorted.len(), p)).copied().unwrap_or(0.0)
}

/// Median and tail of one timing or error sample.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub tail_p: f64,
    pub tail: f64,
    pub mean: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        Self::capped(values, 100.0)
    }

    /// Like [`Summary::of`], but the tail percentile never exceeds `max_p`:
    /// a closed loop's sample count grows with speed, and a fixed cap keeps
    /// the tail's meaning the same when a change makes the program faster.
    pub fn capped(values: &[f64], max_p: f64) -> Summary {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let tail_p = tail_percentile(n).min(max_p);
        Summary {
            n,
            p50: percentile(&sorted, 50.0),
            tail_p,
            tail: percentile(&sorted, tail_p),
            mean: if n == 0 { 0.0 } else { sorted.iter().sum::<f64>() / n as f64 },
            max: sorted.last().copied().unwrap_or(0.0),
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).p50
}

/// Geometric mean of positive values (q-errors are at least 1); NaN for an
/// empty sample, which the metric catalog then refuses.
pub fn geometric_mean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Quartiles by the exclusive method (Python's
/// `statistics.quantiles(values, n=4)`), so spreads read the same as in
/// any external check of the same numbers. `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, slot) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    Some(out)
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

/// Logical processors available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(10_000), 99.9);
        assert_eq!(tail_percentile(9_999), 99.0);
        assert_eq!(tail_percentile(1_000), 99.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(39), 50.0);
        assert_eq!(tail_percentile(3), 50.0);
        // The chosen percentile really has ten samples above its rank.
        for n in [40, 99, 100, 250, 1_000, 1_234, 10_000] {
            let p = tail_percentile(n);
            assert!(n - (rank(n, p) + 1) >= MIN_BEYOND, "n={n} p={p}");
        }
        let values: Vec<f64> = (1..=1_000).map(f64::from).collect();
        let summary = Summary::of(&values);
        assert_eq!((summary.p50, summary.tail_p, summary.tail), (500.0, 99.0, 990.0));
        let capped = Summary::capped(&values, 95.0);
        assert_eq!((capped.tail_p, capped.tail), (95.0, 950.0));
        assert_eq!(Summary::capped(&values[..100], 95.0).tail_p, 90.0);
    }

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn geometric_mean_of_q_errors() {
        assert!((geometric_mean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
        assert!(geometric_mean(&[]).is_nan());
    }
}
