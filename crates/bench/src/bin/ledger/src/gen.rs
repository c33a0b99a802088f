//! The one seeded input generator every workload draws from.
//!
//! The workload seed drives only the benchmark's inputs: queries, class
//! mixes and arrival schedules. The program under test never sees it. A
//! second stream, salted from the same seed, produces the warm-up requests
//! so that warming never consumes measured inputs.

use std::collections::{BTreeMap, HashSet};

use naru_data::Table;
use naru_query::{generate_query, Query, QueryKey, WorkloadConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::json::{obj, Json};

const WARMUP_SALT: u64 = 0x5741_524d_5550_0001;

/// Filter counts of the paper's query protocol (§6.1.3).
pub const PAPER_FILTERS: (usize, usize) = (5, 11);
/// Filter counts of queries the statistics tiers answer without the model.
pub const EASY_FILTERS: (usize, usize) = (1, 2);

pub struct QueryGen<'t> {
    table: &'t Table,
    rng: StdRng,
    /// Queries generated so far per filter-count range; counts cycle
    /// through each range by it.
    generated: BTreeMap<(usize, usize), usize>,
    /// Keys handed out by [`QueryGen::distinct`], so its queries never
    /// repeat one another.
    seen: HashSet<QueryKey>,
}

impl<'t> QueryGen<'t> {
    pub fn measured(table: &'t Table, seed: u64) -> Self {
        Self { table, rng: StdRng::seed_from_u64(seed), generated: BTreeMap::new(), seen: HashSet::new() }
    }

    pub fn warmup(table: &'t Table, seed: u64) -> Self {
        Self::measured(table, seed ^ WARMUP_SALT)
    }

    /// The filter count of the next query: counts take turns through
    /// `filters.0..=filters.1`, so every seed gets the same filter-count
    /// mix and runs differ only in columns, operators and literals.
    fn next_filter_count(&mut self, filters: (usize, usize)) -> usize {
        let generated = self.generated.entry(filters).or_default();
        let f = filters.0 + *generated % (filters.1 - filters.0 + 1);
        *generated += 1;
        f
    }

    fn with_filters(&mut self, f: usize) -> Query {
        let config = WorkloadConfig { min_filters: f, max_filters: f, ..WorkloadConfig::default() };
        generate_query(self.table, &config, &mut self.rng)
    }

    /// One query with `filters.0..=filters.1` filters on random columns,
    /// whose literals come from a random row of the table. May repeat an
    /// earlier query.
    pub fn query(&mut self, filters: (usize, usize)) -> Query {
        let f = self.next_filter_count(filters);
        self.with_filters(f)
    }

    /// Like [`QueryGen::query`], but never equal (after normalization) to
    /// any earlier `distinct` query of this generator.
    pub fn distinct(&mut self, filters: (usize, usize)) -> Query {
        let f = self.next_filter_count(filters);
        loop {
            let query = self.with_filters(f);
            let key = QueryKey::new(&query, self.table.num_columns()).expect("generated queries are in range");
            if self.seen.insert(key) {
                return query;
            }
        }
    }

    /// A distinct query that filters exactly `columns` (ascending), with
    /// the protocol's operators and literals: candidates are drawn until one
    /// filters that column set.
    pub fn on_columns(&mut self, columns: &[usize]) -> Query {
        loop {
            let query = self.with_filters(columns.len());
            if filtered_columns(&query) != columns {
                continue;
            }
            let key = QueryKey::new(&query, self.table.num_columns()).expect("generated queries are in range");
            if self.seen.insert(key) {
                return query;
            }
        }
    }

    /// `count` distinct sets of `filters` columns, in the order drawn.
    pub fn column_sets(&mut self, filters: usize, count: usize) -> Vec<Vec<usize>> {
        let mut sets: Vec<Vec<usize>> = Vec::with_capacity(count);
        while sets.len() < count {
            let columns = filtered_columns(&self.with_filters(filters));
            if !sets.contains(&columns) {
                sets.push(columns);
            }
        }
        sets
    }

    /// `k` distinct queries chosen from `oversample * k` candidates at
    /// evenly spaced ranks of `key` (from a seeded offset), in a seeded
    /// random order. The chosen set's key distribution follows the
    /// quantiles of the larger candidate set, so seeds differ in which
    /// queries they get but much less in their mix of, say, true
    /// cardinalities; the marginal distribution stays the generator's.
    pub fn stratified<K: Ord>(
        &mut self,
        filters: (usize, usize),
        k: usize,
        oversample: usize,
        key: impl FnMut(&Query) -> K,
    ) -> Vec<Query> {
        let mut candidates: Vec<Query> = (0..k * oversample).map(|_| self.distinct(filters)).collect();
        candidates.sort_by_cached_key(key);
        let step = oversample.max(1);
        let offset = self.rng.gen_range(0..step);
        let mut chosen: Vec<Query> = candidates.into_iter().skip(offset).step_by(step).take(k).collect();
        chosen.shuffle(&mut self.rng);
        chosen
    }

    /// `shares.len()` classes, class `c` taking `round(n * shares[c])` of
    /// `n` slots (the last class takes the rest), in a seeded random order.
    pub fn classes(&mut self, n: usize, shares: &[f64]) -> Vec<usize> {
        let mut slots = Vec::with_capacity(n);
        for (c, share) in shares.iter().enumerate() {
            let count = if c + 1 == shares.len() { n - slots.len() } else { (n as f64 * share).round() as usize };
            slots.extend(std::iter::repeat_n(c, count.min(n - slots.len())));
        }
        slots.shuffle(&mut self.rng);
        slots
    }

    /// A uniform draw from `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.rng.gen::<f64>()
    }

    /// Arrival offsets, in seconds from the start, of a Poisson process at
    /// `rate` per second over `seconds`, conditioned on its expected count in
    /// each second: given the count in a window, Poisson arrival times are
    /// sorted uniform draws over it. Bursts within a second differ from seed
    /// to seed, but every second offers the same load. Conditioned on the
    /// whole run's count only, a seed's slow and busy seconds moved
    /// serve-open's p90 by 30% (interquartile range over median, 10 seeds
    /// at 50 a second); per second, by 13%.
    pub fn poisson(&mut self, rate: f64, seconds: f64) -> Vec<f64> {
        let mut arrivals = Vec::with_capacity((rate * seconds).ceil() as usize);
        let mut start = 0.0;
        while start < seconds {
            let width = (seconds - start).min(1.0);
            let count = (rate * width).round() as usize;
            let mut window: Vec<f64> = (0..count).map(|_| start + self.unit() * width).collect();
            window.sort_by(f64::total_cmp);
            arrivals.extend(window);
            start += 1.0;
        }
        arrivals
    }
}

/// The columns `query` filters, ascending.
pub fn filtered_columns(query: &Query) -> Vec<usize> {
    let mut columns: Vec<usize> = query.predicates().iter().map(|p| p.column).collect();
    columns.sort_unstable();
    columns.dedup();
    columns
}

/// Zipf(s) ranks over `0..n` by inverse CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let weights: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        Self {
            cdf: weights
                .iter()
                .map(|w| {
                    acc += w / total;
                    acc
                })
                .collect(),
        }
    }

    pub fn sample(&self, u: f64) -> usize {
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

/// Every non-empty sub-conjunction of `base`, in mask order: the probe set
/// an optimizer enumerates when it costs each subset of a plan's
/// predicates.
pub fn sub_conjunctions(base: &Query) -> Vec<Query> {
    let predicates = base.predicates();
    (1u32..(1 << predicates.len()))
        .map(|mask| {
            Query::new(
                predicates.iter().enumerate().filter(|(i, _)| mask & (1 << i) != 0).map(|(_, p)| p.clone()).collect(),
            )
        })
        .collect()
}

/// What one run fed the program: recorded with every result so no number
/// can quietly rest on a repeat-heavy stream or a different thread count.
#[derive(Debug, Default)]
pub struct InputRecord {
    num_columns: usize,
    issued: usize,
    keys: HashSet<QueryKey>,
    filters: BTreeMap<usize, usize>,
}

impl InputRecord {
    pub fn new(num_columns: usize) -> Self {
        Self { num_columns, ..Self::default() }
    }

    pub fn note(&mut self, query: &Query) {
        self.issued += 1;
        *self.filters.entry(query.num_filtered_columns(self.num_columns)).or_default() += 1;
        self.keys.insert(QueryKey::new(query, self.num_columns).expect("generated queries are in range"));
    }

    pub fn distinct(&self) -> usize {
        self.keys.len()
    }

    pub fn dedup_ratio(&self) -> f64 {
        if self.issued == 0 {
            1.0
        } else {
            self.keys.len() as f64 / self.issued as f64
        }
    }

    pub fn to_json(&self) -> Json {
        obj([
            ("issued", self.issued.into()),
            ("distinct", self.distinct().into()),
            ("dedup_ratio", self.dedup_ratio().into()),
            (
                "filter_histogram",
                Json::Obj(self.filters.iter().map(|(k, v)| (k.to_string(), Json::from(*v))).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use naru_data::synthetic::dmv_like;

    #[test]
    fn poisson_schedule_is_determined_by_the_seed() {
        let table = dmv_like(200, 1);
        let a = QueryGen::measured(&table, 7).poisson(50.0, 20.0);
        let b = QueryGen::measured(&table, 7).poisson(50.0, 20.0);
        let c = QueryGen::measured(&table, 8).poisson(50.0, 20.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] <= w[1]) && a[0] >= 0.0 && *a.last().unwrap() < 20.0);
        assert_eq!(a.len(), 1000);
        // Every second offers the same load.
        assert!((0..20).all(|s| a.iter().filter(|&&t| t.floor() as usize == s).count() == 50));
        // Exponential-looking gaps: their mean is 1/rate.
        let mean_gap = a.windows(2).map(|w| w[1] - w[0]).sum::<f64>() / 999.0;
        assert!((mean_gap - 0.02).abs() < 0.002, "mean gap {mean_gap}");
        // The warm-up stream differs from the measured one.
        assert_ne!(QueryGen::warmup(&table, 7).poisson(50.0, 20.0), a);
    }

    #[test]
    fn distinct_queries_never_repeat_and_subsets_cover_every_mask() {
        let table = dmv_like(500, 2);
        let mut gen = QueryGen::measured(&table, 3);
        let mut record = InputRecord::new(table.num_columns());
        for _ in 0..200 {
            record.note(&gen.distinct(EASY_FILTERS));
        }
        assert_eq!(record.dedup_ratio(), 1.0);
        // Filter counts take turns: 100 queries with one filter, 100 with two.
        assert_eq!(record.filters.values().copied().collect::<Vec<_>>(), vec![100, 100]);
        let classes = gen.classes(10, &[0.2, 0.3, 0.5]);
        let count = |c| classes.iter().filter(|&&k| k == c).count();
        assert_eq!((count(0), count(1), count(2)), (2, 3, 5));
        let base = gen.query((5, 5));
        let subs = sub_conjunctions(&base);
        assert_eq!(subs.len(), 31);
        assert_eq!(subs[30], base);
        let sets = gen.column_sets(5, 4);
        assert_eq!(sets.len(), 4);
        assert!(sets.iter().all(|s| s.len() == 5 && s.windows(2).all(|w| w[0] < w[1])));
        let templated = gen.on_columns(&sets[2]);
        assert_eq!(filtered_columns(&templated), sets[2]);
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let zipf = Zipf::new(200, 1.1);
        assert_eq!(zipf.sample(0.0), 0);
        assert_eq!(zipf.sample(0.999_999_999), 199);
        assert!(zipf.sample(0.5) < 20);
    }
}
