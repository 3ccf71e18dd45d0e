//! Pieces every workload shares: the report it prints, order
//! statistics, the full-read greedy yardstick behind `n_star`, and the
//! replay of Algorithm 2's inner calls that times single layers.

use std::fmt::{self, Write as _};
use std::hint::black_box;
use std::time::{Duration, Instant};

use lcakp_core::{convert_greedy, LcaKp, QuantileEngine, QueryScratch};
use lcakp_knapsack::iky::{EpsSequence, TildeInstance};
use lcakp_knapsack::solvers::modified_greedy;
use lcakp_knapsack::{Instance, Item, ItemId, NormalizedInstance};
use lcakp_oracle::{ItemOracle, Seed, WeightedSampler};
use lcakp_reproducible::{rquantile, Domain, RQuantileConfig, SampleBudget};
use lcakp_service::seed_to_u64;
use lcakp_workloads::{Family, WorkloadSpec};

use crate::alloc;
use crate::trace::{Recorder, TimedOracle};

/// Operations re-run after the timed loop to measure peak heap.
pub const HEAP_PASS: usize = 4;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Size of the `SmallDominated` instance the greedy yardstick reads.
pub const N_REF: usize = 1_000_000;
/// Timed `modified_greedy` runs per benchmark run.
const GREEDY_REPS: usize = 8;
/// Calls timed on each side of a greedy run that `n_star` pairs it with.
const PAIRED: usize = 5;
/// Repetitions of each replayed sub-millisecond layer call.
const REPLAY_REPS: usize = 25;

pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// One printed metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What happened to every operation a run attempted. `late` counts
/// answers that missed their deadline; every operation that is not
/// answered in full and on time counts as failed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Accounting {
    pub attempted: u64,
    pub answered: u64,
    pub degraded: u64,
    pub late: u64,
    pub shed: u64,
    pub errored: u64,
}

impl Accounting {
    pub fn failed(&self) -> u64 {
        self.attempted - self.good()
    }

    /// Answered in full and within the deadline.
    pub fn good(&self) -> u64 {
        self.answered - self.degraded - self.late
    }

    pub fn availability_permille(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        (self.good() * 1000) as f64 / self.attempted as f64
    }
}

/// Everything one workload run reports.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub accounting: Accounting,
    /// Named correctness checks, each made outside the timed region.
    pub checks: Vec<(String, bool)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn check(&mut self, name: impl Into<String>, passed: bool) {
        self.checks.push((name.into(), passed));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn correct(&self) -> bool {
        !self.checks.is_empty() && self.checks.iter().all(|(_, passed)| *passed)
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and every metric.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.accounting.attempted,
            self.accounting.failed()
        );
        for (position, metric) in self.metrics.iter().enumerate() {
            let value = if metric.value.is_finite() {
                metric.value
            } else {
                0.0
            };
            let _ = write!(
                out,
                "{}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                if position == 0 { "" } else { ", " },
                metric.name,
                value,
                metric.unit
            );
        }
        out.push_str("}}");
        out
    }
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The highest percentile with at least ten samples beyond it: the
/// eleventh-largest sample, with its percentile. Fewer than eleven
/// samples fall back to the maximum.
pub fn tail(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n <= 10 {
        return (100.0, sorted[n - 1]);
    }
    let percentile = 100.0 * (n - 10) as f64 / n as f64;
    (percentile, sorted[n - 11])
}

/// Exact order statistic of integer samples at `permille`.
pub fn percentile_u64(values: &[u64], permille: u64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = (sorted.len() as u64 * permille).div_ceil(1000).max(1) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Generates and normalises one instance; returns it with the time
/// taken.
pub fn generate(family: Family, n: usize, seed: &Seed) -> (NormalizedInstance, f64) {
    let start = Instant::now();
    let norm = WorkloadSpec::new(family, n, seed_to_u64(seed))
        .generate_normalized()
        .expect("built-in workload families always generate");
    (norm, ms_since(start))
}

/// The full-read yardstick behind `n_star`: `modified_greedy` over a
/// `SmallDominated` instance of `N_REF` items, run a few times spread
/// evenly through the timed loop. Each run is paired with the calls
/// timed just before and after it, so `n_star` compares the LCA and the
/// full read under the same machine conditions.
#[derive(Debug)]
pub struct Yardstick {
    /// Freed by [`Yardstick::release`] once the timed loop is over.
    instance: Option<Instance>,
    /// `(greedy ms, calls timed before it)` per run.
    runs: Vec<(f64, usize)>,
    feasible: bool,
}

impl Yardstick {
    pub fn new(root: &Seed) -> Self {
        let seed = root.derive("perfbench/greedy-reference", 0);
        let instance = WorkloadSpec::new(Family::SmallDominated, N_REF, seed_to_u64(&seed))
            .generate()
            .expect("the reference instance generates");
        Yardstick {
            instance: Some(instance),
            runs: Vec::with_capacity(GREEDY_REPS),
            feasible: true,
        }
    }

    /// Runs greedy once if the timed loop, `timed` into its `budget`,
    /// has reached the next of `GREEDY_REPS` evenly spaced points.
    pub fn tick(&mut self, timed: Duration, budget: Duration, calls: usize) {
        let due = budget.mul_f64((self.runs.len() as f64 + 0.5) / GREEDY_REPS as f64);
        let Some(instance) = &self.instance else {
            return;
        };
        if self.runs.len() < GREEDY_REPS && timed >= due {
            let start = Instant::now();
            let outcome = black_box(modified_greedy(black_box(instance)));
            self.runs.push((ms_since(start), calls));
            self.feasible &= outcome.selection.is_feasible(instance);
        }
    }

    /// Frees the reference instance, so it does not count in the
    /// program's peak heap.
    pub fn release(&mut self) {
        self.instance = None;
    }

    /// Whether every greedy solution was feasible.
    pub fn feasible(&self) -> bool {
        self.feasible
    }

    /// Median greedy time, ms.
    pub fn greedy_ms(&self) -> f64 {
        median(&self.runs.iter().map(|&(ms, _)| ms).collect::<Vec<_>>())
    }

    /// `n_star`: the instance size at which one LCA query costs as much
    /// as the full read, scaled linearly from `N_REF` — the median over
    /// greedy runs of `N_REF` × (mean per-query ms of the `PAIRED` calls
    /// on each side of the run) / (its greedy ms).
    pub fn n_star(&self, per_query_ms: &[f64]) -> f64 {
        let ratios: Vec<f64> = self
            .runs
            .iter()
            .filter_map(|&(greedy_ms, calls)| {
                let window = &per_query_ms
                    [calls.saturating_sub(PAIRED)..(calls + PAIRED).min(per_query_ms.len())];
                (!window.is_empty()).then(|| {
                    N_REF as f64 * window.iter().sum::<f64>() / window.len() as f64 / greedy_ms
                })
            })
            .collect();
        median(&ratios)
    }
}

/// Totals of one pass of the core query loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoreLoop {
    pub ns: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub retries: u64,
    pub degraded: u64,
}

/// Answers `queries` — `(index, item)` pairs — one by one through
/// `query_with_audit_in` with one reused scratch, query `index`
/// sampling from its own stream under `sampling`.
pub fn core_loop<O>(
    lca: &LcaKp,
    oracle: &O,
    shared: &Seed,
    sampling: &Seed,
    queries: &[(u64, ItemId)],
    scratch: &mut QueryScratch,
) -> CoreLoop
where
    O: ItemOracle + WeightedSampler,
{
    let mut totals = CoreLoop::default();
    let before = alloc::snapshot();
    let start = Instant::now();
    for &(index, item) in queries {
        let mut rng = sampling.derive("perfbench/core-query", index).rng();
        if let Ok((_, audit)) = lca.query_with_audit_in(oracle, &mut rng, item, shared, scratch) {
            totals.retries += audit.retries_used;
            totals.degraded += u64::from(audit.degraded.is_some());
        }
    }
    totals.ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let delta = alloc::snapshot().since(before);
    totals.allocs = delta.allocs;
    totals.alloc_bytes = delta.bytes;
    totals
}

/// The core loop over the same queries three ways, back to back so
/// they see the same machine: plain, with the naive quantile, and
/// through the timing oracle. Their differences split query time into
/// reproducible excess, oracle time and core self time.
#[derive(Debug, Default)]
pub struct CoreSplit {
    pub plain: CoreLoop,
    pub naive_ns: u64,
    pub oracle_ns: f64,
    pub queries: u64,
}

impl CoreSplit {
    #[allow(clippy::too_many_arguments)]
    pub fn add<O>(
        &mut self,
        lca: &LcaKp,
        oracle: &O,
        floor_ns: f64,
        shared: &Seed,
        sampling: &Seed,
        queries: &[(u64, ItemId)],
        scratch: &mut QueryScratch,
    ) where
        O: ItemOracle + WeightedSampler,
    {
        let plain = core_loop(lca, oracle, shared, sampling, queries, scratch);
        let naive = lca.clone().with_engine(QuantileEngine::Naive);
        self.naive_ns += core_loop(&naive, oracle, shared, sampling, queries, scratch).ns;
        let timed = TimedOracle::new(oracle);
        core_loop(lca, &timed, shared, sampling, queries, scratch);
        self.oracle_ns += timed.tally().net(floor_ns).busy_ns() as f64;
        self.plain.ns += plain.ns;
        self.plain.allocs += plain.allocs;
        self.plain.alloc_bytes += plain.alloc_bytes;
        self.plain.retries += plain.retries;
        self.plain.degraded += plain.degraded;
        self.queries += queries.len() as u64;
    }

    fn per_query_ms(&self, ns: f64) -> f64 {
        ns / self.queries.max(1) as f64 / 1e6
    }

    /// Query time with the reproducible quantile minus the naive one.
    pub fn excess_ms(&self) -> f64 {
        self.per_query_ms(self.plain.ns as f64 - self.naive_ns as f64)
    }

    /// Query time minus oracle time minus the reproducible excess.
    pub fn self_ms(&self) -> f64 {
        self.per_query_ms(self.naive_ns as f64 - self.oracle_ns)
    }

    pub fn per_query(&self, total: u64) -> f64 {
        total as f64 / self.queries.max(1) as f64
    }
}

/// Single-layer timings from replaying the public calls one LCA-KP
/// query makes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replay {
    /// rQuantile calls one query makes (t).
    pub rquantile_calls: u64,
    pub rquantile_us: f64,
    pub sample_len: u64,
    pub rquantile_alloc_bytes: u64,
    pub tilde_items: u64,
    pub tilde_build_us: f64,
    pub convert_greedy_us: f64,
}

/// Median µs of `reps` calls, each recorded as a span called `name`.
fn median_us<T>(
    recorder: &mut Recorder,
    name: &'static str,
    reps: usize,
    mut call: impl FnMut() -> T,
) -> f64 {
    let mut times = Vec::with_capacity(reps);
    for rep in 0..reps {
        let span = recorder.open(name, None, rep as u64);
        black_box(call());
        recorder.close(span);
        times.push(recorder.busy_ns(span) as f64 / 1e3);
    }
    median(&times)
}

/// Draws the samples of one query the way Algorithm 2 does (coupon
/// sample R, then the efficiency sample Q when the EPS branch fires)
/// and times each public call that follows on them, as spans: one
/// `rquantile` per threshold, `TildeInstance::build`, and
/// `convert_greedy`.
pub fn replay_layers<O>(
    recorder: &mut Recorder,
    oracle: &O,
    lca: &LcaKp,
    budget: SampleBudget,
    sampling: &Seed,
    quantile_seed: &Seed,
) -> Replay
where
    O: ItemOracle + WeightedSampler,
{
    let mut rng = sampling.rng();
    let norms = oracle.norms();
    let eps = lca.eps();
    let eps_sq = eps.squared();
    let mut large: Vec<(ItemId, Item)> = (0..lca.coupon_samples())
        .map(|_| oracle.sample_weighted(&mut rng))
        .filter(|&(_, item)| norms.nprofit_of(item.profit) > eps_sq)
        .collect();
    large.sort_by_key(|&(id, _)| id);
    large.dedup_by_key(|&mut (id, _)| id);
    let total = norms.total_profit as u128;
    let residual = total
        - large
            .iter()
            .map(|&(_, item)| item.profit as u128)
            .sum::<u128>();

    let mut replay = Replay::default();
    let mut seq = EpsSequence::empty();
    if residual * eps.den() as u128 >= eps.num() as u128 * total {
        let fraction = residual as f64 / total as f64;
        let e = eps.as_f64();
        let q = (e + e * e / 2.0) / fraction;
        let t = (1.0 / q).floor() as u64;
        let params = lca.repro_params();
        let a = (1.5 * budget.rquantile_samples(&params) as f64 / fraction).ceil() as u64;
        let sample: Vec<u128> = (0..a)
            .map(|_| oracle.sample_weighted(&mut rng))
            .filter(|&(_, item)| norms.nprofit_of(item.profit) <= eps_sq)
            .map(|(id, item)| norms.tie_broken_efficiency_key(id, item) as u128)
            .collect();
        replay.rquantile_calls = t;
        replay.sample_len = sample.len() as u64;
        if t > 0 && !sample.is_empty() {
            let domain = Domain::new(64).expect("64-bit domain is valid");
            let mut keys = Vec::with_capacity(t as usize);
            let mut previous = u64::MAX;
            let mut times = Vec::with_capacity(t as usize);
            for k in 1..=t {
                let config = RQuantileConfig {
                    domain,
                    p: (1.0 - k as f64 * q).max(0.0),
                    tau: params.tau.min(0.5),
                };
                let seed = quantile_seed.derive("perfbench/rquantile-replay", k);
                let before = alloc::snapshot();
                let span = recorder.open("reproducible.rquantile", None, k);
                let value = rquantile(black_box(&sample), &config, &seed)
                    .expect("rquantile accepts Algorithm 2's parameters");
                recorder.close(span);
                times.push(recorder.busy_ns(span) as f64 / 1e3);
                replay.rquantile_alloc_bytes = alloc::snapshot().since(before).bytes;
                let key = (value.min(u128::from(u64::MAX)) as u64).min(previous);
                keys.push(key);
                previous = key;
            }
            replay.rquantile_us = median(&times);
            seq = EpsSequence::new(keys).expect("keys are non-increasing");
        }
    }

    let capacity = oracle.capacity();
    let tilde = TildeInstance::build(norms, capacity, eps, &large, &seq);
    replay.tilde_items = tilde.len() as u64;
    replay.tilde_build_us = median_us(recorder, "knapsack.tilde_build", REPLAY_REPS, || {
        TildeInstance::build(norms, capacity, eps, black_box(&large), &seq)
    });
    replay.convert_greedy_us = median_us(recorder, "core.convert_greedy", REPLAY_REPS, || {
        convert_greedy(black_box(&tilde), &seq)
    });
    replay
}

/// FNV-1a over formatted output, so outcomes can be compared across
/// runs without keeping them.
#[derive(Debug)]
pub struct Digest(pub u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn of(value: &impl fmt::Debug) -> u64 {
        let mut digest = Digest::new();
        let _ = write!(digest, "{value:?}");
        digest.0
    }
}

impl fmt::Write for Digest {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for byte in s.bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}
