//! `e14-core`: a closed loop with one caller on the `perf_baseline`
//! E14 world (`SmallDominated`, n = 120, ε = 1/6, `Calibrated{0.002}`,
//! 5 retries), served through `query_with_audit_in` with one reused
//! scratch. The EPS branch fires, so `reproducible` does most of the
//! work: every rQuantile/rMedian change shows here first.

use std::time::{Duration, Instant};

use lcakp_core::{
    LcaAnswer, LcaError, LcaKp, QuantileEngine, QueryAudit, QueryScratch, RetryPolicy,
};
use lcakp_knapsack::iky::Epsilon;
use lcakp_knapsack::{ItemId, Selection};
use lcakp_oracle::{InstanceOracle, ItemOracle, Seed, WeightedSampler};
use lcakp_reproducible::SampleBudget;
use lcakp_workloads::Family;

use crate::alloc;
use crate::common::{
    generate, median, ms_since, percentile_u64, replay_layers, tail, Report, Yardstick, HEAP_PASS,
    SETUP_REPS,
};
use crate::schema::{EndToEnd, Layers};
use crate::trace::{timer_floor_ns, Recorder, TimedOracle};
use crate::Args;

const N: usize = 120;
const BUDGET: SampleBudget = SampleBudget::Calibrated { factor: 0.002 };
/// `perf_baseline`'s serving deadline, in ticks of one per access.
const DEADLINE_TICKS: u64 = 400_000;
/// Availability target for `slo_rate_permille`.
const SLO_PERMILLE: f64 = 990.0;
/// Queries re-run with a fresh scratch and through the traced path.
const CROSS_CHECKS: usize = 2;

fn lca() -> LcaKp {
    LcaKp::new(Epsilon::new(1, 6).expect("1/6 is a valid epsilon"))
        .expect("LCA-KP builds at epsilon 1/6")
        .with_budget(BUDGET)
        .with_retry_policy(RetryPolicy { max_retries: 5 })
}

/// One timed query.
#[derive(Debug, Clone)]
struct Record {
    outcome: Result<(LcaAnswer, QueryAudit), LcaError>,
    ns: u64,
}

/// The fixed inputs of query `index`: its item and sampling stream.
struct Queries {
    shared: Seed,
    sampling: Seed,
}

impl Queries {
    fn ask<O: ItemOracle + WeightedSampler>(
        &self,
        lca: &LcaKp,
        oracle: &O,
        index: usize,
        scratch: &mut QueryScratch,
    ) -> Result<(LcaAnswer, QueryAudit), LcaError> {
        let mut rng = self
            .sampling
            .derive("perfbench/e14-query", index as u64)
            .rng();
        lca.query_with_audit_in(oracle, &mut rng, ItemId(index % N), &self.shared, scratch)
    }
}

/// Runs queries `0, 1, …` until `budget` of query time is spent or
/// `limit` are done, running the yardstick at its points; returns the
/// records and the total query time in seconds.
fn timed_loop<O: ItemOracle + WeightedSampler>(
    queries: &Queries,
    lca: &LcaKp,
    oracle: &O,
    budget: Duration,
    limit: usize,
    scratch: &mut QueryScratch,
    mut yardstick: Option<&mut Yardstick>,
) -> (Vec<Record>, f64) {
    let mut records = Vec::with_capacity(limit.min(1 << 16));
    let mut timed = Duration::ZERO;
    while records.len() < limit && timed < budget {
        if let Some(yardstick) = yardstick.as_deref_mut() {
            yardstick.tick(timed, budget, records.len());
        }
        let start = Instant::now();
        let outcome = queries.ask(lca, oracle, records.len(), scratch);
        let elapsed = start.elapsed();
        timed += elapsed;
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        records.push(Record { outcome, ns });
    }
    (records, timed.as_secs_f64())
}

pub fn run(root: &Seed, args: &Args) -> Report {
    let mut report = Report::default();
    let lca = lca();
    let queries = Queries {
        shared: root.derive("perfbench/e14-shared", 0),
        sampling: root.derive("perfbench/e14-sampling", 0),
    };
    let workload_seed = root.derive("perfbench/e14-workload", 0);

    // Set-up, several times: generation, normalisation, alias table,
    // LCA build and one warm-up query.
    let (mut setup_s, mut generate_ms, mut alias_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let (norm, gen) = generate(Family::SmallDominated, N, &workload_seed);
        let alias_start = Instant::now();
        let oracle = InstanceOracle::new(&norm);
        alias_ms.push(ms_since(alias_start));
        let lca = self::lca();
        let _ = queries.ask(&lca, &oracle, 0, &mut QueryScratch::default());
        setup_s.push(start.elapsed().as_secs_f64());
        generate_ms.push(gen);
        drop(oracle);
        kept = Some(norm);
    }
    let norm = kept.expect("at least one set-up ran");
    let oracle = InstanceOracle::new(&norm);
    let mut scratch = QueryScratch::default();
    let _ = queries.ask(&lca, &oracle, 0, &mut scratch);

    let mut yardstick = Yardstick::new(root);

    let untraced_budget = if args.traced {
        args.seconds / 2
    } else {
        args.seconds
    };
    let (records, wall_s) = timed_loop(
        &queries,
        &lca,
        &oracle,
        untraced_budget,
        usize::MAX,
        &mut scratch,
        Some(&mut yardstick),
    );
    report.check("greedy-reference-feasible", yardstick.feasible());
    let greedy_ms = yardstick.greedy_ms();
    // Peak heap over a short pass with the reference instance freed.
    yardstick.release();
    alloc::reset_peak();
    for index in 0..HEAP_PASS {
        let _ = queries.ask(&lca, &oracle, index, &mut scratch);
    }
    let peak_bytes = alloc::peak_bytes();

    // Accounting and the virtual latency of a lone caller: one tick
    // per counted access plus one dispatch tick, as `serve_batch`
    // charges with `CostModel::flat(1)`.
    let mut ticks = Vec::with_capacity(records.len());
    for record in &records {
        report.accounting.attempted += 1;
        match record.outcome {
            Ok((_, audit)) => {
                report.accounting.answered += 1;
                let t = audit.budget_consumed + 1;
                if audit.degraded.is_some() {
                    report.accounting.degraded += 1;
                } else if t > DEADLINE_TICKS {
                    report.accounting.late += 1;
                }
                ticks.push(t);
            }
            Err(_) => report.accounting.errored += 1,
        }
    }
    let query_ms: Vec<f64> = records.iter().map(|r| r.ns as f64 / 1e6).collect();
    let query_ms_p50 = median(&query_ms);
    let (tail_pct, tail_ms) = tail(&query_ms);
    report.note(format!(
        "query_ms p50={query_ms_p50:.3} tail=p{tail_pct:.1}:{tail_ms:.3} samples={} greedy_ms={greedy_ms:.3}",
        records.len()
    ));
    let audits: Vec<QueryAudit> = records
        .iter()
        .filter_map(|r| r.outcome.as_ref().ok().map(|&(_, audit)| audit))
        .collect();
    let accesses: u64 = audits.iter().map(|a| a.budget_consumed).sum();

    // ---- Correctness gate, outside the timed region. ----
    let worst = lca.worst_case_accesses();
    report.check(
        "accesses-within-worst-case",
        audits.iter().all(|a| a.budget_consumed <= worst),
    );
    report.check("no-errors", report.accounting.errored == 0);
    let mut includes = Vec::with_capacity(N);
    for index in 0..N {
        let outcome = match records.get(index) {
            Some(record) => record.outcome.clone(),
            None => queries.ask(&lca, &oracle, index, &mut scratch),
        };
        includes.push(outcome.map(|(answer, _)| answer.include).unwrap_or(false));
    }
    let selection = Selection::from_ids(N, (0..N).filter(|&i| includes[i]).map(ItemId));
    report.check(
        "yes-answers-feasible",
        selection.is_feasible(norm.as_instance()),
    );
    let checked = CROSS_CHECKS.min(records.len());
    report.check(
        "fresh-scratch-identical",
        (0..checked).all(|i| {
            queries.ask(&lca, &oracle, i, &mut QueryScratch::default()) == records[i].outcome
        }),
    );

    if !args.traced {
        let timed = TimedOracle::new(&oracle);
        report.check(
            "traced-identical",
            (0..checked).all(|i| queries.ask(&lca, &timed, i, &mut scratch) == records[i].outcome),
        );
        let p99 = percentile_u64(&ticks, 990);
        let availability = report.accounting.availability_permille();
        EndToEnd {
            qps: report.accounting.answered as f64 / wall_s,
            query_ms_p50,
            query_ms_tail: tail_ms,
            n_star: yardstick.n_star(&query_ms),
            accesses_per_query: accesses as f64 / audits.len().max(1) as f64,
            availability_permille: availability,
            p50_ticks: percentile_u64(&ticks, 500) as f64,
            p99_ticks: p99 as f64,
            // A lone caller never queues: it sustains one server's
            // rate whenever its own latency meets the SLO.
            slo_rate_permille: if p99 <= DEADLINE_TICKS && availability >= SLO_PERMILLE {
                1000.0
            } else {
                0.0
            },
            peak_heap_mb: peak_bytes as f64 / (1u64 << 20) as f64,
            setup_s: median(&setup_s),
        }
        .emit(&mut report);
        return report;
    }

    // ---- Traced run: the same queries again, through the timing
    // oracle, each inside a span. ----
    let floor_ns = timer_floor_ns();
    let timed = TimedOracle::new(&oracle);
    let mut recorder = Recorder::new();
    let (mut allocs, mut alloc_bytes) = (0u64, 0u64);
    let mut identical = true;
    let traced_start = Instant::now();
    let mut traced = 0usize;
    while traced < records.len() && traced_start.elapsed() < args.seconds / 2 {
        let before_tally = timed.tally();
        let before_alloc = alloc::snapshot();
        let span = recorder.open("core.query", None, traced as u64);
        let outcome = queries.ask(&lca, &timed, traced, &mut scratch);
        recorder.close(span);
        let delta = alloc::snapshot().since(before_alloc);
        let tally = timed.tally().since(before_tally).net(floor_ns);
        recorder.fold("oracle.access", span, tally.busy_ns(), tally.calls());
        allocs += delta.allocs;
        alloc_bytes += delta.bytes;
        identical &= outcome == records[traced].outcome;
        traced += 1;
    }
    report.check("traced-identical", identical && traced > 0);
    let tally = timed.tally().net(floor_ns);
    let traced_ns = recorder.total("core.query");
    let untraced_ns: u64 = records[..traced].iter().map(|r| r.ns).sum();

    // Reproducible excess: the same queries with the naive quantile.
    let naive = lca.clone().with_engine(QuantileEngine::Naive);
    let (naive_records, _) = timed_loop(
        &queries,
        &naive,
        &oracle,
        args.seconds,
        traced,
        &mut scratch,
        None,
    );
    let naive_ns: u64 = naive_records.iter().map(|r| r.ns).sum();
    let compared_ns: u64 = records[..naive_records.len()].iter().map(|r| r.ns).sum();
    let excess_ms =
        (compared_ns as f64 - naive_ns as f64) / naive_records.len().max(1) as f64 / 1e6;

    let replay = replay_layers(
        &mut recorder,
        &oracle,
        &lca,
        BUDGET,
        &root.derive("perfbench/e14-replay", 0),
        &queries.shared,
    );
    let count = traced.max(1) as f64;
    let traced_audits: Vec<QueryAudit> = records[..traced]
        .iter()
        .filter_map(|r| r.outcome.as_ref().ok().map(|&(_, audit)| audit))
        .collect();
    Layers {
        oracle_samples_per_query: tally.samples as f64 / count,
        oracle_point_queries_per_query: tally.points as f64 / count,
        oracle_sample_ns: tally.sample_ns as f64 / tally.samples.max(1) as f64,
        oracle_busy_share: tally.busy_ns() as f64 / traced_ns.max(1) as f64,
        oracle_alias_build_ms: median(&alias_ms),
        reproducible_excess_ms_per_query: excess_ms,
        reproducible_calls_per_query: replay.rquantile_calls as f64,
        reproducible_rquantile_us: replay.rquantile_us,
        reproducible_sample_len: replay.sample_len as f64,
        reproducible_alloc_bytes_per_call: replay.rquantile_alloc_bytes as f64,
        knapsack_tilde_items: replay.tilde_items as f64,
        knapsack_tilde_build_us: replay.tilde_build_us,
        knapsack_greedy_ms: greedy_ms,
        core_self_ms_per_query: (untraced_ns as f64 - tally.busy_ns() as f64) / count / 1e6
            - excess_ms,
        core_convert_greedy_us: replay.convert_greedy_us,
        core_allocs_per_query: allocs as f64 / count,
        core_alloc_bytes_per_query: alloc_bytes as f64 / count,
        core_degraded_permille: 1000.0
            * traced_audits
                .iter()
                .filter(|a| a.degraded.is_some())
                .count() as f64
            / count,
        core_retries_per_query: traced_audits.iter().map(|a| a.retries_used).sum::<u64>() as f64
            / count,
        workloads_generate_ms: median(&generate_ms),
        trace_overhead: untraced_ns as f64 / traced_ns.max(1) as f64,
        ..Layers::default()
    }
    .emit(&mut report);
    crate::save_trace(args, &recorder, &mut report);
    report
}
