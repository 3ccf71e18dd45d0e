//! `large-n-batch`: closed batches, every query at tick 0, through the
//! `serve_batch` worker pool, over
//! `LargeDominated` with n = 10⁶ (10 heavy items of profit 2²⁰),
//! ε = 1/6, `Calibrated{0.002}`. The heavy items hold more than 1 − ε of
//! the profit, so the EPS branch never fires and `reproducible` does no
//! work: the bypass case for rQuantile changes. The alias table is far
//! larger than cache, so `oracle` sampling is a large share of a query.

use std::time::{Duration, Instant};

use lcakp_core::{LcaKp, QueryScratch, ResponseTier, RetryPolicy};
use lcakp_knapsack::iky::Epsilon;
use lcakp_knapsack::{ItemId, NormalizedInstance};
use lcakp_oracle::{InstanceOracle, ItemOracle, Seed, WeightedSampler};
use lcakp_reproducible::SampleBudget;
use lcakp_service::{
    serve_batch, BackoffPolicy, BatchReport, BreakerConfig, CostModel, Disposition,
    RecoveryDiscipline, ServiceConfig,
};
use lcakp_workloads::Family;
use rand::Rng;

use crate::alloc;
use crate::common::{
    generate, median, ms_since, percentile_u64, replay_layers, tail, Accounting, CoreSplit, Digest,
    Report, Yardstick, HEAP_PASS, SETUP_REPS,
};
use crate::schema::{EndToEnd, Layers};
use crate::trace::{elapsed_ns, timer_floor_ns, Recorder, TimedOracle};
use crate::Args;

const N: usize = 1_000_000;
const HEAVY: usize = 10;
const HEAVY_PROFIT: u64 = 1 << 20;
const BUDGET: SampleBudget = SampleBudget::Calibrated { factor: 0.002 };
/// Queries per `serve_batch` call: enough work per call that a brief
/// stall of the machine moves one call's time little.
const BATCH: usize = 512;
/// Queries in the set-up warm-up batch.
const WARM_UP: usize = 32;
/// Deadline in virtual ticks, per query and for a whole closed batch:
/// a batch takes `BATCH` × ~2,000 ticks on one worker.
const DEADLINE_TICKS: u64 = 2_000_000;
/// Availability target for `slo_rate_permille`.
const SLO_PERMILLE: f64 = 990.0;
/// Batches re-served with one worker in the traced run.
const SERIAL_BATCHES: usize = 4;

fn lca() -> LcaKp {
    LcaKp::new(Epsilon::new(1, 6).expect("1/6 is a valid epsilon"))
        .expect("LCA-KP builds at epsilon 1/6")
        .with_budget(BUDGET)
        .with_retry_policy(RetryPolicy { max_retries: 5 })
}

/// `perf_baseline`'s serving tuning, with a deadline scaled to the
/// batch and a queue deep enough that a closed batch is never shed.
fn config(workers: usize) -> ServiceConfig {
    ServiceConfig {
        workers,
        queue_depth: BATCH,
        deadline_ticks: DEADLINE_TICKS,
        dispatch_cost_ticks: 1,
        cost: CostModel::flat(1),
        backoff: BackoffPolicy::default(),
        breaker: BreakerConfig {
            failure_threshold: 2,
            cooldown_ticks: 4,
            half_open_probes: 1,
        },
        worker_access_cap: None,
        recovery: RecoveryDiscipline::Faithful,
    }
}

/// The inputs of batch `b`: its items and its serving root.
struct Batches {
    root: Seed,
    shared: Seed,
}

impl Batches {
    fn items(&self, b: usize, len: usize) -> Vec<ItemId> {
        let mut rng = self.root.derive("perfbench/batch-items", b as u64).rng();
        (0..len).map(|_| ItemId(rng.gen_range(0..N))).collect()
    }

    fn serve<O>(
        &self,
        lca: &LcaKp,
        oracle: &O,
        b: usize,
        items: &[ItemId],
        workers: usize,
    ) -> BatchReport
    where
        O: ItemOracle + WeightedSampler + Sync,
    {
        let serving = self.root.derive("perfbench/batch-serving", b as u64);
        serve_batch(
            lca,
            oracle,
            &self.shared,
            &serving,
            items,
            &config(workers),
            None,
        )
        .expect("the batch world has no hard configuration errors")
    }
}

/// What is kept of one timed batch.
struct Served {
    ns: u64,
    digest: u64,
    verdicts: Vec<(bool, ResponseTier, u64)>,
}

/// Each answered query's verdict, tier and accesses: what must not
/// depend on how many workers served the batch.
fn verdicts(report: &BatchReport) -> Vec<(bool, ResponseTier, u64)> {
    report
        .outcomes
        .iter()
        .map(|o| match o.disposition {
            Disposition::Answered(a) => (a.include, a.tier, a.accesses),
            Disposition::Shed(_) => (false, ResponseTier::Trivial, 0),
        })
        .collect()
}

pub fn run(root: &Seed, args: &Args) -> Report {
    let mut report = Report::default();
    // The timed loop serves with one worker: with one per core, batch
    // throughput on a two-vCPU host jumped between two levels from run
    // to run. The traced run compares one worker against one per core.
    let workers = 1;
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let lca = lca();
    let batches = Batches {
        root: *root,
        shared: root.derive("perfbench/batch-shared", 0),
    };
    let workload_seed = root.derive("perfbench/batch-workload", 0);
    let family = Family::LargeDominated {
        heavy: HEAVY,
        heavy_profit: HEAVY_PROFIT,
    };

    let (mut setup_s, mut generate_ms, mut alias_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut kept: Option<NormalizedInstance> = None;
    let warm_items = batches.items(usize::MAX, WARM_UP);
    for _ in 0..SETUP_REPS {
        // Drop the previous world first, so set-ups never overlap.
        drop(kept.take());
        let start = Instant::now();
        let (norm, gen) = generate(family, N, &workload_seed);
        let alias_start = Instant::now();
        let oracle = InstanceOracle::new(&norm);
        alias_ms.push(ms_since(alias_start));
        let lca = self::lca();
        let _ = batches.serve(&lca, &oracle, usize::MAX, &warm_items, workers);
        setup_s.push(start.elapsed().as_secs_f64());
        generate_ms.push(gen);
        drop(oracle);
        kept = Some(norm);
    }
    let norm = kept.expect("at least one set-up ran");
    let instance = norm.as_instance();
    let oracle = InstanceOracle::new(&norm);
    let _ = batches.serve(&lca, &oracle, usize::MAX, &warm_items, workers);

    let mut yardstick = Yardstick::new(root);

    let budget = if args.traced {
        args.seconds / 2
    } else {
        args.seconds
    };
    let worst = lca.worst_case_accesses();
    let mut served: Vec<Served> = Vec::new();
    let (mut latencies, mut rates) = (Vec::new(), Vec::new());
    let (mut accesses, mut journal_bytes, mut transitions) = (0u64, 0u64, 0usize);
    let mut accounting = Accounting::default();
    let (mut exactly_one, mut feasible, mut within_worst) = (true, true, true);
    let mut timed = Duration::ZERO;
    while timed < budget {
        yardstick.tick(timed, budget, served.len());
        let b = served.len();
        let items = batches.items(b, BATCH);
        let start = Instant::now();
        let batch = batches.serve(&lca, &oracle, b, &items, workers);
        let elapsed = start.elapsed();
        timed += elapsed;

        // Digest and check the batch between timed calls.
        exactly_one &= batch.outcomes.len() == BATCH
            && batch
                .outcomes
                .iter()
                .enumerate()
                .all(|(i, o)| o.index == i && o.item == items[i]);
        feasible &= batch.to_selection(N).is_feasible(instance);
        let mut makespan = 0u64;
        let mut service_ticks = 0u64;
        for outcome in &batch.outcomes {
            accounting.attempted += 1;
            match outcome.disposition {
                Disposition::Answered(answer) => {
                    accounting.answered += 1;
                    if answer.tier != ResponseTier::Full {
                        accounting.degraded += 1;
                    } else if !answer.deadline_met {
                        accounting.late += 1;
                    }
                    within_worst &= answer.accesses <= worst;
                    accesses += answer.accesses;
                    // Every query arrives at tick 0.
                    latencies.push(answer.end_tick);
                    makespan = makespan.max(answer.end_tick);
                    service_ticks += answer.end_tick - answer.start_tick;
                }
                Disposition::Shed(_) => accounting.shed += 1,
            }
        }
        rates.push(1000.0 * service_ticks as f64 / makespan.max(1) as f64);
        journal_bytes += batch
            .workers
            .iter()
            .map(|w| w.journal.bytes().len() as u64)
            .sum::<u64>();
        transitions += batch.breaker_transitions();
        served.push(Served {
            ns: u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX),
            digest: Digest::of(&batch.outcomes),
            verdicts: verdicts(&batch),
        });
    }
    report.check("greedy-reference-feasible", yardstick.feasible());
    let greedy_ms = yardstick.greedy_ms();
    // Peak heap over a short pass with the reference instance freed.
    yardstick.release();
    alloc::reset_peak();
    for b in 0..HEAP_PASS.min(served.len()) {
        let _ = batches.serve(&lca, &oracle, b, &batches.items(b, BATCH), workers);
    }
    let peak_bytes = alloc::peak_bytes();
    report.accounting = accounting;
    report.check("exactly-one-outcome-per-query", exactly_one);
    report.check("to-selection-feasible", feasible);
    report.check("accesses-within-worst-case", within_worst);
    report.check("no-sheds", accounting.shed == 0);

    let per_query_ms: Vec<f64> = served
        .iter()
        .map(|s| s.ns as f64 / 1e6 / BATCH as f64)
        .collect();
    let query_ms_p50 = median(&per_query_ms);
    let (tail_pct, tail_ms) = tail(&per_query_ms);
    let wall_s = timed.as_secs_f64();
    let qps = accounting.answered as f64 / wall_s;
    report.note(format!(
        "workers={workers} batches={} batch={BATCH} per-query ms p50={query_ms_p50:.4} \
         tail=p{tail_pct:.1}:{tail_ms:.4} greedy_ms={greedy_ms:.3}",
        served.len()
    ));

    if !args.traced {
        let items = batches.items(0, BATCH);
        let timed_oracle = TimedOracle::new(&oracle);
        report.check(
            "traced-identical",
            Digest::of(
                &batches
                    .serve(&lca, &timed_oracle, 0, &items, workers)
                    .outcomes,
            ) == served[0].digest,
        );
        report.check(
            "per-core-pool-identical",
            verdicts(&batches.serve(&lca, &oracle, 0, &items, cores)) == served[0].verdicts,
        );
        let p99 = percentile_u64(&latencies, 990);
        let availability = accounting.availability_permille();
        EndToEnd {
            qps,
            query_ms_p50,
            query_ms_tail: tail_ms,
            n_star: yardstick.n_star(&per_query_ms),
            accesses_per_query: accesses as f64 / accounting.answered.max(1) as f64,
            availability_permille: availability,
            p50_ticks: percentile_u64(&latencies, 500) as f64,
            p99_ticks: p99 as f64,
            // A closed batch sustains its served work over its
            // makespan, in permille of one server, while it meets the
            // SLO.
            slo_rate_permille: if p99 <= DEADLINE_TICKS && availability >= SLO_PERMILLE {
                median(&rates)
            } else {
                0.0
            },
            peak_heap_mb: peak_bytes as f64 / (1u64 << 20) as f64,
            setup_s: median(&setup_s),
        }
        .emit(&mut report);
        return report;
    }

    // ---- Traced run: the same batches through the timing oracle. ----
    let floor_ns = timer_floor_ns();
    let timed_oracle = TimedOracle::new(&oracle);
    let mut recorder = Recorder::new();
    let mut identical = true;
    let mut traced = 0usize;
    let traced_start = Instant::now();
    while traced < served.len() && traced_start.elapsed() < budget {
        let items = batches.items(traced, BATCH);
        let before = timed_oracle.tally();
        let span = recorder.open("service.batch", None, traced as u64);
        let batch = batches.serve(&lca, &timed_oracle, traced, &items, workers);
        recorder.close(span);
        let tally = timed_oracle.tally().since(before).net(floor_ns);
        recorder.fold("oracle.access", span, tally.busy_ns(), tally.calls());
        identical &= Digest::of(&batch.outcomes) == served[traced].digest;
        traced += 1;
    }
    report.check("traced-identical", identical && traced > 0);
    let tally = timed_oracle.tally().net(floor_ns);
    let traced_ns = recorder.total("service.batch");
    let untraced_ns: u64 = served[..traced].iter().map(|s| s.ns).sum();

    // Each of the first batches again, with the pool and with one
    // worker, then through the bare core loop: the pool's own cost per
    // query, its parallel efficiency, and the split of query time.
    let serial = SERIAL_BATCHES.min(served.len());
    let (mut pooled_ns, mut serial_ns) = (0u64, 0u64);
    let mut reserved_identical = true;
    let mut split = CoreSplit::default();
    let sampling = root.derive("perfbench/batch-core", 0);
    let mut scratch = QueryScratch::default();
    for (b, kept) in served.iter().enumerate().take(serial) {
        let items = batches.items(b, BATCH);
        for (pool, total) in [(cores, &mut pooled_ns), (1, &mut serial_ns)] {
            let start = Instant::now();
            let batch = batches.serve(&lca, &oracle, b, &items, pool);
            *total += elapsed_ns(start);
            reserved_identical &= verdicts(&batch) == kept.verdicts;
        }
        let queries: Vec<(u64, ItemId)> = items
            .iter()
            .enumerate()
            .map(|(i, &item)| ((b * BATCH + i) as u64, item))
            .collect();
        split.add(
            &lca,
            &oracle,
            floor_ns,
            &batches.shared,
            &sampling,
            &queries,
            &mut scratch,
        );
    }
    report.check("per-core-pool-identical", reserved_identical);
    let count = split.queries.max(1) as f64;

    let replay = replay_layers(
        &mut recorder,
        &oracle,
        &lca,
        BUDGET,
        &root.derive("perfbench/batch-replay", 0),
        &batches.shared,
    );
    let traced_queries = (traced * BATCH).max(1) as f64;
    Layers {
        oracle_samples_per_query: tally.samples as f64 / traced_queries,
        oracle_point_queries_per_query: tally.points as f64 / traced_queries,
        oracle_sample_ns: tally.sample_ns as f64 / tally.samples.max(1) as f64,
        oracle_busy_share: tally.busy_ns() as f64 / (traced_ns.max(1) as f64 * workers as f64),
        oracle_alias_build_ms: median(&alias_ms),
        reproducible_excess_ms_per_query: split.excess_ms(),
        reproducible_calls_per_query: replay.rquantile_calls as f64,
        reproducible_rquantile_us: replay.rquantile_us,
        reproducible_sample_len: replay.sample_len as f64,
        reproducible_alloc_bytes_per_call: replay.rquantile_alloc_bytes as f64,
        knapsack_tilde_items: replay.tilde_items as f64,
        knapsack_tilde_build_us: replay.tilde_build_us,
        knapsack_greedy_ms: greedy_ms,
        core_self_ms_per_query: split.self_ms(),
        core_convert_greedy_us: replay.convert_greedy_us,
        core_allocs_per_query: split.per_query(split.plain.allocs),
        core_alloc_bytes_per_query: split.per_query(split.plain.alloc_bytes),
        core_degraded_permille: 1000.0 * split.per_query(split.plain.degraded),
        core_retries_per_query: split.per_query(split.plain.retries),
        service_overhead_us_per_query: (serial_ns as f64 - split.plain.ns as f64) / count / 1e3,
        service_parallel_efficiency: serial_ns as f64 / (cores as f64 * pooled_ns.max(1) as f64),
        service_journal_bytes_per_query: journal_bytes as f64 / accounting.attempted.max(1) as f64,
        service_shed_permille: 1000.0 * accounting.shed as f64 / accounting.attempted.max(1) as f64,
        service_breaker_transitions: transitions as f64,
        workloads_generate_ms: median(&generate_ms),
        trace_overhead: untraced_ns as f64 / traced_ns.max(1) as f64,
        ..Layers::default()
    }
    .emit(&mut report);
    crate::save_trace(args, &recorder, &mut report);
    report
}
