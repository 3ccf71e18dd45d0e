//! `cluster-hot-shard`: an open loop on virtual time through
//! `serve_cluster_traffic` — 3 nodes, replication 2, 4 shards,
//! rebalancing on — over hot-shard traces (three in four arrivals on
//! shard 0) offered at fixed rates in permille of one server's
//! calibrated capacity, with one crash and restart of shard 0's boot
//! primary. The world is cheap per query (`LargeDominated`, n = 20,000,
//! ε = 1/3, `Calibrated{0.01}`), so routing, admission, journaling,
//! rebalance and failover are a visible share of the time.

use std::time::{Duration, Instant};

use lcakp_core::{LcaKp, QueryScratch, ResponseTier};
use lcakp_knapsack::iky::Epsilon;
use lcakp_knapsack::{ItemId, NormalizedInstance};
use lcakp_oracle::{InstanceOracle, ItemOracle, Seed, WeightedSampler};
use lcakp_reproducible::SampleBudget;
use lcakp_service::{
    generate_trace, replay_shard_traffic, serve_cluster_traffic, AdmissionConfig,
    AdmissionDiscipline, Arrival, BreakerConfig, ClusterTrafficConfig, ClusterTrafficReport,
    DecodeMode, Journal, NodeEvent, NodeId, RebalanceConfig, RebalanceDiscipline, Ring, RingView,
    ServiceConfig, TrafficConfig, TrafficDisposition, TrafficShape,
};
use lcakp_sim::calibrate_cost;
use lcakp_workloads::Family;

use crate::alloc;
use crate::common::{
    generate, median, ms_since, percentile_u64, replay_layers, tail, Accounting, CoreSplit, Digest,
    Report, Yardstick, HEAP_PASS, SETUP_REPS,
};
use crate::schema::{EndToEnd, Layers};
use crate::trace::{elapsed_ns, timer_floor_ns, Recorder, TimedOracle};
use crate::Args;

const N: usize = 20_000;
const HEAVY: usize = 5;
const HEAVY_PROFIT: u64 = 1 << 20;
const BUDGET: SampleBudget = SampleBudget::Calibrated { factor: 0.01 };
const NODES: usize = 3;
const REPLICATION: usize = 2;
const SHARDS: usize = 4;
/// Arrivals per trace — enough work per call that a brief stall of the
/// machine moves one call's time little — and traces at the operating
/// rate, enough that the pooled p99 does not hinge on one trace's
/// failover spike.
const ARRIVALS: usize = 4000;
const TRACES: usize = 8;
/// Traces pooled at each swept rate.
const SWEEP_TRACES: usize = 2;
/// The rate the timed loop offers, in permille of one server's
/// capacity: near capacity — the hot shard's server is 2/3 busy — yet
/// low enough that the failover after the crash sheds nothing.
const OPERATING_PERMILLE: u64 = 900;
/// The fixed rates `slo_rate_permille` is chosen from, ascending;
/// closely spaced where the hot shard's server nears saturation.
const SWEEP_PERMILLE: [u64; 15] = [
    500, 750, 900, 1000, 1050, 1100, 1125, 1150, 1175, 1200, 1225, 1250, 1300, 1400, 1500,
];
/// Availability target, permille of offered arrivals.
const SLO_PERMILLE: f64 = 990.0;
/// Shards whose answers are replayed standalone in the gate.
const REPLAYED_SHARDS: [usize; 2] = [0, SHARDS - 1];

fn lca() -> LcaKp {
    LcaKp::new(Epsilon::new(1, 3).expect("1/3 is a valid epsilon"))
        .expect("LCA-KP builds at epsilon 1/3")
        .with_budget(BUDGET)
}

/// The per-shard serving tuning of the E18 world, before its deadline
/// is scaled to the calibrated cost.
fn service_config() -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        breaker: BreakerConfig {
            failure_threshold: 2,
            cooldown_ticks: 6,
            half_open_probes: 1,
        },
        ..ServiceConfig::default()
    }
}

/// The cluster tuning of the E18 world, scaled to the calibrated
/// per-query cost.
fn cluster_config(cost: u64) -> ClusterTrafficConfig {
    ClusterTrafficConfig {
        nodes: NODES,
        replication: REPLICATION,
        shards: SHARDS,
        vnodes: 64,
        service: ServiceConfig {
            deadline_ticks: cost * 8,
            ..service_config()
        },
        admission: AdmissionConfig {
            enter_queue_depth: 6,
            exit_queue_depth: 2,
            enter_miss_permille: 250,
            exit_miss_permille: 60,
            hysteresis_ticks: cost * 8,
            shed_permille: 400,
            queue_depth_normal: 12,
            queue_depth_overloaded: 4,
        },
        discipline: Some(AdmissionDiscipline::Faithful),
        rebalance: Some(RebalanceConfig {
            enter_queue_depth: 6,
            enter_miss_permille: 250,
            target_queue_depth: 3,
            hysteresis_ticks: cost * 4,
            window_ticks: cost * 64,
            max_promotions_per_shard: 2,
        }),
        routing: RebalanceDiscipline::Faithful,
    }
}

/// One offered trace with its node faults.
struct Offered {
    arrivals: Vec<Arrival>,
    events: Vec<NodeEvent>,
}

/// Everything but the instance: seeds, tuning, and the traces.
struct World {
    shared: Seed,
    serving: Seed,
    traces: Seed,
    config: ClusterTrafficConfig,
    cost: u64,
}

impl World {
    /// Trace `j` at `permille` of one server's capacity, with shard 0's
    /// boot primary crashing a third of the way in and restarting at two
    /// thirds.
    fn offered(&self, permille: u64, j: usize) -> Offered {
        let arrivals = generate_trace(
            &self.traces.derive("perfbench/cluster-trace", j as u64),
            &TrafficConfig {
                shape: TrafficShape::HotShard,
                arrivals: ARRIVALS,
                mean_gap_ticks: (self.cost * 1000 / permille).max(1),
                universe: N,
                shards: SHARDS,
            },
        );
        let horizon = arrivals.last().map_or(1, |a| a.at_tick);
        let ring = Ring::new(NODES, self.config.vnodes);
        let node: NodeId = RingView::from_ring(&ring, SHARDS, REPLICATION)
            .expect("a non-empty membership routes")
            .primary(0);
        let events = vec![
            NodeEvent::NodeCrash {
                node,
                at_tick: horizon / 3,
                torn_keep: None,
            },
            NodeEvent::NodeRestart {
                node,
                at_tick: 2 * horizon / 3,
            },
        ];
        Offered { arrivals, events }
    }

    fn serve<O: ItemOracle + WeightedSampler>(
        &self,
        lca: &LcaKp,
        oracle: &O,
        offered: &Offered,
    ) -> ClusterTrafficReport {
        serve_cluster_traffic(
            lca,
            oracle,
            &self.shared,
            &self.serving,
            &offered.arrivals,
            &self.config,
            &offered.events,
        )
        .expect("the cluster world has no hard configuration errors")
    }
}

/// Generation, alias table, LCA build and cost calibration: one
/// set-up. Returns the world with its generation and alias times.
fn build(root: &Seed, lca: &LcaKp) -> (NormalizedInstance, World, f64, f64) {
    let (norm, gen_ms) = generate(
        Family::LargeDominated {
            heavy: HEAVY,
            heavy_profit: HEAVY_PROFIT,
        },
        N,
        &root.derive("perfbench/cluster-workload", 0),
    );
    let alias_start = Instant::now();
    let oracle = InstanceOracle::new(&norm);
    let alias_ms = ms_since(alias_start);
    let shared = root.derive("perfbench/cluster-shared", 0);
    let serving = root.derive("perfbench/cluster-serving", 0);
    let traces = root.derive("perfbench/cluster-traces", 0);
    let cost = calibrate_cost(
        lca,
        &oracle,
        &shared,
        &serving,
        &traces,
        &service_config(),
        N,
    )
    .expect("the calibration probe serves");
    drop(oracle);
    let world = World {
        shared,
        serving,
        traces,
        config: cluster_config(cost),
        cost,
    };
    (norm, world, gen_ms, alias_ms)
}

/// Adds one run's outcomes to `acc`; returns the accesses its answers
/// used.
fn account(report: &ClusterTrafficReport, acc: &mut Accounting) -> u64 {
    let mut accesses = 0;
    for routed in &report.outcomes {
        acc.attempted += 1;
        match routed.outcome.disposition {
            TrafficDisposition::Answered {
                deadline_met,
                answer,
                ..
            } => {
                acc.answered += 1;
                if answer.tier != ResponseTier::Full {
                    acc.degraded += 1;
                } else if !deadline_met {
                    acc.late += 1;
                }
                accesses += answer.accesses;
            }
            TrafficDisposition::Shed(_) => acc.shed += 1,
        }
    }
    accesses
}

/// Appends every arrival's end-to-end latency; a shed counts as
/// infinitely late.
fn latencies(report: &ClusterTrafficReport, out: &mut Vec<u64>) {
    out.extend(report.outcomes.iter().map(|r| match r.outcome.disposition {
        TrafficDisposition::Answered { latency_ticks, .. } => latency_ticks,
        TrafficDisposition::Shed(_) => u64::MAX,
    }));
}

/// Whether every arrival has exactly one outcome, in trace order.
fn one_outcome_each(report: &ClusterTrafficReport, offered: &Offered) -> bool {
    report.outcomes.len() == offered.arrivals.len()
        && report
            .outcomes
            .iter()
            .enumerate()
            .all(|(i, r)| r.outcome.index == i && r.outcome.item == offered.arrivals[i].item)
}

/// Whether the answers of `shard` match its standalone replay.
fn replay_matches<O: ItemOracle + WeightedSampler>(
    world: &World,
    lca: &LcaKp,
    oracle: &O,
    report: &ClusterTrafficReport,
    offered: &Offered,
    shard: usize,
) -> bool {
    let answered: Vec<(usize, _)> = report
        .outcomes
        .iter()
        .filter(|r| r.outcome.shard == shard)
        .filter_map(|r| match r.outcome.disposition {
            TrafficDisposition::Answered { answer, .. } => Some((r.outcome.index, answer)),
            TrafficDisposition::Shed(_) => None,
        })
        .collect();
    let admitted: Vec<(usize, Arrival)> = answered
        .iter()
        .map(|&(index, _)| (index, offered.arrivals[index]))
        .collect();
    replay_shard_traffic(
        lca,
        oracle,
        &world.shared,
        &world.serving,
        &admitted,
        shard,
        &world.config.service,
    )
    .is_ok_and(|replayed| replayed == answered)
}

pub fn run(root: &Seed, args: &Args) -> Report {
    let mut report = Report::default();
    let lca = lca();

    let (mut setup_s, mut generate_ms, mut alias_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        let start = Instant::now();
        let (norm, world, gen, alias) = build(root, &self::lca());
        let oracle = InstanceOracle::new(&norm);
        let offered: Vec<Offered> = (0..TRACES)
            .map(|j| world.offered(OPERATING_PERMILLE, j))
            .collect();
        let _ = world.serve(&lca, &oracle, &offered[0]);
        setup_s.push(start.elapsed().as_secs_f64());
        generate_ms.push(gen);
        alias_ms.push(alias);
        drop(oracle);
        kept = Some((norm, world, offered));
    }
    let (norm, world, offered) = kept.expect("at least one set-up ran");
    let oracle = InstanceOracle::new(&norm);
    let _ = world.serve(&lca, &oracle, &offered[0]);

    let mut yardstick = Yardstick::new(root);

    // The timed loop: the operating-rate traces, round robin. Each call
    // is deterministic, so every repeat must match the first.
    let budget = if args.traced {
        args.seconds / 2
    } else {
        args.seconds
    };
    let mut first: Vec<Option<(u64, ClusterTrafficReport)>> = (0..TRACES).map(|_| None).collect();
    let mut calls_ms = Vec::new();
    let mut accounting = Accounting::default();
    let mut accesses = 0u64;
    let mut repeats_identical = true;
    let mut timed = Duration::ZERO;
    while timed < budget {
        yardstick.tick(timed, budget, calls_ms.len());
        let j = calls_ms.len() % TRACES;
        let start = Instant::now();
        let run = world.serve(&lca, &oracle, &offered[j]);
        let elapsed = start.elapsed();
        timed += elapsed;
        calls_ms.push(elapsed.as_secs_f64() * 1e3);
        accesses += account(&run, &mut accounting);
        let digest = Digest::of(&run.outcomes);
        match &first[j] {
            Some((expected, _)) => repeats_identical &= *expected == digest,
            None => first[j] = Some((digest, run)),
        }
    }
    report.check("repeats-identical", repeats_identical);
    report.check("greedy-reference-feasible", yardstick.feasible());
    let greedy_ms = yardstick.greedy_ms();
    // Peak heap over a short pass with the reference instance freed.
    yardstick.release();
    alloc::reset_peak();
    for o in offered.iter().take(HEAP_PASS) {
        let _ = world.serve(&lca, &oracle, o);
    }
    let peak_bytes = alloc::peak_bytes();

    // Latency and checks over one run of each operating trace, outside
    // the timed region.
    let runs: Vec<ClusterTrafficReport> = first
        .into_iter()
        .enumerate()
        .map(|(j, kept)| {
            kept.map_or_else(|| world.serve(&lca, &oracle, &offered[j]), |(_, run)| run)
        })
        .collect();
    let mut operating = Vec::new();
    let worst = lca.worst_case_accesses();
    let mut within_worst = true;
    for run in &runs {
        latencies(run, &mut operating);
        within_worst &= run.outcomes.iter().all(|r| match r.outcome.disposition {
            TrafficDisposition::Answered { answer, .. } => answer.accesses <= worst,
            TrafficDisposition::Shed(_) => true,
        });
    }
    report.accounting = accounting;
    report.check(
        "exactly-one-outcome-per-arrival",
        runs.iter()
            .zip(&offered)
            .all(|(run, o)| one_outcome_each(run, o)),
    );
    report.check("accesses-within-worst-case", within_worst);
    report.check(
        "shard-replays-identical",
        REPLAYED_SHARDS
            .iter()
            .all(|&shard| replay_matches(&world, &lca, &oracle, &runs[0], &offered[0], shard)),
    );
    report.check(
        "journals-decode",
        runs.iter()
            .flat_map(|run| &run.nodes)
            .all(|node| node.journal.decode(DecodeMode::Strict).is_ok()),
    );

    let per_arrival_ms: Vec<f64> = calls_ms.iter().map(|ms| ms / ARRIVALS as f64).collect();
    let query_ms_p50 = median(&per_arrival_ms);
    let (tail_pct, tail_ms) = tail(&per_arrival_ms);
    let wall_s = timed.as_secs_f64();
    report.note(format!(
        "cost={} ticks/query calls={} per-arrival ms p50={query_ms_p50:.5} \
         tail=p{tail_pct:.1}:{tail_ms:.5} greedy_ms={greedy_ms:.3}",
        world.cost,
        calls_ms.len()
    ));

    if !args.traced {
        report.check(
            "traced-identical",
            Digest::of(
                &world
                    .serve(&lca, &TimedOracle::new(&oracle), &offered[0])
                    .outcomes,
            ) == Digest::of(&runs[0].outcomes),
        );
        // The highest swept rate whose p99 meets the deadline with the
        // availability target, on the sweep traces pooled. The sweep starts
        // at the operating rate and walks up while the SLO holds, or
        // down until it does.
        let deadline = world.config.service.deadline_ticks;
        let meets = |permille: u64| {
            let mut acc = Accounting::default();
            let mut lat = Vec::new();
            for j in 0..SWEEP_TRACES {
                let run = world.serve(&lca, &oracle, &world.offered(permille, j));
                account(&run, &mut acc);
                latencies(&run, &mut lat);
            }
            percentile_u64(&lat, 990) <= deadline && acc.availability_permille() >= SLO_PERMILLE
        };
        let start = SWEEP_PERMILLE
            .iter()
            .position(|&p| p == OPERATING_PERMILLE)
            .expect("the operating rate is swept");
        let operating_met = percentile_u64(&operating, 990) <= deadline
            && accounting.availability_permille() >= SLO_PERMILLE;
        let slo_rate = if operating_met {
            let above = SWEEP_PERMILLE[start + 1..]
                .iter()
                .take_while(|&&p| meets(p))
                .last();
            above.copied().unwrap_or(OPERATING_PERMILLE)
        } else {
            SWEEP_PERMILLE[..start]
                .iter()
                .rev()
                .find(|&&p| meets(p))
                .copied()
                .unwrap_or(0)
        };
        report.note(format!(
            "slo_rate_permille={slo_rate} deadline_ticks={deadline}"
        ));
        EndToEnd {
            qps: accounting.answered as f64 / wall_s,
            query_ms_p50,
            query_ms_tail: tail_ms,
            n_star: yardstick.n_star(&per_arrival_ms),
            accesses_per_query: accesses as f64 / accounting.answered.max(1) as f64,
            availability_permille: accounting.availability_permille(),
            p50_ticks: percentile_u64(&operating, 500) as f64,
            p99_ticks: percentile_u64(&operating, 990) as f64,
            slo_rate_permille: slo_rate as f64,
            peak_heap_mb: peak_bytes as f64 / (1u64 << 20) as f64,
            setup_s: median(&setup_s),
        }
        .emit(&mut report);
        return report;
    }

    // ---- Traced run: the same calls through the timing oracle. ----
    let floor_ns = timer_floor_ns();
    let timed_oracle = TimedOracle::new(&oracle);
    let mut recorder = Recorder::new();
    let mut identical = true;
    let mut traced = 0usize;
    let traced_start = Instant::now();
    while traced < calls_ms.len() && traced_start.elapsed() < budget {
        let j = traced % TRACES;
        let before = timed_oracle.tally();
        let span = recorder.open("cluster.traffic", None, traced as u64);
        let run = world.serve(&lca, &timed_oracle, &offered[j]);
        recorder.close(span);
        let tally = timed_oracle.tally().since(before).net(floor_ns);
        recorder.fold("oracle.access", span, tally.busy_ns(), tally.calls());
        identical &= Digest::of(&run.outcomes) == Digest::of(&runs[j].outcomes);
        traced += 1;
    }
    report.check("traced-identical", identical && traced > 0);
    let tally = timed_oracle.tally().net(floor_ns);
    let traced_ns = recorder.total("cluster.traffic");
    let untraced_ns = calls_ms[..traced].iter().sum::<f64>() * 1e6;
    let traced_answered: u64 = (0..traced).map(|t| runs[t % TRACES].slo.answered).sum();

    // Each trace once more through the cluster, then its answered
    // arrivals through the bare core loop: what the cluster adds per
    // arrival, and the split of query time.
    let sampling = root.derive("perfbench/cluster-core", 0);
    let mut scratch = QueryScratch::default();
    let mut split = CoreSplit::default();
    let mut cluster_ns = 0u64;
    for (j, run) in runs.iter().enumerate() {
        let start = Instant::now();
        let _ = std::hint::black_box(world.serve(&lca, &oracle, &offered[j]));
        cluster_ns += elapsed_ns(start);
        let queries: Vec<(u64, ItemId)> = run
            .outcomes
            .iter()
            .filter_map(|r| match r.outcome.disposition {
                TrafficDisposition::Answered { .. } => {
                    Some(((j * ARRIVALS + r.outcome.index) as u64, r.outcome.item))
                }
                TrafficDisposition::Shed(_) => None,
            })
            .collect();
        split.add(
            &lca,
            &oracle,
            floor_ns,
            &world.shared,
            &sampling,
            &queries,
            &mut scratch,
        );
    }

    // The journal read side: decode every node's journal.
    let journals: Vec<&Journal> = runs
        .iter()
        .flat_map(|r| &r.nodes)
        .map(|n| &n.journal)
        .collect();
    let journal_bytes: usize = journals.iter().map(|j| j.bytes().len()).sum();
    let decode_start = Instant::now();
    for journal in &journals {
        let _ = std::hint::black_box(journal.decode(DecodeMode::Strict));
    }
    let decode_us = decode_start.elapsed().as_secs_f64() * 1e6 / runs.len() as f64;

    let replay = replay_layers(
        &mut recorder,
        &oracle,
        &lca,
        BUDGET,
        &root.derive("perfbench/cluster-replay", 0),
        &world.shared,
    );
    let answered_f = traced_answered.max(1) as f64;
    let arrivals = (runs.len() * ARRIVALS) as f64;
    Layers {
        oracle_samples_per_query: tally.samples as f64 / answered_f,
        oracle_point_queries_per_query: tally.points as f64 / answered_f,
        oracle_sample_ns: tally.sample_ns as f64 / tally.samples.max(1) as f64,
        oracle_busy_share: tally.busy_ns() as f64 / traced_ns.max(1) as f64,
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
        cluster_overhead_us_per_arrival: (cluster_ns as f64 - split.plain.ns as f64)
            / arrivals
            / 1e3,
        cluster_journal_bytes_per_answer: journal_bytes as f64
            / runs.iter().map(|r| r.slo.answered).sum::<u64>().max(1) as f64,
        cluster_journal_decode_us: decode_us,
        cluster_promotions: runs.iter().map(|r| r.promotion_count()).sum::<usize>() as f64,
        cluster_failovers: runs
            .iter()
            .flat_map(|r| &r.shards)
            .map(|s| s.failovers)
            .sum::<usize>() as f64,
        cluster_final_epoch: runs.iter().map(|r| r.final_epoch.get()).max().unwrap_or(0) as f64,
        cluster_overload_sheds: runs.iter().map(|r| r.overload_sheds()).sum::<usize>() as f64,
        cluster_max_queue_depth: runs
            .iter()
            .flat_map(|r| &r.nodes)
            .map(|n| n.max_queue_depth)
            .max()
            .unwrap_or(0) as f64,
        workloads_generate_ms: median(&generate_ms),
        trace_overhead: untraced_ns / traced_ns.max(1) as f64,
        ..Layers::default()
    }
    .emit(&mut report);
    crate::save_trace(args, &recorder, &mut report);
    report
}
