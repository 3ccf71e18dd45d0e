//! End-to-end checks of the serving loops against each other and
//! against the paper's guarantee:
//!
//! * a [`serve_batch`] worker fleet serving every item of an instance
//!   assembles one feasible solution that meets Theorem 4.1's
//!   `(1/2, 6ε)` bound — the "hugely distributed" deployment of the
//!   paper's introduction;
//! * the open-loop engine and the standalone shard replay agree byte for
//!   byte: every shard's [`run_open_loop`] answers equal
//!   [`replay_shard_traffic`] over that shard's admitted subsequence,
//!   for every traffic shape.

use lcakp_core::solution_audit::{audit_selection, exact_optimum};
use lcakp_core::{LcaKp, ResponseTier};
use lcakp_knapsack::iky::Epsilon;
use lcakp_knapsack::ItemId;
use lcakp_oracle::{InstanceOracle, Seed};
use lcakp_reproducible::SampleBudget;
use lcakp_service::{
    generate_trace, replay_shard_traffic, run_open_loop, serve_batch, Arrival, OpenLoopConfig,
    ServiceConfig, TrafficConfig, TrafficDisposition, TrafficShape,
};
use lcakp_workloads::{Family, WorkloadSpec};

fn fast_lca(eps: Epsilon) -> LcaKp {
    LcaKp::new(eps)
        .unwrap()
        .with_budget(SampleBudget::Calibrated { factor: 0.01 })
}

/// An 8-worker fleet serving every item produces one feasible solution
/// whose quality meets the theorem's bound.
#[test]
fn cluster_fleet_serves_a_feasible_solution() {
    let n = 120;
    let spec = WorkloadSpec::new(
        Family::LargeDominated {
            heavy: 4,
            heavy_profit: 6_000,
        },
        n,
        21,
    );
    let norm = spec.generate_normalized().unwrap();
    let oracle = InstanceOracle::new(&norm);
    let eps = Epsilon::new(1, 3).unwrap();
    let lca = fast_lca(eps);
    let queries: Vec<ItemId> = (0..n).map(ItemId).collect();
    let config = ServiceConfig {
        workers: 8,
        queue_depth: 16,
        ..ServiceConfig::default()
    };
    let report = serve_batch(
        &lca,
        &oracle,
        &Seed::from_entropy_u64(22),
        &Seed::from_entropy_u64(23),
        &queries,
        &config,
        None,
    )
    .unwrap();
    assert_eq!(report.shed_count(), 0);
    assert_eq!(report.tier_count(ResponseTier::Full), n);
    let selection = report.to_selection(n);
    assert!(selection.is_feasible(norm.as_instance()));

    let optimum = exact_optimum(&norm).unwrap();
    let audit = audit_selection(&norm, &selection, optimum);
    assert!(
        audit.satisfies_theorem(eps),
        "fleet solution misses the bound: {audit}"
    );
}

/// Each open-loop shard's answers are a pure function of its admitted
/// arrivals: replaying that subsequence on a standalone core reproduces
/// them byte for byte, whichever shape overloads the shard.
#[test]
fn open_loop_shards_match_their_standalone_replay() {
    let norm = WorkloadSpec::new(Family::SmallDominated, 24, 5)
        .generate_normalized()
        .unwrap();
    let oracle = InstanceOracle::new(&norm);
    let lca = fast_lca(Epsilon::new(1, 3).unwrap());
    let shared_seed = Seed::from_entropy_u64(1);
    let service_root = Seed::from_entropy_u64(2);
    let config = OpenLoopConfig::default();
    let (mut answered, mut shed) = (0usize, 0usize);
    for shape in TrafficShape::ALL {
        let trace = generate_trace(
            &Seed::from_entropy_u64(3),
            &TrafficConfig {
                shape,
                arrivals: 200,
                mean_gap_ticks: 8,
                universe: 24,
                shards: config.shards,
            },
        );
        let report =
            run_open_loop(&lca, &oracle, &shared_seed, &service_root, &trace, &config).unwrap();
        for shard in 0..config.shards {
            let mut admitted: Vec<(usize, Arrival)> = Vec::new();
            let mut served = Vec::new();
            for outcome in report.outcomes.iter().filter(|o| o.shard == shard) {
                match outcome.disposition {
                    TrafficDisposition::Answered { answer, .. } => {
                        admitted.push((outcome.index, trace[outcome.index]));
                        served.push((outcome.index, answer));
                    }
                    TrafficDisposition::Shed(_) => shed += 1,
                }
            }
            answered += served.len();
            let replayed = replay_shard_traffic(
                &lca,
                &oracle,
                &shared_seed,
                &service_root,
                &admitted,
                shard,
                &config.service,
            )
            .unwrap();
            assert_eq!(replayed, served, "{shape} shard {shard} diverged");
        }
    }
    assert_eq!(answered + shed, 5 * 200);
    assert!(
        answered > 0 && shed > 0,
        "the traces must both serve and shed"
    );
}
