//! Integration tests for the average-case rejection-sampling access
//! mode (Section 5 / [BCPR24]). The serving-fleet test of the paper's
//! distributed deployment story lives with the serving runtime, in
//! `crates/service/tests/serving_engines.rs`.

use lca_knapsack::lca::solution_audit::{audit_selection, exact_optimum};
use lca_knapsack::oracle::RejectionSamplingOracle;
use lca_knapsack::prelude::*;
use lca_knapsack::reproducible::SampleBudget;
use lca_knapsack::workloads::{Family, WorkloadSpec};

fn fast_lca(eps: Epsilon) -> LcaKp {
    LcaKp::new(eps)
        .unwrap()
        .with_budget(SampleBudget::Calibrated { factor: 0.01 })
}

/// LCA-KP runs unmodified on top of rejection sampling, and on a benign
/// instance the per-sample point-query overhead is a small constant.
#[test]
fn rejection_sampling_powers_lca_kp_on_benign_instances() {
    let n = 150;
    let spec = WorkloadSpec::new(Family::Uncorrelated { range: 50 }, n, 31);
    let norm = spec.generate_normalized().unwrap();
    let inner = InstanceOracle::new(&norm);
    let p_cap = norm
        .as_instance()
        .items()
        .iter()
        .map(|item| item.profit)
        .max()
        .unwrap();
    let oracle = RejectionSamplingOracle::new(&inner, p_cap, 10_000);
    assert!(
        oracle.expected_cost_per_sample() < 4.0,
        "benign instance should have O(1) rejection overhead"
    );

    let eps = Epsilon::new(1, 3).unwrap();
    let lca = fast_lca(eps);
    let mut rng = Seed::from_entropy_u64(32).rng();
    let selection = lca
        .assemble(&oracle, &mut rng, &Seed::from_entropy_u64(33))
        .unwrap();
    assert!(selection.is_feasible(norm.as_instance()));
    let optimum = exact_optimum(&norm).unwrap();
    let audit = audit_selection(&norm, &selection, optimum);
    assert!(audit.satisfies_theorem(eps), "{audit}");

    // Overhead accounting: point queries ≈ overhead × weighted budget.
    let stats = oracle.stats();
    assert!(stats.point_queries > 0);
}

/// The needle structure that defeats point queries (Theorem 3.2's
/// intuition) shows up as a large rejection overhead, not a silent
/// failure.
#[test]
fn rejection_sampling_overhead_explodes_on_needles() {
    let mut pairs = vec![(1u64, 1u64); 199];
    pairs.push((50_000, 1));
    let norm = lca_knapsack::knapsack::NormalizedInstance::new(
        lca_knapsack::knapsack::Instance::from_pairs(pairs, 100).unwrap(),
    )
    .unwrap();
    let inner = InstanceOracle::new(&norm);
    let oracle = RejectionSamplingOracle::new(&inner, 50_000, 100_000);
    assert!(
        oracle.expected_cost_per_sample() > 100.0,
        "needle overhead should be two orders above benign: {}",
        oracle.expected_cost_per_sample()
    );
}
