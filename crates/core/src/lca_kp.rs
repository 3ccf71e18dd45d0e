//! `LCA-KP` — Algorithm 2 of the paper (Theorem 4.1).

use crate::convert_greedy::convert_greedy;
use crate::lca::{KnapsackLca, LcaAnswer, SolutionRule};
use crate::solution_audit::{DegradationReason, QueryAudit};
use crate::trivial::degraded_answer;
use crate::LcaError;
use lcakp_knapsack::iky::{EpsSequence, Epsilon, TildeInstance};
use lcakp_knapsack::{Item, ItemId};
use lcakp_oracle::{ItemOracle, Seed, WeightedSampler};
use lcakp_reproducible::{Domain, QuantileScratch, ReproParams, SampleBudget};
use rand::Rng;
use std::fmt;

/// Which quantile algorithm supplies the EPS thresholds — the design
/// choice the paper motivates in Section 4.1 and this workspace ablates
/// in experiment E11.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantileEngine {
    /// The reproducible quantile of Algorithm 1 (the paper's choice).
    Reproducible,
    /// The raw empirical quantile — *breaks consistency*; ablation only.
    Naive,
}

/// The (τ, ρ, β) parameterization handed to the reproducible quantiles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReproProfile {
    /// The paper's parameters: τ = ε²/5, ρ = ε²/18, β = ρ/2 (Algorithm 2
    /// line 5). With `SampleBudget::Theoretical` this reproduces the
    /// `(1/ε)^{O(log* n)}` bound verbatim — and astronomically many
    /// samples at practical ε.
    Paper,
    /// Relaxed parameters for runnable experiments (`DESIGN.md` §3):
    /// the accuracy stays at the paper's τ = ε²/5 — the feasibility
    /// argument of Lemma 4.7 genuinely needs the ε² there — but ρ and β
    /// are explicit instead of the paper's ε²-scaled values. The
    /// consistency actually achieved is *measured* by experiment E6
    /// rather than guaranteed.
    Relaxed {
        /// Reproducibility target per quantile call.
        rho: f64,
        /// Failure probability per quantile call.
        beta: f64,
    },
}

/// Reusable per-worker sampling workspace for [`LcaKp`] queries.
///
/// Algorithm 2 buffers two sample sets per query: the distinct large
/// items of R (line 2) and the efficiency keys of Q (line 7), plus the
/// quantile workspace its t rQuantile calls share (lines 9–10): the
/// sorted keys, their rank codes and the solver's code buffers. All
/// are dead once the query's [`SolutionRule`] exists, so a serving loop
/// can hand the same scratch to every query and amortise the
/// allocations to zero — the buffers keep their high-water capacity
/// across queries. A fresh (empty) scratch gives byte-identical
/// answers: the buffers are cleared at each use, so only capacity
/// persists, never contents.
#[derive(Debug, Default)]
pub struct QueryScratch {
    /// Distinct large items sampled from R (Algorithm 2 lines 1–3).
    large: Vec<(ItemId, Item)>,
    /// Small-item efficiency keys sampled from Q (lines 6–8).
    efficiencies: Vec<u128>,
    /// The keys arg-sorted once per query, and the rQuantile buffers.
    quantile: QuantileScratch,
}

/// How `LCA-KP` reacts to transient oracle faults: each failing access
/// is retried up to `max_retries` times (immediately — the fault model
/// is per-access, so there is nothing to back off from, and determinism
/// matters more than pacing). Non-transient failures are never retried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries allowed per individual oracle access.
    pub max_retries: u32,
}

impl RetryPolicy {
    /// No retries: the first transient fault already degrades the query.
    pub fn none() -> Self {
        RetryPolicy { max_retries: 0 }
    }
}

impl Default for RetryPolicy {
    /// Three retries per access — enough that a per-access fault rate of
    /// 10% leaves a per-access failure probability of 10⁻⁴.
    fn default() -> Self {
        RetryPolicy { max_retries: 3 }
    }
}

/// The paper's `LCA-KP` (Algorithm 2): a stateless LCA answering
/// according to a feasible `(1/2, 6ε)`-approximate Knapsack solution,
/// given weighted sampling access.
///
/// ```
/// use lcakp_core::{KnapsackLca, LcaKp};
/// use lcakp_knapsack::iky::Epsilon;
/// use lcakp_knapsack::{Instance, ItemId, NormalizedInstance};
/// use lcakp_oracle::{InstanceOracle, Seed};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let norm = NormalizedInstance::new(Instance::from_pairs(
///     (1..=100u64).map(|i| (1 + i % 7, 1 + i % 5)),
///     40,
/// )?)?;
/// let oracle = InstanceOracle::new(&norm);
/// let lca = LcaKp::new(Epsilon::new(1, 4)?)?;
/// let seed = Seed::from_entropy_u64(7);
/// let mut rng = Seed::from_entropy_u64(99).rng();
/// let answer = lca.query(&oracle, &mut rng, ItemId(3), &seed)?;
/// println!("item 3: {answer}");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LcaKp {
    eps: Epsilon,
    budget: SampleBudget,
    engine: QuantileEngine,
    profile: ReproProfile,
    max_samples_per_query: u64,
    retry: RetryPolicy,
}

impl LcaKp {
    /// Creates an `LCA-KP` with the default runnable configuration:
    /// reproducible quantiles, relaxed profile (ρ = 0.1, β = 0.05),
    /// calibrated budget with factor 0.05.
    ///
    /// # Errors
    ///
    /// Returns [`LcaError::Knapsack`] if ε is invalid (propagated from
    /// [`Epsilon`] use; `eps` itself is already validated).
    pub fn new(eps: Epsilon) -> Result<Self, LcaError> {
        Ok(LcaKp {
            eps,
            budget: SampleBudget::Calibrated { factor: 0.05 },
            engine: QuantileEngine::Reproducible,
            profile: ReproProfile::Relaxed {
                rho: 0.1,
                beta: 0.05,
            },
            max_samples_per_query: 20_000_000,
            retry: RetryPolicy::default(),
        })
    }

    /// The paper's exact parameterization (Algorithm 2 line 5) with the
    /// theoretical sample-complexity formulas. **Warning**: at practical
    /// ε this demands astronomically many samples and every query will
    /// return [`LcaError::SampleBudgetTooLarge`]; it exists so that
    /// experiment E4 can *report* the theoretical curve.
    pub fn with_paper_parameters(eps: Epsilon) -> Self {
        LcaKp {
            eps,
            budget: SampleBudget::Theoretical,
            engine: QuantileEngine::Reproducible,
            profile: ReproProfile::Paper,
            max_samples_per_query: 20_000_000,
            retry: RetryPolicy::default(),
        }
    }

    /// Overrides the sample-budget policy.
    pub fn with_budget(mut self, budget: SampleBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Overrides the quantile engine (ablation hook).
    pub fn with_engine(mut self, engine: QuantileEngine) -> Self {
        self.engine = engine;
        self
    }

    /// Overrides the reproducibility profile.
    pub fn with_profile(mut self, profile: ReproProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Overrides the per-query sample safety cap.
    pub fn with_max_samples_per_query(mut self, cap: u64) -> Self {
        self.max_samples_per_query = cap;
        self
    }

    /// Overrides the transient-fault retry policy.
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// The retry policy in effect.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// The configured ε.
    pub fn eps(&self) -> Epsilon {
        self.eps
    }

    /// The (τ, ρ, β) triple in effect.
    pub fn repro_params(&self) -> ReproParams {
        let eps = self.eps.as_f64();
        match self.profile {
            ReproProfile::Paper => {
                let rho = eps * eps / 18.0;
                ReproParams {
                    rho,
                    tau: eps * eps / 5.0,
                    beta: rho / 2.0,
                    domain_bits: 64,
                }
            }
            ReproProfile::Relaxed { rho, beta } => ReproParams {
                rho,
                tau: eps * eps / 5.0,
                beta,
                domain_bits: 64,
            },
        }
    }

    /// Coupon-collection sample count `m` (Algorithm 2 line 1 /
    /// Lemma 4.2 amplified to failure probability ε/3): the base
    /// `⌈6δ⁻¹(ln δ⁻¹ + 1)⌉` at δ = ε², repeated `⌈log₆(3/ε)⌉` times.
    pub fn coupon_samples(&self) -> u64 {
        let eps = self.eps.as_f64();
        let delta = eps * eps;
        let base = (6.0 / delta) * ((1.0 / delta).ln() + 1.0);
        let repeats = ((3.0 / eps).ln() / 6f64.ln()).ceil().max(1.0);
        (base * repeats).ceil() as u64
    }

    /// Upper bound on the counted oracle accesses one query can consume:
    /// coupon samples, plus the worst-case EPS-estimation samples (the
    /// residual fraction is at least ε whenever estimation runs at all),
    /// plus the final point query — all multiplied by `1 + max_retries`
    /// since every transient retry re-charges the access on decorated
    /// oracles.
    ///
    /// A serving layer compares this against a budget's `remaining()` to
    /// load-shed *before* dispatching a query that could only die
    /// mid-flight.
    pub fn worst_case_accesses(&self) -> u64 {
        let per_attempt = self
            .coupon_samples()
            .saturating_add(self.eps_estimation_samples_cap())
            .saturating_add(1);
        per_attempt.saturating_mul(1 + u64::from(self.retry.max_retries))
    }

    /// Worst-case number of weighted samples one EPS estimation draws:
    /// `⌈1.5·n_rq/ε⌉`, since the residual fraction passed to
    /// `estimate_eps` is at least ε whenever estimation runs at all.
    /// This is the runtime value the `eps-estimation-samples` symbol in
    /// the lint's probe-budget certificate is bound to when the
    /// certificate is cross-checked against counting oracles.
    pub fn eps_estimation_samples_cap(&self) -> u64 {
        let params = self.repro_params();
        let n_rq = self.budget.rquantile_samples(&params);
        ((1.5 * n_rq as f64) / self.eps.as_f64()).ceil() as u64
    }

    /// Builds the per-query [`SolutionRule`] (Algorithm 2 lines 1–19).
    /// Exposed so that experiments can inspect the rule itself; `query`
    /// is `build_rule` + [`SolutionRule::decide`].
    ///
    /// # Errors
    ///
    /// Returns [`LcaError::SampleBudgetTooLarge`] when the configuration
    /// requires more samples per query than the safety cap.
    pub fn build_rule<O, R>(
        &self,
        oracle: &O,
        rng: &mut R,
        seed: &Seed,
    ) -> Result<SolutionRule, LcaError>
    where
        O: ItemOracle + WeightedSampler,
        R: Rng + ?Sized,
    {
        let mut scratch = QueryScratch::default();
        self.build_rule_in(oracle, rng, seed, &mut scratch)
    }

    /// [`build_rule`](Self::build_rule) with the sampling workspace in a
    /// caller-owned [`QueryScratch`], so a serving loop reuses the same
    /// buffers query after query instead of allocating per query.
    ///
    /// # Errors
    ///
    /// Returns [`LcaError::SampleBudgetTooLarge`] when the configuration
    /// requires more samples per query than the safety cap.
    pub fn build_rule_in<O, R>(
        &self,
        oracle: &O,
        rng: &mut R,
        seed: &Seed,
        scratch: &mut QueryScratch,
    ) -> Result<SolutionRule, LcaError>
    where
        O: ItemOracle + WeightedSampler,
        R: Rng + ?Sized,
    {
        let mut retries = 0u64;
        self.build_rule_counted(oracle, rng, seed, &mut retries, scratch)
    }

    /// One weighted sample with bounded retry of transient faults; every
    /// exhausted retry budget surfaces as [`LcaError::Oracle`].
    fn sample_with_retry<O, R>(
        &self,
        oracle: &O,
        rng: &mut R,
        retries: &mut u64,
    ) -> Result<(ItemId, Item), LcaError>
    where
        O: WeightedSampler,
        R: Rng + ?Sized,
    {
        let mut attempts = 0u32;
        // lcakp-lint: loop-bound(retry-attempts) reason="every non-returning iteration increments attempts, and the retryable guard admits at most max_retries of them, so the body runs at most 1 + max_retries times"
        loop {
            match oracle.try_sample_weighted(rng) {
                Ok(sample) => return Ok(sample),
                Err(error) if error.is_retryable() && attempts < self.retry.max_retries => {
                    attempts += 1;
                    *retries += 1;
                }
                Err(error) => return Err(LcaError::Oracle(error)),
            }
        }
    }

    /// One point query with bounded retry of transient faults.
    // lcakp-lint: probe-budget(retry-attempts) reason="one counted try_query per loop iteration, and the retry loop below is bounded by retry-attempts = 1 + max_retries"
    fn query_with_retry<O>(
        &self,
        oracle: &O,
        id: ItemId,
        retries: &mut u64,
    ) -> Result<Item, LcaError>
    where
        O: ItemOracle,
    {
        let mut attempts = 0u32;
        // lcakp-lint: loop-bound(retry-attempts) reason="every non-returning iteration increments attempts, and the retryable guard admits at most max_retries of them, so the body runs at most 1 + max_retries times"
        loop {
            match oracle.try_query(id) {
                Ok(item) => return Ok(item),
                Err(error) if error.is_retryable() && attempts < self.retry.max_retries => {
                    attempts += 1;
                    *retries += 1;
                }
                Err(error) => return Err(LcaError::Oracle(error)),
            }
        }
    }

    /// [`build_rule`](Self::build_rule) with the retry counter threaded
    /// through, so audited queries can report retries spent.
    fn build_rule_counted<O, R>(
        &self,
        oracle: &O,
        rng: &mut R,
        seed: &Seed,
        retries: &mut u64,
        scratch: &mut QueryScratch,
    ) -> Result<SolutionRule, LcaError>
    where
        O: ItemOracle + WeightedSampler,
        R: Rng + ?Sized,
    {
        let norms = oracle.norms();
        let eps_sq = self.eps.squared();
        let total_profit = norms.total_profit as u128;

        // ---- Line 1–3: sample R, keep distinct large items. ----
        let m = self.coupon_samples();
        if m > self.max_samples_per_query {
            return Err(LcaError::SampleBudgetTooLarge {
                needed: m,
                cap: self.max_samples_per_query,
            });
        }
        scratch.large.clear();
        // lcakp-lint: loop-bound(coupon-samples) reason="m = coupon_samples() exactly; the symbolic name keeps the certificate readable across call sites"
        for _ in 0..m {
            let (id, item) = self.sample_with_retry(oracle, rng, retries)?;
            if norms.nprofit_of(item.profit) > eps_sq {
                scratch.large.push((id, item));
            }
        }
        scratch.large.sort_by_key(|&(id, _)| id);
        scratch.large.dedup_by_key(|&mut (id, _)| id);
        let large = &scratch.large;
        let large_profit: u128 = large.iter().map(|&(_, item)| item.profit as u128).sum();

        // ---- Lines 4–17: estimate the EPS when enough profit mass sits
        // outside the large items. 1 − p(L(Ĩ)) ≥ ε ⇔ (P − S)·den ≥ num·P.
        let residual = total_profit - large_profit;
        let seq = if residual * self.eps.den() as u128 >= self.eps.num() as u128 * total_profit {
            self.estimate_eps(
                oracle,
                rng,
                seed,
                residual as f64 / total_profit as f64,
                retries,
                scratch,
            )?
        } else {
            EpsSequence::empty()
        };

        // ---- Line 18: construct Ĩ. ----
        let large = &scratch.large;
        let tilde = TildeInstance::build(norms, oracle.capacity(), self.eps, large, &seq);

        // ---- Line 19: CONVERT-GREEDY. ----
        let out = convert_greedy(&tilde, &seq);
        Ok(SolutionRule {
            eps: self.eps,
            capacity: oracle.capacity(),
            // lcakp-lint: allow(D011) reason="the selected-large set is the rule's output and is bounded by the ε-sized tilde instance, not by n"
            large_selected: out.large_selected.into_iter().collect(),
            e_small: out.e_small,
            singleton: out.singleton,
        })
    }

    /// Lines 5–15: sample Q, estimate the quantile thresholds, apply the
    /// `t' = t − 1` adjustment.
    fn estimate_eps<O, R>(
        &self,
        oracle: &O,
        rng: &mut R,
        seed: &Seed,
        residual_fraction: f64,
        retries: &mut u64,
        scratch: &mut QueryScratch,
    ) -> Result<EpsSequence, LcaError>
    where
        O: ItemOracle + WeightedSampler,
        R: Rng + ?Sized,
    {
        let eps = self.eps.as_f64();
        let q = (eps + eps * eps / 2.0) / residual_fraction;
        let t = (1.0 / q).floor() as usize;
        if t == 0 {
            return Ok(EpsSequence::empty());
        }
        let params = self.repro_params();
        let n_rq = self.budget.rquantile_samples(&params);
        let a = ((1.5 * n_rq as f64) / residual_fraction).ceil() as u64;
        if a > self.max_samples_per_query {
            return Err(LcaError::SampleBudgetTooLarge {
                needed: a,
                cap: self.max_samples_per_query,
            });
        }

        // Sample Q, drop large items, keep efficiency keys (line 6–8).
        let norms = oracle.norms();
        let eps_sq = self.eps.squared();
        scratch.efficiencies.clear();
        scratch.efficiencies.reserve(a as usize);
        // lcakp-lint: loop-bound(eps-estimation-samples) reason="a = eps_estimation_samples_cap() at most; the symbolic name keeps the certificate readable across call sites"
        for _ in 0..a {
            let (id, item) = self.sample_with_retry(oracle, rng, retries)?;
            if norms.nprofit_of(item.profit) <= eps_sq {
                scratch
                    .efficiencies
                    .push(norms.tie_broken_efficiency_key(id, item) as u128);
            }
        }
        if scratch.efficiencies.is_empty() {
            // Degenerate: no small/garbage mass was seen; proceed with no
            // thresholds (the paper's failure event, probability ≤ ε/3).
            return Ok(EpsSequence::empty());
        }

        // Lines 9–10: ẽ_k = rQuantile(E, 1 − kq), made non-increasing.
        // Both engines read the one sort of E this query makes.
        let domain = Domain::new(64).map_err(LcaError::from)?;
        let mut sample = scratch.quantile.prepare(&scratch.efficiencies, domain)?;
        // lcakp-lint: allow(D011) reason="the t ≤ ⌈1/ε⌉ threshold keys are the query's output: EpsSequence must own them, so they cannot live in the scratch"
        let mut keys: Vec<u64> = Vec::with_capacity(t);
        let mut previous = u64::MAX;
        // lcakp-lint: loop-bound(eps-thresholds) reason="one rQuantile per EPS threshold: t ≤ ⌈1/ε⌉ by construction (Algorithm 2 line 9)"
        for k in 1..=t {
            let p = (1.0 - k as f64 * q).max(0.0);
            let value = match self.engine {
                QuantileEngine::Reproducible => sample.rquantile(
                    p,
                    params.tau.min(0.5),
                    &seed.derive("lca-kp/rquantile", k as u64),
                )?,
                QuantileEngine::Naive => sample.naive_quantile(p),
            };
            // Saturating u128 → u64 without unwrap: quantiles above the
            // key domain clamp to the maximum key.
            let key = (value.min(u128::from(u64::MAX)) as u64).min(previous);
            // lcakp-lint: allow(D011) reason="appends one of the t ≤ ⌈1/ε⌉ owned threshold keys"
            keys.push(key);
            previous = key;
        }

        // Lines 11–14: drop ẽ_t if it fell below ε² (exact comparison:
        // key/2³² < ε² ⇔ key·den² < num²·2³²).
        let mut seq = EpsSequence::new(keys).map_err(LcaError::from)?;
        if let Some(&last) = seq.keys().last() {
            let num = self.eps.num() as u128;
            let den = self.eps.den() as u128;
            if (last as u128) * den * den < num * num * (1u128 << 32) {
                seq.truncate_last();
            }
        }
        Ok(seq)
    }
}

impl LcaKp {
    /// [`KnapsackLca::query`] with the degradation ladder's audit trail.
    ///
    /// The ladder, in order:
    ///
    /// 1. every oracle access retries transient faults up to the
    ///    [`RetryPolicy`];
    /// 2. a persistent failure (retries exhausted, detected corruption,
    ///    or an exhausted access budget) abandons the sampled rule and
    ///    answers from the trivial always-no rule of
    ///    [`EmptyLca`](crate::EmptyLca) — feasible and trivially
    ///    consistent — tagged
    ///    [`DegradedFallback`](crate::DecisionReason::DegradedFallback)
    ///    with the [`DegradationReason`] recorded in the audit.
    ///
    /// Non-oracle errors (out-of-range ids, impossible sample budgets)
    /// stay hard errors: they are configuration bugs, not faults.
    ///
    /// # Errors
    ///
    /// Returns [`LcaError::ItemOutOfRange`] /
    /// [`LcaError::SampleBudgetTooLarge`] as [`KnapsackLca::query`] does;
    /// oracle faults degrade instead of erroring.
    // lcakp-lint: probe-budget(retry-attempts * (coupon-samples + eps-estimation-samples + 1)) reason="matches worst_case_accesses(): per attempt, coupon_samples() weighted samples + eps_estimation_samples_cap() estimation samples + one final point query, re-charged across 1 + max_retries attempts"
    pub fn query_with_audit<O, R>(
        &self,
        oracle: &O,
        rng: &mut R,
        item: ItemId,
        seed: &Seed,
    ) -> Result<(LcaAnswer, QueryAudit), LcaError>
    where
        O: ItemOracle + WeightedSampler,
        R: Rng + ?Sized,
    {
        let mut scratch = QueryScratch::default();
        self.query_with_audit_in(oracle, rng, item, seed, &mut scratch)
    }

    /// [`query_with_audit`](Self::query_with_audit) with the sampling
    /// workspace in a caller-owned [`QueryScratch`]: the serving runtime
    /// hands each worker's scratch to every query it serves, so steady
    /// state allocates nothing per query. Answers are byte-identical to
    /// the scratch-free variant.
    ///
    /// # Errors
    ///
    /// As [`query_with_audit`](Self::query_with_audit).
    // lcakp-lint: probe-budget(retry-attempts * (coupon-samples + eps-estimation-samples + 1)) reason="matches worst_case_accesses(): per attempt, coupon_samples() weighted samples + eps_estimation_samples_cap() estimation samples + one final point query, re-charged across 1 + max_retries attempts"
    pub fn query_with_audit_in<O, R>(
        &self,
        oracle: &O,
        rng: &mut R,
        item: ItemId,
        seed: &Seed,
        scratch: &mut QueryScratch,
    ) -> Result<(LcaAnswer, QueryAudit), LcaError>
    where
        O: ItemOracle + WeightedSampler,
        R: Rng + ?Sized,
    {
        if item.index() >= oracle.len() {
            return Err(LcaError::ItemOutOfRange {
                index: item.index(),
                len: oracle.len(),
            });
        }
        let before = oracle.stats();
        let mut retries = 0u64;
        let outcome = self
            .build_rule_counted(oracle, rng, seed, &mut retries, scratch)
            .and_then(|rule| {
                let queried = self.query_with_retry(oracle, item, &mut retries)?;
                Ok(rule.decide(oracle.norms(), item, queried))
            });
        let budget_consumed = oracle.stats().since(before).total();
        match outcome {
            Ok(answer) => Ok((
                answer,
                QueryAudit {
                    degraded: None,
                    retries_used: retries,
                    budget_consumed,
                },
            )),
            Err(LcaError::Oracle(error)) => match DegradationReason::from_oracle(error) {
                Some(reason) => Ok((
                    degraded_answer(),
                    QueryAudit {
                        degraded: Some(reason),
                        retries_used: retries,
                        budget_consumed,
                    },
                )),
                // Not a fault (e.g. out-of-range id from the oracle):
                // surface it.
                None => Err(LcaError::Oracle(error)),
            },
            Err(other) => Err(other),
        }
    }
}

impl KnapsackLca for LcaKp {
    // lcakp-lint: probe-budget(retry-attempts * (coupon-samples + eps-estimation-samples + 1)) reason="matches worst_case_accesses(): per attempt, coupon_samples() weighted samples + eps_estimation_samples_cap() estimation samples + one final point query, re-charged across 1 + max_retries attempts"
    fn query<O, R>(
        &self,
        oracle: &O,
        rng: &mut R,
        item: ItemId,
        seed: &Seed,
    ) -> Result<LcaAnswer, LcaError>
    where
        O: ItemOracle + WeightedSampler,
        R: Rng + ?Sized,
    {
        self.query_with_audit(oracle, rng, item, seed)
            .map(|(answer, _)| answer)
    }
}

impl fmt::Display for LcaKp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "LCA-KP(ε={}, engine={:?}, profile={:?}, budget={:?})",
            self.eps, self.engine, self.profile, self.budget
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcakp_knapsack::{Instance, NormalizedInstance, Selection};
    use lcakp_oracle::InstanceOracle;
    use lcakp_workloads::{Family, WorkloadSpec};

    fn quick_lca(eps: Epsilon) -> LcaKp {
        // Small budgets so unit tests stay fast; statistical quality is
        // covered by the integration tests and experiments.
        LcaKp::new(eps)
            .unwrap()
            .with_budget(SampleBudget::Calibrated { factor: 0.01 })
    }

    #[test]
    fn paper_parameters_are_derived_correctly() {
        let eps = Epsilon::new(1, 10).unwrap();
        let lca = LcaKp::with_paper_parameters(eps);
        let params = lca.repro_params();
        assert!((params.tau - 0.002).abs() < 1e-12); // ε²/5 at ε = 0.1
        assert!((params.rho - 0.01 / 18.0).abs() < 1e-12); // ε²/18
        assert!((params.beta - params.rho / 2.0).abs() < 1e-15);
    }

    #[test]
    fn theoretical_budget_errors_gracefully() {
        let eps = Epsilon::new(1, 10).unwrap();
        let lca = LcaKp::with_paper_parameters(eps);
        // All-small instance: the EPS-estimation path (the expensive one)
        // must run, and the theoretical budget at ε = 1/10 is astronomic.
        let norm = NormalizedInstance::new(
            Instance::from_pairs(std::iter::repeat_n((1u64, 1u64), 200), 50).unwrap(),
        )
        .unwrap();
        let oracle = InstanceOracle::new(&norm);
        let mut rng = Seed::from_entropy_u64(0).rng();
        let seed = Seed::from_entropy_u64(1);
        let result = lca.query(&oracle, &mut rng, ItemId(0), &seed);
        assert!(matches!(result, Err(LcaError::SampleBudgetTooLarge { .. })));
    }

    #[test]
    fn coupon_samples_grow_with_one_over_eps() {
        let small = quick_lca(Epsilon::new(1, 2).unwrap()).coupon_samples();
        let large = quick_lca(Epsilon::new(1, 8).unwrap()).coupon_samples();
        assert!(large > small);
    }

    #[test]
    fn query_answers_and_is_stateless() {
        let eps = Epsilon::new(1, 3).unwrap();
        let lca = quick_lca(eps);
        let spec = WorkloadSpec::new(
            Family::LargeDominated {
                heavy: 3,
                heavy_profit: 5_000,
            },
            200,
            5,
        );
        let norm = spec.generate_normalized().unwrap();
        let oracle = InstanceOracle::new(&norm);
        let seed = Seed::from_entropy_u64(11);
        let mut rng = Seed::from_entropy_u64(12).rng();
        for index in [0usize, 1, 50, 199] {
            let answer = lca.query(&oracle, &mut rng, ItemId(index), &seed).unwrap();
            let _ = answer.include;
        }
    }

    #[test]
    fn rule_is_identical_for_identical_randomness() {
        let eps = Epsilon::new(1, 3).unwrap();
        let lca = quick_lca(eps);
        let spec = WorkloadSpec::new(Family::SmallDominated, 300, 6);
        let norm = spec.generate_normalized().unwrap();
        let oracle = InstanceOracle::new(&norm);
        let seed = Seed::from_entropy_u64(21);
        // Same sampling stream AND same seed → byte-identical rule.
        let rule_a = lca
            .build_rule(&oracle, &mut Seed::from_entropy_u64(5).rng(), &seed)
            .unwrap();
        let rule_b = lca
            .build_rule(&oracle, &mut Seed::from_entropy_u64(5).rng(), &seed)
            .unwrap();
        assert_eq!(rule_a, rule_b);
    }

    #[test]
    fn assembled_solution_is_feasible() {
        let eps = Epsilon::new(1, 3).unwrap();
        let lca = quick_lca(eps);
        for spec in [
            WorkloadSpec::new(Family::SmallDominated, 150, 1),
            WorkloadSpec::new(
                Family::LargeDominated {
                    heavy: 4,
                    heavy_profit: 4_000,
                },
                150,
                2,
            ),
            WorkloadSpec::new(
                Family::GarbageMix {
                    garbage_percent: 20,
                },
                150,
                3,
            ),
        ] {
            let norm = spec.generate_normalized().unwrap();
            let oracle = InstanceOracle::new(&norm);
            let seed = Seed::from_entropy_u64(31);
            let mut rng = Seed::from_entropy_u64(32).rng();
            // Materialize from one rule (MAPPING-GREEDY): feasibility is
            // Lemma 4.7.
            let rule = lca.build_rule(&oracle, &mut rng, &seed).unwrap();
            let selection: Selection = rule.materialize(&norm);
            assert!(
                selection.is_feasible(norm.as_instance()),
                "{spec}: rule {rule} produced infeasible selection"
            );
        }
    }

    #[test]
    fn garbage_items_are_rejected() {
        let eps = Epsilon::new(1, 5).unwrap();
        let lca = quick_lca(eps);
        let spec = WorkloadSpec::new(
            Family::GarbageMix {
                garbage_percent: 30,
            },
            400,
            9,
        );
        let norm = spec.generate_normalized().unwrap();
        let oracle = InstanceOracle::new(&norm);
        let seed = Seed::from_entropy_u64(41);
        let mut rng = Seed::from_entropy_u64(42).rng();
        let partition = lcakp_knapsack::iky::Partition::compute(&norm, eps);
        assert!(!partition.garbage().is_empty());
        for &id in partition.garbage().iter().take(5) {
            let answer = lca.query(&oracle, &mut rng, id, &seed).unwrap();
            assert!(!answer.include, "garbage item {id} was included");
        }
    }

    #[test]
    fn out_of_range_query_errors() {
        let eps = Epsilon::new(1, 3).unwrap();
        let lca = quick_lca(eps);
        let norm =
            NormalizedInstance::new(Instance::from_pairs([(5, 1), (3, 1)], 1).unwrap()).unwrap();
        let oracle = InstanceOracle::new(&norm);
        let mut rng = Seed::from_entropy_u64(1).rng();
        assert!(lca
            .query(&oracle, &mut rng, ItemId(2), &Seed::from_entropy_u64(0))
            .is_err());
    }

    #[test]
    fn display_mentions_engine() {
        let lca = quick_lca(Epsilon::new(1, 4).unwrap());
        assert!(lca.to_string().contains("Reproducible"));
    }

    #[test]
    fn query_degrades_to_trivial_rule_under_budget_exhaustion() {
        use crate::lca::DecisionReason;
        use crate::solution_audit::DegradationReason;
        use lcakp_oracle::BudgetedOracle;

        let eps = Epsilon::new(1, 3).unwrap();
        let lca = quick_lca(eps);
        let spec = WorkloadSpec::new(Family::SmallDominated, 200, 4);
        let norm = spec.generate_normalized().unwrap();
        let inner = InstanceOracle::new(&norm);
        // A cap of 10 is far below the coupon-sampling budget, so the
        // rule construction must hit the wall and degrade.
        let oracle = BudgetedOracle::new(&inner, 10);
        let seed = Seed::from_entropy_u64(51);
        let mut rng = Seed::from_entropy_u64(52).rng();
        let (answer, audit) = lca
            .query_with_audit(&oracle, &mut rng, ItemId(0), &seed)
            .unwrap();
        assert!(!answer.include, "degraded answer must be the trivial no");
        assert_eq!(answer.reason, DecisionReason::DegradedFallback);
        assert_eq!(
            audit.degraded,
            Some(DegradationReason::BudgetExhausted { spent: 10, cap: 10 })
        );
        assert_eq!(audit.budget_consumed, 10, "exactly the cap was spent");

        // The infallible trait path degrades identically instead of
        // panicking or erroring.
        let answer = lca.query(&oracle, &mut rng, ItemId(0), &seed).unwrap();
        assert_eq!(answer.reason, DecisionReason::DegradedFallback);
    }

    #[test]
    fn transient_faults_are_retried_and_answers_match_fault_free() {
        use lcakp_oracle::{FaultPlan, FaultyOracle};

        let eps = Epsilon::new(1, 3).unwrap();
        let lca = quick_lca(eps).with_retry_policy(RetryPolicy { max_retries: 8 });
        let spec = WorkloadSpec::new(Family::SmallDominated, 200, 4);
        let norm = spec.generate_normalized().unwrap();
        let seed = Seed::from_entropy_u64(61);

        let clean = InstanceOracle::new(&norm);
        let (clean_answer, clean_audit) = lca
            .query_with_audit(
                &clean,
                &mut Seed::from_entropy_u64(62).rng(),
                ItemId(5),
                &seed,
            )
            .unwrap();

        // Retrying a transient fault repeats the access without touching
        // the caller's RNG stream, so the answer is unchanged.
        let inner = InstanceOracle::new(&norm);
        let faulty = FaultyOracle::new(
            &inner,
            FaultPlan::transient(0.05),
            Seed::from_entropy_u64(63),
        );
        let (answer, audit) = lca
            .query_with_audit(
                &faulty,
                &mut Seed::from_entropy_u64(62).rng(),
                ItemId(5),
                &seed,
            )
            .unwrap();
        assert_eq!(
            audit.degraded, None,
            "5% transients with 8 retries never persist"
        );
        assert!(audit.retries_used > 0, "faults must actually have fired");
        assert_eq!(answer, clean_answer);
        assert_eq!(clean_audit.retries_used, 0);
    }

    #[test]
    fn retry_policy_none_degrades_on_first_transient() {
        use crate::lca::DecisionReason;
        use crate::solution_audit::DegradationReason;
        use lcakp_oracle::{FaultPlan, FaultyOracle};

        let eps = Epsilon::new(1, 3).unwrap();
        let lca = quick_lca(eps).with_retry_policy(RetryPolicy::none());
        let spec = WorkloadSpec::new(Family::SmallDominated, 200, 4);
        let norm = spec.generate_normalized().unwrap();
        let inner = InstanceOracle::new(&norm);
        let faulty = FaultyOracle::new(
            &inner,
            FaultPlan::transient(0.5),
            Seed::from_entropy_u64(71),
        );
        let seed = Seed::from_entropy_u64(72);
        let mut rng = Seed::from_entropy_u64(73).rng();
        let (answer, audit) = lca
            .query_with_audit(&faulty, &mut rng, ItemId(0), &seed)
            .unwrap();
        assert_eq!(answer.reason, DecisionReason::DegradedFallback);
        assert_eq!(audit.degraded, Some(DegradationReason::RetriesExhausted));
        assert_eq!(audit.retries_used, 0);
    }
}
