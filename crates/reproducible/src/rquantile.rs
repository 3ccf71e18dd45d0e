//! Reproducible quantiles — Algorithm 1 of the paper (`rQuantile`),
//! reducing the `p`-quantile to a median by `±∞` padding.
//!
//! Given `n` samples from `D`, the reduction appends `x = (1−p)·n` copies
//! of `−∞` and `y = p·n` copies of `+∞`: the median of the padded multiset
//! sits at rank `n` of `2n`, i.e. at rank `n − x = p·n` of the real
//! values — the `p`-quantile. The paper pads the *distribution* (its
//! `D'`); padding the sample with the exact expected counts is the
//! Rao–Blackwellized version: it has strictly less variance and makes the
//! padding identical across runs, which can only help reproducibility.
//!
//! `−∞` and `+∞` are encoded in the one-bit-extended domain
//! ([`Domain::extended`]): real values shift up by one, `0` encodes `−∞`
//! and the extended maximum encodes `+∞`; outputs are clamped back.
//!
//! The padding is never materialized as values: a [`PreparedSample`]
//! arg-sorts the sample once, and each quantile call describes the padded
//! sample by its counts and rank codes (see the `rmedian` module's
//! implementation notes).

use crate::domain::Domain;
use crate::naive::quantile_of_sorted;
use crate::rmedian::{arg_sort, check_tau, solve, Buffers, Padded};
use crate::ReproducibleError;
use lcakp_oracle::Seed;

/// Configuration of a reproducible-quantile call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RQuantileConfig {
    /// The finite ordered domain the sample lives in.
    pub domain: Domain,
    /// The queried quantile `p ∈ [0, 1]`.
    pub p: f64,
    /// Target accuracy τ ∈ (0, 1/2]: the output `v` satisfies
    /// `Pr[X ≤ v] ≥ p − τ` and `Pr[X ≥ v] ≥ 1 − p − τ` with high
    /// probability (Theorem 4.5).
    pub tau: f64,
}

/// Computes a reproducible τ-approximate `p`-quantile.
///
/// One call is [`QuantileScratch::prepare`] followed by
/// [`PreparedSample::rquantile`]; callers asking several quantiles of
/// one sample should use those directly and sort it once.
///
/// # Errors
///
/// * [`ReproducibleError::InvalidParameter`] if `p ∉ [0, 1]` or
///   `tau ∉ (0, 1/2]`;
/// * [`ReproducibleError::EmptySample`] / `ValueOutOfDomain` as in
///   [`rmedian`](crate::rmedian);
/// * [`ReproducibleError::DomainTooWide`] if the extended domain exceeds
///   the supported width;
/// * [`ReproducibleError::SampleTooLarge`] if the padded sample has more
///   than `u32::MAX` values.
///
/// ```
/// use lcakp_reproducible::{rquantile, Domain, RQuantileConfig, Seed};
/// # fn main() -> Result<(), lcakp_reproducible::ReproducibleError> {
/// let config = RQuantileConfig { domain: Domain::new(16)?, p: 0.9, tau: 0.05 };
/// let seed = Seed::from_entropy_u64(3);
/// let sample: Vec<u128> = (0..20_000).map(|i| (i * 977) % 1000).collect();
/// let q = rquantile(&sample, &config, &seed)?;
/// // ~uniform over [0, 1000): the 0.9-quantile is near 900.
/// assert!((850..960).contains(&(q as i64)));
/// # Ok(())
/// # }
/// ```
pub fn rquantile(
    sample: &[u128],
    config: &RQuantileConfig,
    seed: &Seed,
) -> Result<u128, ReproducibleError> {
    // Parameter errors take precedence over sample errors.
    check_quantile(config.p, config.tau)?;
    let mut scratch = QuantileScratch::default();
    scratch
        .prepare(sample, config.domain)?
        .rquantile(config.p, config.tau, seed)
}

/// Rejects `p ∉ [0, 1]`, then `tau ∉ (0, 1/2]`.
fn check_quantile(p: f64, tau: f64) -> Result<(), ReproducibleError> {
    if !(0.0..=1.0).contains(&p) {
        return Err(ReproducibleError::InvalidParameter {
            name: "p",
            value: p,
        });
    }
    check_tau(tau)
}

/// Reusable workspace for quantile calls: the sorted copy of the sample,
/// its per-arrival rank codes, and the solver's arrival and batch-layout
/// buffers. Only capacity persists between uses, never contents, so a
/// reused scratch answers exactly as a fresh one.
#[derive(Debug, Default)]
pub struct QuantileScratch {
    sorted: Vec<u128>,
    codes: Vec<u32>,
    buffers: Buffers,
}

impl QuantileScratch {
    /// Validates `sample` against `domain` and arg-sorts it once; the
    /// returned [`PreparedSample`] answers any number of quantile calls
    /// over it.
    ///
    /// # Errors
    ///
    /// [`ReproducibleError::EmptySample`] for an empty sample,
    /// [`ReproducibleError::ValueOutOfDomain`] if a value exceeds the
    /// domain, and [`ReproducibleError::SampleTooLarge`] for `u32::MAX`
    /// values or more.
    pub fn prepare<'a>(
        &'a mut self,
        sample: &'a [u128],
        domain: Domain,
    ) -> Result<PreparedSample<'a>, ReproducibleError> {
        domain.check_sample(sample)?;
        // Codes run to n + 1, the code of +∞.
        if sample.len() >= u32::MAX as usize {
            return Err(ReproducibleError::SampleTooLarge { len: sample.len() });
        }
        arg_sort(sample, domain.bits(), &mut self.sorted, &mut self.codes);
        Ok(PreparedSample {
            codes: &self.codes,
            sorted: &self.sorted,
            domain,
            buffers: &mut self.buffers,
        })
    }
}

/// A validated sample with its sorted copy and rank codes, borrowed from
/// a [`QuantileScratch`]. Its answers equal [`rquantile`] and
/// [`naive_quantile`](crate::naive_quantile) on the same sample.
#[derive(Debug)]
pub struct PreparedSample<'a> {
    codes: &'a [u32],
    sorted: &'a [u128],
    domain: Domain,
    buffers: &'a mut Buffers,
}

impl PreparedSample<'_> {
    /// The reproducible τ-approximate `p`-quantile, exactly as
    /// [`rquantile`] computes it on this sample.
    ///
    /// # Errors
    ///
    /// As [`rquantile`], less the sample errors `prepare` already
    /// reported.
    pub fn rquantile(&mut self, p: f64, tau: f64, seed: &Seed) -> Result<u128, ReproducibleError> {
        check_quantile(p, tau)?;
        let extended = Domain::new(self.domain.bits() + 1)?;
        let n = self.sorted.len();
        if u32::try_from(2 * n).is_err() {
            return Err(ReproducibleError::SampleTooLarge { len: n });
        }
        // x = (1−p)·n lows, y = p·n highs (rounded so that x + y = n).
        let lows = (((1.0 - p) * n as f64).round() as usize).min(n);
        let padded = Padded {
            codes: self.codes,
            sorted: self.sorted,
            offset: 1,
            lows,
            highs: n - lows,
            high_value: extended.max_value(),
        };
        // Permute with *shared* randomness: rmedian's index-based splits
        // (halves, batches) assume exchangeable order, which the
        // values-then-padding layout would break; a fixed seed-derived
        // permutation restores it identically across runs.
        let out = solve(
            &padded,
            extended.bits(),
            tau / 2.0,
            &seed.derive("rquantile/median", 0),
            Some(&seed.derive("rquantile/shuffle", 0)),
            self.buffers,
        );
        // Decode: clamp −∞ to the domain minimum and +∞ (or any grid point
        // above the real values) to the maximum.
        Ok(out.saturating_sub(1).min(self.domain.max_value()))
    }

    /// The non-reproducible empirical `p`-quantile, exactly as
    /// [`naive_quantile`](crate::naive_quantile) computes it on this
    /// sample, read off the sorted copy.
    pub fn naive_quantile(&self, p: f64) -> u128 {
        quantile_of_sorted(self.sorted, p)
    }

    /// The reproducible median of the sample in its own order, as
    /// [`rmedian`](crate::rmedian) computes it (τ already validated).
    pub(crate) fn rmedian(&mut self, tau: f64, seed: &Seed) -> u128 {
        let padded = Padded::plain(self.codes, self.sorted);
        solve(&padded, self.domain.bits(), tau, seed, None, self.buffers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha12Rng;

    fn config(bits: u32, p: f64, tau: f64) -> RQuantileConfig {
        RQuantileConfig {
            domain: Domain::new(bits).unwrap(),
            p,
            tau,
        }
    }

    #[test]
    fn validates_parameters() {
        let seed = Seed::from_entropy_u64(0);
        assert!(matches!(
            rquantile(&[1], &config(8, 1.5, 0.1), &seed),
            Err(ReproducibleError::InvalidParameter { name: "p", .. })
        ));
        assert!(matches!(
            rquantile(&[1], &config(8, 0.5, 0.9), &seed),
            Err(ReproducibleError::InvalidParameter { name: "tau", .. })
        ));
        assert!(matches!(
            rquantile(&[], &config(8, 0.5, 0.1), &seed),
            Err(ReproducibleError::EmptySample)
        ));
    }

    #[test]
    fn median_case_matches_rmedian_semantics() {
        let seed = Seed::from_entropy_u64(4);
        let mut rng = ChaCha12Rng::seed_from_u64(10);
        let sample: Vec<u128> = (0..30_000).map(|_| rng.gen_range(0..1000u128)).collect();
        let q = rquantile(&sample, &config(16, 0.5, 0.05), &seed).unwrap();
        assert!((430..570).contains(&(q as i64)), "q = {q}");
    }

    #[test]
    fn quantile_accuracy_across_p() {
        let mut rng = ChaCha12Rng::seed_from_u64(20);
        let sample: Vec<u128> = (0..40_000).map(|_| rng.gen_range(0..10_000u128)).collect();
        for (trial, &p) in [0.1, 0.25, 0.5, 0.75, 0.9].iter().enumerate() {
            let seed = Seed::from_entropy_u64(trial as u64);
            let q = rquantile(&sample, &config(16, p, 0.05), &seed).unwrap();
            let cdf = q as f64 / 10_000.0;
            assert!(
                (cdf - p).abs() <= 0.08,
                "p = {p}: got value {q} with cdf ≈ {cdf}"
            );
        }
    }

    #[test]
    fn extreme_quantiles_clamp_into_domain() {
        let seed = Seed::from_entropy_u64(8);
        let sample = vec![500u128; 5000];
        let low = rquantile(&sample, &config(16, 0.0, 0.1), &seed).unwrap();
        let high = rquantile(&sample, &config(16, 1.0, 0.1), &seed).unwrap();
        assert!(low <= 500);
        assert!(high <= Domain::new(16).unwrap().max_value());
    }

    #[test]
    fn point_mass_any_quantile_is_the_point() {
        let seed = Seed::from_entropy_u64(12);
        let sample = vec![321u128; 10_000];
        for p in [0.2, 0.5, 0.8] {
            let q = rquantile(&sample, &config(16, p, 0.05), &seed).unwrap();
            assert_eq!(q, 321, "p = {p}");
        }
    }

    #[test]
    fn reproducibility_on_fresh_samples() {
        let mut agreements = 0;
        let trials = 30;
        for trial in 0..trials {
            let seed = Seed::from_entropy_u64(trial);
            let mut rng_a = ChaCha12Rng::seed_from_u64(5_000 + trial);
            let mut rng_b = ChaCha12Rng::seed_from_u64(6_000 + trial);
            let sample_a: Vec<u128> = (0..60_000)
                .map(|_| rng_a.gen_range(0..(1u128 << 24)))
                .collect();
            let sample_b: Vec<u128> = (0..60_000)
                .map(|_| rng_b.gen_range(0..(1u128 << 24)))
                .collect();
            let out_a = rquantile(&sample_a, &config(24, 0.75, 0.05), &seed).unwrap();
            let out_b = rquantile(&sample_b, &config(24, 0.75, 0.05), &seed).unwrap();
            if out_a == out_b {
                agreements += 1;
            }
        }
        assert!(
            agreements * 4 >= trials * 3,
            "quantile reproducibility too low: {agreements}/{trials}"
        );
    }

    #[test]
    fn deterministic_given_sample_and_seed() {
        let seed = Seed::from_entropy_u64(77);
        let sample: Vec<u128> = (0..5000).map(|i| (i * 31) % 4096).collect();
        let a = rquantile(&sample, &config(12, 0.3, 0.05), &seed).unwrap();
        let b = rquantile(&sample, &config(12, 0.3, 0.05), &seed).unwrap();
        assert_eq!(a, b);
    }
}
