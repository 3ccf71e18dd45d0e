//! The rMedian / rQuantile implementation as it stood before the
//! sort-once, selection-based solver: it pads, shuffles and sorts the
//! padded sample in every call and copies and sorts at every recursion
//! level. Frozen here, unchanged, as the oracle the differential tests
//! replay to assert bit-identity of the production path.

use crate::domain::Domain;
use crate::{RMedianConfig, RQuantileConfig, ReproducibleError};
use lcakp_oracle::Seed;
use rand::Rng;

/// Domain width at or below which the base case runs.
const BASE_BITS: u32 = 8;
/// Extra bit-scales added on top of the recursively selected scale, to
/// absorb the factor between batch-median and full-median fluctuations.
const SCALE_MARGIN: u32 = 3;
/// Number of batches used for the scale statistic.
const BATCHES: usize = 32;
/// Accuracy used for the recursive scale-selection call.
const SCALE_TAU: f64 = 0.25;

/// The pre-selection `rmedian`.
pub(super) fn rmedian(
    sample: &[u128],
    config: &RMedianConfig,
    seed: &Seed,
) -> Result<u128, ReproducibleError> {
    if !(config.tau > 0.0 && config.tau <= 0.5) {
        return Err(ReproducibleError::InvalidParameter {
            name: "tau",
            value: config.tau,
        });
    }
    config.domain.check_sample(sample)?;
    Ok(solve(
        sample,
        config.domain.bits(),
        config.tau,
        0.5,
        seed,
        0,
    ))
}

/// Recursive worker. `raw` keeps the caller's (i.i.d.) order: the batch
/// statistic needs genuinely random batches, which a sorted sample would
/// destroy. `target` is the quantile to aim for: 1/2 at the top level,
/// an *upper* quantile for the internal scale selection (a conservative,
/// stable choice when the scale distribution is bimodal — larger cells
/// only cost descent steps, which the accuracy guard bounds).
fn solve(raw: &[u128], bits: u32, tau: f64, target: f64, seed: &Seed, depth: u64) -> u128 {
    debug_assert!(!raw.is_empty());
    let mut sorted = raw.to_vec();
    sorted.sort_unstable();
    if bits <= BASE_BITS || raw.len() < 64 {
        return base_case(&sorted, tau, target, seed, depth);
    }

    let mask = (1u128 << bits) - 1;
    let shift = seed.derive("rmedian/shift", depth).rng().gen::<u128>() & mask;

    // Halves (by parity of arrival index, so both are i.i.d. samples):
    // A estimates the fluctuation scale, B the median position.
    let half_a: Vec<u128> = raw.iter().copied().step_by(2).collect();
    let mut half_b: Vec<u128> = raw.iter().copied().skip(1).step_by(2).collect();
    if half_b.is_empty() {
        half_b.clone_from(&half_a);
    }
    half_b.sort_unstable();

    // Batch medians of A → pairwise separation scales. Each batch is a
    // strided subsequence of the raw order (an i.i.d. subsample); the
    // separation of two independent batch medians upper-bounds the
    // fluctuation of the (larger) half-B median, conservatively.
    let batch_count = BATCHES.min(half_a.len()).max(2);
    let batch_medians: Vec<u128> = (0..batch_count)
        .map(|batch| {
            let mut members: Vec<u128> = half_a
                .iter()
                .copied()
                .skip(batch)
                .step_by(batch_count)
                .collect();
            members.sort_unstable();
            members[(members.len() - 1) / 2]
        })
        .collect();
    let scales: Vec<u128> = batch_medians
        .chunks_exact(2)
        .map(|pair| bit_length((pair[0] + shift) ^ (pair[1] + shift)) as u128)
        .collect();
    let scales = if scales.is_empty() { vec![0] } else { scales };

    // Recursive reproducible median over the scale domain [0, bits+1] ⊆
    // [0, 2^7): the 2^d → d compression that yields log* depth.
    let selected = solve(
        &scales,
        7,
        SCALE_TAU,
        0.75,
        &seed.derive("rmedian/scale", depth),
        depth + 1,
    );
    let mut scale = (u32::try_from(selected).unwrap_or(bits) + SCALE_MARGIN).min(bits);

    // Empirical median of B.
    let m_hat = half_b[(half_b.len() - 1) / 2];

    // Scale descent with a shared random slack θ ∈ [τ/4, τ/2]: accept the
    // snapped point only if it is an empirical θ-approximate median of
    // the full sample (Definition 2.6, both sides), else halve the cell.
    // At scale 0 the output is m̂ itself, which always qualifies — so the
    // loop terminates and the accuracy contract holds by construction up
    // to the empirical-CDF error.
    let gap_fraction: f64 = seed.derive("rmedian/gap", depth).rng().gen();
    let theta = tau * (0.25 + 0.25 * gap_fraction);
    loop {
        let out = snap(m_hat, shift, scale, mask);
        if is_empirical_median(&sorted, out, theta) || scale == 0 {
            return out;
        }
        scale -= 1;
    }
}

/// Whether `v` is a θ-approximate median of the *empirical* distribution:
/// `#{x ≤ v} ≥ (1/2 − θ)·n` and `#{x ≥ v} ≥ (1/2 − θ)·n`.
fn is_empirical_median(sorted: &[u128], v: u128, theta: f64) -> bool {
    let n = sorted.len() as f64;
    let leq = sorted.partition_point(|&x| x <= v) as f64;
    let geq = n - sorted.partition_point(|&x| x < v) as f64;
    let floor = (0.5 - theta) * n;
    leq >= floor && geq >= floor
}

/// Base case: random-threshold empirical quantile over a constant-size
/// domain, centered on `target`.
fn base_case(sorted: &[u128], tau: f64, target: f64, seed: &Seed, depth: u64) -> u128 {
    let fraction: f64 = seed.derive("rmedian/base-theta", depth).rng().gen();
    let theta = target + (fraction - 0.5) * tau;
    let rank = ((theta * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Centre of the scale-`i` shifted grid cell containing `value`, clamped
/// into the domain.
fn snap(value: u128, shift: u128, scale: u32, mask: u128) -> u128 {
    if scale == 0 {
        return value;
    }
    let shifted = value + shift;
    let cell = shifted >> scale;
    let centre = (cell << scale) + (1u128 << (scale - 1));
    centre.saturating_sub(shift).min(mask)
}

/// Number of bits needed to write `x` (0 for 0).
fn bit_length(x: u128) -> u32 {
    128 - x.leading_zeros()
}

/// The pre-selection `rquantile`.
pub(super) fn rquantile(
    sample: &[u128],
    config: &RQuantileConfig,
    seed: &Seed,
) -> Result<u128, ReproducibleError> {
    if !(0.0..=1.0).contains(&config.p) {
        return Err(ReproducibleError::InvalidParameter {
            name: "p",
            value: config.p,
        });
    }
    if !(config.tau > 0.0 && config.tau <= 0.5) {
        return Err(ReproducibleError::InvalidParameter {
            name: "tau",
            value: config.tau,
        });
    }
    config.domain.check_sample(sample)?;
    let extended = Domain::new(config.domain.bits() + 1)?;

    let n = sample.len();
    // x = (1−p)·n lows, y = p·n highs (rounded so that x + y = n).
    let lows = (((1.0 - config.p) * n as f64).round() as usize).min(n);
    let highs = n - lows;

    let low_code = 0u128;
    let high_code = extended.max_value();
    let mut padded: Vec<u128> = Vec::with_capacity(2 * n);
    padded.extend(sample.iter().map(|&value| value + 1));
    padded.extend(std::iter::repeat_n(low_code, lows));
    padded.extend(std::iter::repeat_n(high_code, highs));
    // Permute with *shared* randomness: rmedian's internal index-based
    // splits (halves, batches) assume exchangeable order, which a
    // deterministic values-then-padding layout would break; a fixed
    // seed-derived permutation restores it identically across runs.
    {
        use rand::seq::SliceRandom;
        let mut shuffle_rng = seed.derive("rquantile/shuffle", 0).rng();
        padded.shuffle(&mut shuffle_rng);
    }

    let median_config = RMedianConfig {
        domain: extended,
        tau: config.tau / 2.0,
    };
    let out = rmedian(&padded, &median_config, &seed.derive("rquantile/median", 0))?;
    // Decode: clamp −∞ to the domain minimum and +∞ (or any grid point
    // above the real values) to the maximum.
    Ok(out.saturating_sub(1).min(config.domain.max_value()))
}
