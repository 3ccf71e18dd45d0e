//! Reproducible approximate median — the workspace's stand-in for
//! [ILPS22, Theorem 4.2] (paper Theorem 2.7).
//!
//! # Algorithm (shifted-grid construction, `DESIGN.md` §3)
//!
//! Given a sample from a distribution `D` over `[0, 2^d)` and the shared
//! seed `r`:
//!
//! 1. **Base case** (`d ≤ 8`, a constant-size domain): draw a random
//!    threshold `θ ∈ [1/2 − τ/2, 1/2 + τ/2]` from `r` and return the
//!    smallest domain element whose empirical CDF reaches `θ`. Two runs
//!    disagree only if their empirical CDFs straddle `θ` at the output —
//!    probability `O(γ/τ)` for CDF error `γ`.
//! 2. **Recursive case**: draw a random grid offset `s ∈ [0, 2^d)` from
//!    `r`. Estimate the *fluctuation scale* of the empirical median: split
//!    half the sample into batches, take batch medians, and record for
//!    each batch pair the bit-scale at which the two medians separate on
//!    the shifted dyadic grid (`bitlen((a+s) ⊕ (b+s))`). These scales are
//!    i.i.d. draws from a distribution over the domain `[0, d]` —
//!    **exponentially smaller** than `[0, 2^d)` — and the grid scale `i*`
//!    is chosen as a *reproducible median* of them (plus a safety
//!    margin). This `2^d → d` compression is what gives the `log* |X|`
//!    recursion depth of [ILPS22]. With 32 batches the scale sample has
//!    16 entries, below the 64-entry recursion threshold, so the scale
//!    selection always lands in the base case (one level deep).
//! 3. **Snap**: compute the empirical median `m̂` of the other half and
//!    output the centre of the scale-`i*` shifted grid cell containing
//!    `m̂`. Two runs share `s` and (with probability `1 − ρ_rec`) `i*`;
//!    their `m̂`s differ by less than one cell width by the choice of
//!    `i*`, so they snap to the same centre.
//! 4. **Scale descent** (accuracy guard): accept the snapped point only
//!    if it is a θ-approximate median of the *empirical* distribution —
//!    `#{x ≤ out}` and `#{x ≥ out}` both at least `(1/2 − θ)·n`, with a
//!    *shared random* slack `θ ∈ [τ/4, τ/2]` — otherwise halve the cell
//!    width and re-snap. In the limit `i = 0` the output is `m̂` itself,
//!    so the loop terminates and the output always satisfies Definition
//!    2.6 empirically; the random slack gives hysteresis so that two
//!    runs rarely descend different amounts.
//!
//! # Implementation: one arg-sort per sample, `u32` rank codes
//!
//! The answer depends on the sample through order statistics only, so
//! the solver never sorts inside a call and never moves a sample value:
//!
//! * The sample is arg-sorted once ([`crate::QuantileScratch::prepare`]):
//!   one sort gives the sorted copy and, for each arrival, a *rank code*
//!   in `1..=n` that is monotone in value, with `sorted[code − 1]` the
//!   arrival's value. Every rQuantile call over the sample reuses both.
//!   The sorted padded multiset of Algorithm 1 is always `[0; lows] ++
//!   (sorted + 1) ++ [max; highs]`, whatever the shuffle, so the base
//!   case and the accuracy guard get their ranks by arithmetic on the
//!   one sorted slice (`Padded`).
//! * A call fills one `u32` buffer with the padded sample's codes in
//!   arrival order, `codes ++ [0; lows] ++ [n + 1; highs]`, and
//!   rQuantile shuffles that buffer in place with the exact draws a
//!   shuffle of the padded values would make — the same swaps give the
//!   same permutation.
//! * Halves and batches are fixed positions of the arrival order: odd
//!   positions form half B, and even position `2i` joins batch
//!   `i mod 32`. A strided copy moves the codes into a `u32`
//!   `[half B | batch 0 … batch 31]` layout (`scatter`).
//! * `m̂` and the 32 batch medians are single order statistics, taken
//!   with `select_nth_unstable` on the codes. Codes order as the values
//!   do, so decoding the selected code (`0` → `−∞`, `n + 1` → `+∞`,
//!   `c` → `sorted[c − 1] + offset`) gives the value a sort of the
//!   padded values would give.
//!
//! Every buffer lives in the caller's scratch.
//!
//! Reproducibility and accuracy are validated empirically by the tests
//! below and experiment E7, as promised in `DESIGN.md`.

use crate::domain::Domain;
use crate::rquantile::QuantileScratch;
use crate::ReproducibleError;
use lcakp_oracle::Seed;
use rand::seq::SliceRandom;
use rand::Rng;

/// Domain width at or below which the base case runs.
const BASE_BITS: u32 = 8;
/// Sample size below which the base case runs.
const RECURSIVE_LEN: usize = 64;
/// Extra bit-scales added on top of the recursively selected scale, to
/// absorb the factor between batch-median and full-median fluctuations.
const SCALE_MARGIN: u32 = 3;
/// Number of batches used for the scale statistic.
const BATCHES: usize = 32;
/// Accuracy used for the recursive scale-selection call.
const SCALE_TAU: f64 = 0.25;
/// Upper quantile the scale selection aims for: a conservative, stable
/// choice when the scale distribution is bimodal — larger cells only
/// cost descent steps, which the accuracy guard bounds.
const SCALE_TARGET: f64 = 0.75;

// The scale sample is one entry per batch pair; it must stay below the
// recursion threshold for the scale selection to be a base case. And a
// recursive-size sample must give every batch at least one member.
const _: () = assert!(BATCHES / 2 < RECURSIVE_LEN && BATCHES * 2 <= RECURSIVE_LEN);

/// Configuration of a reproducible-median call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RMedianConfig {
    /// The finite ordered domain the sample lives in.
    pub domain: Domain,
    /// Target accuracy τ ∈ (0, 1/2]: the output is a τ-approximate median
    /// (Definition 2.6 of the paper).
    pub tau: f64,
}

/// Computes a ρ-reproducible τ-approximate median of the distribution the
/// sample was drawn from.
///
/// * `sample` — fresh i.i.d. draws (the per-run channel). Size it with
///   [`crate::SampleBudget`].
/// * `seed` — the shared randomness `r` (the reproducibility channel).
///   Two runs with the same seed and independent samples return the same
///   value with high probability.
///
/// # Errors
///
/// * [`ReproducibleError::EmptySample`] for an empty sample;
/// * [`ReproducibleError::ValueOutOfDomain`] if a sample value exceeds the
///   domain;
/// * [`ReproducibleError::InvalidParameter`] if `tau ∉ (0, 1/2]`;
/// * [`ReproducibleError::SampleTooLarge`] for `u32::MAX` values or more.
///
/// ```
/// use lcakp_reproducible::{rmedian, Domain, RMedianConfig, Seed};
/// # fn main() -> Result<(), lcakp_reproducible::ReproducibleError> {
/// let config = RMedianConfig { domain: Domain::new(16)?, tau: 0.05 };
/// let seed = Seed::from_entropy_u64(1);
/// let sample: Vec<u128> = (0..10_000).map(|i| (i * 37) % 1000).collect();
/// let median = rmedian(&sample, &config, &seed)?;
/// // ~uniform over [0, 1000): any τ-approximate median is near 500.
/// assert!((400..600).contains(&(median as i64)));
/// # Ok(())
/// # }
/// ```
pub fn rmedian(
    sample: &[u128],
    config: &RMedianConfig,
    seed: &Seed,
) -> Result<u128, ReproducibleError> {
    // Parameter errors take precedence over sample errors.
    check_tau(config.tau)?;
    let mut scratch = QuantileScratch::default();
    Ok(scratch
        .prepare(sample, config.domain)?
        .rmedian(config.tau, seed))
}

/// Rejects `tau ∉ (0, 1/2]`.
pub(crate) fn check_tau(tau: f64) -> Result<(), ReproducibleError> {
    if tau > 0.0 && tau <= 0.5 {
        Ok(())
    } else {
        Err(ReproducibleError::InvalidParameter {
            name: "tau",
            value: tau,
        })
    }
}

/// Bits of a tagged sort key that hold the arrival index.
const TAG_BITS: u32 = u32::BITS;

/// Arg-sorts `sample` once: writes its sorted copy into `sorted` and
/// each arrival's rank code into `codes`. Codes lie in `1..=n`, are
/// monotone in value, and `sorted[code − 1]` is the arrival's value.
/// Requires `sample.len() ≤ u32::MAX` and values below `2^bits`.
pub(crate) fn arg_sort(sample: &[u128], bits: u32, sorted: &mut Vec<u128>, codes: &mut Vec<u32>) {
    sorted.clear();
    codes.clear();
    if bits <= u128::BITS - TAG_BITS {
        // Tag each value with its arrival index in the low bits and sort
        // by value alone (so heavy ties stay cheap to sort): a key's
        // sorted position is its arrival's code, and tied arrivals split
        // their codes in whatever order the sort leaves them.
        sorted.extend(
            sample
                .iter()
                .zip(0u32..)
                .map(|(&value, k)| value << TAG_BITS | u128::from(k)),
        );
        sorted.sort_unstable_by_key(|&key| key >> TAG_BITS);
        codes.resize(sample.len(), 0);
        for (key, code) in sorted.iter_mut().zip(1u32..) {
            codes[*key as u32 as usize] = code;
            *key >>= TAG_BITS;
        }
    } else {
        // Too wide to tag: tied arrivals share the code of their value's
        // first sorted position.
        sorted.extend_from_slice(sample);
        sorted.sort_unstable();
        codes.extend(
            sample
                .iter()
                .map(|&value| sorted.partition_point(|&x| x < value) as u32 + 1),
        );
    }
}

/// A sample in arrival order, padded as Algorithm 1 pads it: index `k`
/// holds `sample[k] + offset` for `k < n`, then `lows` copies of 0, then
/// `highs` copies of `high_value`. Its sorted order is always
/// `[0; lows] ++ (sorted + offset) ++ [high_value; highs]`, so ranks and
/// counts come from the one sorted slice by arithmetic.
///
/// The solver sees the padded sample as rank codes: arrival `k < n` is
/// `codes[k]`, a low is 0 and a high is `n + 1`; [`Padded::value_of`]
/// maps a code back to its value.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Padded<'a> {
    pub codes: &'a [u32],
    pub sorted: &'a [u128],
    pub offset: u128,
    pub lows: usize,
    pub highs: usize,
    pub high_value: u128,
}

impl<'a> Padded<'a> {
    /// The sample itself, unpadded (rMedian's input).
    pub fn plain(codes: &'a [u32], sorted: &'a [u128]) -> Self {
        Padded {
            codes,
            sorted,
            offset: 0,
            lows: 0,
            highs: 0,
            high_value: 0,
        }
    }

    fn len(&self) -> usize {
        self.sorted.len() + self.lows + self.highs
    }

    /// Writes the padded sample's codes in arrival order into `arrivals`:
    /// `codes ++ [0; lows] ++ [n + 1; highs]`.
    fn fill(&self, arrivals: &mut Vec<u32>) {
        let n = self.sorted.len();
        let high =
            u32::try_from(n + 1).expect("prepare rejects samples of u32::MAX values or more");
        arrivals.clear();
        arrivals.extend_from_slice(self.codes);
        arrivals.resize(n + self.lows, 0);
        arrivals.resize(self.len(), high);
    }

    /// The value of code `code`: 0 is a low, `n + 1` a high, and any
    /// other code `c` the sample value `sorted[c − 1] + offset`.
    fn value_of(&self, code: u32) -> u128 {
        match (code as usize).checked_sub(1) {
            None => 0,
            Some(i) => self.at_rank(self.lows + i),
        }
    }

    /// The value at 0-based rank `rank` of the sorted multiset.
    fn at_rank(&self, rank: usize) -> u128 {
        match rank.checked_sub(self.lows) {
            None => 0,
            Some(i) => self
                .sorted
                .get(i)
                .map_or(self.high_value, |&value| value + self.offset),
        }
    }

    /// `#{x ≤ v}` over the multiset.
    fn count_le(&self, v: u128) -> usize {
        let offset = self.offset;
        let highs = if self.high_value <= v { self.highs } else { 0 };
        self.lows + self.sorted.partition_point(|&x| x + offset <= v) + highs
    }

    /// `#{x < v}` over the multiset.
    fn count_lt(&self, v: u128) -> usize {
        let offset = self.offset;
        let lows = if v > 0 { self.lows } else { 0 };
        let highs = if self.high_value < v { self.highs } else { 0 };
        lows + self.sorted.partition_point(|&x| x + offset < v) + highs
    }
}

/// The solver's reusable buffers: the padded codes in (shuffled)
/// arrival order and the `[half B | batch 0 … batch 31]` layout the
/// medians are selected from.
#[derive(Debug, Default)]
pub(crate) struct Buffers {
    arrivals: Vec<u32>,
    layout: Vec<u32>,
}

/// The reproducible median of `padded` over `[0, 2^bits)`. With
/// `shuffle`, the arrival order is first permuted by exactly the draws
/// `SliceRandom::shuffle` makes on a slice of `padded.len()` elements
/// (rQuantile); without it the order is the sample's own (rMedian).
pub(crate) fn solve(
    padded: &Padded<'_>,
    bits: u32,
    tau: f64,
    seed: &Seed,
    shuffle: Option<&Seed>,
    buffers: &mut Buffers,
) -> u128 {
    let len = padded.len();
    debug_assert!(len > 0);
    if bits <= BASE_BITS || len < RECURSIVE_LEN {
        return padded.at_rank(base_rank(len, tau, 0.5, seed, 0));
    }

    let mask = (1u128 << bits) - 1;
    let shift = seed.derive("rmedian/shift", 0).rng().gen::<u128>() & mask;

    // Halves by parity of arrival index (so both are i.i.d. samples): A
    // estimates the fluctuation scale, B the median position. Each batch
    // is a strided subsequence of A, an i.i.d. subsample; the separation
    // of two independent batch medians upper-bounds the fluctuation of
    // the (larger) half-B median, conservatively.
    let Buffers { arrivals, layout } = buffers;
    padded.fill(arrivals);
    if let Some(shuffle_seed) = shuffle {
        arrivals.shuffle(&mut shuffle_seed.rng());
    }
    let bounds = scatter(layout, arrivals);
    let m_hat = padded.value_of(lower_median(&mut layout[..bounds[0]]));

    // Batch medians of A → pairwise separation scales.
    let mut medians = [0u128; BATCHES];
    for (batch, median) in medians.iter_mut().enumerate() {
        *median = padded.value_of(lower_median(&mut layout[bounds[batch]..bounds[batch + 1]]));
    }
    let mut scales = [0u128; BATCHES / 2];
    for (scale, pair) in scales.iter_mut().zip(medians.chunks_exact(2)) {
        *scale = u128::from(bit_length((pair[0] + shift) ^ (pair[1] + shift)));
    }

    // Reproducible median over the scale domain [0, bits+1] ⊆ [0, 2^7):
    // the 2^d → d compression. The 16 scales fall below the recursion
    // threshold, so this is the base case one level down.
    scales.sort_unstable();
    let scale_seed = seed.derive("rmedian/scale", 0);
    let selected = scales[base_rank(scales.len(), SCALE_TAU, SCALE_TARGET, &scale_seed, 1)];
    let mut scale = (u32::try_from(selected).unwrap_or(bits) + SCALE_MARGIN).min(bits);

    // Scale descent with a shared random slack θ ∈ [τ/4, τ/2]: accept the
    // snapped point only if it is an empirical θ-approximate median of
    // the full sample (Definition 2.6, both sides), else halve the cell.
    // At scale 0 the output is m̂ itself, which always qualifies — so the
    // loop terminates and the accuracy contract holds by construction up
    // to the empirical-CDF error.
    let gap_fraction: f64 = seed.derive("rmedian/gap", 0).rng().gen();
    let theta = tau * (0.25 + 0.25 * gap_fraction);
    loop {
        let out = snap(m_hat, shift, scale, mask);
        if is_empirical_median(padded, out, theta) || scale == 0 {
            return out;
        }
        scale -= 1;
    }
}

/// Copies the arrival sequence `arrivals` into `layout` under the fixed
/// position map σ: odd position `2i + 1` goes to half-B slot `i`, even
/// position `2i` to slot `i / 32` of batch `i mod 32`. Returns the
/// boundaries `[end of half B, end of batch 0, …, end of batch 31]`.
/// Requires at least 64 arrivals, so every batch is nonempty.
fn scatter(layout: &mut Vec<u32>, arrivals: &[u32]) -> [usize; BATCHES + 1] {
    let len = arrivals.len();
    let half_b = len / 2;
    let half_a = len - half_b;
    let mut bounds = [half_b; BATCHES + 1];
    for batch in 0..BATCHES {
        bounds[batch + 1] = bounds[batch] + (half_a - batch).div_ceil(BATCHES);
    }
    layout.clear();
    layout.extend(arrivals[1..].iter().step_by(2));
    for batch in 0..BATCHES {
        layout.extend(arrivals[2 * batch..].iter().step_by(2 * BATCHES));
    }
    debug_assert_eq!(layout.len(), len);
    bounds
}

/// The lower median `sorted[(n − 1) / 2]` of a nonempty slice, by
/// selection (the slice is reordered).
fn lower_median(codes: &mut [u32]) -> u32 {
    *codes.select_nth_unstable((codes.len() - 1) / 2).1
}

/// Whether `v` is a θ-approximate median of the *empirical* distribution:
/// `#{x ≤ v} ≥ (1/2 − θ)·n` and `#{x ≥ v} ≥ (1/2 − θ)·n`.
fn is_empirical_median(padded: &Padded<'_>, v: u128, theta: f64) -> bool {
    let n = padded.len() as f64;
    let leq = padded.count_le(v) as f64;
    let geq = n - padded.count_lt(v) as f64;
    let floor = (0.5 - theta) * n;
    leq >= floor && geq >= floor
}

/// Base case: random-threshold empirical quantile over a constant-size
/// domain, centred on `target` — the 0-based rank to return from a
/// sorted sample of `len` values.
fn base_rank(len: usize, tau: f64, target: f64, seed: &Seed, depth: u64) -> usize {
    let fraction: f64 = seed.derive("rmedian/base-theta", depth).rng().gen();
    let theta = target + (fraction - 0.5) * tau;
    ((theta * len as f64).ceil() as usize).clamp(1, len) - 1
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

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    fn config(bits: u32, tau: f64) -> RMedianConfig {
        RMedianConfig {
            domain: Domain::new(bits).unwrap(),
            tau,
        }
    }

    fn uniform_sample(rng: &mut ChaCha12Rng, n: usize, range: u128) -> Vec<u128> {
        (0..n).map(|_| rng.gen_range(0..range)).collect()
    }

    #[test]
    fn validates_inputs() {
        let seed = Seed::from_entropy_u64(0);
        assert!(matches!(
            rmedian(&[], &config(8, 0.1), &seed),
            Err(ReproducibleError::EmptySample)
        ));
        assert!(matches!(
            rmedian(&[300], &config(8, 0.1), &seed),
            Err(ReproducibleError::ValueOutOfDomain { .. })
        ));
        assert!(matches!(
            rmedian(&[1], &config(8, 0.0), &seed),
            Err(ReproducibleError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn point_mass_returns_the_point() {
        let seed = Seed::from_entropy_u64(5);
        let sample = vec![42u128; 5000];
        for bits in [8, 16, 32, 64] {
            assert_eq!(rmedian(&sample, &config(bits, 0.05), &seed).unwrap(), 42);
        }
    }

    #[test]
    fn deterministic_given_sample_and_seed() {
        let seed = Seed::from_entropy_u64(9);
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        let sample = uniform_sample(&mut rng, 4000, 1 << 20);
        let a = rmedian(&sample, &config(32, 0.05), &seed).unwrap();
        let b = rmedian(&sample, &config(32, 0.05), &seed).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn accuracy_on_uniform() {
        // τ = 0.05 over U[0, 2^20): output's CDF must be in [0.45, 0.55],
        // i.e. the value in [0.45, 0.55]·2^20 (within sampling noise).
        for trial in 0..10u64 {
            let seed = Seed::from_entropy_u64(trial);
            let mut rng = ChaCha12Rng::seed_from_u64(trial + 100);
            let sample = uniform_sample(&mut rng, 20_000, 1 << 20);
            let out = rmedian(&sample, &config(20, 0.05), &seed).unwrap();
            let cdf = out as f64 / (1u128 << 20) as f64;
            assert!(
                (0.43..=0.57).contains(&cdf),
                "trial {trial}: cdf(out) = {cdf}"
            );
        }
    }

    #[test]
    fn accuracy_near_heavy_atom() {
        // 40% of mass at 1000, the rest uniform over [2^19, 2^20): the
        // median sits in the uniform part near its 1/6 point. The output
        // must not land "inside" the atom's shadow: its CDF must stay in
        // [0.5 − τ, 0.5 + τ] up to sampling noise.
        for trial in 0..5u64 {
            let seed = Seed::from_entropy_u64(trial);
            let mut rng = ChaCha12Rng::seed_from_u64(trial + 7);
            let sample: Vec<u128> = (0..30_000)
                .map(|_| {
                    if rng.gen_bool(0.4) {
                        1000u128
                    } else {
                        rng.gen_range((1u128 << 19)..(1u128 << 20))
                    }
                })
                .collect();
            let out = rmedian(&sample, &config(20, 0.05), &seed).unwrap();
            // CDF(out) = 0.4 + 0.6·position within the uniform band.
            let cdf = if out < (1 << 19) {
                0.4
            } else {
                0.4 + 0.6 * ((out - (1 << 19)) as f64 / (1u128 << 19) as f64)
            };
            assert!(
                (0.42..=0.58).contains(&cdf),
                "trial {trial}: out = {out}, cdf = {cdf}"
            );
        }
    }

    #[test]
    fn reproducibility_rate_on_fresh_samples() {
        // Same seed, independent samples → same output, for most seeds.
        let mut agreements = 0;
        let trials = 40;
        for trial in 0..trials {
            let seed = Seed::from_entropy_u64(trial);
            let mut rng_a = ChaCha12Rng::seed_from_u64(1_000 + trial);
            let mut rng_b = ChaCha12Rng::seed_from_u64(2_000 + trial);
            let sample_a = uniform_sample(&mut rng_a, 60_000, 1 << 30);
            let sample_b = uniform_sample(&mut rng_b, 60_000, 1 << 30);
            let out_a = rmedian(&sample_a, &config(30, 0.05), &seed).unwrap();
            let out_b = rmedian(&sample_b, &config(30, 0.05), &seed).unwrap();
            if out_a == out_b {
                agreements += 1;
            }
        }
        assert!(
            agreements * 4 >= trials * 3,
            "reproducibility too low: {agreements}/{trials}"
        );
    }

    #[test]
    fn base_case_is_reproducible_on_small_domains() {
        let mut agreements = 0;
        let trials = 50;
        for trial in 0..trials {
            let seed = Seed::from_entropy_u64(trial);
            let mut rng_a = ChaCha12Rng::seed_from_u64(3_000 + trial);
            let mut rng_b = ChaCha12Rng::seed_from_u64(4_000 + trial);
            // A coarse domain (16 atoms): the random-threshold base case
            // is reproducible when atoms are heavy relative to sampling
            // noise — exactly the regime the recursion reduces to.
            let sample_a = uniform_sample(&mut rng_a, 20_000, 16);
            let sample_b = uniform_sample(&mut rng_b, 20_000, 16);
            let out_a = rmedian(&sample_a, &config(4, 0.1), &seed).unwrap();
            let out_b = rmedian(&sample_b, &config(4, 0.1), &seed).unwrap();
            if out_a == out_b {
                agreements += 1;
            }
        }
        assert!(
            agreements * 50 >= trials * 42,
            "base-case reproducibility too low: {agreements}/{trials}"
        );
    }

    #[test]
    fn two_point_distribution_returns_an_endpoint_region() {
        // Half the mass at 10, half at 1_000_000: any value v with
        // P[X ≤ v] ≥ 1/2 − τ and P[X ≥ v] ≥ 1/2 − τ is valid — that is,
        // anything in [10, 1_000_000].
        let seed = Seed::from_entropy_u64(11);
        let mut rng = ChaCha12Rng::seed_from_u64(42);
        let sample: Vec<u128> = (0..10_000)
            .map(|_| if rng.gen_bool(0.5) { 10 } else { 1_000_000 })
            .collect();
        let out = rmedian(&sample, &config(32, 0.1), &seed).unwrap();
        assert!((10..=1_000_000).contains(&out), "out = {out}");
    }

    #[test]
    fn bit_length_is_correct() {
        assert_eq!(bit_length(0), 0);
        assert_eq!(bit_length(1), 1);
        assert_eq!(bit_length(7), 3);
        assert_eq!(bit_length(8), 4);
    }

    #[test]
    fn snap_is_identity_at_scale_zero() {
        assert_eq!(snap(77, 12345, 0, u128::MAX), 77);
    }

    #[test]
    fn snap_clamps_into_domain() {
        let mask = (1u128 << 8) - 1;
        let out = snap(255, 0, 8, mask);
        assert!(out <= mask);
        let out = snap(0, 200, 8, mask);
        assert!(out <= mask);
    }

    /// The sorted copy and rank codes `prepare` would build.
    fn arg_sorted(sample: &[u128], bits: u32) -> (Vec<u128>, Vec<u32>) {
        let (mut sorted, mut codes) = (Vec::new(), Vec::new());
        arg_sort(sample, bits, &mut sorted, &mut codes);
        (sorted, codes)
    }

    #[test]
    fn empirical_median_check_is_two_sided() {
        let (sorted, codes) = arg_sorted(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10], 8);
        let plain = Padded::plain(&codes, &sorted);
        assert!(is_empirical_median(&plain, 5, 0.1));
        assert!(is_empirical_median(&plain, 6, 0.1));
        assert!(!is_empirical_median(&plain, 1, 0.1));
        assert!(!is_empirical_median(&plain, 10, 0.1));
        // A value past every sample fails the ≥ side even though the ≤
        // side is saturated.
        assert!(!is_empirical_median(&plain, 11, 0.1));
        // Heavy atom: the point just past the atom fails.
        let mut atom = vec![5u128; 8];
        atom.extend([9, 10]);
        let (sorted, codes) = arg_sorted(&atom, 8);
        let atom = Padded::plain(&codes, &sorted);
        assert!(is_empirical_median(&atom, 5, 0.1));
        assert!(!is_empirical_median(&atom, 6, 0.1));
    }

    #[test]
    fn padded_ranks_match_the_materialized_multiset() {
        let sample = [7u128, 3, 3, 9];
        let (sorted, codes) = arg_sorted(&sample, 8);
        let padded = Padded {
            codes: &codes,
            sorted: &sorted,
            offset: 1,
            lows: 3,
            highs: 2,
            high_value: 31,
        };
        let mut arrivals = Vec::new();
        padded.fill(&mut arrivals);
        assert_eq!(arrivals[4..], [0, 0, 0, 5, 5]);
        let mut materialized: Vec<u128> = arrivals.iter().map(|&c| padded.value_of(c)).collect();
        assert_eq!(materialized, [8, 4, 4, 10, 0, 0, 0, 31, 31]);
        materialized.sort_unstable();
        for (rank, &value) in materialized.iter().enumerate() {
            assert_eq!(padded.at_rank(rank), value);
        }
        for v in 0..=32u128 {
            let le = materialized.iter().filter(|&&x| x <= v).count();
            let lt = materialized.iter().filter(|&&x| x < v).count();
            assert_eq!(
                (padded.count_le(v), padded.count_lt(v)),
                (le, lt),
                "v = {v}"
            );
        }
    }

    #[test]
    fn rank_codes_decode_to_every_rank() {
        // Heavy ties and distinct values, in the tagged (≤ 96 bits) and
        // the shared-code arg-sort, with lows from n (p = 0) down to 0
        // (p = 1).
        let mut rng = ChaCha12Rng::seed_from_u64(17);
        let n = 200;
        for (bits, range) in [(64, 6u128), (64, 1 << 40), (110, 6), (110, 1 << 100)] {
            let sample = uniform_sample(&mut rng, n, range);
            let (sorted, codes) = arg_sorted(&sample, bits);
            let plain = Padded::plain(&codes, &sorted);
            for (&code, &value) in codes.iter().zip(&sample) {
                assert_eq!(plain.value_of(code), value, "bits = {bits}");
            }
            for lows in [n, 2 * n / 3, n / 2, 1, 0] {
                let padded = Padded {
                    codes: &codes,
                    sorted: &sorted,
                    offset: 1,
                    lows,
                    highs: n - lows,
                    high_value: (1u128 << (bits + 1)) - 1,
                };
                let mut arrivals = Vec::new();
                padded.fill(&mut arrivals);
                assert_eq!(arrivals.len(), 2 * n);
                arrivals.sort_unstable();
                for (rank, &code) in arrivals.iter().enumerate() {
                    assert_eq!(
                        padded.value_of(code),
                        padded.at_rank(rank),
                        "bits = {bits}, lows = {lows}, rank = {rank}"
                    );
                }
            }
        }
    }

    #[test]
    fn scatter_follows_the_position_map() {
        for len in [64u32, 65, 97, 200] {
            let arrivals: Vec<u32> = (0..len).collect();
            let mut layout = Vec::new();
            let bounds = scatter(&mut layout, &arrivals);
            let len = len as usize;
            assert_eq!(bounds[0], len / 2);
            assert_eq!(bounds[BATCHES], len);
            // Half B holds the odd positions in order.
            for (slot, &value) in layout[..bounds[0]].iter().enumerate() {
                assert_eq!(value as usize, 2 * slot + 1);
            }
            // Batch j holds even positions 2j, 2j + 64, … in order.
            for batch in 0..BATCHES {
                let expected: Vec<u32> = arrivals
                    .iter()
                    .copied()
                    .step_by(2)
                    .skip(batch)
                    .step_by(BATCHES)
                    .collect();
                assert_eq!(layout[bounds[batch]..bounds[batch + 1]], expected[..]);
            }
        }
    }
}
