//! Differential tests: the selection-based rMedian / rQuantile path
//! against the frozen sort-based [`reference`], byte for byte.

mod reference;

use crate::{rmedian, rquantile, Domain, QuantileScratch, RMedianConfig, RQuantileConfig, Seed};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;

/// The smallest τ `LCA-KP` uses: ε²/5 at ε = 1/6.
const TAU_MIN: f64 = 1.0 / 180.0;

/// A sample of `len` values in `[0, 2^bits)` with one of six shapes:
/// uniform over the domain, a tiny range, a point mass, a heavy atom
/// over a uniform band, two points, and k ∈ [2, 256] uniform atoms (the
/// `LCA-KP` regime: a few hundred tie-broken keys behind every sample).
fn sample(shape: u8, len: usize, bits: u32, seed: u64) -> Vec<u128> {
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    let max = Domain::new(bits).unwrap().max_value();
    let base = rng.gen_range(0..=max);
    let other = rng.gen_range(0..=max);
    let atoms: Vec<u128> = match shape {
        5 => (0..rng.gen_range(2..=256))
            .map(|_| rng.gen_range(0..=max))
            .collect(),
        _ => Vec::new(),
    };
    (0..len)
        .map(|_| match shape {
            0 => rng.gen_range(0..=max),
            1 => base.saturating_sub(rng.gen_range(0..4u128)),
            2 => base,
            3 if rng.gen_bool(0.4) => base,
            3 => rng.gen_range(0..=max),
            4 if rng.gen_bool(0.5) => base,
            4 => other,
            _ => atoms[rng.gen_range(0..atoms.len())],
        })
        .collect()
}

/// Sample lengths: 1, under 64, a few thousand (even and odd), and the
/// 60k+ of an `LCA-KP` efficiency sample.
fn length(class: u8, pick: u32) -> usize {
    match class {
        0 => 1,
        1 => 2 + pick as usize % 62,
        2 => 64 + pick as usize % 4_000,
        _ => 60_000 + pick as usize % 2_000,
    }
}

/// τ from ε²/5 at ε = 1/6 up to 1/2, with both ends hit exactly.
fn tau(pick: u32) -> f64 {
    match pick % 8 {
        0 => TAU_MIN,
        1 => 0.5,
        _ => TAU_MIN + (0.5 - TAU_MIN) * f64::from(pick % 10_007) / 10_006.0,
    }
}

/// p over [0, 1], with both ends hit exactly.
fn quantile(pick: u32) -> f64 {
    match pick % 8 {
        0 => 0.0,
        1 => 1.0,
        _ => f64::from(pick % 100_003) / 100_002.0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// `rquantile` — and three quantiles of one prepared sample through
    /// a scratch last used on a different sample — equal the reference.
    #[test]
    fn rquantile_matches_the_reference(
        class in 0u8..4,
        shape in 0u8..6,
        bits in 1u32..=64,
        picks in (0u32..u32::MAX, 0u32..u32::MAX, 0u32..u32::MAX),
        seeds in (0u64..u64::MAX, 0u64..u64::MAX),
    ) {
        let (len_pick, p_pick, tau_pick) = picks;
        let values = sample(shape, length(class, len_pick), bits, seeds.0);
        let domain = Domain::new(bits).unwrap();
        let seed = Seed::from_entropy_u64(seeds.1);
        let mut scratch = QuantileScratch::default();
        scratch.prepare(&sample(0, 100, 8, seeds.0 ^ 1), Domain::new(8).unwrap()).unwrap();
        let mut prepared = scratch.prepare(&values, domain).unwrap();
        for k in 0..3u32 {
            let config = RQuantileConfig {
                domain,
                p: quantile(p_pick.wrapping_add(k.wrapping_mul(0x9E37_79B9))),
                tau: tau(tau_pick.wrapping_add(k)),
            };
            let call_seed = seed.derive("differential/rquantile", u64::from(k));
            let expected = reference::rquantile(&values, &config, &call_seed);
            prop_assert_eq!(rquantile(&values, &config, &call_seed), expected.clone());
            prop_assert_eq!(prepared.rquantile(config.p, config.tau, &call_seed), expected);
        }
    }

    /// `rmedian` equals the reference, odd and even lengths alike.
    #[test]
    fn rmedian_matches_the_reference(
        class in 0u8..4,
        shape in 0u8..6,
        bits in 1u32..=64,
        picks in (0u32..u32::MAX, 0u32..u32::MAX),
        seeds in (0u64..u64::MAX, 0u64..u64::MAX),
    ) {
        let values = sample(shape, length(class, picks.0), bits, seeds.0);
        let config = RMedianConfig {
            domain: Domain::new(bits).unwrap(),
            tau: tau(picks.1),
        };
        let seed = Seed::from_entropy_u64(seeds.1);
        prop_assert_eq!(
            rmedian(&values, &config, &seed),
            reference::rmedian(&values, &config, &seed)
        );
    }
}

/// The `LCA-KP` call pattern: t = 5 thresholds `1 − kq` at τ = ε²/5
/// over one 64-bit efficiency sample of 71,712 keys, one prepared
/// sample and one scratch for all of them.
#[test]
fn lca_kp_threshold_pattern_matches_the_reference() {
    let domain = Domain::new(64).unwrap();
    let values = sample(0, 71_712, 64, 7);
    let seed = Seed::from_entropy_u64(11);
    let mut scratch = QuantileScratch::default();
    let mut prepared = scratch.prepare(&values, domain).unwrap();
    for k in 1..=5u64 {
        let config = RQuantileConfig {
            domain,
            p: (1.0 - k as f64 * 0.19).max(0.0),
            tau: TAU_MIN,
        };
        let call_seed = seed.derive("differential/threshold", k);
        assert_eq!(
            prepared.rquantile(config.p, config.tau, &call_seed),
            reference::rquantile(&values, &config, &call_seed),
            "threshold {k}"
        );
        assert_eq!(
            prepared.naive_quantile(config.p),
            crate::naive_quantile(&values, config.p)
        );
    }
}

/// Domains too wide for tagged sort keys (over 96 bits), where tied
/// arrivals share a rank code, equal the reference too.
#[test]
fn wide_domains_match_the_reference() {
    for (case, bits) in (0u64..).zip([97u32, 110, 125]) {
        let domain = Domain::new(bits).unwrap();
        for shape in 0..6 {
            let seed = case * 6 + u64::from(shape);
            let values = sample(shape, length(2, seed as u32 * 977), bits, seed);
            let call_seed = Seed::from_entropy_u64(seed);
            for p in [0.0, 0.3, 1.0] {
                let config = RQuantileConfig {
                    domain,
                    p,
                    tau: 0.05,
                };
                assert_eq!(
                    rquantile(&values, &config, &call_seed),
                    reference::rquantile(&values, &config, &call_seed),
                    "bits {bits}, shape {shape}, p {p}"
                );
            }
            let config = RMedianConfig { domain, tau: 0.05 };
            assert_eq!(
                rmedian(&values, &config, &call_seed),
                reference::rmedian(&values, &config, &call_seed),
                "bits {bits}, shape {shape}"
            );
        }
    }
}

/// Errors come back identically, in the same precedence.
#[test]
fn errors_match_the_reference() {
    let seed = Seed::from_entropy_u64(3);
    let d8 = Domain::new(8).unwrap();
    let widest = Domain::new(crate::domain::MAX_DOMAIN_BITS).unwrap();
    let quantile_cases: [(&[u128], Domain, f64, f64); 8] = [
        (&[1], d8, 1.5, 0.1),
        (&[1], d8, f64::NAN, 0.1),
        (&[1], d8, 0.5, 0.0),
        (&[1], d8, 0.5, 0.9),
        (&[], d8, 2.0, 0.9),
        (&[], d8, 0.5, 0.1),
        (&[300], d8, 0.5, 0.1),
        (&[1], widest, 0.5, 0.1),
    ];
    for (values, domain, p, tau) in quantile_cases {
        let config = RQuantileConfig { domain, p, tau };
        let expected = reference::rquantile(values, &config, &seed);
        assert!(expected.is_err());
        // Debug strings, so a NaN parameter compares equal to itself.
        let actual = rquantile(values, &config, &seed);
        assert_eq!(format!("{actual:?}"), format!("{expected:?}"));
    }
    for (values, tau) in [
        (&[1u128][..], 0.0),
        (&[], 0.1),
        (&[], f64::NAN),
        (&[300], 0.1),
    ] {
        let config = RMedianConfig { domain: d8, tau };
        let expected = reference::rmedian(values, &config, &seed);
        assert!(expected.is_err());
        let actual = rmedian(values, &config, &seed);
        assert_eq!(format!("{actual:?}"), format!("{expected:?}"));
    }
}
