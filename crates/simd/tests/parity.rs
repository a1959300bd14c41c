//! Property tests pinning the vector tiers bit-for-bit against the scalar
//! golden semantics over adversarial inputs: subnormals, `±∞`, signed
//! zeros, never-delays, mixed lengths with remainder tails, and values
//! straddling the `EXP_UNDERFLOW` cutoff used by `ops::nlse_many`.

#![allow(clippy::unwrap_used)]

use proptest::prelude::*;
use ta_simd::{scalar, SimdTier};

/// The same cutoff `ta-delay-space` uses for its `nlse_many` skip.
const EXP_UNDERFLOW: f64 = -745.2;

/// One adversarial delay value: finite delays of all magnitudes plus the
/// special values the delay engine actually produces (`+∞` = never, `±0`,
/// subnormals) and a few it never should but the kernels must not corrupt
/// (`-∞` from a log-of-zero pixel).
fn delay() -> impl Strategy<Value = f64> {
    prop_oneof![
        8 => -50.0..800.0_f64,
        2 => -1e-3..1e-3_f64,
        1 => Just(0.0_f64),
        1 => Just(-0.0_f64),
        2 => Just(f64::INFINITY),
        1 => Just(f64::NEG_INFINITY),
        1 => Just(f64::MIN_POSITIVE / 8.0), // subnormal
        1 => Just(-f64::MIN_POSITIVE / 8.0),
        // Values a pivot-relative spread lands within ±1 ulp of the
        // underflow cutoff, where skip-vs-accumulate must not flip
        // between scalar and vector paths.
        1 => Just(-EXP_UNDERFLOW),
        1 => Just(-EXP_UNDERFLOW + f64::EPSILON * 745.2),
        1 => Just(-EXP_UNDERFLOW - f64::EPSILON * 745.2),
    ]
}

/// Rows long enough to exercise full lanes, 4-blocks, and ragged tails on
/// every tier (AVX2 needs > 4 for a lane + tail).
fn row() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(delay(), 0..23)
}

fn units() -> impl Strategy<Value = f64> {
    prop_oneof![
        3 => Just(0.0_f64),
        5 => 0.0..4.0_f64,
        1 => Just(0.25_f64),
    ]
}

fn approx_terms() -> Vec<(f64, f64)> {
    vec![(0.470_116, 0.102_893), (1.091_035, 0.008_747), (2.5, 1e-4)]
}

fn tiers() -> Vec<SimdTier> {
    ta_simd::available_tiers()
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #[test]
    fn add_units_bitwise_matches_scalar_add(xs in row(), delta in units()) {
        let want: Vec<f64> = xs.iter().map(|&x| x + delta).collect();
        for &tier in &tiers() {
            let mut got = xs.clone();
            ta_simd::add_units_in(tier, &mut got, delta);
            prop_assert_eq!(bits(&got), bits(&want), "tier {}", tier);
        }
    }

    #[test]
    fn weighted_leaves_bitwise_matches_scalar(
        px in row(),
        w in -2.0..12.0_f64,
        truncate_at in prop_oneof![Just(f64::INFINITY), 0.0..20.0_f64],
    ) {
        let want: Vec<f64> = px
            .iter()
            .map(|&p| scalar::weighted_leaf_one(p, w, truncate_at))
            .collect();
        for &tier in &tiers() {
            let mut got = vec![0.0; px.len()];
            ta_simd::weighted_leaves_in(tier, &px, 1, w, truncate_at, &mut got);
            prop_assert_eq!(bits(&got), bits(&want), "tier {}", tier);
        }
    }

    #[test]
    fn weighted_leaves_strided_gather_matches(
        px in proptest::collection::vec(delay(), 1..40),
        stride in 1..4_usize,
        w in -2.0..12.0_f64,
    ) {
        let n = (px.len() - 1) / stride + 1;
        let want: Vec<f64> = (0..n)
            .map(|i| scalar::weighted_leaf_one(px[i * stride], w, f64::INFINITY))
            .collect();
        for &tier in &tiers() {
            let mut got = vec![0.0; n];
            ta_simd::weighted_leaves_in(tier, &px, stride, w, f64::INFINITY, &mut got);
            prop_assert_eq!(bits(&got), bits(&want), "tier {}", tier);
        }
    }

    #[test]
    fn nlse_approx_rows_bitwise_matches_scalar(
        pairs in proptest::collection::vec((delay(), delay()), 0..23),
        au in units(),
        bu in units(),
        k in units(),
    ) {
        let terms = approx_terms();
        let a: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let b: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        let want: Vec<f64> = pairs
            .iter()
            .map(|&(x, y)| scalar::nlse_approx_one(x, au, y, bu, &terms, k))
            .collect();
        for &tier in &tiers() {
            let mut got = vec![0.0; a.len()];
            ta_simd::nlse_approx_rows_in(tier, &a, au, &b, bu, &terms, k, &mut got);
            prop_assert_eq!(bits(&got), bits(&want), "tier {}", tier);
            // In-place aliasing form must agree with the out-of-place form.
            let mut acc = b.clone();
            ta_simd::nlse_approx_rows_inplace_in(tier, &a, au, &mut acc, bu, &terms, k);
            prop_assert_eq!(bits(&acc), bits(&want), "tier {} inplace", tier);
        }
    }

    #[test]
    fn nlse_exact_rows_match_scalar(
        pairs in proptest::collection::vec((delay(), delay()), 0..23),
        au in units(),
        bu in units(),
    ) {
        let a: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let b: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        let want: Vec<f64> = pairs
            .iter()
            .map(|&(x, y)| scalar::nlse_exact_one(x, au, y, bu))
            .collect();
        let mut got = vec![0.0; a.len()];
        ta_simd::nlse_exact_rows(&a, au, &b, bu, &mut got);
        prop_assert_eq!(bits(&got), bits(&want));
        let mut acc = b.clone();
        ta_simd::nlse_exact_rows_inplace(&a, au, &mut acc, bu);
        prop_assert_eq!(bits(&acc), bits(&want), "inplace");
    }
}
