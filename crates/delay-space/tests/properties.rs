//! Property-based tests of the delay-space ring invariants (paper §2).

#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;
use ta_delay_space::{ops, ring, DelayValue, SplitValue};

/// Importance-space values spanning ten orders of magnitude plus zero.
fn importance() -> impl Strategy<Value = f64> {
    prop_oneof![
        5 => 1e-6..1e4_f64,
        1 => Just(0.0),
        1 => 1e-12..1e-6_f64,
    ]
}

/// Signed importance-space values.
fn signed() -> impl Strategy<Value = f64> {
    prop_oneof![
        4 => -100.0..100.0_f64,
        1 => Just(0.0),
    ]
}

/// Raw delays (bounded so exp() does not fully underflow in comparisons).
fn delay() -> impl Strategy<Value = f64> {
    -50.0..50.0_f64
}

proptest! {
    #[test]
    fn encode_decode_roundtrips(x in importance()) {
        let v = DelayValue::encode(x).unwrap();
        let back = v.decode();
        prop_assert!((back - x).abs() <= 1e-9 * (1.0 + x.abs()));
    }

    #[test]
    fn multiplication_is_delay_addition(a in importance(), b in importance()) {
        prop_assert!(ring::mul_homomorphic(a, b, ring::DEFAULT_TOLERANCE));
    }

    #[test]
    fn addition_is_nlse(a in importance(), b in importance()) {
        prop_assert!(ring::add_homomorphic(a, b, ring::DEFAULT_TOLERANCE));
    }

    #[test]
    fn subtraction_is_nlde(a in importance(), b in importance()) {
        let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
        prop_assert!(ring::sub_homomorphic(hi, lo, 1e-6));
    }

    #[test]
    fn nlse_associative(x in delay(), y in delay(), z in delay()) {
        prop_assert!(ring::nlse_associative(x, y, z, 1e-9));
    }

    #[test]
    fn nlse_commutative(x in delay(), y in delay()) {
        prop_assert!(ring::nlse_commutative(x, y));
    }

    #[test]
    fn nlse_shift_invariant(x in delay(), y in delay(), d in delay()) {
        prop_assert!(ring::nlse_shift_invariant(x, y, d, 1e-9));
    }

    #[test]
    fn nlse_bounded_by_min_and_min_minus_ln2(x in delay(), y in delay()) {
        let (dx, dy) = (DelayValue::from_delay(x), DelayValue::from_delay(y));
        let s = ops::nlse(dx, dy).delay();
        let m = x.min(y);
        prop_assert!(s <= m + 1e-12);
        prop_assert!(s >= m - 2f64.ln() - 1e-12);
    }

    #[test]
    fn nlse_monotone_in_each_argument(x in delay(), y in delay(), bump in 0.0..5.0f64) {
        let base = ops::nlse(DelayValue::from_delay(x), DelayValue::from_delay(y));
        let later = ops::nlse(DelayValue::from_delay(x + bump), DelayValue::from_delay(y));
        prop_assert!(later >= base);
    }

    #[test]
    fn nlse_many_agrees_with_fold(xs in prop::collection::vec(delay(), 1..8)) {
        let vals: Vec<_> = xs.iter().map(|&d| DelayValue::from_delay(d)).collect();
        let flat = ops::nlse_many(&vals);
        let folded = vals[1..]
            .iter()
            .fold(vals[0], |acc, &v| ops::nlse(acc, v));
        prop_assert!((flat.delay() - folded.delay()).abs() < 1e-9);
    }

    #[test]
    fn split_ring_addition(a in signed(), b in signed()) {
        let sa = SplitValue::encode_signed(a).unwrap();
        let sb = SplitValue::encode_signed(b).unwrap();
        let got = (sa + sb).normalize().decode_signed();
        prop_assert!((got - (a + b)).abs() <= 1e-9 * (1.0 + (a + b).abs()));
    }

    #[test]
    fn split_ring_multiplication(a in signed(), b in signed()) {
        let sa = SplitValue::encode_signed(a).unwrap();
        let sb = SplitValue::encode_signed(b).unwrap();
        let got = (sa * sb).normalize().decode_signed();
        prop_assert!((got - a * b).abs() <= 1e-9 * (1.0 + (a * b).abs()));
    }

    #[test]
    fn split_ring_distributive(a in signed(), b in signed(), c in signed()) {
        prop_assert!(ring::split_distributive(a, b, c, 1e-8));
    }

    #[test]
    fn split_subtraction_roundtrip(a in signed(), b in signed()) {
        let sa = SplitValue::encode_signed(a).unwrap();
        let sb = SplitValue::encode_signed(b).unwrap();
        let got = (sa - sb).normalize().decode_signed();
        prop_assert!((got - (a - b)).abs() <= 1e-9 * (1.0 + (a - b).abs()));
    }

    #[test]
    fn normalization_idempotent(a in signed(), b in signed()) {
        let d = SplitValue::encode_signed(a).unwrap() + SplitValue::encode_signed(b).unwrap();
        let once = d.normalize();
        let twice = once.normalize();
        prop_assert!(once.is_normalized());
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn inhibit_matches_spec(d in delay(), i in delay()) {
        let data = DelayValue::from_delay(d);
        let inhib = DelayValue::from_delay(i);
        let out = data.inhibited_by(inhib);
        if d < i {
            prop_assert_eq!(out, data);
        } else {
            prop_assert!(out.is_never());
        }
    }
}

/// Edge-of-representation importance values: signed zeros, infinities,
/// subnormals, extreme magnitudes. Everything a hostile frame or an
/// upstream bug could push through the encoder.
fn edge_signed() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(-0.0),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(f64::MIN_POSITIVE), // smallest normal
        Just(-f64::MIN_POSITIVE),
        Just(5e-324), // smallest subnormal
        Just(-5e-324),
        Just(f64::MIN_POSITIVE / 8.0), // mid-range subnormal
        Just(f64::MAX),
        Just(-f64::MAX),
        1e-320..1e-300_f64,
        -1.0..1.0_f64,
    ]
}

/// No rail of `v` may hold a NaN delay.
fn rails_not_nan(v: SplitValue) -> bool {
    !v.pos().delay().is_nan() && !v.neg().delay().is_nan()
}

proptest! {
    // The satellite guarantee: ±0.0, infinities and subnormals survive
    // encode → nLSE/nLDE → renormalise without a panic and without
    // manufacturing NaN. (Infinite importance legitimately decodes back
    // to ±∞; what must never appear is NaN.)

    #[test]
    fn edge_values_encode_without_panic_or_nan(x in edge_signed()) {
        let v = SplitValue::encode_signed(x).unwrap();
        prop_assert!(rails_not_nan(v));
        prop_assert!(!v.decode_signed().is_nan());
        // Signed zeros land exactly on the canonical zero.
        if x == 0.0 {
            prop_assert!(v.pos().is_never() && v.neg().is_never());
            prop_assert_eq!(v.decode_signed(), 0.0);
        }
    }

    #[test]
    fn edge_values_survive_nlse_nlde_renormalise(a in edge_signed(), b in edge_signed()) {
        let sa = SplitValue::encode_signed(a).unwrap();
        let sb = SplitValue::encode_signed(b).unwrap();

        // Rail-level exact ops: nLSE on every rail pairing, nLDE on the
        // ordered pairings it is defined for.
        for (x, y) in [
            (sa.pos(), sb.pos()),
            (sa.pos(), sb.neg()),
            (sa.neg(), sb.pos()),
            (sa.neg(), sb.neg()),
        ] {
            prop_assert!(!ops::nlse(x, y).delay().is_nan());
            prop_assert!(!ops::nlse_many(&[x, y, x]).delay().is_nan());
            if let Ok(d) = ops::nlde(x, y) {
                prop_assert!(!d.delay().is_nan());
            }
        }

        // Split-level pipeline: add, multiply, renormalise.
        let sum = sa.add_denorm(sb);
        prop_assert!(rails_not_nan(sum));
        let prod = sa.mul_denorm(sb);
        prop_assert!(rails_not_nan(prod));
        for v in [sum, prod] {
            let norm = v.normalize();
            prop_assert!(norm.is_normalized());
            prop_assert!(rails_not_nan(norm));
            prop_assert!(!norm.decode_signed().is_nan());
        }
    }

    #[test]
    fn infinite_importance_absorbs_in_nlse(x in edge_signed()) {
        // ∞ + anything = ∞ on a single rail (the guard that keeps
        // −∞ delays from turning into NaN spreads).
        let inf = DelayValue::encode(f64::INFINITY).unwrap();
        let v = SplitValue::encode_signed(x).unwrap();
        prop_assert_eq!(ops::nlse(inf, v.pos()), inf);
        prop_assert_eq!(ops::nlse(v.pos(), inf), inf);
        prop_assert_eq!(ops::nlse_many(&[inf, v.pos(), inf]), inf);
    }

    #[test]
    fn subnormals_roundtrip_within_float_error(x in prop_oneof![Just(5e-324), Just(f64::MIN_POSITIVE), 1e-320..1e-300_f64]) {
        // Subnormal importance encodes to a large finite delay and decodes
        // back to the same magnitude bucket: never 0-collapsed to NaN,
        // never a panic.
        let v = DelayValue::encode(x).unwrap();
        prop_assert!(v.delay().is_finite());
        let back = v.decode();
        prop_assert!(back > 0.0 && back.is_finite());
        // ln/exp of subnormals is lossy, but stays within a factor of 2.
        prop_assert!(back / x > 0.5 && back / x < 2.0);
    }
}

/// The plain unskipped fold `nlse_many` used before its underflow and
/// min-dominated shortcuts — the bit-exactness oracle for them.
fn nlse_many_unskipped(values: &[DelayValue]) -> DelayValue {
    let Some(&m) = values.iter().min() else {
        return DelayValue::ZERO;
    };
    if m.is_never() {
        return DelayValue::ZERO;
    }
    if m.delay() == f64::NEG_INFINITY {
        return m;
    }
    let mut acc = 0.0_f64;
    for &v in values {
        if !v.is_never() {
            acc += (m.delay() - v.delay()).exp();
        }
    }
    DelayValue::from_delay(m.delay() - acc.ln())
}

/// Operands that exercise every `nlse_many` shortcut: ordinary delays,
/// delays so late their term underflows against any ordinary pivot
/// (spread > 745), and never-values.
fn shortcut_value() -> impl Strategy<Value = DelayValue> {
    prop_oneof![
        4 => (-50.0..50.0_f64).prop_map(DelayValue::from_delay),
        2 => (700.0..900.0_f64).prop_map(DelayValue::from_delay),
        1 => Just(DelayValue::ZERO),
    ]
}

proptest! {
    #[test]
    fn nlse_many_shortcuts_are_bit_identical(
        vals in proptest::collection::vec(shortcut_value(), 1..12)
    ) {
        let fast = ops::nlse_many(&vals);
        let slow = nlse_many_unskipped(&vals);
        prop_assert_eq!(fast.delay().to_bits(), slow.delay().to_bits());
        prop_assert_eq!(fast.is_never(), slow.is_never());
    }
}
