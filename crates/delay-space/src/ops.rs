//! Exact delay-space arithmetic: nLSE, nLDE and their n-ary forms.
//!
//! These are the *mathematically exact* operations of Eqs. 4–5 of the paper,
//! computed in numerically stable form. Hardware approximates them with
//! min-of-max / min-of-inhibit networks (see the `ta-approx` crate); the
//! exact versions are used to verify the architectural simulator against
//! software convolution (§5.1) and to measure approximation error.

use crate::{DelayValue, NormalizeError};

/// Exact negative log-sum-exp: delay-space **addition** (Eq. 4).
///
/// `nLSE(x', y') = -ln(e^-x' + e^-y')`, evaluated as
/// `m - ln(1 + e^-(M-m))` with `m = min`, `M = max`, which is stable for
/// any spread of operands and handles infinite delays exactly.
///
/// ```
/// use ta_delay_space::{DelayValue, ops};
/// let a = DelayValue::encode(0.3)?;
/// let b = DelayValue::encode(0.4)?;
/// assert!((ops::nlse(a, b).decode() - 0.7).abs() < 1e-12);
/// # Ok::<(), ta_delay_space::EncodeError>(())
/// ```
pub fn nlse(x: DelayValue, y: DelayValue) -> DelayValue {
    let (m, big) = if x <= y { (x, y) } else { (y, x) };
    if m.is_never() {
        // 0 + 0 = 0.
        return DelayValue::ZERO;
    }
    if big.is_never() {
        // x + 0 = x.
        return m;
    }
    if m.delay() == f64::NEG_INFINITY {
        // Importance-space ∞ absorbs any addend; without this guard the
        // spread `big − m` is NaN when both operands are −∞.
        return m;
    }
    let d = big.delay() - m.delay();
    DelayValue::from_delay(m.delay() - (-d).exp().ln_1p())
}

/// Exact negative log-difference-exp: delay-space **subtraction** (Eq. 5).
///
/// `nLDE(x', y') = -ln(e^-x' - e^-y')`, defined only when `x` encodes the
/// strictly larger importance value (i.e. `x' < y'`). Evaluated stably as
/// `x' - ln(1 - e^-(y'-x'))`.
///
/// Equal operands decode to importance-space `0`, which *is* representable
/// (an infinite delay), so `x' == y'` returns [`DelayValue::ZERO`] rather
/// than an error.
///
/// # Errors
///
/// Returns [`NormalizeError`] if `y` encodes a larger importance value than
/// `x` (the difference would be negative and has no delay-space image).
///
/// ```
/// use ta_delay_space::{DelayValue, ops};
/// let a = DelayValue::encode(0.75)?;
/// let b = DelayValue::encode(0.5)?;
/// let d = ops::nlde(a, b)?;
/// assert!((d.decode() - 0.25).abs() < 1e-12);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn nlde(x: DelayValue, y: DelayValue) -> Result<DelayValue, NormalizeError> {
    if x > y {
        return Err(NormalizeError {
            dominant_is_second: true,
        });
    }
    if x == y {
        return Ok(DelayValue::ZERO);
    }
    if y.is_never() {
        // x - 0 = x.
        return Ok(x);
    }
    let d = y.delay() - x.delay(); // > 0
    let ln_term = (-(-d).exp()).ln_1p(); // ln(1 - e^-d) < 0
    Ok(DelayValue::from_delay(x.delay() - ln_term))
}

/// Below this spread, `exp(m − v)` underflows to exactly `+0.0`
/// (`ln(2^-1075)` ≈ −745.133, pinned by a unit test at this cutoff), so
/// the term can be skipped without changing a single bit of the
/// accumulator — adding `+0.0` to a non-negative sum is the identity.
/// Deliberately below the true threshold: between ≈−744.44 and the
/// threshold `exp` still returns subnormals, which *do* perturb the sum.
const EXP_UNDERFLOW: f64 = -745.2;

/// n-ary exact nLSE: delay-space sum of any number of operands.
///
/// Uses a single stable pass pivoted on the earliest edge rather than a
/// fold, so the result is independent of operand order to machine
/// precision. The empty sum is importance-space `0`
/// ([`DelayValue::ZERO`]).
///
/// Terms more than `EXP_UNDERFLOW` units behind the pivot are skipped
/// (their `exp` is exactly `+0.0`), and a sum the pivot fully dominates
/// returns the pivot without touching `ln` at all — both shortcuts are
/// bit-identical to the plain fold, pinned by a property test.
///
/// ```
/// use ta_delay_space::{DelayValue, ops};
/// let vals: Vec<_> = [0.1, 0.2, 0.3]
///     .iter()
///     .map(|&v| DelayValue::encode(v))
///     .collect::<Result<_, _>>()?;
/// assert!((ops::nlse_many(&vals).decode() - 0.6).abs() < 1e-12);
/// # Ok::<(), ta_delay_space::EncodeError>(())
/// ```
pub fn nlse_many(values: &[DelayValue]) -> DelayValue {
    let Some(&m) = values.iter().min() else {
        return DelayValue::ZERO;
    };
    if m.is_never() {
        return DelayValue::ZERO;
    }
    if m.delay() == f64::NEG_INFINITY {
        // Importance-space ∞ absorbs the whole sum (cf. `nlse`).
        return m;
    }
    if values.len() == 1 {
        // The pivot's own term is exp(0) = 1 and m − ln(1) = m.
        return m;
    }
    let mut acc = 0.0_f64;
    for &v in values {
        if !v.is_never() {
            let d = m.delay() - v.delay();
            if d >= EXP_UNDERFLOW {
                acc += d.exp();
            }
        }
    }
    if acc == 1.0 {
        // Min-dominated: every other term was never or underflowed, so
        // only the pivot's exp(0) survived; ln(1) = 0.
        return m;
    }
    DelayValue::from_delay(m.delay() - acc.ln())
}

/// Rescales a delay-space value by shifting its reference point.
///
/// Adding a constant delay `delta` to a value multiplies it by `e^-delta`
/// in importance space — the paper uses this to both implement weights and
/// to re-reference recurrent partial sums. Provided as a free function for
/// symmetry with [`nlse`]; equivalent to [`DelayValue::delayed`].
pub fn rescale(x: DelayValue, delta: f64) -> DelayValue {
    x.delayed(delta)
}

/// The shift-distributivity identity the recurrence architecture relies on:
/// `nLSE(a + δ, b + δ) = nLSE(a, b) + δ` (§2.1).
///
/// This helper applies nLSE in a shifted reference frame; it exists mainly
/// so tests and docs can state the property explicitly.
pub fn nlse_shifted(x: DelayValue, y: DelayValue, delta: f64) -> DelayValue {
    nlse(x.delayed(delta), y.delayed(delta))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    fn enc(x: f64) -> DelayValue {
        DelayValue::encode(x).unwrap()
    }

    #[test]
    fn nlse_is_addition() {
        for &(a, b) in &[(0.1, 0.2), (0.5, 0.5), (1e-6, 0.9), (3.0, 7.0)] {
            let s = nlse(enc(a), enc(b)).decode();
            assert!((s - (a + b)).abs() / (a + b) < 1e-12, "{a}+{b} gave {s}");
        }
    }

    #[test]
    fn nlse_identity_is_zero() {
        let a = enc(0.42);
        assert_eq!(nlse(a, DelayValue::ZERO), a);
        assert_eq!(nlse(DelayValue::ZERO, a), a);
        assert!(nlse(DelayValue::ZERO, DelayValue::ZERO).is_never());
    }

    #[test]
    fn nlse_commutes() {
        let a = enc(0.37);
        let b = enc(0.11);
        assert_eq!(nlse(a, b), nlse(b, a));
    }

    #[test]
    fn nlse_below_min() {
        // nLSE is bounded above by min and hits min - ln(2) at equality.
        let a = enc(0.5);
        let s = nlse(a, a);
        assert!((s.delay() - (a.delay() - 2.0_f64.ln())).abs() < 1e-12);
        let b = enc(0.1);
        assert!(nlse(a, b) <= a.min(b));
    }

    #[test]
    fn nlse_handles_huge_spread() {
        // Stable even when operands differ by hundreds of units of delay.
        let a = DelayValue::from_delay(0.0);
        let b = DelayValue::from_delay(800.0);
        let s = nlse(a, b);
        assert_eq!(s, a); // the tiny term underflows away entirely
    }

    #[test]
    fn nlde_is_subtraction() {
        for &(a, b) in &[(0.9, 0.2), (0.5, 0.4999), (2.0, 1.0)] {
            let d = nlde(enc(a), enc(b)).unwrap().decode();
            assert!((d - (a - b)).abs() < 1e-9, "{a}-{b} gave {d}");
        }
    }

    #[test]
    fn nlde_equal_operands_is_zero() {
        let a = enc(0.3);
        assert!(nlde(a, a).unwrap().is_never());
    }

    #[test]
    fn nlde_rejects_negative_result() {
        assert!(nlde(enc(0.2), enc(0.3)).is_err());
    }

    #[test]
    fn nlde_subtracting_zero() {
        let a = enc(0.3);
        assert_eq!(nlde(a, DelayValue::ZERO).unwrap(), a);
    }

    #[test]
    fn nlde_inverts_nlse() {
        let a = enc(0.6);
        let b = enc(0.3);
        let sum = nlse(a, b);
        let back = nlde(sum, b).unwrap();
        assert!((back.decode() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn nlse_many_matches_fold_and_is_order_free() {
        let xs = [0.03, 0.4, 0.001, 0.25, 0.11];
        let vals: Vec<_> = xs.iter().map(|&x| enc(x)).collect();
        let direct = nlse_many(&vals).decode();
        let expected: f64 = xs.iter().sum();
        assert!((direct - expected).abs() < 1e-12);

        let mut rev = vals.clone();
        rev.reverse();
        assert!((nlse_many(&rev).decode() - expected).abs() < 1e-12);
    }

    #[test]
    fn exp_underflow_cutoff_is_sound() {
        // The skip is bit-identical only if exp() at the cutoff is
        // *exactly* +0.0. Just above the true threshold (≈ −745.133)
        // exp() still returns subnormals, which must not be skipped.
        assert_eq!(EXP_UNDERFLOW.exp(), 0.0);
        assert_eq!(EXP_UNDERFLOW.exp().to_bits(), 0.0_f64.to_bits());
        assert!((-745.0_f64).exp() > 0.0, "subnormal terms still count");
    }

    #[test]
    fn nlse_many_single_element_is_identity() {
        let a = enc(0.37);
        assert_eq!(nlse_many(&[a]).delay().to_bits(), a.delay().to_bits());
    }

    #[test]
    fn nlse_many_min_dominated_returns_pivot() {
        // The far term is > 745 units behind: its exp underflows to zero
        // and the sum is exactly the pivot.
        let a = DelayValue::from_delay(0.0);
        let far = DelayValue::from_delay(800.0);
        let s = nlse_many(&[a, far, DelayValue::ZERO]);
        assert_eq!(s.delay().to_bits(), a.delay().to_bits());
    }

    #[test]
    fn nlse_many_empty_and_zeros() {
        assert!(nlse_many(&[]).is_never());
        assert!(nlse_many(&[DelayValue::ZERO, DelayValue::ZERO]).is_never());
        let a = enc(0.5);
        assert_eq!(nlse_many(&[a, DelayValue::ZERO]), a);
    }

    #[test]
    fn shift_distributes_through_nlse() {
        let a = DelayValue::from_delay(0.7);
        let b = DelayValue::from_delay(-0.3);
        for &delta in &[0.0, 1.0, -2.5, 10.0] {
            let lhs = nlse_shifted(a, b, delta);
            let rhs = nlse(a, b).delayed(delta);
            assert!((lhs.delay() - rhs.delay()).abs() < 1e-12);
        }
    }

    #[test]
    fn staged_nlse_equals_flat() {
        // nLSE(nLSE(x,y),z) == nLSE over all three: the §3 recurrence identity.
        let x = enc(0.2);
        let y = enc(0.3);
        let z = enc(0.4);
        let staged = nlse(nlse(x, y), z);
        let flat = nlse_many(&[x, y, z]);
        assert!((staged.delay() - flat.delay()).abs() < 1e-12);
    }
}
