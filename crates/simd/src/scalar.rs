//! Scalar reference forms of every vector kernel.
//!
//! Each function replicates, f64 operation for f64 operation, what the
//! scalar `DelayValue` engine in `ta-core` computes — including the
//! `total_cmp` comparator flavor, the `units == 0.0` balance
//! short-circuit, and the unconditional `+k` latency add of
//! `NlseUnit::eval_ideal`. The vector tiers are pinned bit-for-bit
//! against these.
//!
//! These functions operate on raw `f64` delays (the caller guarantees
//! non-NaN where the golden engine guarantees it) so that `ta-simd` stays
//! dependency-free and usable from any crate in the workspace.

/// IEEE-754 total-order `<=` on f64, as `f64::total_cmp` defines it.
///
/// This is the comparator behind `DelayValue`'s `Ord` and therefore behind
/// every `if x <= y` operand sort in the delay-space kernels. For the
/// non-NaN inputs the delay engine produces it differs from the IEEE `<=`
/// only on signed zeros: `total_le(+0.0, -0.0)` is `false`.
#[inline]
#[must_use]
pub fn total_le(a: f64, b: f64) -> bool {
    a.total_cmp(&b) != std::cmp::Ordering::Greater
}

/// One weighted leaf: `pixel + weight`, truncated to never (`+∞`) when the
/// result exceeds `truncate_at`. Mirrors the planned executor's leaf fill.
#[inline]
#[must_use]
pub fn weighted_leaf_one(pixel: f64, weight: f64, truncate_at: f64) -> f64 {
    let leaf = pixel + weight;
    if leaf > truncate_at {
        f64::INFINITY
    } else {
        leaf
    }
}

/// One min-of-max approximate nLSE evaluation with balance units and
/// unit latency, exactly as the scalar engine composes
/// `TreeOps::balance` + `NlseUnit::eval_ideal`:
///
/// * operands gain their balance units unless the unit count is exactly
///   `0.0` (the balance short-circuit that preserves `-0.0`); a never
///   operand passes through unchanged because `+∞ + units = +∞`;
/// * operands are sorted with the total-order comparator;
/// * each term is `last_arrival(hi + c, lo + d)` and the result is the
///   `first_arrival` over terms (IEEE selects returning the first argument
///   on ties, like `DelayValue::{last_arrival, first_arrival}`);
/// * the unit's completion-detect latency `k` is added unconditionally —
///   even `k == 0.0` flattens `-0.0` to `+0.0`, exactly like
///   `DelayValue::delayed(0.0)`.
#[inline]
#[must_use]
pub fn nlse_approx_one(
    x: f64,
    x_units: f64,
    y: f64,
    y_units: f64,
    terms: &[(f64, f64)],
    k: f64,
) -> f64 {
    let x = if x_units == 0.0 { x } else { x + x_units };
    let y = if y_units == 0.0 { y } else { y + y_units };
    let (lo, hi) = if total_le(x, y) { (x, y) } else { (y, x) };
    let mut best = lo;
    for &(c, d) in terms {
        let th = hi + c;
        let tl = lo + d;
        let term = if th >= tl { th } else { tl };
        best = if best <= term { best } else { term };
    }
    best + k
}

/// One exact nLSE with balance units, replicating `ops::nlse` bit-for-bit
/// (libm `exp`/`ln_1p`, identical guard order). The exact rows stay scalar
/// on every tier because the operator is transcendental-bound.
#[inline]
#[must_use]
pub fn nlse_exact_one(x: f64, x_units: f64, y: f64, y_units: f64) -> f64 {
    let x = if x_units == 0.0 { x } else { x + x_units };
    let y = if y_units == 0.0 { y } else { y + y_units };
    let (m, big) = if total_le(x, y) { (x, y) } else { (y, x) };
    if m == f64::INFINITY {
        return f64::INFINITY;
    }
    if big == f64::INFINITY {
        return m;
    }
    if m == f64::NEG_INFINITY {
        return m;
    }
    let d = big - m;
    m - (-d).exp().ln_1p()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_le_orders_signed_zero() {
        assert!(total_le(-0.0, 0.0));
        assert!(!total_le(0.0, -0.0));
        assert!(total_le(0.0, 0.0));
        assert!(total_le(f64::NEG_INFINITY, f64::INFINITY));
    }

    #[test]
    fn golden_kernels_reject_nothing_on_inf() {
        // never (+∞) operands flow through every kernel without NaN.
        let inf = f64::INFINITY;
        assert_eq!(
            nlse_approx_one(inf, 0.0, inf, 0.0, &[(0.5, 0.7)], 0.25),
            inf
        );
        assert_eq!(nlse_exact_one(inf, 0.0, inf, 0.0), inf);
        assert_eq!(nlse_exact_one(1.0, 0.0, inf, 0.0), 1.0);
    }
}
