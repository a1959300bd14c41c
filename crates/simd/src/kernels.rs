//! Generic lane kernels over the [`Lanes`] abstraction.
//!
//! Every kernel here is written once against the `Lanes` trait and
//! monomorphized per backend inside a `#[target_feature]` wrapper (see
//! `x86.rs` / `neon.rs`), the rten-simd pattern: all trait methods are
//! `#[inline(always)]`, so the intrinsics inline into the feature-enabled
//! wrapper and codegen with the wrapper's ISA.
//!
//! Bit-level contract: the kernels (`nlse_approx_rows_raw`,
//! `weighted_leaves_raw`, `add_units_raw`) use only IEEE
//! add/compare/select, which are correctly rounded and therefore produce
//! the same bits in every tier *and* the same bits as the scalar
//! `DelayValue` engine. The comparator is the total-order `<=` (see
//! [`Lanes::total_le`]).
//!
//! Raw pointers are used (rather than slices) so the in-place forms can
//! alias an input row with the output row without violating `&`/`&mut`
//! aliasing rules; every kernel reads an element before writing it.

use crate::scalar;

const NEG_ZERO_BITS: u64 = 0x8000_0000_0000_0000;
const POS_ZERO_BITS: u64 = 0;

/// One SIMD register of f64 lanes plus the operations the kernels need.
///
/// Mask-producing operations (`le`, `gt`, `total_le`, …) return a value of
/// the same register type whose lanes are all-ones or all-zero bit
/// patterns, consumed by [`Lanes::blend`].
///
/// # Safety
///
/// Implementations map methods directly onto ISA intrinsics; callers must
/// only invoke them (transitively, via the kernels) from a context where
/// the backend's ISA is known to be available.
pub(crate) trait Lanes: Copy {
    /// Number of f64 lanes per register.
    const LANES: usize;

    /// Broadcast a value to all lanes.
    unsafe fn splat(x: f64) -> Self;
    /// Broadcast a raw bit pattern to all lanes.
    unsafe fn splat_bits(b: u64) -> Self;
    /// Unaligned load of `LANES` values.
    unsafe fn loadu(p: *const f64) -> Self;
    /// Unaligned store of `LANES` values.
    unsafe fn storeu(self, p: *mut f64);
    /// Lanewise `self + o`.
    unsafe fn add(self, o: Self) -> Self;
    /// IEEE `self <= o` mask.
    unsafe fn le(self, o: Self) -> Self;
    /// IEEE `self >= o` mask.
    unsafe fn ge(self, o: Self) -> Self;
    /// IEEE `self > o` mask.
    unsafe fn gt(self, o: Self) -> Self;
    /// Bitwise AND.
    unsafe fn and(self, o: Self) -> Self;
    /// Bitwise `(!self) & o`, matching `_mm_andnot_pd` operand order.
    unsafe fn andnot(self, o: Self) -> Self;
    /// Per-lane `mask ? a : b`; mask lanes must be all-ones or all-zero.
    unsafe fn blend(mask: Self, a: Self, b: Self) -> Self;
    /// Lanewise 64-bit integer equality mask on the raw bits.
    unsafe fn i64_eq(self, o: Self) -> Self;

    /// Total-order `self <= o` for non-NaN lanes: IEEE `<=` corrected on
    /// the one case where it disagrees with `f64::total_cmp`, namely
    /// `(+0.0, -0.0)`, detected by exact bit-pattern comparison.
    #[inline(always)]
    unsafe fn total_le(self, o: Self) -> Self {
        unsafe {
            let ieee = self.le(o);
            let bad = self
                .i64_eq(Self::splat_bits(POS_ZERO_BITS))
                .and(o.i64_eq(Self::splat_bits(NEG_ZERO_BITS)));
            bad.andnot(ieee)
        }
    }
}

// --- slice kernels ------------------------------------------------------

/// In-place `xs[i] += delta` (the unconditional `DelayValue::delayed`
/// semantics: `+0.0` flattens `-0.0`).
#[inline(always)]
pub(crate) unsafe fn add_units_raw<V: Lanes>(p: *mut f64, delta: f64, n: usize) {
    unsafe {
        let dv = V::splat(delta);
        let mut i = 0;
        while i + V::LANES <= n {
            V::loadu(p.add(i)).add(dv).storeu(p.add(i));
            i += V::LANES;
        }
        while i < n {
            *p.add(i) += delta;
            i += 1;
        }
    }
}

/// Weighted leaf fill: `out[i] = px[i * stride] + w`, truncated to `+∞`
/// above `truncate_at`. Strides > 1 use a scalar gather with the same
/// formula.
#[inline(always)]
pub(crate) unsafe fn weighted_leaves_raw<V: Lanes>(
    px: *const f64,
    stride: usize,
    w: f64,
    truncate_at: f64,
    out: *mut f64,
    n: usize,
) {
    unsafe {
        if stride == 1 {
            let wv = V::splat(w);
            let tv = V::splat(truncate_at);
            let inf = V::splat(f64::INFINITY);
            let mut i = 0;
            while i + V::LANES <= n {
                let v = V::loadu(px.add(i)).add(wv);
                V::blend(v.gt(tv), inf, v).storeu(out.add(i));
                i += V::LANES;
            }
            while i < n {
                *out.add(i) = scalar::weighted_leaf_one(*px.add(i), w, truncate_at);
                i += 1;
            }
        } else {
            for i in 0..n {
                *out.add(i) = scalar::weighted_leaf_one(*px.add(i * stride), w, truncate_at);
            }
        }
    }
}

/// Batched min-of-max approximate nLSE with balance units and unit
/// latency `k`: `out[i] = eval(a[i] ⊕ au, b[i] ⊕ bu) + k`, where `⊕`
/// applies the balance add unless the unit count is exactly `0.0`.
/// `out` may alias `a` or `b` (in-place spine accumulate).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) unsafe fn nlse_approx_rows_raw<V: Lanes>(
    a: *const f64,
    au: f64,
    b: *const f64,
    bu: f64,
    terms: &[(f64, f64)],
    k: f64,
    out: *mut f64,
    n: usize,
) {
    unsafe {
        let kv = V::splat(k);
        let mut i = 0;
        while i + V::LANES <= n {
            let mut x = V::loadu(a.add(i));
            let mut y = V::loadu(b.add(i));
            if au != 0.0 {
                x = x.add(V::splat(au));
            }
            if bu != 0.0 {
                y = y.add(V::splat(bu));
            }
            let m = x.total_le(y);
            let lo = V::blend(m, x, y);
            let hi = V::blend(m, y, x);
            let mut best = lo;
            for &(c, d) in terms {
                let th = hi.add(V::splat(c));
                let tl = lo.add(V::splat(d));
                let term = V::blend(th.ge(tl), th, tl);
                best = V::blend(best.le(term), best, term);
            }
            best.add(kv).storeu(out.add(i));
            i += V::LANES;
        }
        while i < n {
            *out.add(i) = scalar::nlse_approx_one(*a.add(i), au, *b.add(i), bu, terms, k);
            i += 1;
        }
    }
}

/// The scalar fallback backend: one f64 per "register", masks carried as
/// all-ones / all-zero bit patterns. This is the tier every other backend
/// is pinned against, and the tier used on architectures without a vector
/// backend.
impl Lanes for f64 {
    const LANES: usize = 1;

    #[inline(always)]
    unsafe fn splat(x: f64) -> Self {
        x
    }

    #[inline(always)]
    unsafe fn splat_bits(b: u64) -> Self {
        f64::from_bits(b)
    }

    #[inline(always)]
    unsafe fn loadu(p: *const f64) -> Self {
        unsafe { *p }
    }

    #[inline(always)]
    unsafe fn storeu(self, p: *mut f64) {
        unsafe { *p = self }
    }

    #[inline(always)]
    unsafe fn add(self, o: Self) -> Self {
        self + o
    }

    #[inline(always)]
    unsafe fn le(self, o: Self) -> Self {
        mask1(self <= o)
    }

    #[inline(always)]
    unsafe fn ge(self, o: Self) -> Self {
        mask1(self >= o)
    }

    #[inline(always)]
    unsafe fn gt(self, o: Self) -> Self {
        mask1(self > o)
    }

    #[inline(always)]
    unsafe fn and(self, o: Self) -> Self {
        f64::from_bits(self.to_bits() & o.to_bits())
    }

    #[inline(always)]
    unsafe fn andnot(self, o: Self) -> Self {
        f64::from_bits(!self.to_bits() & o.to_bits())
    }

    #[inline(always)]
    unsafe fn blend(mask: Self, a: Self, b: Self) -> Self {
        if mask.to_bits() != 0 {
            a
        } else {
            b
        }
    }

    #[inline(always)]
    unsafe fn i64_eq(self, o: Self) -> Self {
        mask1(self.to_bits() == o.to_bits())
    }
}

#[inline(always)]
fn mask1(b: bool) -> f64 {
    f64::from_bits(if b { u64::MAX } else { 0 })
}
