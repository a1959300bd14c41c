//! x86-64 backends: SSE2 (baseline, statically available on every x86-64
//! target) and AVX2 (runtime-detected, entered through
//! `#[target_feature]` trampolines so the generic kernels monomorphize
//! with the wider ISA).
//!
//! `unused_unsafe` is allowed module-wide: which vendor intrinsics count
//! as safe-to-call depends on the enclosing function's statically enabled
//! features and has shifted across rustc versions, so every intrinsic call
//! is wrapped uniformly instead of tracking the classification.
#![allow(unused_unsafe)]

use core::arch::x86_64::*;

use crate::kernels::{self, Lanes};

impl Lanes for __m128d {
    const LANES: usize = 2;

    #[inline(always)]
    unsafe fn splat(x: f64) -> Self {
        unsafe { _mm_set1_pd(x) }
    }

    #[inline(always)]
    unsafe fn splat_bits(b: u64) -> Self {
        unsafe { _mm_castsi128_pd(_mm_set1_epi64x(b as i64)) }
    }

    #[inline(always)]
    unsafe fn loadu(p: *const f64) -> Self {
        unsafe { _mm_loadu_pd(p) }
    }

    #[inline(always)]
    unsafe fn storeu(self, p: *mut f64) {
        unsafe { _mm_storeu_pd(p, self) }
    }

    #[inline(always)]
    unsafe fn add(self, o: Self) -> Self {
        unsafe { _mm_add_pd(self, o) }
    }

    #[inline(always)]
    unsafe fn le(self, o: Self) -> Self {
        unsafe { _mm_cmple_pd(self, o) }
    }

    #[inline(always)]
    unsafe fn ge(self, o: Self) -> Self {
        unsafe { _mm_cmpge_pd(self, o) }
    }

    #[inline(always)]
    unsafe fn gt(self, o: Self) -> Self {
        unsafe { _mm_cmpgt_pd(self, o) }
    }

    #[inline(always)]
    unsafe fn and(self, o: Self) -> Self {
        unsafe { _mm_and_pd(self, o) }
    }

    #[inline(always)]
    unsafe fn andnot(self, o: Self) -> Self {
        unsafe { _mm_andnot_pd(self, o) }
    }

    #[inline(always)]
    unsafe fn blend(mask: Self, a: Self, b: Self) -> Self {
        unsafe { _mm_or_pd(_mm_and_pd(mask, a), _mm_andnot_pd(mask, b)) }
    }

    #[inline(always)]
    unsafe fn i64_eq(self, o: Self) -> Self {
        // SSE2 has no 64-bit lane equality; compose it from the 32-bit one
        // by AND-ing each half's result with its pair-swapped shuffle.
        unsafe {
            let t = _mm_cmpeq_epi32(_mm_castpd_si128(self), _mm_castpd_si128(o));
            let s = _mm_shuffle_epi32::<0b1011_0001>(t);
            _mm_castsi128_pd(_mm_and_si128(t, s))
        }
    }
}

impl Lanes for __m256d {
    const LANES: usize = 4;

    #[inline(always)]
    unsafe fn splat(x: f64) -> Self {
        unsafe { _mm256_set1_pd(x) }
    }

    #[inline(always)]
    unsafe fn splat_bits(b: u64) -> Self {
        unsafe { _mm256_castsi256_pd(_mm256_set1_epi64x(b as i64)) }
    }

    #[inline(always)]
    unsafe fn loadu(p: *const f64) -> Self {
        unsafe { _mm256_loadu_pd(p) }
    }

    #[inline(always)]
    unsafe fn storeu(self, p: *mut f64) {
        unsafe { _mm256_storeu_pd(p, self) }
    }

    #[inline(always)]
    unsafe fn add(self, o: Self) -> Self {
        unsafe { _mm256_add_pd(self, o) }
    }

    #[inline(always)]
    unsafe fn le(self, o: Self) -> Self {
        unsafe { _mm256_cmp_pd::<_CMP_LE_OQ>(self, o) }
    }

    #[inline(always)]
    unsafe fn ge(self, o: Self) -> Self {
        unsafe { _mm256_cmp_pd::<_CMP_GE_OQ>(self, o) }
    }

    #[inline(always)]
    unsafe fn gt(self, o: Self) -> Self {
        unsafe { _mm256_cmp_pd::<_CMP_GT_OQ>(self, o) }
    }

    #[inline(always)]
    unsafe fn and(self, o: Self) -> Self {
        unsafe { _mm256_and_pd(self, o) }
    }

    #[inline(always)]
    unsafe fn andnot(self, o: Self) -> Self {
        unsafe { _mm256_andnot_pd(self, o) }
    }

    #[inline(always)]
    unsafe fn blend(mask: Self, a: Self, b: Self) -> Self {
        // blendv selects the second source where the mask sign bit is set.
        unsafe { _mm256_blendv_pd(b, a, mask) }
    }

    #[inline(always)]
    unsafe fn i64_eq(self, o: Self) -> Self {
        unsafe {
            _mm256_castsi256_pd(_mm256_cmpeq_epi64(
                _mm256_castpd_si256(self),
                _mm256_castpd_si256(o),
            ))
        }
    }
}

/// Generates `#[target_feature(enable = "avx2")]` trampolines that
/// monomorphize a generic kernel with the AVX2 backend. The trampoline is
/// what lets the `#[inline(always)]` kernel body codegen with AVX2.
macro_rules! avx2_trampolines {
    ($(fn $name:ident = $kernel:ident ( $($arg:ident : $ty:ty),* $(,)? );)+) => {
        $(
            #[target_feature(enable = "avx2")]
            #[allow(clippy::too_many_arguments)]
            pub(crate) unsafe fn $name($($arg: $ty),*) {
                // SAFETY: the dispatcher only routes here when AVX2 was
                // runtime-detected (or explicitly forced after an
                // availability check).
                unsafe { kernels::$kernel::<__m256d>($($arg),*) }
            }
        )+
    };
}

avx2_trampolines! {
    fn add_units_avx2 = add_units_raw(p: *mut f64, delta: f64, n: usize);
    fn weighted_leaves_avx2 = weighted_leaves_raw(
        px: *const f64, stride: usize, w: f64, truncate_at: f64, out: *mut f64, n: usize);
    fn nlse_approx_rows_avx2 = nlse_approx_rows_raw(
        a: *const f64, au: f64, b: *const f64, bu: f64,
        terms: &[(f64, f64)], k: f64, out: *mut f64, n: usize);
}
