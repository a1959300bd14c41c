//! AArch64 NEON backend. NEON is baseline on aarch64, so no runtime
//! detection or `#[target_feature]` trampolines are needed — the
//! dispatcher monomorphizes the generic kernels with `float64x2_t`
//! directly. Masks are carried as `float64x2_t` reinterpretations of the
//! `uint64x2_t` compare results so the backend presents the same
//! all-ones/all-zero mask convention as the x86 tiers.
//!
//! This tier is compiled only on aarch64 hosts (this workspace's CI runs
//! x86-64); it is deliberately a minimal, mechanical mirror of the SSE2
//! backend. Note `min`/`max`-style selects are built from compare+bsl, not
//! `vminq_f64`, to keep the x86 tie semantics (second operand on ties).
#![allow(unused_unsafe)]

use core::arch::aarch64::*;

use crate::kernels::Lanes;

#[inline(always)]
unsafe fn mask_f64(m: uint64x2_t) -> float64x2_t {
    unsafe { vreinterpretq_f64_u64(m) }
}

impl Lanes for float64x2_t {
    const LANES: usize = 2;

    #[inline(always)]
    unsafe fn splat(x: f64) -> Self {
        unsafe { vdupq_n_f64(x) }
    }

    #[inline(always)]
    unsafe fn splat_bits(b: u64) -> Self {
        unsafe { vreinterpretq_f64_u64(vdupq_n_u64(b)) }
    }

    #[inline(always)]
    unsafe fn loadu(p: *const f64) -> Self {
        unsafe { vld1q_f64(p) }
    }

    #[inline(always)]
    unsafe fn storeu(self, p: *mut f64) {
        unsafe { vst1q_f64(p, self) }
    }

    #[inline(always)]
    unsafe fn add(self, o: Self) -> Self {
        unsafe { vaddq_f64(self, o) }
    }

    #[inline(always)]
    unsafe fn le(self, o: Self) -> Self {
        unsafe { mask_f64(vcleq_f64(self, o)) }
    }

    #[inline(always)]
    unsafe fn ge(self, o: Self) -> Self {
        unsafe { mask_f64(vcgeq_f64(self, o)) }
    }

    #[inline(always)]
    unsafe fn gt(self, o: Self) -> Self {
        unsafe { mask_f64(vcgtq_f64(self, o)) }
    }

    #[inline(always)]
    unsafe fn and(self, o: Self) -> Self {
        unsafe {
            vreinterpretq_f64_u64(vandq_u64(
                vreinterpretq_u64_f64(self),
                vreinterpretq_u64_f64(o),
            ))
        }
    }

    #[inline(always)]
    unsafe fn andnot(self, o: Self) -> Self {
        // vbicq(a, b) computes a & !b; the trait contract is (!self) & o.
        unsafe {
            vreinterpretq_f64_u64(vbicq_u64(
                vreinterpretq_u64_f64(o),
                vreinterpretq_u64_f64(self),
            ))
        }
    }

    #[inline(always)]
    unsafe fn blend(mask: Self, a: Self, b: Self) -> Self {
        unsafe { vbslq_f64(vreinterpretq_u64_f64(mask), a, b) }
    }

    #[inline(always)]
    unsafe fn i64_eq(self, o: Self) -> Self {
        unsafe {
            mask_f64(vceqq_u64(
                vreinterpretq_u64_f64(self),
                vreinterpretq_u64_f64(o),
            ))
        }
    }
}
