//! Runtime-dispatched SIMD kernels for delay-space arithmetic.
//!
//! This crate is the workspace's one home for `unsafe` vector code (every
//! other library crate carries `#![forbid(unsafe_code)]`). It exposes
//! batch forms of the hot delay-space kernels — weighted leaf fills,
//! min-of-max approximate nLSE, exact nLSE and the balance-unit add —
//! dispatched at runtime over ISA tiers:
//!
//! | tier | ISA | lanes | availability |
//! |------|-----|-------|--------------|
//! | `Scalar` | portable | 1 | always |
//! | `Sse2`   | x86-64 SSE2 | 2 | x86-64 baseline (always there) |
//! | `Avx2`   | x86-64 AVX2 | 4 | runtime-detected |
//! | `Neon`   | AArch64 NEON | 2 | aarch64 baseline |
//!
//! # Bit-identity contract
//!
//! Every kernel produces bit-for-bit the results of the golden scalar
//! `DelayValue` engine on **every** tier, including the `f64::total_cmp`
//! comparator flavor on signed zeros. The vectorized kernels
//! ([`nlse_approx_rows`], [`weighted_leaves`], [`add_units`]) are built
//! only from IEEE add/compare/select, which are correctly rounded; the
//! exact nLSE rows ([`nlse_exact_rows`]) keep libm `exp`/`ln_1p` scalar
//! and in element order. [`scalar`] holds the one-element reference form
//! of each kernel.
//!
//! # Selecting a tier and a mode
//!
//! The active tier is runtime-detected, can be pinned programmatically
//! with [`force_tier`], and is seeded from the `TA_SIMD_TIER` environment
//! variable (`scalar` | `sse2` | `avx2` | `neon`; unavailable or invalid
//! values fall back to detection); the CLI surfaces it as `--simd-tier`.
//! The executor-facing mode — [`SimdMode::Identical`] (default) or
//! [`SimdMode::Off`], the scalar golden leg of the parity suites and
//! benches — is a process-global set with [`set_mode`].
//!
//! Every kernel with a vector path also has a `*_in` variant taking an
//! explicit tier, used by the parity proptests to pin a specific backend
//! without touching the process-global state.

#![forbid(clippy::todo)]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

mod kernels;
#[cfg(target_arch = "aarch64")]
mod neon;
pub mod scalar;
#[cfg(target_arch = "x86_64")]
mod x86;

use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};

/// An ISA tier the dispatcher can route kernels to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdTier {
    /// Portable scalar fallback (always available; the golden backend).
    Scalar,
    /// x86-64 SSE2, 2 × f64 lanes (baseline on every x86-64 target).
    Sse2,
    /// x86-64 AVX2, 4 × f64 lanes (runtime-detected).
    Avx2,
    /// AArch64 NEON, 2 × f64 lanes (baseline on every aarch64 target).
    Neon,
}

impl SimdTier {
    /// Whether this tier can run on the current host.
    #[must_use]
    pub fn is_available(self) -> bool {
        match self {
            SimdTier::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            SimdTier::Sse2 => true,
            #[cfg(target_arch = "x86_64")]
            SimdTier::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "aarch64")]
            SimdTier::Neon => true,
            #[allow(unreachable_patterns)]
            _ => false,
        }
    }

    /// The canonical lower-case name (`scalar`, `sse2`, `avx2`, `neon`).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            SimdTier::Scalar => "scalar",
            SimdTier::Sse2 => "sse2",
            SimdTier::Avx2 => "avx2",
            SimdTier::Neon => "neon",
        }
    }

    fn encode(self) -> u8 {
        match self {
            SimdTier::Scalar => 1,
            SimdTier::Sse2 => 2,
            SimdTier::Avx2 => 3,
            SimdTier::Neon => 4,
        }
    }

    fn decode(v: u8) -> Option<SimdTier> {
        match v {
            1 => Some(SimdTier::Scalar),
            2 => Some(SimdTier::Sse2),
            3 => Some(SimdTier::Avx2),
            4 => Some(SimdTier::Neon),
            _ => None,
        }
    }
}

impl std::fmt::Display for SimdTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for SimdTier {
    type Err = TierParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Ok(SimdTier::Scalar),
            "sse2" => Ok(SimdTier::Sse2),
            "avx2" => Ok(SimdTier::Avx2),
            "neon" => Ok(SimdTier::Neon),
            _ => Err(TierParseError),
        }
    }
}

/// A tier name failed to parse (expected `scalar`/`sse2`/`avx2`/`neon`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TierParseError;

impl std::fmt::Display for TierParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("unknown SIMD tier (expected scalar, sse2, avx2 or neon)")
    }
}

impl std::error::Error for TierParseError {}

/// A requested tier cannot run on this host.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TierUnavailable {
    /// The tier that was requested.
    pub requested: SimdTier,
}

impl std::fmt::Display for TierUnavailable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SIMD tier {} is not available on this host",
            self.requested
        )
    }
}

impl std::error::Error for TierUnavailable {}

/// The executor-facing vectorization mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SimdMode {
    /// Never take a vector path: the scalar golden executor.
    Off,
    /// Vector paths under the bit-identity contract (default).
    #[default]
    Identical,
}

impl SimdMode {
    /// The canonical lower-case name (`off`, `identical`).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            SimdMode::Off => "off",
            SimdMode::Identical => "identical",
        }
    }
}

impl std::fmt::Display for SimdMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// 0 = uninitialized (consult `TA_SIMD_TIER` / detection on first use).
static TIER: AtomicU8 = AtomicU8::new(0);
/// Set while [`SimdMode::Off`] is in effect.
static SIMD_OFF: AtomicBool = AtomicBool::new(false);

/// The widest tier the host supports, ignoring overrides.
#[must_use]
pub fn detected_tier() -> SimdTier {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            SimdTier::Avx2
        } else {
            SimdTier::Sse2
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        SimdTier::Neon
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        SimdTier::Scalar
    }
}

/// The tier kernels currently dispatch to: a [`force_tier`] override if
/// one is in effect, else `TA_SIMD_TIER` from the environment (invalid or
/// unavailable values are ignored), else [`detected_tier`].
#[must_use]
pub fn active_tier() -> SimdTier {
    if let Some(t) = SimdTier::decode(TIER.load(Ordering::Relaxed)) {
        return t;
    }
    let t = std::env::var("TA_SIMD_TIER")
        .ok()
        .and_then(|s| s.parse::<SimdTier>().ok())
        .filter(|t| t.is_available())
        .unwrap_or_else(detected_tier);
    TIER.store(t.encode(), Ordering::Relaxed);
    t
}

/// Pins the dispatcher to a specific tier (`Some`) or reverts to
/// environment/detection (`None`). Process-global.
///
/// # Errors
///
/// [`TierUnavailable`] if the requested tier cannot run on this host; the
/// active tier is left unchanged.
pub fn force_tier(tier: Option<SimdTier>) -> Result<(), TierUnavailable> {
    match tier {
        Some(t) if !t.is_available() => Err(TierUnavailable { requested: t }),
        Some(t) => {
            TIER.store(t.encode(), Ordering::Relaxed);
            Ok(())
        }
        None => {
            TIER.store(0, Ordering::Relaxed);
            Ok(())
        }
    }
}

/// The process-global executor mode: the last [`set_mode`], else
/// [`SimdMode::Identical`].
#[must_use]
pub fn mode() -> SimdMode {
    if SIMD_OFF.load(Ordering::Relaxed) {
        SimdMode::Off
    } else {
        SimdMode::Identical
    }
}

/// Sets the process-global executor mode.
pub fn set_mode(m: SimdMode) {
    SIMD_OFF.store(m == SimdMode::Off, Ordering::Relaxed);
}

/// Routes a kernel to the backend for `tier`. The caller (the public
/// `*_in` wrappers) asserts tier availability first, which is what makes
/// entering the `#[target_feature]` AVX2 trampolines sound.
macro_rules! dispatch {
    ($tier:expr, $kernel:ident, $avx2fn:ident, ($($arg:expr),* $(,)?)) => {{
        match $tier {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: availability asserted by the caller.
            SimdTier::Avx2 => unsafe { crate::x86::$avx2fn($($arg),*) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: SSE2 is baseline on x86-64.
            SimdTier::Sse2 => unsafe {
                crate::kernels::$kernel::<core::arch::x86_64::__m128d>($($arg),*)
            },
            #[cfg(target_arch = "aarch64")]
            // SAFETY: NEON is baseline on aarch64.
            SimdTier::Neon => unsafe {
                crate::kernels::$kernel::<core::arch::aarch64::float64x2_t>($($arg),*)
            },
            // SAFETY: the scalar backend has no ISA requirements; the raw
            // pointers come from live slices sized by the caller.
            _ => unsafe { crate::kernels::$kernel::<f64>($($arg),*) },
        }
    }};
}

#[inline]
fn check_tier(tier: SimdTier) -> SimdTier {
    assert!(
        tier.is_available(),
        "SIMD tier {tier} is not available on this host"
    );
    tier
}

/// In-place `xs[i] += delta` — the unconditional `DelayValue::delayed`
/// semantics (`+0.0` flattens `-0.0`).
pub fn add_units(xs: &mut [f64], delta: f64) {
    add_units_in(active_tier(), xs, delta);
}

/// [`add_units`] pinned to an explicit tier.
///
/// # Panics
///
/// If `tier` is not available on this host.
pub fn add_units_in(tier: SimdTier, xs: &mut [f64], delta: f64) {
    let tier = check_tier(tier);
    dispatch!(
        tier,
        add_units_raw,
        add_units_avx2,
        (xs.as_mut_ptr(), delta, xs.len())
    );
}

/// Weighted leaf fill: `out[i] = px[i * stride] + w`, truncated to never
/// (`+∞`) when the sum exceeds `truncate_at`.
///
/// # Panics
///
/// If `px` is shorter than the `(out.len() - 1) * stride + 1` elements the
/// gather reads.
pub fn weighted_leaves(px: &[f64], stride: usize, w: f64, truncate_at: f64, out: &mut [f64]) {
    weighted_leaves_in(active_tier(), px, stride, w, truncate_at, out);
}

/// [`weighted_leaves`] pinned to an explicit tier.
///
/// # Panics
///
/// As [`weighted_leaves`], plus if `tier` is unavailable.
pub fn weighted_leaves_in(
    tier: SimdTier,
    px: &[f64],
    stride: usize,
    w: f64,
    truncate_at: f64,
    out: &mut [f64],
) {
    let tier = check_tier(tier);
    if out.is_empty() {
        return;
    }
    assert!(stride > 0, "stride must be positive");
    assert!(
        px.len() > (out.len() - 1) * stride,
        "pixel row too short for leaf fill: {} pixels, need {}",
        px.len(),
        (out.len() - 1) * stride + 1
    );
    dispatch!(
        tier,
        weighted_leaves_raw,
        weighted_leaves_avx2,
        (
            px.as_ptr(),
            stride,
            w,
            truncate_at,
            out.as_mut_ptr(),
            out.len()
        )
    );
}

/// Batched min-of-max approximate nLSE:
/// `out[i] = approx_eval(a[i] ⊕ au, b[i] ⊕ bu) + k` with `⊕` the balance
/// add (skipped when the unit count is exactly `0.0`) and `k` the unit's
/// completion-detect latency, added unconditionally: bit-for-bit the
/// scalar `TreeOps::balance` + `NlseUnit::eval_ideal` composition on
/// every tier.
///
/// # Panics
///
/// If `a`, `b` and `out` differ in length.
pub fn nlse_approx_rows(
    a: &[f64],
    au: f64,
    b: &[f64],
    bu: f64,
    terms: &[(f64, f64)],
    k: f64,
    out: &mut [f64],
) {
    nlse_approx_rows_in(active_tier(), a, au, b, bu, terms, k, out);
}

/// [`nlse_approx_rows`] pinned to an explicit tier.
///
/// # Panics
///
/// As [`nlse_approx_rows`], plus if `tier` is unavailable.
#[allow(clippy::too_many_arguments)]
pub fn nlse_approx_rows_in(
    tier: SimdTier,
    a: &[f64],
    au: f64,
    b: &[f64],
    bu: f64,
    terms: &[(f64, f64)],
    k: f64,
    out: &mut [f64],
) {
    let tier = check_tier(tier);
    assert_eq!(a.len(), out.len(), "operand/output length mismatch");
    assert_eq!(b.len(), out.len(), "operand/output length mismatch");
    dispatch!(
        tier,
        nlse_approx_rows_raw,
        nlse_approx_rows_avx2,
        (
            a.as_ptr(),
            au,
            b.as_ptr(),
            bu,
            terms,
            k,
            out.as_mut_ptr(),
            out.len()
        )
    );
}

/// In-place accumulate form of [`nlse_approx_rows`]:
/// `acc[i] = approx_eval(x[i] ⊕ xu, acc[i] ⊕ acc_units) + k` — the spine
/// combine step of the planned executor.
///
/// # Panics
///
/// If `x` and `acc` differ in length.
pub fn nlse_approx_rows_inplace(
    x: &[f64],
    xu: f64,
    acc: &mut [f64],
    acc_units: f64,
    terms: &[(f64, f64)],
    k: f64,
) {
    nlse_approx_rows_inplace_in(active_tier(), x, xu, acc, acc_units, terms, k);
}

/// [`nlse_approx_rows_inplace`] pinned to an explicit tier.
///
/// # Panics
///
/// As [`nlse_approx_rows_inplace`], plus if `tier` is unavailable.
pub fn nlse_approx_rows_inplace_in(
    tier: SimdTier,
    x: &[f64],
    xu: f64,
    acc: &mut [f64],
    acc_units: f64,
    terms: &[(f64, f64)],
    k: f64,
) {
    let tier = check_tier(tier);
    assert_eq!(x.len(), acc.len(), "operand/accumulator length mismatch");
    dispatch!(
        tier,
        nlse_approx_rows_raw,
        nlse_approx_rows_avx2,
        (
            x.as_ptr(),
            xu,
            acc.as_ptr(),
            acc_units,
            terms,
            k,
            acc.as_mut_ptr(),
            acc.len()
        )
    );
}

/// Batched exact nLSE with balance units:
/// `out[i] = nlse(a[i] ⊕ au, b[i] ⊕ bu)`, bit-for-bit `ops::nlse` (libm
/// transcendentals, identical guard order). Scalar on every tier — the
/// exact operator is transcendental-bound, so the batch form exists for
/// the executor's row layout, not lane parallelism.
///
/// # Panics
///
/// If `a`, `b` and `out` differ in length.
pub fn nlse_exact_rows(a: &[f64], au: f64, b: &[f64], bu: f64, out: &mut [f64]) {
    assert_eq!(a.len(), out.len(), "operand/output length mismatch");
    assert_eq!(b.len(), out.len(), "operand/output length mismatch");
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = scalar::nlse_exact_one(x, au, y, bu);
    }
}

/// In-place accumulate form of [`nlse_exact_rows`] (exact-mode spine
/// combine): `acc[i] = nlse(x[i] ⊕ xu, acc[i] ⊕ acc_units)`.
///
/// # Panics
///
/// If `x` and `acc` differ in length.
pub fn nlse_exact_rows_inplace(x: &[f64], xu: f64, acc: &mut [f64], acc_units: f64) {
    assert_eq!(x.len(), acc.len(), "operand/accumulator length mismatch");
    for (a, &xi) in acc.iter_mut().zip(x) {
        *a = scalar::nlse_exact_one(xi, xu, *a, acc_units);
    }
}

/// Every tier available on this host, scalar first — the sweep the parity
/// suites iterate.
#[must_use]
pub fn available_tiers() -> Vec<SimdTier> {
    [
        SimdTier::Scalar,
        SimdTier::Sse2,
        SimdTier::Avx2,
        SimdTier::Neon,
    ]
    .into_iter()
    .filter(|t| t.is_available())
    .collect()
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    #[test]
    fn tier_parse_and_display_round_trip() {
        for t in [
            SimdTier::Scalar,
            SimdTier::Sse2,
            SimdTier::Avx2,
            SimdTier::Neon,
        ] {
            assert_eq!(t.as_str().parse::<SimdTier>().unwrap(), t);
        }
        assert!("mmx".parse::<SimdTier>().is_err());
    }

    #[test]
    fn scalar_tier_is_always_available() {
        assert!(SimdTier::Scalar.is_available());
        assert!(available_tiers().contains(&SimdTier::Scalar));
        assert!(detected_tier().is_available());
    }

    #[test]
    fn force_tier_rejects_unavailable() {
        let unavailable = [SimdTier::Sse2, SimdTier::Avx2, SimdTier::Neon]
            .into_iter()
            .find(|t| !t.is_available());
        if let Some(t) = unavailable {
            assert_eq!(force_tier(Some(t)), Err(TierUnavailable { requested: t }));
        }
    }

    #[test]
    fn add_units_matches_plain_add_everywhere() {
        let src: Vec<f64> = (0..13).map(|i| f64::from(i) * 0.37 - 2.0).collect();
        for &tier in &available_tiers() {
            let mut xs = src.clone();
            add_units_in(tier, &mut xs, 1.25);
            for (i, (&got, &s)) in xs.iter().zip(&src).enumerate() {
                assert_eq!(got.to_bits(), (s + 1.25).to_bits(), "tier {tier} idx {i}");
            }
        }
        // The +0.0 delta flattens -0.0, like DelayValue::delayed(0.0).
        let mut xs = [-0.0_f64; 5];
        add_units(&mut xs, 0.0);
        for &x in &xs {
            assert_eq!(x.to_bits(), 0.0_f64.to_bits());
        }
    }

    #[test]
    fn approx_rows_cross_tier_bit_identity_smoke() {
        let terms = [
            (0.470_116, 0.102_893),
            (1.091_035, 0.008_747),
            (2.3, 0.000_1),
        ];
        let a: Vec<f64> = (0..17).map(|i| f64::from(i).mul_add(0.61, -1.5)).collect();
        let b: Vec<f64> = (0..17).map(|i| f64::from(i).mul_add(-0.23, 3.0)).collect();
        let mut want = vec![0.0; a.len()];
        nlse_approx_rows_in(SimdTier::Scalar, &a, 0.5, &b, 0.0, &terms, 0.25, &mut want);
        for (i, w) in want.iter().enumerate() {
            let one = scalar::nlse_approx_one(a[i], 0.5, b[i], 0.0, &terms, 0.25);
            assert_eq!(w.to_bits(), one.to_bits());
        }
        for &tier in &available_tiers() {
            let mut got = vec![0.0; a.len()];
            nlse_approx_rows_in(tier, &a, 0.5, &b, 0.0, &terms, 0.25, &mut got);
            assert_eq!(
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "tier {tier}"
            );
            // In-place form agrees with the out-of-place form.
            let mut acc = b.clone();
            nlse_approx_rows_inplace_in(tier, &a, 0.5, &mut acc, 0.0, &terms, 0.25);
            assert_eq!(
                acc.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "tier {tier} inplace"
            );
        }
    }
}
