//! SIMD dispatch parity for the planned executor (DESIGN.md §5.15): with
//! `SimdMode::Identical` — the default — the batched kernels must be
//! *bit-identical* to the scalar golden executor (`SimdMode::Off`) in
//! every [`ArithmeticMode`], with and without injected faults, at every
//! worker count, and at the detected and the forced-scalar ISA tier.
//!
//! Everything lives in ONE test function on purpose: both the worker
//! count (`ta_pool::set_threads`) and the SIMD mode/tier
//! (`ta_simd::{set_mode, force_tier}`) are process-globals, so sweeping
//! them from concurrently-running `#[test]` functions would race. One
//! function in its own integration binary gives the sweep a private
//! process.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use ta_core::fault::{FaultMap, FaultModel};
use ta_core::{exec, ArchConfig, Architecture, ArithmeticMode, RunResult, SystemDescription};
use ta_image::{synth, Kernel};
use ta_simd::{SimdMode, SimdTier};

fn assert_bit_identical(a: &RunResult, b: &RunResult, what: &str) {
    assert_eq!(a.outputs.len(), b.outputs.len(), "{what}: kernel count");
    for (k, (ia, ib)) in a.outputs.iter().zip(&b.outputs).enumerate() {
        for (i, (pa, pb)) in ia.pixels().iter().zip(ib.pixels()).enumerate() {
            assert_eq!(
                pa.to_bits(),
                pb.to_bits(),
                "{what}: kernel {k} pixel {i}: {pa} vs {pb}"
            );
        }
    }
    assert_eq!(a.fault_stats, b.fault_stats, "{what}: fault stats");
}

#[test]
fn simd_modes_agree_with_scalar_executor() {
    // Same geometry sweep as `plan_equivalence`: split-rail Sobel pair
    // with shared row classes at stride 1, single-rail 5×5 pyramid tap
    // at stride 2 (remainder tails: ow = 14 is not a multiple of any
    // lane count).
    let cases = [
        (vec![Kernel::sobel_x(), Kernel::sobel_y()], 1usize, 24usize),
        (vec![Kernel::pyr_down_5x5()], 2, 32),
    ];
    let modes = [
        ArithmeticMode::ImportanceExact,
        ArithmeticMode::DelayExact,
        ArithmeticMode::DelayApprox,
        ArithmeticMode::DelayApproxNoisy,
    ];

    for (kernels, stride, size) in cases {
        let desc =
            SystemDescription::new(size, size, kernels.clone(), stride).expect("geometry is valid");
        let arch = Architecture::new(desc, ArchConfig::fast_1ns(7, 20)).expect("schedule fits");
        let img = synth::natural_image(size, size, 11);
        let clean = FaultMap::new();
        let faults = FaultModel::with_rate(0.05)
            .expect("rate is a probability")
            .sample(&arch, 3);
        assert!(!faults.is_empty(), "fault case must actually inject");
        let name = kernels[0].name().to_string();

        for mode in modes {
            let fault_sets: &[(&str, &FaultMap)] = if mode == ArithmeticMode::ImportanceExact {
                &[("clean", &clean)]
            } else {
                &[("clean", &clean), ("faulty", &faults)]
            };
            for threads in [1usize, 4] {
                ta_pool::set_threads(threads);
                for &(fname, fmap) in fault_sets {
                    let what =
                        |leg: &str| format!("{name}@{threads} threads, {mode:?}, {fname}, {leg}");
                    // `run_faulty` rejects the importance mode; the clean
                    // legs go through the plain entry point.
                    let run_leg = |leg: &str| -> RunResult {
                        if fmap.is_empty() {
                            exec::run(&arch, &img, mode, 42).expect(leg)
                        } else {
                            exec::run_faulty(&arch, &img, mode, 42, fmap).expect(leg)
                        }
                    };

                    ta_simd::set_mode(SimdMode::Off);
                    let golden = run_leg("scalar run");

                    // Identical mode at the detected tier: bit-for-bit.
                    ta_simd::set_mode(SimdMode::Identical);
                    let ident = run_leg("identical run");
                    assert_bit_identical(&golden, &ident, &what("identical@detected"));

                    // Identical mode pinned to the scalar tier: the
                    // remainder-tail companions must agree too.
                    ta_simd::force_tier(Some(SimdTier::Scalar)).expect("scalar tier always exists");
                    let ident_scalar = run_leg("scalar-tier run");
                    assert_bit_identical(&golden, &ident_scalar, &what("identical@scalar"));
                    ta_simd::force_tier(None).expect("clearing the override");
                }
            }
        }
    }
    ta_pool::set_threads(0);
}
