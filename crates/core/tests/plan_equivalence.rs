//! Golden equivalence tests for the compiled plan executor (ISSUE 5
//! acceptance gate, DESIGN.md §5.11): the optimised engine — flattened
//! tree program, row-class cache, parallel pool — must be *bit-identical*
//! to the serial recursive reference engine (`ta_core::reference`) in
//! every [`ArithmeticMode`], with and without injected faults, at every
//! worker count. A cache hit and a fresh recursive evaluation must carry
//! the same bits, or rolling-shutter row reuse would be an approximation
//! instead of an optimisation.
//!
//! Everything lives in ONE test function on purpose: the worker count is
//! a process-global (`ta_pool::set_threads`), so sweeping it from
//! concurrently-running `#[test]` functions would race. One function in
//! its own integration binary gives the sweep a private process.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use ta_core::fault::{FaultMap, FaultModel};
use ta_core::{
    exec, reference, ArchConfig, Architecture, ArithmeticMode, RunResult, SystemDescription,
};
use ta_image::{synth, Kernel};

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
    assert_eq!(a.ops, b.ops, "{what}: op counts");
}

#[test]
fn planned_executor_matches_recursive_reference() {
    // Split-rail kernels with shareable row classes (sobel rows 0/2), a
    // single-rail stride-2 pyramid tap (mirror rows 0/4 and 1/3), and
    // enough rows that 4 workers actually split the frame. Stride 1
    // maximises row reuse; stride 2 exercises partially-overlapping
    // windows.
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
        assert!(
            arch.plan().row_classes() < kernels.len() * 2 * kernels[0].height(),
            "{}: test case must actually share row classes",
            kernels[0].name()
        );
        let img = synth::natural_image(size, size, 11);
        let clean = FaultMap::new();
        let faults = FaultModel::with_rate(0.05)
            .expect("rate is a probability")
            .sample(&arch, 3);
        assert!(!faults.is_empty(), "fault case must actually inject");

        for mode in modes {
            let oracle = reference::run_frame(&arch, &img, mode, 42, &clean).expect("reference");
            let faulty_oracle = (mode != ArithmeticMode::ImportanceExact).then(|| {
                reference::run_frame(&arch, &img, mode, 42, &faults).expect("faulty reference")
            });

            for threads in [1usize, 4] {
                ta_pool::set_threads(threads);
                let planned = exec::run(&arch, &img, mode, 42).expect("planned run");
                assert_bit_identical(
                    &oracle,
                    &planned,
                    &format!("{}@{threads} threads, {mode:?}", kernels[0].name()),
                );
                if let Some(ref fo) = faulty_oracle {
                    let planned_faulty =
                        exec::run_faulty(&arch, &img, mode, 42, &faults).expect("planned faulty");
                    assert_bit_identical(
                        fo,
                        &planned_faulty,
                        &format!("{}@{threads} threads, {mode:?}, faulty", kernels[0].name()),
                    );
                }
            }
        }
    }
    ta_pool::set_threads(0);
}
