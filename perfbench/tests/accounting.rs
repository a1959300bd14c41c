//! Layer accounting on the serve path: the per-layer split must add up to
//! what the client waits for.
//!
//! `serve.transport_ms` is defined as round trip − server time, so the
//! split with it sums to the round trip by construction. This check uses
//! `serve.transport_est_ms` instead — Ping round trips plus replayed wire
//! encode/decode, measured without the server's clock — so it fails when
//! the registry's layer timings stop covering the round trip (a missing
//! or double-counted phase) or cover a different set of frames.

use perfbench::{run, Config, Workload};

/// Largest share of the mean round trip the independently measured parts
/// may miss or overshoot by. The parts leave out the socket copy of the
/// frame, which is 2–7% of the round trip on the reference host.
const ACCOUNTING_BOUND: f64 = 0.15;

// One test, workloads in sequence: the registry is process-global, so
// concurrent workloads would see each other's frames.
#[test]
fn serve_layers_account_for_the_round_trip() {
    for workload in [Workload::ServeSobel150, Workload::ServeSmallMix] {
        let cfg = Config {
            workload,
            seed: 7,
            seconds: 4.0,
            trace: true,
        };
        let report = run(&cfg).expect("workload runs");
        let name = workload.name();
        assert!(report.correct, "{name}: {:?}", report.problems);
        assert_eq!(report.failed, 0, "{name}: frames failed");
        let a = report
            .accounting
            .expect("traced serve runs carry accounting");

        assert!(a.submitted > 0, "{name}: nothing sent");
        assert_eq!(
            a.server_timed, a.submitted,
            "{name}: server timed other frames"
        );
        assert_eq!(
            a.supervised, a.submitted,
            "{name}: supervisor ran other frames"
        );
        assert_eq!(
            a.executed, a.attempts,
            "{name}: exec runs differ from attempts"
        );

        let parts = [
            ("core.exec_ms", a.exec_ms),
            ("runtime.overhead_ms", a.runtime_overhead_ms),
            ("serve.overhead_ms", a.serve_overhead_ms),
            ("serve.transport_est_ms", a.transport_est_ms),
        ];
        for (part, ms) in parts {
            assert!(ms >= 0.0, "{name}: {part} = {ms} ms is negative");
        }
        let sum: f64 = parts.iter().map(|(_, ms)| ms).sum();
        let miss = (sum - a.round_trip_ms).abs() / a.round_trip_ms;
        assert!(
            miss <= ACCOUNTING_BOUND,
            "{name}: layers sum to {sum:.4} ms, round trip {:.4} ms ({:.1}% apart): {parts:?}",
            a.round_trip_ms,
            miss * 100.0
        );
    }
}
