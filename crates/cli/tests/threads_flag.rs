//! `--threads N` must size the frame engine's worker pool. Observed in a
//! fresh process through the `--metrics` snapshot: every parallel
//! `Pool::run` records one `ta_pool_worker_busy_seconds` sample per worker
//! it spawned, and a one-worker pool runs inline on the calling thread
//! without spawning any.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::process::Command;

/// Pool worker samples recorded by one `tconv run` at `threads` workers.
fn worker_samples(threads: &str) -> u64 {
    let prom = std::env::temp_dir().join(format!(
        "tconv_threads_{}_{threads}.prom",
        std::process::id()
    ));
    let out = Command::new(env!("CARGO_BIN_EXE_tconv"))
        .args([
            "run",
            "--demo",
            "--size",
            "24",
            "--kernel",
            "sobel",
            "--mode",
            "approx",
            "--threads",
            threads,
            "--metrics",
        ])
        .arg(&prom)
        .output()
        .expect("spawn tconv");
    assert!(
        out.status.success(),
        "tconv failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&prom).expect("metrics snapshot written");
    std::fs::remove_file(&prom).ok();
    text.lines()
        .find_map(|l| l.strip_prefix("ta_pool_worker_busy_seconds_count "))
        .map_or(0, |v| v.trim().parse().expect("numeric sample count"))
}

#[test]
fn threads_flag_sizes_the_frame_pool() {
    // One worker: both frame stages run inline, so no worker is spawned.
    assert_eq!(worker_samples("1"), 0, "--threads 1 spawned pool workers");
    // Three workers (more than this host may have cores): every parallel
    // run spawns exactly three.
    let three = worker_samples("3");
    assert!(
        three > 0 && three.is_multiple_of(3),
        "--threads 3 recorded {three} worker samples, not a multiple of 3"
    );
}
