//! Reads the process-global `ta_telemetry::metrics()` registry that the
//! shipped path fills, as snapshots whose differences cover one phase.

use ta_telemetry::metrics;

/// Cumulative registry values at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct Snapshot {
    /// `ta_core_frame_seconds`: frames executed and their total seconds.
    pub core_frames: u64,
    /// Seconds inside `exec::run`.
    pub core_s: f64,
    /// Simulated nLSE operations.
    pub nlse_ops: u64,
    /// Simulated nLDE operations.
    pub nlde_ops: u64,
    /// Simulated VTC conversions.
    pub vtc_conversions: u64,
    /// Simulated energy, pJ.
    pub energy_pj: f64,
    /// Plan row cells evaluated.
    pub rows_computed: u64,
    /// Plan row cells served from the frame-local cache.
    pub rows_reused: u64,
    /// `ta_pool_worker_busy_seconds`: worker runs and busy seconds.
    pub pool_runs: u64,
    /// Worker busy seconds.
    pub pool_busy_s: f64,
    /// Work items stolen between pool workers.
    pub pool_steals: u64,
    /// `ta_runtime_frame_seconds`: supervised frames and seconds.
    pub rt_frames: u64,
    /// Supervised frame seconds.
    pub rt_frame_s: f64,
    /// `ta_runtime_attempt_seconds`: attempts and seconds.
    pub rt_attempts: u64,
    /// Attempt seconds.
    pub rt_attempt_s: f64,
    /// `ta_serve_latency_seconds`: submissions answered and seconds.
    pub serve_n: u64,
    /// Server-side seconds.
    pub serve_s: f64,
    /// Per-connection plan-cache hits.
    pub plan_hits: u64,
    /// Per-connection plan-cache misses.
    pub plan_misses: u64,
}

impl Snapshot {
    /// Reads the registry now.
    pub fn take() -> Snapshot {
        let m = metrics();
        let hist = |name: &str| {
            let h = m.histogram(name);
            (h.count(), h.sum())
        };
        let count = |name: &str| m.counter(name).get();
        let (core_frames, core_s) = hist("ta_core_frame_seconds");
        let (pool_runs, pool_busy_s) = hist("ta_pool_worker_busy_seconds");
        let (rt_frames, rt_frame_s) = hist("ta_runtime_frame_seconds");
        let (rt_attempts, rt_attempt_s) = hist("ta_runtime_attempt_seconds");
        let (serve_n, serve_s) = hist("ta_serve_latency_seconds");
        Snapshot {
            core_frames,
            core_s,
            nlse_ops: count("ta_core_nlse_ops_total"),
            nlde_ops: count("ta_core_nlde_ops_total"),
            vtc_conversions: count("ta_core_vtc_conversions_total"),
            energy_pj: m.gauge("ta_core_energy_pj_total").get(),
            rows_computed: count("ta_core_plan_rows_computed_total"),
            rows_reused: count("ta_core_plan_rows_reused_total"),
            pool_runs,
            pool_busy_s,
            pool_steals: count("ta_pool_steals_total"),
            rt_frames,
            rt_frame_s,
            rt_attempts,
            rt_attempt_s,
            serve_n,
            serve_s,
            plan_hits: count("ta_serve_plan_hits_total"),
            plan_misses: count("ta_serve_plan_misses_total"),
        }
    }

    /// What happened between `earlier` and `self`.
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            core_frames: self.core_frames - earlier.core_frames,
            core_s: self.core_s - earlier.core_s,
            nlse_ops: self.nlse_ops - earlier.nlse_ops,
            nlde_ops: self.nlde_ops - earlier.nlde_ops,
            vtc_conversions: self.vtc_conversions - earlier.vtc_conversions,
            energy_pj: self.energy_pj - earlier.energy_pj,
            rows_computed: self.rows_computed - earlier.rows_computed,
            rows_reused: self.rows_reused - earlier.rows_reused,
            pool_runs: self.pool_runs - earlier.pool_runs,
            pool_busy_s: self.pool_busy_s - earlier.pool_busy_s,
            pool_steals: self.pool_steals - earlier.pool_steals,
            rt_frames: self.rt_frames - earlier.rt_frames,
            rt_frame_s: self.rt_frame_s - earlier.rt_frame_s,
            rt_attempts: self.rt_attempts - earlier.rt_attempts,
            rt_attempt_s: self.rt_attempt_s - earlier.rt_attempt_s,
            serve_n: self.serve_n - earlier.serve_n,
            serve_s: self.serve_s - earlier.serve_s,
            plan_hits: self.plan_hits - earlier.plan_hits,
            plan_misses: self.plan_misses - earlier.plan_misses,
        }
    }

    /// Mean `exec::run` time, ms.
    pub fn exec_ms(&self) -> f64 {
        ratio(self.core_s * 1e3, self.core_frames as f64)
    }

    /// Mean supervised frame time, ms.
    pub fn frame_ms(&self) -> f64 {
        ratio(self.rt_frame_s * 1e3, self.rt_frames as f64)
    }

    /// Mean server-side submission time, ms.
    pub fn server_ms(&self) -> f64 {
        ratio(self.serve_s * 1e3, self.serve_n as f64)
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Simulated work per frame over a fixed frame set. The energy gauge is
/// summed in whatever order pool workers finish, so it is rounded to
/// 0.001 pJ to repeat exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Census {
    /// nLSE operations per frame.
    pub nlse_ops: f64,
    /// nLDE operations per frame.
    pub nlde_ops: f64,
    /// VTC conversions per frame.
    pub vtc_conversions: f64,
    /// Energy per frame, pJ.
    pub energy_pj: f64,
}

impl Census {
    /// The per-frame census of the frames `delta` covers.
    pub fn of(delta: &Snapshot) -> Census {
        let n = delta.core_frames as f64;
        Census {
            nlse_ops: ratio(delta.nlse_ops as f64, n),
            nlde_ops: ratio(delta.nlde_ops as f64, n),
            vtc_conversions: ratio(delta.vtc_conversions as f64, n),
            energy_pj: (ratio(delta.energy_pj, n) * 1e3).round() / 1e3,
        }
    }
}
