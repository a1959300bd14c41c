//! Layered end-to-end benchmark of the temporal-convolution stack.
//!
//! Three workloads, each run in-process against the repository's crates:
//!
//! * `repro_fig12` — the Fig 12 design-space sweep (`ta-experiments`,
//!   `ta-core` noisy mode, `ta-pool`);
//! * `serve_sobel150` — paper-sized 150×150 Sobel frames through
//!   `ta-serve` / `ta-runtime` on one closed-loop connection;
//! * `serve_small_mix` — 24×24 frames over a skewed spec mix larger than
//!   the plan cache, with the journal on, on one connection.
//!
//! An untraced run reports the end-to-end metrics. A traced run reports
//! per-layer metrics, measured from outside the program: benchmark-side
//! spans around every call into a layer, plus the process-global
//! `ta_telemetry::metrics()` registry the shipped path already fills.

pub mod layers;
pub mod repro;
pub mod serve;
pub mod sys;
pub mod trace;

use std::fs;
use std::path::PathBuf;
use std::time::Instant;

use ta_telemetry::ExactHistogram;

use crate::layers::{ratio, Census, Snapshot};
use crate::repro::Repro;
use crate::serve::Served;
use crate::trace::Spans;

/// Where runs keep scratch files and span dumps, relative to the working
/// directory (the checkout root).
pub const RUN_DIR: &str = ".perfbench_run";

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Fig 12 design-space sweep.
    ReproFig12,
    /// 150×150 Sobel frames through the server, one connection.
    ServeSobel150,
    /// Small frames over a skewed spec mix, journal on, one connection.
    ServeSmallMix,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::ReproFig12,
        Workload::ServeSobel150,
        Workload::ServeSmallMix,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReproFig12 => "repro_fig12",
            Workload::ServeSobel150 => "serve_sobel150",
            Workload::ServeSmallMix => "serve_small_mix",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn shape(self) -> Option<serve::Shape> {
        match self {
            Workload::ReproFig12 => None,
            Workload::ServeSobel150 => Some(serve::sobel150()),
            Workload::ServeSmallMix => Some(serve::small_mix()),
        }
    }
}

/// One run's settings.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
}

/// A named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value, as measured.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// One stretch of a measured phase: a fixed-length time window of a
/// serve phase, or one whole sweep of `repro_fig12`.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Wall time, s.
    pub wall_s: f64,
    /// Process CPU (user + system, all threads), s.
    pub cpu_s: f64,
    /// Share of the machine's vCPU time the hypervisor stole.
    pub steal_share: f64,
    /// Checked frames completed.
    pub ok: u64,
    /// Latency samples completed in the window, ms.
    pub latencies_ms: Vec<f64>,
}

impl Window {
    /// The window between two marks, holding `latencies_ms`.
    pub fn between(from: &sys::Mark, to: &sys::Mark, latencies_ms: Vec<f64>) -> Window {
        let wall_s = to.at_s - from.at_s;
        Window {
            wall_s,
            cpu_s: to.cpu_s - from.cpu_s,
            steal_share: ratio(to.steal_s - from.steal_s, wall_s * sys::host_cores() as f64),
            ok: latencies_ms.len() as u64,
            latencies_ms,
        }
    }
}

/// Windows in which the hypervisor stole more than this share of the
/// machine's vCPU time are left out of the medians: steal is other
/// guests' load, which no change to this program can cause or cure.
const MAX_STEAL_SHARE: f64 = 0.03;

/// Windows need this many latency samples for their own percentiles;
/// with fewer (`repro_fig12`'s one sweep per window) the samples of all
/// windows are pooled.
const MIN_WINDOW_SAMPLES: usize = 20;

/// End-to-end tallies of one measured phase.
///
/// Rates and percentiles are medians over the phase's quiet windows, so a
/// burst of contention from outside the benchmark moves a window, not the
/// run.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Wall time of the whole phase, s.
    pub wall_s: f64,
    /// Frames attempted.
    pub attempted: u64,
    /// Frames completed whose outputs passed their check.
    pub ok: u64,
    /// Frames whose outputs failed their check.
    pub mismatched: u64,
    /// Sum of every checked frame's round trip, ms (the windows drop the
    /// tail after the last window boundary; this does not). Serve phases
    /// only.
    pub latency_sum_ms: f64,
    /// Full-length windows, in order.
    pub windows: Vec<Window>,
}

fn median(values: &[f64]) -> f64 {
    ExactHistogram::from_samples(values).percentile(0.5)
}

impl Phase {
    /// The windows the medians use: those with at most
    /// [`MAX_STEAL_SHARE`] stolen, or, when fewer than a third of the
    /// windows qualify, the least-stolen third.
    pub fn quiet_windows(&self) -> Vec<&Window> {
        let quiet: Vec<&Window> = self
            .windows
            .iter()
            .filter(|w| w.steal_share <= MAX_STEAL_SHARE)
            .collect();
        let third = self.windows.len().div_ceil(3);
        if quiet.len() >= third {
            return quiet;
        }
        let mut by_steal: Vec<&Window> = self.windows.iter().collect();
        by_steal.sort_by(|a, b| a.steal_share.total_cmp(&b.steal_share));
        by_steal.truncate(third);
        by_steal
    }

    /// Frames that failed for any reason.
    pub fn failed(&self) -> u64 {
        self.attempted - self.ok
    }

    /// Median over windows of checked frames per wall-clock second.
    pub fn throughput_fps(&self) -> f64 {
        let rates: Vec<f64> = self
            .quiet_windows()
            .iter()
            .map(|w| ratio(w.ok as f64, w.wall_s))
            .collect();
        median(&rates)
    }

    /// Median over windows of process CPU per checked frame, ms.
    pub fn cpu_ms_per_frame(&self) -> f64 {
        let per_frame: Vec<f64> = self
            .quiet_windows()
            .iter()
            .map(|w| ratio(w.cpu_s * 1e3, w.ok as f64))
            .collect();
        median(&per_frame)
    }

    /// Latency percentile `q`, ms: the median over quiet windows of each
    /// window's nearest-rank percentile, or the percentile of their pooled
    /// samples when windows are too small for their own.
    pub fn latency_ms(&self, q: f64) -> f64 {
        let quiet = self.quiet_windows();
        let per_window: Vec<f64> = quiet
            .iter()
            .filter(|w| w.latencies_ms.len() >= MIN_WINDOW_SAMPLES)
            .map(|w| ExactHistogram::from_samples(&w.latencies_ms).percentile(q))
            .collect();
        if !per_window.is_empty() {
            return median(&per_window);
        }
        let pooled: Vec<f64> = quiet
            .iter()
            .flat_map(|w| w.latencies_ms.iter().copied())
            .collect();
        ExactHistogram::from_samples(&pooled).percentile(q)
    }

    /// Mean round trip over every checked frame, ms (serve phases).
    pub fn mean_latency_ms(&self) -> f64 {
        ratio(self.latency_sum_ms, self.ok as f64)
    }

    /// Adds `other`'s tallies and windows to this phase.
    pub fn merge(&mut self, other: &Phase) {
        self.wall_s += other.wall_s;
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.mismatched += other.mismatched;
        self.latency_sum_ms += other.latency_sum_ms;
        self.windows.extend_from_slice(&other.windows);
    }

    /// One line on how the figures were sampled.
    pub fn sampling(&self) -> String {
        let quiet = self.quiet_windows();
        let steal: Vec<f64> = self.windows.iter().map(|w| w.steal_share).collect();
        format!(
            "{} windows, {} quiet (median steal {:.1}%), {} latency samples in the quiet ones",
            self.windows.len(),
            quiet.len(),
            median(&steal) * 100.0,
            quiet.iter().map(|w| w.latencies_ms.len()).sum::<usize>()
        )
    }

    fn end_to_end(&self, peak_rss_mb: f64) -> Vec<Metric> {
        vec![
            metric("throughput_fps", self.throughput_fps(), "1/s"),
            metric("cpu_ms_per_frame", self.cpu_ms_per_frame(), "ms"),
            metric("lat_p50_ms", self.latency_ms(0.5), "ms"),
            metric("lat_p90_ms", self.latency_ms(0.9), "ms"),
            metric("peak_rss_mb", peak_rss_mb, "MiB"),
        ]
    }
}

/// The independently measured parts of a serve round trip, for the
/// layer-accounting check, with the populations they were measured over.
#[derive(Debug, Clone, Copy, Default)]
pub struct Accounting {
    /// Client mean round trip of a checked frame, ms.
    pub round_trip_ms: f64,
    /// Mean `exec::run`, ms (`ta_core_frame_seconds`).
    pub exec_ms: f64,
    /// Supervised frame minus exec, ms (`ta_runtime_frame_seconds`).
    pub runtime_overhead_ms: f64,
    /// Server-side submission minus supervised frame, ms
    /// (`ta_serve_latency_seconds`).
    pub serve_overhead_ms: f64,
    /// Ping round trip plus replayed wire encode/decode, ms.
    pub transport_est_ms: f64,
    /// Submissions the clients sent.
    pub submitted: u64,
    /// Submissions the server timed.
    pub server_timed: u64,
    /// Frames the supervisor ran.
    pub supervised: u64,
    /// Attempts the supervisor made.
    pub attempts: u64,
    /// Frames `exec::run` executed.
    pub executed: u64,
}

/// What one run produced.
#[derive(Debug)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Frames attempted in the measured phase(s).
    pub attempted: u64,
    /// Frames failed in the measured phase(s).
    pub failed: u64,
    /// This process's set-up time, s.
    pub setup_s: f64,
    /// End-to-end metrics (without `setup_s`) or per-layer metrics.
    pub metrics: Vec<Metric>,
    /// The environment record, as a JSON object.
    pub env: String,
    /// Why a check failed, one line each.
    pub problems: Vec<String>,
    /// How the end-to-end figures were sampled (windows, steal).
    pub sampling: String,
    /// Layer accounting of the serve path (traced serve runs).
    pub accounting: Option<Accounting>,
    /// Spans of a traced run, one recorder per thread.
    pub spans: Vec<Spans>,
}

impl Report {
    fn new(setup_s: f64, env: String) -> Report {
        Report {
            correct: true,
            attempted: 0,
            failed: 0,
            setup_s,
            metrics: Vec::new(),
            env,
            problems: Vec::new(),
            sampling: String::new(),
            accounting: None,
            spans: Vec::new(),
        }
    }
}

/// A fresh scratch directory under [`RUN_DIR`].
///
/// # Errors
///
/// A message when the directory cannot be created.
pub fn scratch_dir() -> Result<PathBuf, String> {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.subsec_nanos());
    let dir = PathBuf::from(RUN_DIR).join(format!("tmp-{}-{nanos}", std::process::id()));
    fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// Runs only the workload's set-up and returns its time, s.
///
/// # Errors
///
/// A message when set-up fails.
pub fn setup_only(workload: Workload, seed: u64) -> Result<f64, String> {
    let mut spans = Spans::new(false, Instant::now(), "probe");
    match workload.shape() {
        None => Repro::start(seed, &mut spans).map(|(_, s)| s),
        Some(shape) => {
            let (served, s) = Served::start(shape, seed, &mut spans)?;
            served.stop()?;
            Ok(s)
        }
    }
}

/// Runs one workload.
///
/// # Errors
///
/// A message when the workload cannot be set up or driven at all; output
/// check failures are reported in [`Report::correct`] instead.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let epoch = Instant::now();
    let mut spans = Spans::new(cfg.trace, epoch, "main");
    match cfg.workload.shape() {
        None => run_repro(cfg, epoch, spans),
        Some(shape) => {
            let geometry = format!(
                "{e}x{e}, {} spec(s), {} connection(s), journal {}",
                shape.specs.len(),
                serve::CONNECTIONS,
                if shape.journal { "on" } else { "off" },
                e = shape.edge
            );
            let env = env_json(cfg, &mode_names(&shape), &geometry);
            let (mut served, setup_s) = Served::start(shape, cfg.seed, &mut spans)?;
            let out = drive_serve(cfg, epoch, &mut served, spans, Report::new(setup_s, env));
            served.stop()?;
            out
        }
    }
}

fn mode_names(shape: &serve::Shape) -> String {
    let mut modes: Vec<&str> = shape.specs.iter().map(|(s, _)| s.mode_name()).collect();
    modes.sort_unstable();
    modes.dedup();
    modes.join("+")
}

fn drive_serve(
    cfg: &Config,
    epoch: Instant,
    served: &mut Served,
    mut spans: Spans,
    mut report: Report,
) -> Result<Report, String> {
    let deadline = |s: f64| Instant::now() + std::time::Duration::from_secs_f64(s);
    if !cfg.trace {
        let driven = served.drive(deadline(cfg.seconds), false, epoch);
        tally(&mut report, &driven.phase, "serve");
        report.metrics = driven.phase.end_to_end(served.peak_rss_mb());
        report.sampling = driven.phase.sampling();
        return Ok(report);
    }
    // Untraced and traced quarters alternate, so drift over the run does
    // not read as tracing overhead; the registry delta covers all four.
    let quarter = cfg.seconds / 4.0;
    let before = Snapshot::take();
    let mut untraced = served.drive(deadline(quarter), false, epoch);
    let mut traced = served.drive(deadline(quarter), true, epoch);
    untraced.merge(served.drive(deadline(quarter), false, epoch));
    traced.merge(served.drive(deadline(quarter), true, epoch));
    let delta = Snapshot::take().since(&before);
    let codec = served.replay(&traced.sent, &mut spans)?;
    tally(&mut report, &untraced.phase, "serve");
    tally(&mut report, &traced.phase, "serve");
    let mut all = untraced.phase.clone();
    all.merge(&traced.phase);
    let acc = accounting(&all, &traced.pings_ms, &delta, codec);
    report.spans.push(spans);
    report.spans.extend(traced.spans);
    report.metrics = per_layer(&LayerInputs {
        spans: &report.spans,
        engine: delta,
        served: delta,
        census: served.census(),
        exec_share: ratio(delta.core_s, delta.serve_s),
        untraced: &untraced.phase,
        traced: &traced.phase,
        acc,
        codec,
    });
    report.accounting = Some(acc);
    Ok(report)
}

fn run_repro(cfg: &Config, epoch: Instant, mut spans: Spans) -> Result<Report, String> {
    let (mut repro, setup_s) = Repro::start(cfg.seed, &mut spans)?;
    let geometry = format!(
        "{e}x{e} sobel pair, 75 design points, 1 image per point",
        e = repro::EDGE
    );
    let mut report = Report::new(setup_s, env_json(cfg, "noisy", &geometry));
    if !cfg.trace {
        let (phase, problems) = repro.phase(cfg.seconds, &mut spans);
        tally(&mut report, &phase, "repro");
        report.problems.extend(problems);
        report.metrics = phase.end_to_end(sys::peak_rss_mb());
        report.sampling = phase.sampling();
        return Ok(report);
    }
    let quarter = cfg.seconds / 4.0;
    let mut quiet = Spans::new(false, epoch, "");
    let before = Snapshot::take();
    let mut untraced = Phase::default();
    let mut traced = Phase::default();
    for q in 0..4 {
        let is_traced = q % 2 == 1;
        let recorder = if is_traced { &mut spans } else { &mut quiet };
        let (phase, problems) = repro.phase(quarter, recorder);
        report.problems.extend(problems);
        if is_traced {
            traced.merge(&phase);
        } else {
            untraced.merge(&phase);
        }
    }
    let engine = Snapshot::take().since(&before);
    tally(&mut report, &untraced, "repro");
    tally(&mut report, &traced, "repro");
    report.spans.push(spans);
    let threads = ta_pool::Pool::current().threads() as f64;
    // The sweep bypasses the server, the runtime and the journal, so their
    // layers read 0.
    report.metrics = per_layer(&LayerInputs {
        spans: &report.spans,
        engine,
        served: Snapshot::default(),
        census: Census::of(&engine),
        exec_share: ratio(engine.core_s, threads * (untraced.wall_s + traced.wall_s)),
        untraced: &untraced,
        traced: &traced,
        acc: Accounting::default(),
        codec: [0.0; 4],
    });
    Ok(report)
}

fn tally(report: &mut Report, phase: &Phase, what: &str) {
    report.attempted += phase.attempted;
    report.failed += phase.failed();
    if phase.mismatched > 0 {
        report.correct = false;
        report.problems.push(format!(
            "{what}: {} of {} frames failed their output check",
            phase.mismatched, phase.attempted
        ));
    }
}

/// Layer accounting over `all`, the frames the registry delta covers;
/// the transport estimate uses the pings of the traced segments.
fn accounting(all: &Phase, pings_ms: &[f64], delta: &Snapshot, codec: [f64; 4]) -> Accounting {
    let pings = ratio(pings_ms.iter().sum(), pings_ms.len() as f64);
    Accounting {
        round_trip_ms: all.mean_latency_ms(),
        exec_ms: delta.exec_ms(),
        runtime_overhead_ms: delta.frame_ms() - delta.exec_ms(),
        serve_overhead_ms: delta.server_ms() - delta.frame_ms(),
        transport_est_ms: pings + (codec[0] + codec[1] + codec[2]) / 1e3,
        submitted: all.attempted,
        server_timed: delta.serve_n,
        supervised: delta.rt_frames,
        attempts: delta.rt_attempts,
        executed: delta.core_frames,
    }
}

struct LayerInputs<'a> {
    spans: &'a [Spans],
    /// Registry delta over the phase whose frames `core`/`pool` describe.
    engine: Snapshot,
    /// Registry delta over the frames that went through the server.
    served: Snapshot,
    census: Census,
    exec_share: f64,
    untraced: &'a Phase,
    traced: &'a Phase,
    acc: Accounting,
    codec: [f64; 4],
}

fn per_layer(i: &LayerInputs) -> Vec<Metric> {
    let (e, s) = (&i.engine, &i.served);
    let threads = ta_pool::Pool::current().threads();
    let server_ms = s.server_ms();
    let wall_s = i.untraced.wall_s + i.traced.wall_s;
    let frames = (i.untraced.ok + i.traced.ok) as f64;
    vec![
        metric("approx.fit_ms", trace::mean_ms(i.spans, "approx.fit"), "ms"),
        metric(
            "core.arch_compile_ms",
            trace::mean_ms(i.spans, "core.compile"),
            "ms",
        ),
        metric("core.exec_ms", e.exec_ms(), "ms"),
        metric("core.exec_share", i.exec_share, "fraction"),
        metric(
            "core.plan_row_reuse",
            ratio(
                e.rows_reused as f64,
                (e.rows_reused + e.rows_computed) as f64,
            ),
            "fraction",
        ),
        metric("core.nlse_ops", i.census.nlse_ops, "count"),
        metric("core.nlde_ops", i.census.nlde_ops, "count"),
        metric("core.vtc_conversions", i.census.vtc_conversions, "count"),
        metric("core.energy_pj", i.census.energy_pj, "pJ"),
        metric("pool.threads", threads as f64, "count"),
        metric(
            "pool.busy_frac",
            ratio(e.pool_busy_s, threads as f64 * wall_s),
            "fraction",
        ),
        metric(
            "pool.steals",
            ratio(e.pool_steals as f64, frames),
            "1/frame",
        ),
        metric("runtime.frame_ms", s.frame_ms(), "ms"),
        metric(
            "runtime.attempt_ms",
            ratio(s.rt_attempt_s * 1e3, s.rt_attempts as f64),
            "ms",
        ),
        metric("runtime.overhead_ms", i.acc.runtime_overhead_ms, "ms"),
        metric(
            "runtime.attempts_per_frame",
            ratio(s.rt_attempts as f64, s.rt_frames as f64),
            "count",
        ),
        metric("serve.server_ms", server_ms, "ms"),
        metric("serve.overhead_ms", i.acc.serve_overhead_ms, "ms"),
        metric("serve.round_trip_ms", i.acc.round_trip_ms, "ms"),
        metric("serve.transport_ms", i.acc.round_trip_ms - server_ms, "ms"),
        metric("serve.transport_est_ms", i.acc.transport_est_ms, "ms"),
        metric(
            "serve.plan_hit_frac",
            ratio(s.plan_hits as f64, (s.plan_hits + s.plan_misses) as f64),
            "fraction",
        ),
        metric("serve.wire_encode_us", i.codec[0], "us"),
        metric("serve.wire_decode_us", i.codec[1], "us"),
        metric("journal.append_us", i.codec[3], "us"),
        metric(
            "telemetry.trace_overhead",
            ratio(i.untraced.throughput_fps(), i.traced.throughput_fps()) - 1.0,
            "fraction",
        ),
    ]
}

fn env_json(cfg: &Config, mode: &str, geometry: &str) -> String {
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"host_cores\": {}, \"pool_threads\": {}, \"simd_tier\": \"{}\", \
         \"simd_mode\": \"{}\", \"git_rev\": \"{}\", \"mode\": \"{mode}\", \
         \"geometry\": \"{geometry}\"}}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        cfg.trace,
        sys::host_cores(),
        ta_pool::Pool::current().threads(),
        ta_simd::active_tier().as_str(),
        ta_simd::mode().as_str(),
        sys::git_revision(),
    )
}
