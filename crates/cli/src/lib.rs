//! Implementation of the `tconv` command-line tool: argument parsing and
//! the subcommand drivers, kept in a library so they can be tested.
//!
//! Subcommands:
//!
//! * `run` — convolve a PGM image through the delay-space engine;
//! * `describe` — print a compiled architecture's structure and costs;
//! * `explore` — sweep term counts / unit scales and print the Pareto set;
//! * `faults` — run a seeded fault-injection campaign and print the
//!   degradation report;
//! * `batch` — push a directory of PGM frames (or synthetic frames)
//!   through the supervised runtime: validation, timeouts, retry, and
//!   digital fallback, with a health report;
//! * `serve` — run the fault-tolerant streaming convolution service
//!   (length-prefixed binary protocol over TCP and/or a Unix socket,
//!   graceful SIGTERM drain);
//! * `kernels` — list the built-in kernels.
//!
//! No third-party argument parser: flags are simple `--key value` pairs.
//! Every failure path surfaces as a typed [`CliError`] — bad user input
//! prints one friendly line, never a panic backtrace — and each variant
//! maps to a distinct documented process exit code
//! ([`CliError::exit_code`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::error::Error;
use std::fmt;

use ta_circuits::UnitScale;
use ta_core::campaign::{self, CampaignConfig};
use ta_core::{
    exec, ArchConfig, Architecture, ArithmeticMode, FaultError, GateEngine, SystemDescription,
    SystemError,
};
use ta_image::pgm::PgmError;
use ta_image::{conv, metrics, pgm, synth, Image, Kernel};

/// Every way a `tconv` invocation can fail, typed so the binary can print
/// a single clean diagnostic line (and tests can assert on the cause).
#[derive(Debug)]
#[non_exhaustive]
pub enum CliError {
    /// A positional argument appeared where a `--flag` was expected.
    UnexpectedArgument(String),
    /// A `--flag` was given without its value.
    MissingValue(String),
    /// A flag's value failed to parse as the expected number.
    InvalidNumber {
        /// The flag.
        flag: String,
        /// The offending value.
        value: String,
    },
    /// The subcommand word is not one of the known commands.
    UnknownCommand(String),
    /// `--kernel` named no built-in kernel set.
    UnknownKernel(String),
    /// `--mode` named no arithmetic mode.
    UnknownMode(String),
    /// A flag combination is out of range (e.g. `--unit 0`).
    InvalidConfig(String),
    /// `run` was invoked with neither `--input` nor `--demo`.
    MissingInput,
    /// PGM I/O failed.
    Image(PgmError),
    /// The system description or architecture could not be compiled.
    System(SystemError),
    /// The engine rejected the run.
    Exec(exec::ExecError),
    /// The fault campaign configuration was invalid.
    Fault(FaultError),
    /// The supervised runtime was misconfigured.
    Runtime(ta_runtime::RuntimeError),
    /// A supervised batch left frames with no usable output; carries the
    /// full batch report so the diagnostics are not lost.
    BatchFailed {
        /// Frames with no usable output.
        failed: usize,
        /// The rendered batch report.
        report: String,
    },
    /// A telemetry artifact (`--trace`, `--metrics`, `--vcd`) could not
    /// be written.
    Telemetry(std::io::Error),
    /// The streaming service could not bind or run.
    Serve(ta_serve::ServeError),
    /// The write-ahead journal could not be created, resumed, or
    /// written (`--journal` / `--resume`).
    Journal(String),
    /// `profile` found a dynamic op count that disagrees with the static
    /// census — the simulator and the energy model have diverged.
    ProfileMismatch {
        /// Which op class disagreed.
        what: &'static str,
        /// The count the simulator observed.
        dynamic: u64,
        /// The count the energy model expected.
        expected: u64,
    },
    /// `top` could not connect to, scrape, or parse the server's metrics.
    Top(String),
    /// `inspect-bundle` could not read the file, or the bundle failed its
    /// schema check.
    Bundle(String),
}

impl CliError {
    /// The process exit code for this error, one distinct code per
    /// variant (see the `EXIT CODES` section of [`USAGE`]). Code 1 is
    /// left unused so a generic abort cannot be confused with a typed
    /// failure.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::UnexpectedArgument(_) => 2,
            CliError::MissingValue(_) => 3,
            CliError::InvalidNumber { .. } => 4,
            CliError::UnknownCommand(_) => 5,
            CliError::UnknownKernel(_) => 6,
            CliError::UnknownMode(_) => 7,
            CliError::InvalidConfig(_) => 8,
            CliError::MissingInput => 9,
            CliError::Image(_) => 10,
            CliError::System(_) => 11,
            CliError::Exec(_) => 12,
            CliError::Fault(_) => 13,
            CliError::Runtime(_) => 14,
            CliError::BatchFailed { .. } => 15,
            CliError::Telemetry(_) => 16,
            CliError::ProfileMismatch { .. } => 17,
            CliError::Serve(_) => 18,
            CliError::Journal(_) => 19,
            CliError::Top(_) => 20,
            CliError::Bundle(_) => 21,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::UnexpectedArgument(a) => write!(f, "unexpected argument {a:?}"),
            CliError::MissingValue(flag) => write!(f, "flag {flag} needs a value"),
            CliError::InvalidNumber { flag, value } => {
                write!(f, "{flag} expects a number, got {value:?}")
            }
            CliError::UnknownCommand(c) => {
                write!(f, "unknown command {c:?} — try `tconv help`")
            }
            CliError::UnknownKernel(k) => write!(
                f,
                "unknown kernel {k:?}; try: sobel pyrdown gauss laplacian sharpen emboss box3"
            ),
            CliError::UnknownMode(m) => {
                write!(f, "unknown mode {m:?}; try: importance exact approx noisy")
            }
            CliError::InvalidConfig(why) => f.write_str(why),
            CliError::MissingInput => f.write_str("run needs --input in.pgm (or --demo)"),
            CliError::Image(e) => write!(f, "image i/o: {e}"),
            CliError::System(e) => write!(f, "architecture: {e}"),
            CliError::Exec(e) => write!(f, "execution: {e}"),
            CliError::Fault(e) => write!(f, "fault campaign: {e}"),
            CliError::Runtime(e) => write!(f, "runtime: {e}"),
            CliError::BatchFailed { failed, report } => {
                write!(
                    f,
                    "{report}\nbatch: {failed} frame(s) produced no usable output"
                )
            }
            CliError::Telemetry(e) => write!(f, "telemetry output: {e}"),
            CliError::Serve(e) => write!(f, "serve: {e}"),
            CliError::Journal(why) => write!(f, "journal: {why}"),
            CliError::Top(why) => write!(f, "top: {why}"),
            CliError::Bundle(why) => write!(f, "inspect-bundle: {why}"),
            CliError::ProfileMismatch {
                what,
                dynamic,
                expected,
            } => write!(
                f,
                "profile: {what} diverged — simulator counted {dynamic}, energy model expects {expected}"
            ),
        }
    }
}

impl Error for CliError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CliError::Image(e) => Some(e),
            CliError::System(e) => Some(e),
            CliError::Exec(e) => Some(e),
            CliError::Fault(e) => Some(e),
            CliError::Runtime(e) => Some(e),
            CliError::Telemetry(e) => Some(e),
            CliError::Serve(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PgmError> for CliError {
    fn from(e: PgmError) -> Self {
        CliError::Image(e)
    }
}

impl From<SystemError> for CliError {
    fn from(e: SystemError) -> Self {
        CliError::System(e)
    }
}

impl From<exec::ExecError> for CliError {
    fn from(e: exec::ExecError) -> Self {
        CliError::Exec(e)
    }
}

impl From<FaultError> for CliError {
    fn from(e: FaultError) -> Self {
        CliError::Fault(e)
    }
}

impl From<ta_runtime::RuntimeError> for CliError {
    fn from(e: ta_runtime::RuntimeError) -> Self {
        CliError::Runtime(e)
    }
}

impl From<ta_core::Error> for CliError {
    fn from(e: ta_core::Error) -> Self {
        match e {
            ta_core::Error::System(e) => CliError::System(e),
            ta_core::Error::Exec(e) => CliError::Exec(e),
            ta_core::Error::Fault(e) => CliError::Fault(e),
            other => CliError::InvalidConfig(other.to_string()),
        }
    }
}

/// Usage text.
pub const USAGE: &str = "\
tconv — delay-space convolution engine (temporal arithmetic, ASPLOS'24)

USAGE:
  tconv run --input in.pgm --kernel sobel [--output out.pgm] [options]
  tconv run --demo [--kernel gauss] [options]      (synthetic input)
  tconv describe --kernel sobel [--size 150] [options]
  tconv explore [--kernel sobel] [--size 72] [options]
  tconv faults [--kernel sobel] [--size 24] [options]
  tconv batch --input-dir frames/ [--output-dir out/] [options]
  tconv batch --demo [--frames 8] [options]
  tconv batch ... --journal batch.wal [--resume] [--fsync batch]
  tconv profile --demo [--kernel sobel] [--vcd wave.vcd] [options]
  tconv serve [--tcp 127.0.0.1:0] [--uds /run/tconv.sock] [--chaos]
  tconv top --addr HOST:PORT [--interval-ms 2000] [--once]
  tconv inspect-bundle FILE
  tconv kernels

OPTIONS (run/describe/explore/faults):
  --kernel NAME     sobel | pyrdown | gauss | laplacian | sharpen | emboss | box3
  --unit NS         unit scale in ns per delay unit        [default: 1]
  --nlse N          number of nLSE max-terms               [default: 7]
  --nlde N          number of nLDE inhibit-terms           [default: 20]
  --mode MODE       importance | exact | approx | noisy    [default: noisy]
  --seed N          noise seed                             [default: 0]
  --size N          frame edge for --demo/describe/explore [default: 96]

OPTIONS (faults):
  --rates LIST      comma-separated per-site fault rates   [default: 0,0.01,0.05,0.1]
  --trials N        fault-map draws per rate               [default: 3]
  --drift F         delay-drift magnitude (fraction)       [default: 0.2]
  --advance U       spurious-early advance (units)         [default: 0.5]
  --pixel-sites N   pixel sites probed in the sensitivity scan [default: 12]

OPTIONS (profile — per-stage time/energy/op breakdown):
  --vcd PATH        dump a first-cycle netlist waveform as VCD (GTKWave)
  --gate-opt MODE   on | off — netlist optimizer (constant folding,
                    hash-consing, dead-gate elimination) + event-driven
                    evaluation for the gate-level report   [default: on]
                    off compiles the unoptimized full-sweep engine
  (profile also accepts the run options above; default mode: approx)

TELEMETRY (any command):
  --trace PATH      write structured span/event records as JSON lines
  --metrics PATH    write a Prometheus-text metrics snapshot on exit

PARALLELISM (any command):
  --threads N       worker threads for the frame engine and every sweep
                    (0 = one per core; results are bit-identical at any
                    thread count)                          [default: 0]

SIMD (any command):
  --simd-tier TIER  scalar | sse2 | avx2 | neon — pin the ISA tier; every
                    tier is bit-for-bit equal to the scalar engine
                    (default: widest available; errors if unavailable)

OPTIONS (batch — supervised runtime):
  --frames N        synthetic frames with --demo           [default: 8]
  --tolerance F     reject outputs beyond F nRMSE vs the digital reference
  --timeout-ms N    per-attempt watchdog budget (0 = off)  [default: 0]
  --retries N       retries after the first attempt        [default: 2]
  --fallback NAME   reference | exact | none               [default: reference]
  --fault-rate F    inject transient faults at this per-site rate [default: 0]
  --workers N       worker threads (0 = one per core)      [default: 0]

DURABILITY (batch — checkpoint/resume):
  --journal PATH    write-ahead journal: checkpoint every completed frame
  --resume          replay PATH's checkpoints (same inputs/config/seed
                    required) and execute only the unfinished frames;
                    resumed results are bit-identical to an
                    uninterrupted run
  --fsync POLICY    always | batch | never                 [default: batch]

OPTIONS (serve — fault-tolerant streaming convolution service):
  --tcp ADDR        TCP listen address, or `none`          [default: 127.0.0.1:0]
  --uds PATH        also listen on a Unix-domain socket
  --credits N       per-connection flow-control window     [default: 4]
  --max-connections N  concurrent connections before shed  [default: 32]
  --max-inflight N  global in-flight frame cap             [default: 8]
  --tenant-pending N   per-tenant pending frame cap        [default: 4]
  --deadline-ms N   default per-frame deadline             [default: 10000]
  --idle-ms N       idle connection timeout                [default: 30000]
  --strikes N       protocol violations before quarantine  [default: 3]
  --plan-cache N    compiled plans cached per connection   [default: 4]
  --chaos           honour chaos directives in submissions (testing only)
  --journal PATH    write-ahead journal of accepted requests and replies;
                    on restart, in-flight frames are recovered (or shed)
                    and client retries are answered idempotently from
                    the journal's completion index
  --fsync POLICY    always | batch | never                 [default: batch]
  --recovery MODE   recover | shed — what to do with journaled in-flight
                    frames at startup                      [default: recover]
  --slo-ms N        per-request latency objective; replies past it burn
                    the tenant's SLO error budget          [default: 250]
  --bundle-dir DIR  arm the flight recorder: on any anomaly (watchdog
                    timeout, degraded/failed frame, panic, journal error,
                    quarantine, shed burst) dump a JSONL diagnostics
                    bundle — recent traced spans/events, the in-flight
                    request contexts with their op/energy census, and a
                    full metrics snapshot — into DIR
  Prints `listening on ADDR` as soon as each endpoint is bound. SIGTERM
  or SIGINT drains gracefully: in-flight frames finish, new work is shed
  with busy(draining), connected clients get a goodbye, and the process
  exits 0.

OBSERVABILITY (top / inspect-bundle):
  tconv top polls a running server's Metrics wire request and renders a
  live dashboard: request/shed rates, latency percentiles, per-tenant
  SLO burn, journal size, and anomaly counts.
  --addr HOST:PORT  the server's TCP endpoint (required)
  --interval-ms N   refresh period                         [default: 2000]
  --once            print one snapshot and exit (no screen clearing)
  tconv inspect-bundle FILE schema-checks a flight-recorder bundle and
  prints its story: the anomaly, the offending trace's event timeline,
  and the in-flight requests at dump time. Exits non-zero if the file is
  not a valid bundle.

EXIT CODES:
  0 success; 1 unused (generic abort)
  2 unexpected argument      3 flag missing its value
  4 malformed number         5 unknown command
  6 unknown kernel           7 unknown mode
  8 invalid configuration    9 missing input
  10 image i/o failed        11 architecture rejected
  12 execution rejected      13 fault campaign invalid
  14 runtime misconfigured   15 batch left failed frames
  16 telemetry write failed  17 profile census mismatch
  18 serve failed to bind or run
  19 journal create/resume/write failed
  20 top could not connect or scrape
  21 bundle file invalid
";

/// Parsed `--key value` flags plus the subcommand.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// The subcommand word.
    pub command: String,
    flags: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Args {
    /// Parses raw arguments (without the program name).
    ///
    /// # Errors
    ///
    /// Returns [`CliError::MissingValue`] for a dangling `--flag` with no
    /// value when the flag is not a known switch, and
    /// [`CliError::UnexpectedArgument`] for stray positional words.
    pub fn parse(raw: &[String]) -> Result<Args, CliError> {
        let mut args = Args {
            command: raw.first().cloned().unwrap_or_default(),
            ..Args::default()
        };
        let switches = ["--demo", "--help", "--chaos", "--resume", "--once"];
        let mut i = 1;
        while i < raw.len() {
            let key = &raw[i];
            if !key.starts_with("--") {
                // `inspect-bundle FILE` takes its one positional argument;
                // everywhere else a stray word is an error.
                if args.command == "inspect-bundle" && args.get("--file").is_none() {
                    args.flags.push(("--file".to_string(), key.clone()));
                    i += 1;
                    continue;
                }
                return Err(CliError::UnexpectedArgument(key.clone()));
            }
            if switches.contains(&key.as_str()) {
                args.switches.push(key.clone());
                i += 1;
            } else if i + 1 < raw.len() {
                args.flags.push((key.clone(), raw[i + 1].clone()));
                i += 2;
            } else {
                return Err(CliError::MissingValue(key.clone()));
            }
        }
        Ok(args)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, CliError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| CliError::InvalidNumber {
                flag: key.to_string(),
                value: v.to_string(),
            }),
        }
    }
}

/// Resolves a kernel-set name.
///
/// # Errors
///
/// Returns [`CliError::UnknownKernel`] for an unknown name.
pub fn kernel_set(name: &str) -> Result<(Vec<Kernel>, usize), CliError> {
    Ok(match name {
        "sobel" => (vec![Kernel::sobel_x(), Kernel::sobel_y()], 1),
        "pyrdown" => (vec![Kernel::pyr_down_5x5()], 2),
        "gauss" => (vec![Kernel::gaussian(7, 0.0)], 1),
        "laplacian" => (vec![Kernel::laplacian()], 1),
        "sharpen" => (vec![Kernel::sharpen()], 1),
        "emboss" => (vec![Kernel::emboss()], 1),
        "box3" => (vec![Kernel::box_filter(3)], 1),
        other => return Err(CliError::UnknownKernel(other.to_string())),
    })
}

fn mode_of(name: &str) -> Result<ArithmeticMode, CliError> {
    Ok(match name {
        "importance" => ArithmeticMode::ImportanceExact,
        "exact" => ArithmeticMode::DelayExact,
        "approx" => ArithmeticMode::DelayApprox,
        "noisy" => ArithmeticMode::DelayApproxNoisy,
        other => return Err(CliError::UnknownMode(other.to_string())),
    })
}

fn config_of(args: &Args) -> Result<ArchConfig, CliError> {
    let unit: f64 = args.num("--unit", 1.0)?;
    let nlse: usize = args.num("--nlse", 7)?;
    let nlde: usize = args.num("--nlde", 20)?;
    if unit <= 0.0 || nlse == 0 || nlde == 0 {
        return Err(CliError::InvalidConfig(
            "--unit/--nlse/--nlde must be positive".into(),
        ));
    }
    Ok(ArchConfig::new(UnitScale::new(unit, 50.0), nlse, nlde))
}

/// Parses `--fsync always|batch|never` (default: batch).
fn fsync_of(args: &Args) -> Result<ta_journal::FsyncPolicy, CliError> {
    let name = args.get("--fsync").unwrap_or("batch");
    ta_journal::FsyncPolicy::parse(name).ok_or_else(|| {
        CliError::InvalidConfig(format!("unknown --fsync {name:?}; try: always batch never"))
    })
}

/// Entry point shared by the binary and the tests: runs a parsed command
/// and returns the text to print.
///
/// The global telemetry flags are honoured for every command: `--trace
/// PATH` installs a JSONL trace sink before the command runs, and
/// `--metrics PATH` writes a Prometheus-text metrics snapshot after it
/// finishes (even a failing command leaves its partial metrics behind).
/// `--threads N` sizes the shared worker pool for every command (0 = one
/// worker per core); outputs are bit-identical at any thread count.
///
/// # Errors
///
/// Returns a [`CliError`] for bad arguments or I/O failures.
pub fn dispatch(args: &Args) -> Result<String, CliError> {
    if args.has("--help") || args.command.is_empty() || args.command == "help" {
        return Ok(USAGE.to_string());
    }
    ta_pool::set_threads(args.num("--threads", 0usize)?);
    if let Some(name) = args.get("--simd-tier") {
        let tier: ta_simd::SimdTier = name.parse().map_err(|_| {
            CliError::InvalidConfig(format!(
                "unknown --simd-tier {name:?}; try: scalar sse2 avx2 neon"
            ))
        })?;
        ta_simd::force_tier(Some(tier)).map_err(|e| CliError::InvalidConfig(e.to_string()))?;
    }
    if let Some(path) = args.get("--trace") {
        let sink = ta_telemetry::JsonlSink::create(path).map_err(CliError::Telemetry)?;
        ta_telemetry::tracer().install(std::sync::Arc::new(sink));
    }
    let result = match args.command.as_str() {
        "run" => cmd_run(args),
        "describe" => cmd_describe(args),
        "explore" => cmd_explore(args),
        "faults" => cmd_faults(args),
        "batch" => cmd_batch(args),
        "profile" => cmd_profile(args),
        "serve" => cmd_serve(args),
        "top" => cmd_top(args),
        "inspect-bundle" => cmd_inspect_bundle(args),
        "kernels" => Ok(cmd_kernels()),
        other => Err(CliError::UnknownCommand(other.to_string())),
    };
    ta_telemetry::tracer().flush();
    if let Some(path) = args.get("--metrics") {
        std::fs::write(path, ta_telemetry::metrics().to_prometheus())
            .map_err(CliError::Telemetry)?;
    }
    result
}

fn cmd_run(args: &Args) -> Result<String, CliError> {
    let (kernels, stride) = kernel_set(args.get("--kernel").unwrap_or("sobel"))?;
    let image = if args.has("--demo") {
        let size: usize = args.num("--size", 96)?;
        synth::natural_image(size, size, args.num("--seed", 0u64)?)
    } else {
        let path = args.get("--input").ok_or(CliError::MissingInput)?;
        pgm::load_pgm(path)?
    };
    let mode = mode_of(args.get("--mode").unwrap_or("noisy"))?;
    let cfg = config_of(args)?;
    let desc = SystemDescription::new(image.width(), image.height(), kernels.clone(), stride)?;
    let arch = Architecture::new(desc, cfg)?;
    let run = exec::run(&arch, &image, mode, args.num("--seed", 0u64)?)?;

    let mut out = format!(
        "{} on {}×{} ({} mode)\n",
        kernels[0].name(),
        image.width(),
        image.height(),
        mode
    );
    // The engine's VTC saturates pixels below its dynamic-range floor, so
    // the software reference must see the same clipped frame (otherwise an
    // exact run over an image containing true zeros would report phantom
    // error). The importance mode bypasses the VTC and keeps raw pixels.
    let reference_image = if mode == ArithmeticMode::ImportanceExact {
        image.clone()
    } else {
        // Derive the floor from the compiled VTC rather than repeating its
        // constant: max_delay_units = -ln(min_pixel).
        let floor = (-arch.vtc().max_delay_units()).exp();
        image.map(|p| p.clamp(0.0, 1.0).max(floor))
    };
    for (k, o) in kernels.iter().zip(&run.outputs) {
        let reference = conv::convolve(&reference_image, k, stride);
        out.push_str(&format!(
            "  {:<10} {}×{}  nrmse vs software: {:.5}\n",
            k.name(),
            o.width(),
            o.height(),
            metrics::normalized_rmse(o, &reference)
        ));
    }
    out.push_str(&format!(
        "  energy: {}\n  timing: {}\n",
        run.energy, run.timing
    ));

    if let Some(path) = args.get("--output") {
        // Normalise the first output into [0,1] for the graymap.
        let o = &run.outputs[0];
        let (lo, hi) = o.min_max();
        let span = (hi - lo).max(1e-12);
        let norm = o.map(|p| (p - lo) / span);
        pgm::save_pgm(&norm, path)?;
        out.push_str(&format!(
            "  wrote {path} (first output, range-normalised)\n"
        ));
    }
    Ok(out)
}

fn cmd_describe(args: &Args) -> Result<String, CliError> {
    let (kernels, stride) = kernel_set(args.get("--kernel").unwrap_or("sobel"))?;
    let size: usize = args.num("--size", 150)?;
    let desc = SystemDescription::new(size, size, kernels, stride)?;
    let arch = Architecture::new(desc, config_of(args)?)?;
    Ok(arch.describe())
}

fn cmd_explore(args: &Args) -> Result<String, CliError> {
    use ta_core::dse::{explore, SweepGrid};
    let (kernels, stride) = kernel_set(args.get("--kernel").unwrap_or("sobel"))?;
    let size: usize = args.num("--size", 72)?;
    let seed: u64 = args.num("--seed", 0u64)?;
    let desc = SystemDescription::new(size, size, kernels, stride)?;
    let images: Vec<Image> = (0..2)
        .map(|i| synth::natural_image(size, size, seed + i))
        .collect();
    let grid = SweepGrid {
        nlse_terms: vec![5, 7, 10, 15],
        nlde_terms: vec![10, 20],
        unit_scales_ns: vec![1.0, 5.0, 10.0],
        element_multiplier: 50.0,
        seed,
    };
    let mut points = explore(&desc, &images, &grid)?;
    points.sort_by(|a, b| a.energy_uj.total_cmp(&b.energy_uj));
    let mut out = format!(
        "{:>9} {:>5} {:>5} {:>12} {:>9}  pareto\n",
        "unit(ns)", "nLSE", "nLDE", "energy(µJ)", "RMSE"
    );
    for p in &points {
        out.push_str(&format!(
            "{:>9.0} {:>5} {:>5} {:>12.2} {:>9.4}  {}\n",
            p.unit_ns,
            p.nlse_terms,
            p.nlde_terms,
            p.energy_uj,
            p.rmse,
            if p.pareto { "*" } else { "" }
        ));
    }
    Ok(out)
}

/// `tconv faults` — a seeded fault-injection campaign on a demo frame (or
/// a PGM via `--input`): rate sweep plus per-site sensitivity.
fn cmd_faults(args: &Args) -> Result<String, CliError> {
    let (kernels, stride) = kernel_set(args.get("--kernel").unwrap_or("sobel"))?;
    let seed: u64 = args.num("--seed", 0u64)?;
    let image = match args.get("--input") {
        Some(path) => pgm::load_pgm(path)?,
        None => {
            let size: usize = args.num("--size", 24)?;
            synth::natural_image(size, size, seed)
        }
    };
    // Ideal-approximation hardware by default: fault effects stand out
    // against a deterministic background.
    let mode = mode_of(args.get("--mode").unwrap_or("approx"))?;
    let rates_raw = args.get("--rates").unwrap_or("0,0.01,0.05,0.1");
    let rates: Vec<f64> = rates_raw
        .split(',')
        .map(|tok| {
            tok.trim().parse().map_err(|_| CliError::InvalidNumber {
                flag: "--rates".into(),
                value: tok.to_string(),
            })
        })
        .collect::<Result<_, _>>()?;
    if rates.is_empty() {
        return Err(CliError::InvalidConfig(
            "--rates needs at least one rate".into(),
        ));
    }
    let cfg = CampaignConfig {
        mode,
        seed,
        rates,
        trials_per_rate: args.num("--trials", 3usize)?,
        drift_fraction: args.num("--drift", 0.2f64)?,
        early_advance_units: args.num("--advance", 0.5f64)?,
        max_pixel_sites: args.num("--pixel-sites", 12usize)?,
    };
    let desc = SystemDescription::new(image.width(), image.height(), kernels, stride)?;
    let arch = Architecture::new(desc, config_of(args)?)?;
    let report = campaign::run_campaign(&arch, &image, &cfg)?;
    Ok(report.to_string())
}

/// `tconv batch` — supervised batch execution: a directory of PGM frames
/// (or `--demo` synthetic frames) through the temporal engine under
/// validation, watchdog timeouts, seeded retry, and graceful fallback.
fn cmd_batch(args: &Args) -> Result<String, CliError> {
    use std::sync::Arc;
    use std::time::Duration;
    use ta_baseline::digital::DigitalModel;
    use ta_baseline::DigitalReference;
    use ta_core::FaultModel;
    use ta_runtime::{
        Engine, Fallback, FaultyTemporalEngine, RetryPolicy, Supervisor, SupervisorConfig,
        TemporalEngine, ValidationPolicy,
    };

    let (kernels, stride) = kernel_set(args.get("--kernel").unwrap_or("sobel"))?;
    let mode = mode_of(args.get("--mode").unwrap_or("noisy"))?;
    let seed: u64 = args.num("--seed", 0u64)?;

    // Collect the input frames: every *.pgm under --input-dir in name
    // order, or synthetic frames with --demo.
    let (names, images): (Vec<String>, Vec<Image>) = if let Some(dir) = args.get("--input-dir") {
        let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
            .map_err(|e| CliError::Image(PgmError::Io(e)))?
            .filter_map(Result::ok)
            .map(|entry| entry.path())
            .filter(|p| p.extension().is_some_and(|e| e.eq_ignore_ascii_case("pgm")))
            .collect();
        paths.sort();
        if paths.is_empty() {
            return Err(CliError::InvalidConfig(format!("no .pgm frames in {dir}")));
        }
        let mut names = Vec::new();
        let mut images = Vec::new();
        for p in paths {
            names.push(
                p.file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_default(),
            );
            images.push(pgm::load_pgm(&p)?);
        }
        (names, images)
    } else if args.has("--demo") {
        let count: usize = args.num("--frames", 8)?;
        let size: usize = args.num("--size", 48)?;
        (
            (0..count).map(|i| format!("demo-{i:03}.pgm")).collect(),
            (0..count)
                .map(|i| synth::natural_image(size, size, seed.wrapping_add(i as u64)))
                .collect(),
        )
    } else {
        return Err(CliError::MissingInput);
    };

    // The architecture is compiled once for the batch, so every frame
    // must share the first frame's geometry.
    let (w, h) = (images[0].width(), images[0].height());
    if let Some((name, img)) = names
        .iter()
        .zip(&images)
        .find(|(_, img)| (img.width(), img.height()) != (w, h))
    {
        return Err(CliError::InvalidConfig(format!(
            "frame {name} is {}×{} but the batch is {w}×{h}",
            img.width(),
            img.height()
        )));
    }
    let desc = SystemDescription::new(w, h, kernels.clone(), stride)?;
    let arch = Architecture::new(desc, config_of(args)?)?;

    let fault_rate: f64 = args.num("--fault-rate", 0.0)?;
    let engine: Arc<dyn Engine> = if fault_rate > 0.0 {
        let model = FaultModel::with_rate(fault_rate).map_err(CliError::Fault)?;
        Arc::new(FaultyTemporalEngine::new(
            arch.clone(),
            mode,
            model,
            seed ^ 0xFA,
        ))
    } else {
        Arc::new(TemporalEngine::new(arch.clone(), mode))
    };

    let tolerance: Option<f64> = match args.get("--tolerance") {
        None => None,
        Some(v) => Some(v.parse().map_err(|_| CliError::InvalidNumber {
            flag: "--tolerance".into(),
            value: v.to_string(),
        })?),
    };
    let timeout_ms: u64 = args.num("--timeout-ms", 0u64)?;
    let fallback_name = args.get("--fallback").unwrap_or("reference");
    let reference = Arc::new(
        DigitalReference::new(DigitalModel::conventional_65nm(), kernels.clone(), stride)
            .with_pixel_floor((-arch.vtc().max_delay_units()).exp()),
    );

    let mut supervisor = Supervisor::new(SupervisorConfig {
        validation: ValidationPolicy {
            require_finite: true,
            nrmse_tolerance: tolerance,
        },
        timeout: (timeout_ms > 0).then(|| Duration::from_millis(timeout_ms)),
        retry: RetryPolicy {
            max_retries: args.num("--retries", 2u32)?,
            ..RetryPolicy::default()
        },
        workers: args.num("--workers", 0usize)?,
        seed,
    })
    .with_reference(reference);
    supervisor = match fallback_name {
        "reference" => supervisor.with_fallback(Fallback::Reference),
        "exact" => supervisor.with_fallback(Fallback::Engine(Arc::new(TemporalEngine::new(
            arch.clone(),
            ArithmeticMode::DelayExact,
        )))),
        "none" => supervisor,
        other => {
            return Err(CliError::InvalidConfig(format!(
                "unknown --fallback {other:?}; try: reference exact none"
            )))
        }
    };

    if args.has("--resume") && args.get("--journal").is_none() {
        return Err(CliError::InvalidConfig(
            "--resume needs --journal PATH (the journal to replay)".into(),
        ));
    }
    let (batch, replayed) = match args.get("--journal") {
        None => (supervisor.run_batch(&engine, &images, seed)?, None),
        Some(path) => {
            use ta_runtime::{hash_images, BatchJournal, BatchMeta, Fingerprint};
            let fsync = fsync_of(args)?;
            // Campaign identity: everything that steers the outputs.
            // Worker/thread counts are deliberately excluded — results
            // are bit-identical at any parallelism.
            let config_hash = Fingerprint::new()
                .str(args.get("--kernel").unwrap_or("sobel"))
                .str(&mode.to_string())
                .u64(w as u64)
                .u64(h as u64)
                .f64(args.num("--unit", 1.0)?)
                .u64(args.num("--nlse", 7u64)?)
                .u64(args.num("--nlde", 20u64)?)
                .f64(fault_rate)
                .f64(tolerance.unwrap_or(-1.0))
                .u64(timeout_ms)
                .u64(u64::from(args.num("--retries", 2u32)?))
                .str(fallback_name)
                .finish();
            let meta = BatchMeta {
                batch_seed: seed,
                frames: images.len() as u32,
                config_hash,
                images_hash: hash_images(&images),
            };
            let path = std::path::Path::new(path);
            let journal = if args.has("--resume") {
                BatchJournal::resume(path, fsync, &meta)
            } else {
                BatchJournal::create(path, fsync, &meta)
            }
            .map_err(|e| CliError::Journal(e.to_string()))?;
            let replayed = journal.recovered().len();
            let run = supervisor.run_batch_journaled(&engine, &images, seed, &journal);
            // Export the journal gauges the way serve mode does — from the
            // journal itself, even when the run errors out, so a `--metrics`
            // snapshot always reflects what is on disk.
            let stats = journal.stats();
            let m = ta_telemetry::metrics();
            m.describe(
                "ta_runtime_journal_records",
                "Records in the batch write-ahead journal",
            );
            m.describe(
                "ta_runtime_journal_bytes",
                "Bytes in the batch write-ahead journal",
            );
            m.gauge("ta_runtime_journal_records")
                .set(stats.records as f64);
            m.gauge("ta_runtime_journal_bytes").set(stats.bytes as f64);
            let batch = run.map_err(|e| match e {
                ta_runtime::RuntimeError::Journal(why) => CliError::Journal(why),
                other => CliError::Runtime(other),
            })?;
            (batch, Some(replayed))
        }
    };

    let mut out = format!(
        "supervised batch: {} frame(s) of {w}×{h} through {} ({mode} mode)\n",
        images.len(),
        engine.name(),
    );
    if let Some(replayed) = replayed {
        out.push_str(&format!(
            "journal: replayed {replayed} of {} frame(s), executed {}\n",
            images.len(),
            images.len() - replayed,
        ));
    }
    for (name, report) in names.iter().zip(&batch.reports) {
        out.push_str(&format!(
            "  {:<16} {:<9} attempts {} latency {:.2} ms\n",
            name,
            match &report.status {
                ta_runtime::FrameStatus::Ok => "ok".to_string(),
                ta_runtime::FrameStatus::Degraded { fallback, .. } =>
                    format!("degraded({fallback})"),
                ta_runtime::FrameStatus::Failed { .. } => "FAILED".to_string(),
            },
            report.attempts,
            report.latency.as_secs_f64() * 1e3,
        ));
        for line in &report.log {
            out.push_str(&format!("      {line}\n"));
        }
    }
    out.push_str(&format!("{}\n", batch.health));

    if let Some(dir) = args.get("--output-dir") {
        std::fs::create_dir_all(dir).map_err(|e| CliError::Image(PgmError::Io(e)))?;
        let mut written = 0usize;
        for (name, outputs) in names.iter().zip(&batch.outputs) {
            let Some(outputs) = outputs else { continue };
            // First output, range-normalised, like `tconv run --output`.
            let o = &outputs[0];
            let (lo, hi) = o.min_max();
            let span = (hi - lo).max(1e-12);
            let norm = o.map(|p| (p - lo) / span);
            pgm::save_pgm(&norm, std::path::Path::new(dir).join(name))?;
            written += 1;
        }
        out.push_str(&format!("wrote {written} frame(s) to {dir}\n"));
    }

    if batch.health.failed > 0 {
        return Err(CliError::BatchFailed {
            failed: batch.health.failed,
            report: out,
        });
    }
    Ok(out)
}

/// `tconv profile` — run one frame with per-stage profiling on and print
/// a stage-by-stage breakdown of wall-clock time, modelled energy and op
/// counts, cross-checking the simulator's dynamic counters against the
/// energy model's static census.
fn cmd_profile(args: &Args) -> Result<String, CliError> {
    let (kernels, stride) = kernel_set(args.get("--kernel").unwrap_or("sobel"))?;
    let seed: u64 = args.num("--seed", 0u64)?;
    let image = match args.get("--input") {
        Some(path) => pgm::load_pgm(path)?,
        None => {
            let size: usize = args.num("--size", 48)?;
            synth::natural_image(size, size, seed)
        }
    };
    let mode = mode_of(args.get("--mode").unwrap_or("approx"))?;
    if mode == ArithmeticMode::ImportanceExact {
        return Err(CliError::InvalidConfig(
            "profile needs a delay-space mode: exact | approx | noisy".into(),
        ));
    }
    let gate_opt = match args.get("--gate-opt").unwrap_or("on") {
        "on" => true,
        "off" => false,
        other => {
            return Err(CliError::InvalidConfig(format!(
                "unknown --gate-opt {other:?}; try: on off"
            )))
        }
    };
    let desc = SystemDescription::new(image.width(), image.height(), kernels.clone(), stride)?;
    let arch = Architecture::new(desc, config_of(args)?)?;

    ta_telemetry::tracer().set_profiling(true);
    // Plan-cache counters are process-cumulative; snapshot around the run
    // so the report shows this frame's delta.
    let m = ta_telemetry::metrics();
    let (computed, reused) = (
        m.counter("ta_core_plan_rows_computed_total"),
        m.counter("ta_core_plan_rows_reused_total"),
    );
    let (computed0, reused0) = (computed.get(), reused.get());
    let run = exec::run(&arch, &image, mode, seed)?;
    let (rows_computed, rows_reused) = (computed.get() - computed0, reused.get() - reused0);
    let stages = run.stages.unwrap_or_default();
    let energy = arch.stage_energy();
    let census = arch.op_census();
    let ops = run.ops;

    // The acceptance cross-check: every data-independent op the simulator
    // performed must be an op the energy model charged for, and vice
    // versa. (Edge events and TDC decodes are data/mode-dependent and are
    // reported without a static expectation.)
    for (what, dynamic, expected) in [
        (
            "vtc conversions",
            ops.vtc_conversions,
            census.vtc_conversions,
        ),
        ("nLSE ops", ops.nlse_ops, census.nlse_ops),
        ("nLDE ops", ops.nlde_ops, census.nlde_ops),
    ] {
        if dynamic != expected {
            return Err(CliError::ProfileMismatch {
                what,
                dynamic,
                expected,
            });
        }
    }

    let us = |d: std::time::Duration| d.as_secs_f64() * 1e6;
    let mut out = format!(
        "profile: {} on {}×{} ({mode} mode), 1 frame\n",
        kernels[0].name(),
        image.width(),
        image.height(),
    );
    out.push_str(&format!(
        "  {:<16} {:>10} {:>13}  {}\n",
        "stage", "time(µs)", "energy(pJ)", "ops"
    ));
    let rows: [(&str, Option<f64>, f64, String); 6] = [
        (
            "vtc encode",
            Some(us(stages.vtc_encode)),
            energy.vtc_pj,
            format!("{} conversions", ops.vtc_conversions),
        ),
        (
            "weight matrix",
            Some(us(stages.delay_matrix)),
            energy.weight_matrix_pj,
            format!("{} edge events", ops.edge_events),
        ),
        (
            "nlse tree",
            Some(us(stages.nlse_tree)),
            energy.nlse_tree_pj,
            format!("{} nLSE ops", ops.nlse_ops),
        ),
        ("recurrence loop", None, energy.loop_pj, String::new()),
        (
            "nlde renorm",
            Some(us(stages.nlde_renorm)),
            energy.nlde_pj,
            format!("{} nLDE ops", ops.nlde_ops),
        ),
        (
            "tdc decode",
            None,
            energy.tdc_pj,
            format!("{} conversions", ops.tdc_conversions),
        ),
    ];
    for (name, time, pj, ops_text) in &rows {
        let time_text = time.map_or_else(|| "—".to_string(), |t| format!("{t:.1}"));
        out.push_str(&format!(
            "  {name:<16} {time_text:>10} {pj:>13.1}  {ops_text}\n"
        ));
    }
    out.push_str(&format!(
        "  {:<16} {:>10.1} {:>13.1}\n",
        "total",
        us(stages.total()),
        energy.total_pj(),
    ));
    out.push_str(&format!(
        "op census: dynamic counts match static expectation (vtc {}, nlse {}, nlde {})\n",
        ops.vtc_conversions, ops.nlse_ops, ops.nlde_ops
    ));
    let frame = run.energy.total_pj();
    out.push_str(&format!(
        "energy report agreement: {frame:.1} pJ/frame (stage buckets fold to the same tally)\n"
    ));
    let uses = rows_computed + rows_reused;
    let hit_pct = if uses == 0 {
        0.0
    } else {
        rows_reused as f64 / uses as f64 * 100.0
    };
    out.push_str(&format!(
        "plan cache: {rows_computed} row cells computed, {rows_reused} reused ({hit_pct:.1}% of {uses} uses)\n"
    ));

    // Gate-level pass: compile the race-logic netlists (optimized unless
    // --gate-opt off) and run the frame through the gate engine so the
    // report shows what the netlist optimizer bought on this geometry.
    let engine = if gate_opt {
        GateEngine::compile(&arch)
    } else {
        GateEngine::compile_unoptimized(&arch)
    };
    let (_gate_outs, gate_stats) = engine.run_counted(&arch, &image)?;
    match engine.opt_summary() {
        Some(s) => out.push_str(&format!(
            "gate opt: {} -> {} gates ({:.1}% eliminated; {} folded, {} shared, {} dead), {} netlists ({} deduped)\n",
            s.gates_pre,
            s.gates_post,
            s.reduction() * 100.0,
            s.folded,
            s.shared,
            s.dead,
            s.netlists,
            s.netlists_deduped,
        )),
        None => out.push_str("gate opt: off (full-sweep golden engine)\n"),
    }
    out.push_str(&format!(
        "gate events: {} gate evaluations across {} netlist evals\n",
        gate_stats.gate_evals, gate_stats.cycle_evals,
    ));

    if let Some(path) = args.get("--vcd") {
        write_profile_vcd(&arch, &image, path)?;
        out.push_str(&format!("wrote {path} (first-cycle netlist waveform)\n"));
    }
    Ok(out)
}

/// Compiles the first recurrence cycle of kernel 0 (first rail) into a
/// race-logic netlist, evaluates it on the frame's top-left window, and
/// dumps every node's edge time as a VCD waveform.
fn write_profile_vcd(
    arch: &Architecture,
    image: &ta_image::Image,
    path: &str,
) -> Result<(), CliError> {
    use ta_delay_space::DelayValue;
    use ta_race_logic::{blocks, CircuitBuilder};

    let dk = &arch.delay_kernels()[0];
    let rail = dk.rails()[0];
    let kw = arch.desc().kernel_width();
    let terms = arch.nlse_unit().approx().terms().to_vec();
    let k = arch.nlse_unit().latency_units();

    let mut b = CircuitBuilder::new();
    let pixels: Vec<_> = (0..kw).map(|kx| b.input(format!("px{kx}"))).collect();
    let boundary = b.input("frame_boundary");
    let mut leaves = Vec::new();
    for (kx, &px) in pixels.iter().enumerate() {
        let w = dk.rail_delay(rail, kx, 0);
        if w.is_never() {
            continue;
        }
        let weighted = b.delay(px, w.delay());
        leaves.push(b.inhibit(weighted, boundary));
    }
    if leaves.is_empty() {
        // A kernel row with no firing weights on this rail has no
        // datapath to dump; trace the raw pixel edges instead.
        leaves = pixels.clone();
    }
    let tree = blocks::build_nlse_tree(&mut b, &leaves, &terms, k);
    b.output("row0", tree.node);
    let circuit = b
        .build()
        .map_err(|e| CliError::InvalidConfig(format!("vcd netlist: {e}")))?;

    let vtc = arch.vtc();
    let mut inputs: Vec<DelayValue> = (0..kw)
        .map(|kx| vtc.convert_ideal(image.get(kx, 0)))
        .collect();
    inputs.push(DelayValue::from_delay(arch.schedule().cycle_units + 1e-9));
    let (_, trace) = circuit
        .evaluate_traced(&inputs)
        .map_err(|e| CliError::InvalidConfig(format!("vcd evaluation: {e}")))?;
    std::fs::write(path, trace.to_vcd(arch.cfg().unit.unit_ns())).map_err(CliError::Telemetry)
}

/// `tconv serve` — run the streaming convolution service until SIGTERM
/// (or SIGINT) drains it. Announces each bound endpoint on stdout as
/// `listening on ADDR` before blocking, so wrappers can discover an
/// ephemeral port; returns the drain summary as the command output.
fn cmd_serve(args: &Args) -> Result<String, CliError> {
    use std::io::Write as _;
    use std::time::Duration;
    use ta_serve::{ServeConfig, Server};

    let defaults = ServeConfig::default();
    let tcp = match args.get("--tcp") {
        Some("none") => None,
        Some(addr) => Some(addr.to_string()),
        None => defaults.tcp.clone(),
    };
    let cfg = ServeConfig {
        tcp,
        uds: args.get("--uds").map(std::path::PathBuf::from),
        credits: args.num("--credits", defaults.credits)?,
        max_connections: args.num("--max-connections", defaults.max_connections)?,
        max_inflight: args.num("--max-inflight", defaults.max_inflight)?,
        tenant_pending: args.num("--tenant-pending", defaults.tenant_pending)?,
        default_deadline: Duration::from_millis(args.num("--deadline-ms", 10_000u64)?),
        idle_timeout: Duration::from_millis(args.num("--idle-ms", 30_000u64)?),
        strikes: args.num("--strikes", defaults.strikes)?,
        chaos_enabled: args.has("--chaos"),
        plan_cache: args.num("--plan-cache", defaults.plan_cache)?,
        journal: args.get("--journal").map(std::path::PathBuf::from),
        journal_fsync: fsync_of(args)?,
        slo: Duration::from_millis(args.num("--slo-ms", defaults.slo.as_millis() as u64)?),
        bundle_dir: args.get("--bundle-dir").map(std::path::PathBuf::from),
        recovery: {
            let name = args.get("--recovery").unwrap_or("recover");
            ta_serve::RecoveryPolicy::parse(name).ok_or_else(|| {
                CliError::InvalidConfig(format!("unknown --recovery {name:?}; try: recover shed"))
            })?
        },
        ..defaults
    };

    ta_serve::signal::install_term_handler();
    let server = Server::bind(cfg).map_err(CliError::Serve)?;

    // Announce endpoints before blocking in the accept loop: wrappers
    // (and the process-level tests) parse these lines to find the port.
    let mut stdout = std::io::stdout();
    if let Some(addr) = server.local_addr() {
        let _ = writeln!(stdout, "listening on {addr}");
    }
    if let Some(path) = args.get("--uds") {
        let _ = writeln!(stdout, "listening on uds:{path}");
    }
    let _ = stdout.flush();

    let summary = server.run().map_err(CliError::Serve)?;
    Ok(format!(
        "serve: drained cleanly — {} connection(s) open at drain, \
         {} frame(s) completed, {} shed, {} failed, {} forced close(s)\n",
        summary.connections_at_drain,
        summary.completed,
        summary.shed,
        summary.failed,
        summary.forced_closes,
    ))
}

/// `tconv top` — a live dashboard over a running server's Metrics wire
/// request: request/shed rates, latency percentiles, per-tenant SLO
/// burn, journal size, and anomaly counts. `--once` prints a single
/// snapshot (no screen clearing) and exits, for scripts and smoke tests.
fn cmd_top(args: &Args) -> Result<String, CliError> {
    use std::io::Write as _;
    use std::time::{Duration, Instant};
    use ta_serve::{Request, Response};

    let addr = args
        .get("--addr")
        .ok_or_else(|| CliError::InvalidConfig("top needs --addr HOST:PORT".into()))?;
    let interval = Duration::from_millis(args.num("--interval-ms", 2_000u64)?);
    let once = args.has("--once");

    let mut client = ta_serve::Client::connect_tcp(addr, "tconv-top")
        .map_err(|e| CliError::Top(e.to_string()))?;
    let mut prev: Option<(Instant, ta_telemetry::promtext::Scrape)> = None;
    loop {
        let text = match client
            .call(&Request::Metrics)
            .map_err(|e| CliError::Top(e.to_string()))?
        {
            Response::Metrics { text } => text,
            other => return Err(CliError::Top(format!("expected Metrics, got {other:?}"))),
        };
        let now = Instant::now();
        let scrape = ta_telemetry::promtext::parse(&text)
            .map_err(|e| CliError::Top(format!("metrics snapshot unparsable: {e}")))?;
        let frame = render_top(
            addr,
            &scrape,
            prev.as_ref().map(|(t, s)| (now.duration_since(*t), s)),
        );
        if once {
            return Ok(frame);
        }
        // Clear and repaint; stdout errors (e.g. a closed pipe) end the
        // dashboard cleanly rather than looping blind.
        let mut stdout = std::io::stdout();
        if write!(stdout, "\x1b[2J\x1b[H{frame}")
            .and_then(|()| stdout.flush())
            .is_err()
        {
            return Ok(String::new());
        }
        prev = Some((now, scrape));
        std::thread::sleep(interval);
    }
}

/// One rendered `tconv top` frame. `prev` (the previous scrape and the
/// time since it) turns cumulative counters into per-second rates.
fn render_top(
    addr: &str,
    scrape: &ta_telemetry::promtext::Scrape,
    prev: Option<(std::time::Duration, &ta_telemetry::promtext::Scrape)>,
) -> String {
    let total = |name: &str| scrape.sum(name);
    let rate = |name: &str| -> Option<f64> {
        let (dt, old) = prev.as_ref()?;
        let secs = dt.as_secs_f64();
        (secs > 0.0).then(|| (scrape.sum(name) - old.sum(name)).max(0.0) / secs)
    };
    let fmt_rate = |name: &str| match rate(name) {
        Some(r) => format!("{r:8.1}/s"),
        None => "       —  ".to_string(),
    };

    let submits = total("ta_serve_submits_total");
    let shed = total("ta_serve_shed_total");
    let shed_frac = if submits > 0.0 { shed / submits } else { 0.0 };

    let mut out = format!("tconv top — {addr}\n\n");
    out.push_str("  requests            total       rate\n");
    for (label, family) in [
        ("submits", "ta_serve_submits_total"),
        ("completed", "ta_serve_completed_total"),
        ("degraded", "ta_serve_degraded_total"),
        ("failed", "ta_serve_failed_total"),
        ("shed", "ta_serve_shed_total"),
    ] {
        out.push_str(&format!(
            "    {label:<12} {:>10} {}\n",
            total(family),
            fmt_rate(family)
        ));
    }
    out.push_str(&format!("    shed fraction {shed_frac:>9.3}\n"));

    // Latency percentiles from the cumulative histogram buckets.
    let buckets = scrape.family("ta_serve_latency_seconds_bucket");
    let mut cum: Vec<(f64, f64)> = buckets
        .iter()
        .filter_map(|s| {
            let le = s.label("le")?;
            let bound = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().ok()?
            };
            Some((bound, s.value))
        })
        .collect();
    cum.sort_by(|a, b| a.0.total_cmp(&b.0));
    let count = cum.last().map_or(0.0, |&(_, c)| c);
    if count > 0.0 {
        out.push_str("\n  latency    p50        p90        p99\n         ");
        for q in [0.50, 0.90, 0.99] {
            let target = q * count;
            let bound = cum
                .iter()
                .find(|&&(_, c)| c >= target)
                .map_or(f64::INFINITY, |&(b, _)| b);
            if bound.is_finite() {
                out.push_str(&format!(" ≤{:>7.1}ms", bound * 1e3));
            } else {
                out.push_str("     >last ");
            }
        }
        out.push('\n');
    }

    // Per-tenant SLO burn (breaches / requests, cumulative).
    let burns = scrape.family("ta_serve_slo_burn");
    if !burns.is_empty() {
        out.push_str("\n  slo burn (breaches/requests)\n");
        for s in burns {
            let tenant = s.label("tenant").unwrap_or("?");
            let requests = scrape
                .get("ta_serve_slo_requests_total", &[("tenant", tenant)])
                .unwrap_or(0.0);
            out.push_str(&format!(
                "    {tenant:<16} {:>6.3}  ({requests} requests)\n",
                s.value
            ));
        }
    }

    // Journal size (present only when the server journals).
    if let (Some(records), Some(bytes)) = (
        scrape.value("ta_serve_journal_records"),
        scrape.value("ta_serve_journal_bytes"),
    ) {
        out.push_str(&format!(
            "\n  journal    {records} record(s), {bytes} byte(s)\n"
        ));
    }

    // Anomalies by kind, plus bundles dumped.
    let anomalies = scrape.family("ta_anomalies_total");
    if !anomalies.is_empty() {
        out.push_str("\n  anomalies\n");
        for s in anomalies {
            out.push_str(&format!(
                "    {:<18} {:>8}\n",
                s.label("kind").unwrap_or("?"),
                s.value
            ));
        }
    }
    if let Some(bundles) = scrape.value("ta_serve_bundles_written_total") {
        out.push_str(&format!("    bundles written    {bundles:>8}\n"));
    }
    out
}

/// `tconv inspect-bundle FILE` — schema-check a flight-recorder bundle
/// and print its story for triage. A file that fails the check exits
/// non-zero, so scripts can assert bundle validity.
fn cmd_inspect_bundle(args: &Args) -> Result<String, CliError> {
    let path = args
        .get("--file")
        .ok_or_else(|| CliError::InvalidConfig("inspect-bundle needs a bundle FILE".into()))?;
    let text =
        std::fs::read_to_string(path).map_err(|e| CliError::Bundle(format!("{path}: {e}")))?;
    let summary =
        ta_serve::BundleSummary::parse(&text).map_err(|e| CliError::Bundle(e.to_string()))?;

    let mut out = format!("bundle: {path}\n  anomaly: {}\n", summary.kind);
    if summary.trace.is_empty() {
        out.push_str("  trace:   (untraced anomaly)\n");
    } else {
        out.push_str(&format!("  trace:   {}\n", summary.trace));
    }
    let count = |kind: &str| summary.lines.iter().filter(|l| l.kind == kind).count();
    out.push_str(&format!(
        "  lines:   {} ({} request context(s), {} span(s), {} event(s))\n",
        summary.lines.len(),
        count("request"),
        count("span"),
        count("event"),
    ));

    // The offending request's timeline, in ring order.
    if !summary.trace.is_empty() {
        let ours = summary.lines_for_trace(&summary.trace);
        out.push_str(&format!("  timeline for trace {}:\n", summary.trace));
        for i in ours {
            let line = &summary.lines[i];
            out.push_str(&format!(
                "    {:<8} {}\n",
                line.kind,
                line.name.as_deref().unwrap_or("(request context)")
            ));
        }
    }

    // Other traces captured in the ring, deduplicated.
    let mut others: Vec<&str> = summary
        .lines
        .iter()
        .filter_map(|l| l.trace.as_deref())
        .filter(|t| *t != summary.trace)
        .collect();
    others.sort_unstable();
    others.dedup();
    if !others.is_empty() {
        out.push_str(&format!(
            "  {} other trace(s) in the ring: {}\n",
            others.len(),
            others.join(", ")
        ));
    }
    Ok(out)
}

fn cmd_kernels() -> String {
    let mut out = String::from("built-in kernel sets:\n");
    for name in [
        "sobel",
        "pyrdown",
        "gauss",
        "laplacian",
        "sharpen",
        "emboss",
        "box3",
    ] {
        if let Ok((ks, stride)) = kernel_set(name) {
            out.push_str(&format!(
                "  {:<10} {}×{}, stride {}, {} filter(s){}\n",
                name,
                ks[0].width(),
                ks[0].height(),
                stride,
                ks.len(),
                if ks.iter().any(|k| k.has_negative_weights()) {
                    ", split rails + nLDE"
                } else {
                    ""
                }
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &[&str]) -> Args {
        Args::parse(&words.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn help_and_unknown_commands() {
        assert!(dispatch(&argv(&["help"])).unwrap().contains("USAGE"));
        assert!(dispatch(&argv(&[])).unwrap().contains("USAGE"));
        assert!(matches!(
            dispatch(&argv(&["frobnicate"])),
            Err(CliError::UnknownCommand(_))
        ));
    }

    #[test]
    fn kernels_listing() {
        let out = dispatch(&argv(&["kernels"])).unwrap();
        for k in ["sobel", "pyrdown", "gauss", "laplacian"] {
            assert!(out.contains(k));
        }
    }

    #[test]
    fn describe_sobel() {
        let out = dispatch(&argv(&["describe", "--kernel", "sobel", "--size", "32"])).unwrap();
        assert!(out.contains("MAC blocks"));
        assert!(out.contains("nLSE tree"));
    }

    #[test]
    fn threads_flag_is_global_and_deterministic() {
        // The rendered report embeds the run's numeric results, so equal
        // strings across worker counts means equal outputs. Leaves the
        // process-global default behind on purpose: every thread count
        // must produce identical results anyway.
        let base = ["run", "--demo", "--size", "24", "--mode", "noisy"];
        let with = |n: &str| {
            let mut v = base.to_vec();
            v.extend(["--threads", n]);
            dispatch(&argv(&v)).unwrap()
        };
        let one = with("1");
        assert_eq!(one, with("2"), "1 vs 2 workers");
        assert_eq!(one, with("8"), "1 vs 8 workers");
        ta_pool::set_threads(0);
    }

    #[test]
    fn run_demo_all_modes() {
        for mode in ["importance", "exact", "approx", "noisy"] {
            let out = dispatch(&argv(&[
                "run", "--demo", "--size", "24", "--kernel", "box3", "--mode", mode,
            ]))
            .unwrap();
            assert!(out.contains("nrmse"), "mode {mode}: {out}");
        }
    }

    #[test]
    fn run_pgm_roundtrip() {
        let dir = std::env::temp_dir();
        let input = dir.join("tconv_test_in.pgm");
        let output = dir.join("tconv_test_out.pgm");
        ta_image::pgm::save_pgm(&synth::natural_image(20, 20, 1), &input).unwrap();
        let out = dispatch(&argv(&[
            "run",
            "--input",
            input.to_str().unwrap(),
            "--output",
            output.to_str().unwrap(),
            "--kernel",
            "sharpen",
            "--mode",
            "approx",
        ]))
        .unwrap();
        assert!(out.contains("wrote"));
        let written = ta_image::pgm::load_pgm(&output).unwrap();
        assert_eq!((written.width(), written.height()), (18, 18));
        std::fs::remove_file(input).ok();
        std::fs::remove_file(output).ok();
    }

    #[test]
    fn bad_flags_raise_typed_errors() {
        assert!(matches!(
            Args::parse(&["run".into(), "--unit".into()]),
            Err(CliError::MissingValue(_))
        ));
        assert!(matches!(
            Args::parse(&["run".into(), "stray".into()]),
            Err(CliError::UnexpectedArgument(_))
        ));
        assert!(matches!(
            dispatch(&argv(&["run", "--demo", "--kernel", "nope"])),
            Err(CliError::UnknownKernel(_))
        ));
        assert!(matches!(
            dispatch(&argv(&["run", "--demo", "--mode", "nope"])),
            Err(CliError::UnknownMode(_))
        ));
        assert!(matches!(
            dispatch(&argv(&["run", "--demo", "--unit", "abc"])),
            Err(CliError::InvalidNumber { .. })
        ));
        assert!(matches!(
            dispatch(&argv(&["run"])),
            Err(CliError::MissingInput)
        ));
        assert!(matches!(
            dispatch(&argv(&["run", "--input", "/no/such/file.pgm"])),
            Err(CliError::Image(_))
        ));
        // Every error renders a non-empty, single-line-friendly message.
        let e = dispatch(&argv(&["run", "--demo", "--unit", "abc"])).unwrap_err();
        assert!(!e.to_string().is_empty());
    }

    #[test]
    fn profile_demo_prints_breakdown_and_verifies_census() {
        let out = dispatch(&argv(&[
            "profile", "--demo", "--size", "20", "--kernel", "sobel",
        ]))
        .unwrap();
        assert!(out.contains("stage"), "{out}");
        for stage in [
            "vtc encode",
            "weight matrix",
            "nlse tree",
            "nlde renorm",
            "total",
        ] {
            assert!(out.contains(stage), "missing {stage}:\n{out}");
        }
        assert!(
            out.contains("op census: dynamic counts match static expectation"),
            "{out}"
        );
        // 20×20 input → 400 VTC conversions, whatever the kernel.
        assert!(out.contains("400 conversions"), "{out}");
        // The optimizer is on by default and Sobel's zero-weight column
        // gives it something to fold, so the gate report shows a shrink.
        assert!(out.contains("gate opt:"), "{out}");
        assert!(out.contains("-> "), "{out}");
        assert!(out.contains("gate events:"), "{out}");
        assert!(!out.contains("gate opt: off"), "{out}");
    }

    #[test]
    fn profile_gate_opt_off_uses_the_sweep_engine() {
        let out = dispatch(&argv(&[
            "profile",
            "--demo",
            "--size",
            "16",
            "--kernel",
            "box3",
            "--gate-opt",
            "off",
        ]))
        .unwrap();
        assert!(
            out.contains("gate opt: off (full-sweep golden engine)"),
            "{out}"
        );
        assert!(out.contains("gate events:"), "{out}");
    }

    #[test]
    fn profile_rejects_unknown_gate_opt_mode() {
        let e = dispatch(&argv(&[
            "profile",
            "--demo",
            "--size",
            "16",
            "--gate-opt",
            "sideways",
        ]))
        .unwrap_err();
        assert!(e.to_string().contains("--gate-opt"), "{e}");
    }

    #[test]
    fn profile_rejects_importance_mode() {
        assert!(matches!(
            dispatch(&argv(&[
                "profile",
                "--demo",
                "--size",
                "16",
                "--mode",
                "importance"
            ])),
            Err(CliError::InvalidConfig(_))
        ));
    }

    #[test]
    fn profile_writes_a_parseable_vcd() {
        let path = std::env::temp_dir().join("tconv_test_profile.vcd");
        let out = dispatch(&argv(&[
            "profile",
            "--demo",
            "--size",
            "16",
            "--kernel",
            "box3",
            "--vcd",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("wrote"), "{out}");
        let vcd = std::fs::read_to_string(&path).unwrap();
        assert!(vcd.contains("$timescale 1ps $end"), "{vcd}");
        assert!(vcd.contains("$enddefinitions $end"), "{vcd}");
        let stamps: Vec<u64> = vcd
            .lines()
            .filter(|l| l.starts_with('#'))
            .map(|l| l[1..].parse().unwrap())
            .collect();
        assert!(stamps.windows(2).all(|w| w[0] < w[1]), "{stamps:?}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn metrics_and_trace_flags_write_artifacts() {
        let dir = std::env::temp_dir();
        let metrics = dir.join("tconv_test_metrics.prom");
        let trace = dir.join("tconv_test_trace.jsonl");
        dispatch(&argv(&[
            "profile",
            "--demo",
            "--size",
            "16",
            "--kernel",
            "box3",
            "--trace",
            trace.to_str().unwrap(),
            "--metrics",
            metrics.to_str().unwrap(),
        ]))
        .unwrap();
        let prom = std::fs::read_to_string(&metrics).unwrap();
        assert!(
            prom.contains("# TYPE ta_core_frames_total counter"),
            "{prom}"
        );
        assert!(prom.contains("ta_core_nlse_ops_total"), "{prom}");
        let jsonl = std::fs::read_to_string(&trace).unwrap();
        assert!(jsonl.lines().any(|l| l.contains("\"exec.run\"")), "{jsonl}");
        // Every line is a JSON object.
        assert!(jsonl
            .lines()
            .all(|l| l.starts_with('{') && l.ends_with('}')));
        std::fs::remove_file(metrics).ok();
        std::fs::remove_file(trace).ok();
    }

    #[test]
    fn batch_metrics_include_journal_gauges() {
        // Regression: a journaled batch's `--metrics` snapshot must carry
        // the journal record/byte gauges (with HELP), matching what serve
        // mode exports for its own journal.
        let dir = std::env::temp_dir();
        let journal = dir.join(format!("tconv_test_batch_{}.wal", std::process::id()));
        let metrics = dir.join(format!("tconv_test_batch_{}.prom", std::process::id()));
        std::fs::remove_file(&journal).ok();
        dispatch(&argv(&[
            "batch",
            "--demo",
            "--frames",
            "2",
            "--size",
            "16",
            "--kernel",
            "box3",
            "--journal",
            journal.to_str().unwrap(),
            "--metrics",
            metrics.to_str().unwrap(),
        ]))
        .unwrap();
        let prom = std::fs::read_to_string(&metrics).unwrap();
        for needle in [
            "# HELP ta_runtime_journal_records",
            "# HELP ta_runtime_journal_bytes",
            "ta_runtime_journal_records",
            "ta_runtime_journal_bytes",
        ] {
            assert!(prom.contains(needle), "metrics lack {needle:?}:\n{prom}");
        }
        // The gauges reflect a real on-disk journal, not zeros.
        let records_line = prom
            .lines()
            .find(|l| l.starts_with("ta_runtime_journal_records "))
            .unwrap();
        let records: f64 = records_line
            .split_whitespace()
            .nth(1)
            .unwrap()
            .parse()
            .unwrap();
        assert!(
            records >= 2.0,
            "2 frames must leave >= 2 records: {records_line}"
        );
        std::fs::remove_file(journal).ok();
        std::fs::remove_file(metrics).ok();
    }

    #[test]
    fn top_once_renders_dashboard_from_live_server() {
        use std::time::Duration;
        let server = ta_serve::Server::bind(ta_serve::ServeConfig {
            idle_timeout: Duration::from_secs(5),
            ..ta_serve::ServeConfig::default()
        })
        .unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let handle = server.handle();
        let runner = std::thread::spawn(move || server.run().unwrap());

        // One served frame so the dashboard has traffic to show.
        let mut client = ta_serve::Client::connect_tcp(&addr, "dash").unwrap();
        let sub = ta_serve::Submit {
            id: 1,
            spec: ta_serve::wire::ArchSpec {
                kernel: "box3".into(),
                mode: ta_serve::wire::MODE_EXACT,
                unit_ns: 1.0,
                nlse_terms: 7,
                nlde_terms: 20,
                fault_rate: 0.0,
            },
            seed: 3,
            deadline_ms: 0,
            want_outputs: false,
            chaos: ta_serve::wire::Chaos::None,
            width: 12,
            height: 12,
            pixels: ta_image::synth::natural_image(12, 12, 3).pixels().to_vec(),
            trace: ta_telemetry::TraceId::ZERO,
        };
        assert!(matches!(
            client.submit(sub).unwrap(),
            ta_serve::Response::Done { .. }
        ));

        let out = dispatch(&argv(&["top", "--addr", &addr, "--once"])).unwrap();
        assert!(out.contains("tconv top"), "{out}");
        assert!(out.contains("submits"), "{out}");
        assert!(out.contains("shed fraction"), "{out}");
        assert!(out.contains("slo burn"), "{out}");
        assert!(
            out.contains("dash"),
            "the serving tenant must appear: {out}"
        );

        let _ = client.goodbye();
        handle.begin_drain();
        runner.join().unwrap();
    }

    #[test]
    fn top_without_server_fails_with_top_error() {
        // A port nobody listens on: connect must fail as CliError::Top.
        let err = dispatch(&argv(&["top", "--addr", "127.0.0.1:1", "--once"])).unwrap_err();
        assert!(matches!(err, CliError::Top(_)), "{err:?}");
        assert_eq!(err.exit_code(), 20);
    }

    #[test]
    fn inspect_bundle_accepts_valid_and_rejects_invalid() {
        let dir = std::env::temp_dir();
        let good = dir.join(format!("tconv_test_bundle_{}.jsonl", std::process::id()));
        std::fs::write(
            &good,
            concat!(
                "{\"type\":\"bundle\",\"version\":1,\"kind\":\"watchdog_timeout\",\"trace\":\"ab12\"}\n",
                "{\"type\":\"request\",\"trace\":\"ab12\",\"tenant\":\"acme\",\"id\":7}\n",
                "{\"type\":\"event\",\"seq\":1,\"name\":\"serve.admitted\",\"trace\":\"ab12\"}\n",
                "{\"type\":\"event\",\"seq\":2,\"name\":\"anomaly\",\"trace\":\"ab12\"}\n",
                "{\"type\":\"metrics\",\"snapshot\":{}}\n",
            ),
        )
        .unwrap();
        let out = dispatch(&argv(&["inspect-bundle", good.to_str().unwrap()])).unwrap();
        assert!(out.contains("watchdog_timeout"), "{out}");
        assert!(out.contains("ab12"), "{out}");
        assert!(out.contains("serve.admitted"), "{out}");

        let bad = dir.join(format!("tconv_test_badbundle_{}.jsonl", std::process::id()));
        std::fs::write(&bad, "{\"type\":\"event\"}\nnot json\n").unwrap();
        let err = dispatch(&argv(&["inspect-bundle", bad.to_str().unwrap()])).unwrap_err();
        assert!(matches!(err, CliError::Bundle(_)), "{err:?}");
        assert_eq!(err.exit_code(), 21);

        // Missing file is also a Bundle error, not a panic.
        let err = dispatch(&argv(&["inspect-bundle", "/nonexistent/b.jsonl"])).unwrap_err();
        assert!(matches!(err, CliError::Bundle(_)), "{err:?}");
        std::fs::remove_file(good).ok();
        std::fs::remove_file(bad).ok();
    }

    #[test]
    fn explore_quick() {
        let out = dispatch(&argv(&["explore", "--kernel", "box3", "--size", "24"])).unwrap();
        assert!(out.contains("pareto"));
        assert!(out.lines().count() > 10);
    }

    #[test]
    fn faults_campaign_runs_and_reproduces() {
        let cmd = [
            "faults",
            "--kernel",
            "box3",
            "--size",
            "10",
            "--rates",
            "0,0.2",
            "--trials",
            "2",
            "--pixel-sites",
            "4",
            "--seed",
            "5",
        ];
        let a = dispatch(&argv(&cmd)).unwrap();
        let b = dispatch(&argv(&cmd)).unwrap();
        assert_eq!(a, b, "seeded campaigns must reproduce bit-identically");
        assert!(a.contains("rate sweep"));
        assert!(a.contains("site sensitivity"));
    }

    #[test]
    fn serve_without_listeners_is_a_typed_error() {
        let e = dispatch(&argv(&["serve", "--tcp", "none"])).unwrap_err();
        assert!(matches!(e, CliError::Serve(_)), "{e}");
        assert_eq!(e.exit_code(), 18);
    }

    #[test]
    fn serve_drains_on_handle_and_reports_summary() {
        // In-process drain path: run the service on an ephemeral port and
        // stop it via the SIGTERM latch (the real signal handler sets the
        // same flag).
        ta_serve::signal::set_term_requested(false);
        let done = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let done2 = done.clone();
        let runner = std::thread::spawn(move || {
            let out = dispatch(&argv(&["serve", "--tcp", "127.0.0.1:0"]));
            done2.store(true, std::sync::atomic::Ordering::SeqCst);
            out
        });
        std::thread::sleep(std::time::Duration::from_millis(150));
        assert!(!done.load(std::sync::atomic::Ordering::SeqCst));
        ta_serve::signal::set_term_requested(true);
        let out = runner.join().unwrap().unwrap();
        ta_serve::signal::set_term_requested(false);
        assert!(out.contains("drained cleanly"), "{out}");
    }

    #[test]
    fn faults_rejects_bad_configuration() {
        assert!(matches!(
            dispatch(&argv(&["faults", "--size", "10", "--rates", "0,abc"])),
            Err(CliError::InvalidNumber { .. })
        ));
        assert!(matches!(
            dispatch(&argv(&["faults", "--size", "10", "--rates", "1.5"])),
            Err(CliError::Exec(_)) | Err(CliError::Fault(_))
        ));
        assert!(matches!(
            dispatch(&argv(&["faults", "--size", "10", "--mode", "importance"])),
            Err(CliError::Exec(_))
        ));
    }
}
