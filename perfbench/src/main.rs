//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the environment record, then as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Exits non-zero when any output check fails.

use std::fs;
use std::path::Path;
use std::process::{Command, ExitCode};

use perfbench::{trace, Config, Report, Workload, RUN_DIR};
use ta_telemetry::ExactHistogram;

/// Set-up is timed in this many fresh processes besides the run's own,
/// and the median reported: fits are cached per process, so only a fresh
/// process pays for them.
const SETUP_PROBES: usize = 4;

const USAGE: &str = "usage: perfbench --workload <repro_fig12|serve_sobel150|serve_small_mix> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cfg, probe) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if probe {
        return match perfbench::setup_only(cfg.workload, cfg.seed) {
            Ok(s) => {
                println!("setup_s {s}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("set-up failed: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let mut setups = Vec::with_capacity(SETUP_PROBES + 1);
    if !cfg.trace {
        for _ in 0..SETUP_PROBES {
            match probe_setup(&cfg) {
                Ok(s) => setups.push(s),
                Err(e) => {
                    eprintln!("set-up probe failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    let report = match perfbench::run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{}: {e}", cfg.workload.name());
            return ExitCode::FAILURE;
        }
    };
    setups.push(report.setup_s);
    let setup_s = ExactHistogram::from_samples(&setups).percentile(0.5);

    for p in &report.problems {
        eprintln!("check failed: {p}");
    }
    if !cfg.trace {
        eprintln!("set-up samples (s): {setups:?}");
        eprintln!("sampling: {}", report.sampling);
    } else if let Err(e) = write_spans(&cfg, &report) {
        eprintln!("writing spans: {e}");
        return ExitCode::FAILURE;
    }
    println!("{{\"env\": {}}}", report.env);
    let mut metrics = Vec::new();
    if !cfg.trace {
        metrics.push(format!(
            "\"setup_s\": {{\"value\": {setup_s}, \"unit\": \"s\"}}"
        ));
    }
    for m in &report.metrics {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        metrics.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn parse(args: &[String]) -> Result<(Config, bool), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut probe = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--setup-probe" {
            probe = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload {value:?}"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    // A set-up probe measures no timed phase, so it takes no --seconds.
    let seconds = match seconds {
        Some(s) => s,
        None if probe => 0.0,
        None => return Err("--seconds is required".into()),
    };
    let cfg = Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    };
    Ok((cfg, probe))
}

/// Times the workload's set-up in a fresh process of this binary.
fn probe_setup(cfg: &Config) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args([
            "--workload",
            cfg.workload.name(),
            "--seed",
            &cfg.seed.to_string(),
        ])
        .arg("--setup-probe")
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    stdout
        .lines()
        .find_map(|l| l.strip_prefix("setup_s "))
        .and_then(|v| v.trim().parse().ok())
        .ok_or(format!("no setup_s in probe output {stdout:?}"))
}

/// Writes the traced run's spans and per-layer self times to
/// `.perfbench_run/spans-<workload>-<seed>.jsonl`, and the self times to
/// stderr.
fn write_spans(cfg: &Config, report: &Report) -> std::io::Result<()> {
    let path = Path::new(RUN_DIR).join(format!("spans-{}-{}.jsonl", cfg.workload.name(), cfg.seed));
    fs::create_dir_all(RUN_DIR)?;
    fs::write(&path, trace::to_jsonl(&report.env, &report.spans))?;
    eprintln!("spans: {}", path.display());
    eprintln!(
        "{:<16} {:>8} {:>12} {:>12}",
        "layer", "spans", "total_ms", "self_ms"
    );
    for (layer, (n, total, own)) in trace::self_times(&report.spans) {
        eprintln!("{layer:<16} {n:>8} {total:>12.3} {own:>12.3}");
    }
    Ok(())
}
