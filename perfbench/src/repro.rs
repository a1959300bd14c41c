//! The `repro_fig12` workload: `ta_experiments::fig12::compute` over the
//! paper's full 75-point grid on the Sobel pair, at a reduced frame edge
//! and one image per point.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use ta_approx::{NldeApprox, NlseApprox};
use ta_circuits::UnitScale;
use ta_core::dse::SweepGrid;
use ta_core::{ArchConfig, Architecture, SystemDescription};
use ta_experiments::fig12;
use ta_image::Kernel;

use crate::trace::Spans;
use crate::{sys, Phase, Window};

/// Frame edge of every design point. The paper uses 150; 32 keeps a full
/// sweep near 1.1 s on two cores, so one run measures over twenty sweeps
/// and their 90th percentile is not just the slowest one.
pub const EDGE: usize = 32;

/// A fixed sanity ceiling on each point's range-normalised RMSE. RMSE is
/// not pinned exactly: the noisy streams are allowed to change.
pub const RMSE_CEILING: f64 = 0.25;

type Key = (u64, usize, usize);

fn key(unit_ns: f64, nlse: usize, nlde: usize) -> Key {
    (unit_ns.to_bits(), nlse, nlde)
}

/// The grid's configurations in `dse::explore`'s order.
fn grid_configs(grid: &SweepGrid) -> Vec<(f64, usize, usize)> {
    let mut out = Vec::new();
    for &u in &grid.unit_scales_ns {
        for &s in &grid.nlse_terms {
            for &d in &grid.nlde_terms {
                out.push((u, s, d));
            }
        }
    }
    out
}

/// The set-up state: the sweep parameters, every point's closed-form
/// energy and, once the first sweep has run, every point's RMSE in it.
pub struct Repro {
    params: fig12::Params,
    energy_uj: HashMap<Key, f64>,
    first_rmse: HashMap<Key, f64>,
}

impl Repro {
    /// Sets up the sweep and returns it with its set-up time: one fit per
    /// nLSE and nLDE term count of the grid and one `Architecture::new`
    /// per design point.
    ///
    /// # Errors
    ///
    /// A message when a design point does not compile.
    pub fn start(seed: u64, spans: &mut Spans) -> Result<(Repro, f64), String> {
        let mut params = fig12::Params::full(seed);
        params.image_size = EDGE;
        params.images = 1;
        let started = Instant::now();
        let root = spans.begin("setup", "perfbench", 0);
        for &n in &params.grid.nlse_terms {
            black_box(spans.time("approx.fit", "ta-approx", 0, || NlseApprox::fit(n)));
        }
        for &n in &params.grid.nlde_terms {
            black_box(spans.time("approx.fit", "ta-approx", 0, || NldeApprox::fit(n)));
        }
        let desc =
            SystemDescription::new(EDGE, EDGE, vec![Kernel::sobel_x(), Kernel::sobel_y()], 1)
                .map_err(|e| e.to_string())?;
        let mut energy_uj = HashMap::new();
        for (unit_ns, nlse, nlde) in grid_configs(&params.grid) {
            let cfg = ArchConfig::new(
                UnitScale::new(unit_ns, params.grid.element_multiplier),
                nlse,
                nlde,
            );
            let arch = spans.time("core.compile", "ta-core", 0, || {
                Architecture::new(desc.clone(), cfg)
            });
            let arch = arch.map_err(|e| format!("({unit_ns} ns, {nlse}, {nlde}): {e}"))?;
            energy_uj.insert(key(unit_ns, nlse, nlde), arch.energy_per_frame().total_uj());
        }
        spans.end(root);
        Ok((
            Repro {
                params,
                energy_uj,
                first_rmse: HashMap::new(),
            },
            started.elapsed().as_secs_f64(),
        ))
    }

    /// Runs whole sweeps until `seconds` have passed; each sweep's wall
    /// time is one latency sample and each design point one frame.
    ///
    /// A point passes when its energy equals the closed form, its RMSE is
    /// finite and under [`RMSE_CEILING`], and its RMSE equals the one of
    /// the run's first sweep bit for bit: `dse::explore` derives every
    /// seed from the grid, so a sweep repeats exactly whichever pool
    /// worker runs which point. The energy check guards only the closed
    /// form (`dse::explore` calls `energy_per_frame` itself); the RMSE
    /// checks are the ones that see the simulated outputs.
    pub fn phase(&mut self, seconds: f64, spans: &mut Spans) -> (Phase, Vec<String>) {
        let started = Instant::now();
        let mut phase = Phase::default();
        let mut problems = Vec::new();
        while started.elapsed().as_secs_f64() < seconds {
            let sweep = spans.begin("experiments.fig12_sweep", "ta-experiments", 0);
            let from = sys::mark(started);
            let points = fig12::compute(&self.params);
            let to = sys::mark(started);
            spans.end(sweep);
            let ok_before = phase.ok;
            let expected = self.energy_uj.len() * self.params.images;
            phase.attempted += expected as u64;
            if points.len() != self.energy_uj.len() {
                problems.push(format!(
                    "sweep returned {} of {expected} points",
                    points.len()
                ));
                phase.mismatched += expected as u64;
                continue;
            }
            if !points.iter().any(|p| p.pareto) {
                problems.push("empty Pareto frontier".into());
                phase.mismatched += expected as u64;
                continue;
            }
            for p in &points {
                let k = key(p.unit_ns, p.nlse_terms, p.nlde_terms);
                let want = self.energy_uj.get(&k);
                let first = *self.first_rmse.entry(k).or_insert(p.rmse);
                let energy_ok = want == Some(&p.energy_uj);
                let rmse_ok = p.rmse.is_finite()
                    && p.rmse < RMSE_CEILING
                    && p.rmse.to_bits() == first.to_bits();
                if energy_ok && rmse_ok {
                    phase.ok += self.params.images as u64;
                } else {
                    phase.mismatched += self.params.images as u64;
                    problems.push(format!(
                        "point ({} ns, {}, {}): energy {} µJ (closed form {want:?}), \
                         rmse {} (first sweep {first})",
                        p.unit_ns, p.nlse_terms, p.nlde_terms, p.energy_uj, p.rmse
                    ));
                }
            }
            let mut window = Window::between(&from, &to, vec![(to.at_s - from.at_s) * 1e3]);
            window.ok = phase.ok - ok_before;
            phase.windows.push(window);
        }
        phase.wall_s = started.elapsed().as_secs_f64();
        (phase, problems)
    }
}
