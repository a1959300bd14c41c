//! Executing images through a compiled architecture (§5.1).

use std::error::Error;
use std::fmt;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::SeedableRng;

use ta_circuits::{NldeUnit, NlseUnit, NoiseRealization};
use ta_delay_space::{ops, DelayValue};
use ta_image::Image;
use ta_race_logic::{FaultObservation, NormalSampler};
use ta_simd::SimdMode;

use crate::census::{self, OpCounts, StageProfile};
use crate::fault::{FaultError, FaultKind, FaultMap, FaultStats};
use crate::plan::{PlanCacheStats, RailPlan, Src};
use crate::seed::{derive_seed, Domain};
use crate::transform::Rail;
use crate::tree::TreeOps;
use crate::{Architecture, ArithmeticMode, RunResult};

/// Errors raised while executing a frame.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ExecError {
    /// The image does not match the architecture's pixel-array geometry.
    DimensionMismatch {
        /// Geometry the architecture was compiled for.
        expected: (usize, usize),
        /// Geometry of the supplied image.
        got: (usize, usize),
    },
    /// A fault-injection request could not be honoured.
    Fault(FaultError),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::DimensionMismatch { expected, got } => write!(
                f,
                "architecture compiled for {}×{} pixels, image is {}×{}",
                expected.0, expected.1, got.0, got.1
            ),
            ExecError::Fault(e) => write!(f, "fault injection: {e}"),
        }
    }
}

impl Error for ExecError {}

impl From<FaultError> for ExecError {
    fn from(e: FaultError) -> Self {
        ExecError::Fault(e)
    }
}

/// Pushes one frame through the architecture under the given arithmetic
/// mode. `seed` drives every stochastic element (VTC noise, RJ, PSIJ) and
/// is ignored by deterministic modes.
///
/// # Errors
///
/// Returns [`ExecError::DimensionMismatch`] if the image does not match
/// the compiled pixel-array geometry.
pub fn run(
    arch: &Architecture,
    image: &Image,
    mode: ArithmeticMode,
    seed: u64,
) -> Result<RunResult, ExecError> {
    execute(arch, image, mode, seed, &FaultMap::new(), true)
}

/// Twin of [`run`] without the telemetry epilogue (no op-count census, no
/// wall clock, no metric publication), so the `telemetry` criterion bench
/// can measure instrumentation overhead against a bare baseline living in
/// the same binary. The hot kernel is the *same* monomorphisation the
/// instrumented path executes — the measured delta is exactly the
/// telemetry work, not code-placement luck between two near-identical
/// function copies. Not intended for normal use: the result's
/// [`RunResult::ops`] is all zeros.
///
/// # Errors
///
/// Same contract as [`run`].
pub fn run_uninstrumented(
    arch: &Architecture,
    image: &Image,
    mode: ArithmeticMode,
    seed: u64,
) -> Result<RunResult, ExecError> {
    execute(arch, image, mode, seed, &FaultMap::new(), false)
}

/// Pushes one frame through the architecture with the given faults
/// injected. The same [`FaultMap`] drives [`crate::GateEngine::run_faulty`]
/// identically, so the two engines stay cross-checkable under injection.
///
/// With an empty map the arithmetic is bit-identical to [`run`]; fault
/// effects saturate into representable delay-space values and are counted
/// in the result's [`FaultStats`] instead of producing NaN or panics.
///
/// # Errors
///
/// [`ExecError::DimensionMismatch`] on geometry mismatch, and
/// [`ExecError::Fault`] with [`FaultError::UnsupportedMode`] for
/// [`ArithmeticMode::ImportanceExact`] — pure importance-space arithmetic
/// models no hardware elements to fault.
pub fn run_faulty(
    arch: &Architecture,
    image: &Image,
    mode: ArithmeticMode,
    seed: u64,
    faults: &FaultMap,
) -> Result<RunResult, ExecError> {
    if mode == ArithmeticMode::ImportanceExact {
        return Err(FaultError::UnsupportedMode(mode).into());
    }
    execute(arch, image, mode, seed, faults, true)
}

/// The one body behind [`run`], [`run_uninstrumented`] and
/// [`run_faulty`]: geometry check, dispatch and result assembly.
///
/// With `instrumented`, the frame dispatches once on the tracer's
/// profiling flag: the profiling twin carries the genuine
/// per-leaf/per-cycle counters and the stage clocks; the common twin
/// runs the bare kernel and takes its (deterministic, data-independent)
/// op counts from the closed form instead — validated against the
/// genuine counters by the census tests, and free on the hot path.
/// Faults never change those counts: trees are evaluated (and charged)
/// whether or not their edges fire. Without `instrumented` the common
/// twin runs and nothing is counted, timed or published.
fn execute(
    arch: &Architecture,
    image: &Image,
    mode: ArithmeticMode,
    seed: u64,
    faults: &FaultMap,
    instrumented: bool,
) -> Result<RunResult, ExecError> {
    let desc = arch.desc();
    if (image.width(), image.height()) != (desc.image_width(), desc.image_height()) {
        return Err(ExecError::DimensionMismatch {
            expected: (desc.image_width(), desc.image_height()),
            got: (image.width(), image.height()),
        });
    }

    let started = instrumented.then(Instant::now);
    let mut stats = FaultStats {
        sites_injected: faults.len(),
        ..FaultStats::default()
    };
    let (outputs, ops, stages) = match mode {
        ArithmeticMode::ImportanceExact => (run_importance(arch, image), OpCounts::default(), None),
        _ if instrumented && ta_telemetry::tracer().profiling() => {
            let (outputs, ops, stages, cache) =
                run_delay::<true>(arch, image, mode, seed, faults, &mut stats);
            census::publish_plan_cache(cache);
            (outputs, ops, stages)
        }
        _ => {
            let (outputs, ops, stages, cache) =
                run_delay::<false>(arch, image, mode, seed, faults, &mut stats);
            if instrumented {
                census::publish_plan_cache(cache);
                (outputs, census::expected_ops(arch, mode), stages)
            } else {
                (outputs, ops, stages)
            }
        }
    };

    let result = RunResult {
        outputs,
        energy: arch.energy_per_frame(),
        timing: arch.timing(),
        mode,
        fault_stats: stats,
        ops,
        stages,
    };
    if let Some(started) = started {
        census::publish_frame(&result, started.elapsed());
    }
    Ok(result)
}

/// Importance-space arithmetic routed through the engine's schedule: rail
/// accumulators advance row by row exactly like the recurrent trees, and
/// rails combine through a final subtraction — the paper's first
/// verification mode.
pub(crate) fn run_importance(arch: &Architecture, image: &Image) -> Vec<Image> {
    let desc = arch.desc();
    let stride = desc.stride();
    let (ow, oh) = desc.output_dims();
    desc.kernels()
        .iter()
        .map(|kernel| {
            let (pos_k, neg_k) = kernel.split_signs();
            Image::from_fn(ow, oh, |ox, oy| {
                let mut pos = 0.0;
                let mut neg = 0.0;
                for ky in 0..kernel.height() {
                    // One rolling-shutter cycle: this kernel row's products
                    // join the running rail partials.
                    for kx in 0..kernel.width() {
                        let p = image.get(ox * stride + kx, oy * stride + ky);
                        pos += pos_k.weight(kx, ky) * p;
                        neg += neg_k.weight(kx, ky) * p;
                    }
                }
                pos - neg
            })
        })
        .collect()
}

/// Per-worker accumulator for the parallel row stage: output rows plus
/// every counter the serial engine used to update in place. Workers fill
/// private instances; [`run_delay`] merges them once at join, so the
/// merged totals are exact (the census tests compare them against the
/// closed-form op counts) and identical at any worker count.
struct RowAcc {
    /// `(flat item index, output row)` pairs, reassembled by the caller.
    rows: Vec<(usize, Vec<f64>)>,
    counts: OpCounts,
    stats: FaultStats,
    stage: StageProfile,
    /// Row cells this worker computed (cache first-uses plus faulted-row
    /// bypasses) and served from the frame-local cache. The totals are
    /// schedule-independent even though the split between workers is not.
    rows_computed: u64,
    rows_reused: u64,
}

impl RowAcc {
    fn new() -> Self {
        RowAcc {
            rows: Vec::new(),
            counts: OpCounts::default(),
            stats: FaultStats::default(),
            stage: StageProfile::default(),
            rows_computed: 0,
            rows_reused: 0,
        }
    }
}

/// Delay-space execution (exact, approximate or noisy hardware), with
/// optional site-addressed fault injection. Every fault lookup keeps the
/// fault-free expression verbatim in its `None` arm, so an empty map is
/// bit-identical to the unfaulted engine.
///
/// The frame is data-parallel and runs on [`ta_pool::Pool::current`]:
/// stage 1 converts pixels through the VTC one *image row* per work
/// item; stage 2 evaluates the recurrent MAC trees one *(kernel, output
/// row)* per work item, driven by the architecture's compiled
/// [`crate::plan::FramePlan`] — a flat, cache-friendly encoding of the
/// balanced nLSE tree with the per-level balancing delays and finite tap
/// lists precomputed at `Architecture::new` time, executed iteratively
/// instead of by recursive descent. The partial-free part of each cycle
/// (the *row cell*) is shared across stride-shifted output rows through
/// a frame-local cache (DESIGN.md §5.11). Determinism at every worker
/// count is structural: each work item seeds its own `SmallRng` from
/// [`derive_seed`]`(seed, domain, item)` — [`Domain::VtcRow`] for stage
/// 1, [`Domain::TreeRow`] for stage 2, [`Domain::RowCycle`] for the
/// shared row cells — so no RNG state crosses an item boundary and the
/// schedule cannot influence a single draw. All other mutable state
/// (fault counters, op counts, stage clocks) accumulates per worker in
/// [`RowAcc`] and merges order-insensitively at join.
///
/// `PROF` selects the profiling twin: genuine per-leaf/per-cycle op
/// counters plus per-stage clocks (an `Instant` pair per inner-loop
/// stage — too expensive even to branch on dynamically, so the caller
/// dispatches on the tracer's profiling flag once per frame and the
/// common twin monomorphises every hook away). Stage durations are the
/// *sum of per-worker busy time* — CPU-seconds, not wall-clock — which
/// coincides with the old meaning on one thread and keeps the per-stage
/// energy attribution thread-count-independent. Instrumentation is
/// purely observational — it never touches the RNG streams or the
/// arithmetic, so both twins are bit-identical.
fn run_delay<const PROF: bool>(
    arch: &Architecture,
    image: &Image,
    mode: ArithmeticMode,
    seed: u64,
    faults: &FaultMap,
    stats: &mut FaultStats,
) -> (Vec<Image>, OpCounts, Option<StageProfile>, PlanCacheStats) {
    let desc = arch.desc();
    let stride = desc.stride();
    let (ow, oh) = desc.output_dims();
    let kw = desc.kernel_width();
    let kh = desc.kernel_height();
    let noisy = mode == ArithmeticMode::DelayApproxNoisy;
    let approximate = mode != ArithmeticMode::DelayExact;
    let pool = ta_pool::Pool::current();

    let mut counts = OpCounts::default();
    let mut stage = StageProfile::default();
    let stage_clock = || -> Option<Instant> { PROF.then(Instant::now) };

    // Stage 1 — pixel readout, parallel over image rows: one VTC
    // conversion per pixel (noise applied here for the noisy mode, from
    // the row's derived stream; the same converted value feeds every MAC
    // block that uses the pixel, as in hardware). Pixel faults hit the
    // converted edge, so every reader of the pixel sees the same faulted
    // value.
    let vtc = arch.vtc();
    let img_w = image.width();
    let img_h = image.height();
    let simd = ta_simd::mode();
    let mut pixel_delays: Vec<DelayValue> = vec![DelayValue::ZERO; img_w * img_h];
    for (acc_rows, acc_stats, busy) in pool.run(
        img_h,
        || (Vec::new(), FaultStats::default(), Duration::ZERO),
        |y, (acc_rows, acc_stats, busy): &mut (Vec<(usize, Vec<DelayValue>)>, _, _)| {
            let t_vtc = stage_clock();
            let mut rng = SmallRng::seed_from_u64(derive_seed(seed, Domain::VtcRow, y as u64));
            let pixels = image.row(y);
            let mut row: Vec<DelayValue> = if noisy {
                // One sampler per row, reset inside `convert_with` at
                // each pixel: identical RNG draw order to the old
                // sampler-per-pixel construction, without the per-pixel
                // setup.
                let mut sampler = NormalSampler::new();
                pixels
                    .iter()
                    .map(|&p| vtc.convert_with(p, &mut rng, &mut sampler))
                    .collect()
            } else {
                pixels.iter().map(|&p| vtc.convert_ideal(p)).collect()
            };
            for (x, v) in row.iter_mut().enumerate() {
                if let Some(fault) = faults.pixel_fault(x, y) {
                    let mut obs = FaultObservation::default();
                    *v = fault.apply(*v, &mut obs);
                    acc_stats.absorb_observation(obs);
                }
            }
            acc_rows.push((y, row));
            if let Some(t) = t_vtc {
                *busy += t.elapsed();
            }
        },
    ) {
        stats.merge(&acc_stats);
        stage.vtc_encode += busy;
        for (y, row) in acc_rows {
            pixel_delays[y * img_w..(y + 1) * img_w].copy_from_slice(&row);
        }
    }
    if PROF {
        counts.vtc_conversions = pixel_delays.len() as u64;
    }
    let pixel_delays: &[DelayValue] = &pixel_delays;

    let k_tree = if approximate {
        arch.tree_depth() as f64 * arch.nlse_unit().latency_units()
    } else {
        0.0
    };
    let loop_delay = arch.schedule().loop_delay_units;
    // Edges pushed past the reference-frame boundary carry importance
    // below e^-cycle and are truncated by the hardware (see
    // `Architecture::new`); the exact mode is the mathematical reference
    // and keeps them.
    let truncate_at = if approximate {
        arch.schedule().cycle_units
    } else {
        f64::INFINITY
    };

    // Stage 2 — tree evaluation over the compiled plan (see `plan`),
    // parallel over (kernel, output row) items. Flat item index
    // `item = k_idx * oh + oy` names both the output row and its RNG
    // stream. Each cycle splits at the recurrent spine: the partial-free
    // *row cell* — weighted, truncated leaves plus every row-node
    // reduction, exported as the balanced spine inputs for all output
    // columns — is a pure function of `(kernel, rail, weight-row class,
    // input row)` drawing from its own [`Domain::RowCycle`] stream, so
    // the stride-shifted output rows whose windows overlap share it
    // through a frame-local `OnceLock` cache, bit-identically in every
    // arithmetic mode. Weight-faulted rows bypass the cache (their value
    // differs) but draw the *same* stream as their clean twin, so fault
    // injection never re-rolls the noise.
    let plan = arch.plan();
    let n_spine = plan.tree.spine.len();
    let delay_kernels = arch.delay_kernels();
    // Decoder exponentials, one pair per kernel per frame (the shift is
    // row-invariant; recomputing `exp(shift)` per output pixel was pure
    // waste).
    let shift_exps: Vec<ShiftExps> = (0..delay_kernels.len())
        .map(|k_idx| ShiftExps::new(arch, arch.output_shift_units(k_idx, approximate)))
        .collect();
    // Per-work-item stream seeds, precomputed once per frame.
    let tree_seeds: Vec<u64> = (0..delay_kernels.len() * oh)
        .map(|item| derive_seed(seed, Domain::TreeRow, item as u64))
        .collect();
    // Per-level balancing delays with the unit latency K pre-applied
    // (all zero in the exact mode) — indexed by skipped levels, bit-for-
    // bit the recursive engine's `(levels − l) as f64 * K`.
    let lvl_units = plan.balance_units(if approximate {
        arch.nlse_unit().latency_units()
    } else {
        0.0
    });

    // Weight faults per (kernel, rail, weight row), hoisted out of the
    // hot loop: `None` marks a clean (cacheable) row, `Some` carries the
    // per-tap overlay for the inline path.
    type TapOverlay = Option<Vec<Option<FaultKind>>>;
    let fault_rows: Option<Vec<Vec<Vec<TapOverlay>>>> = (!faults.is_empty()).then(|| {
        plan.kernels
            .iter()
            .enumerate()
            .map(|(k_idx, kp)| {
                kp.rails
                    .iter()
                    .map(|rp| {
                        (0..kh)
                            .map(|ky| {
                                let tf: Vec<Option<FaultKind>> = rp.taps[ky]
                                    .finite
                                    .iter()
                                    .map(|&(kx, _)| {
                                        faults.weight_fault(k_idx, rp.rail, ky, kx as usize)
                                    })
                                    .collect();
                                tf.iter().any(Option::is_some).then_some(tf)
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect()
    });

    // The frame-local row-cell cache: one slot per (kernel, rail, class,
    // input row). `OnceLock` keeps concurrent workers deterministic: the
    // cell is a pure function of its key, so whoever computes it first
    // stores the bits every other worker would have.
    let cells: Vec<OnceLock<RowCell>> = std::iter::repeat_with(OnceLock::new)
        .take(plan.row_classes() * img_h)
        .collect();

    let ctx = CellCtx {
        arch,
        faults,
        mode,
        noisy,
        seed,
        truncate_at,
        kw,
        lvl_units: &lvl_units,
        pixel_delays,
        img_w,
        img_h,
        ow,
        stride,
        simd,
    };

    let row_accs = pool.run(delay_kernels.len() * oh, RowAcc::new, |item, acc| {
        let k_idx = item / oh;
        let oy = item % oh;
        let kp = &plan.kernels[k_idx];
        let sx = &shift_exps[k_idx];
        let mut rng = SmallRng::seed_from_u64(tree_seeds[item]);
        // The per-leaf/per-cycle counters live in scalar locals (not
        // `acc.counts` fields) so they stay in registers across the
        // inner loops; `acc.counts` is threaded by `&mut` through
        // `combine_rails`, which would force reloads around every call.
        let mut edge_events: u64 = 0;
        let mut nlse_ops: u64 = 0;
        let mut rail_vals: [Vec<DelayValue>; 2] = [Vec::new(), Vec::new()];

        for (rail_i, rp) in kp.rails.iter().enumerate() {
            let tree_drift = faults.tree_drift(k_idx, rp.rail);
            // The recursive engine counted one saturation per tree
            // evaluation; the exact mode has no chains to age.
            let drift_saturates =
                mode != ArithmeticMode::DelayExact && tree_drift.is_some_and(|f| 1.0 + f < 0.0);
            let loop_drift = faults.loop_drift(k_idx, rp.rail);
            // Batched spine pass: each spine step's inputs are one
            // contiguous row of the cell, so the whole recurrence streams
            // through the SIMD kernels. Qualifies only when nothing in
            // the rail draws from the stream or perturbs per column —
            // no noise (clean cells carry no realization), no tree or
            // loop drift — and never on the profiling twin (per-column
            // clocks and counters).
            let spine_batch = !PROF
                && simd != SimdMode::Off
                && !noisy
                && tree_drift.is_none()
                && loop_drift.is_none();
            let exact = mode == ArithmeticMode::DelayExact;
            let mut partials: Vec<DelayValue> = if spine_batch {
                Vec::new()
            } else {
                vec![DelayValue::ZERO; ow] // no edges yet
            };
            let mut partials_f: Vec<f64> = if spine_batch {
                vec![f64::INFINITY; ow]
            } else {
                Vec::new()
            };
            for ky in 0..kh {
                let r = oy * stride + ky;
                let overlay = fault_rows
                    .as_ref()
                    .and_then(|fr| fr[k_idx][rail_i][ky].as_deref());
                let inline_cell;
                let cell: &RowCell = match overlay {
                    None => {
                        // Clean row: serve the (kernel, rail, class, r)
                        // cell from the cache, computing it on first use
                        // from the class representative's taps.
                        let class = rp.class_of[ky] as usize;
                        let idx = (rp.cell_base + class) * img_h + r;
                        let mut fresh = false;
                        let cell = cells[idx].get_or_init(|| {
                            fresh = true;
                            compute_row_cell::<PROF>(
                                &ctx,
                                k_idx,
                                rp,
                                rp.class_rep[class] as usize,
                                r,
                                None,
                                acc,
                            )
                        });
                        if fresh {
                            acc.rows_computed += 1;
                        } else {
                            acc.rows_reused += 1;
                        }
                        cell
                    }
                    Some(overlay) => {
                        // Faulted row: same stream, fresh value.
                        inline_cell =
                            compute_row_cell::<PROF>(&ctx, k_idx, rp, ky, r, Some(overlay), acc);
                        acc.rows_computed += 1;
                        &inline_cell
                    }
                };

                let ops = tree_mode_ops(
                    mode,
                    arch.nlse_unit(),
                    tree_drift,
                    cell.realization.as_ref(),
                );
                if PROF {
                    edge_events += cell.edges;
                    // One nLSE op per internal node, charged on *every*
                    // use: the hardware in every MAC block still
                    // switches — only the simulator reuses — which keeps
                    // the dynamic census equal to the static one.
                    nlse_ops += (plan.tree.row_nodes.len() + n_spine) as u64 * ow as u64;
                }
                let t_tree = stage_clock();
                if spine_batch {
                    // Balanced accumulate, one spine step across every
                    // output column: `combine(cell_row, balance(acc,
                    // units))`, identical operand order to the scalar
                    // loop below.
                    for (s_i, step) in plan.tree.spine.iter().enumerate() {
                        let row = &cell.vals[s_i * ow..(s_i + 1) * ow];
                        let bal = lvl_units[step.spine_bal as usize];
                        if exact {
                            ta_simd::nlse_exact_rows_inplace(row, 0.0, &mut partials_f, bal);
                        } else {
                            arch.nlse_unit().eval_ideal_rows_inplace(
                                row,
                                0.0,
                                &mut partials_f,
                                bal,
                            );
                        }
                    }
                    if ky + 1 < kh {
                        // Loop back: jitter is zero on the clean path, so
                        // only the reference-frame cancellation of the
                        // tree latency remains (`+∞` rides through the
                        // add unchanged, like the scalar never-guard).
                        ta_simd::add_units(&mut partials_f, 0.0 - k_tree);
                    }
                    if let Some(t) = t_tree {
                        acc.stage.nlse_tree += t.elapsed();
                    }
                    continue;
                }
                for (ox, partial) in partials.iter_mut().enumerate() {
                    if drift_saturates {
                        acc.stats.saturations += 1;
                    }
                    let mut s = *partial;
                    if PROF {
                        edge_events += u64::from(!s.is_never());
                    }
                    for (s_i, step) in plan.tree.spine.iter().enumerate() {
                        s = ops.balance(s, lvl_units[step.spine_bal as usize], &mut rng);
                        s = ops.combine(
                            DelayValue::from_delay(cell.vals[s_i * ow + ox]),
                            s,
                            &mut rng,
                        );
                    }
                    let raw = s;
                    if ky + 1 < kh {
                        // Loop back: the reference-frame shift cancels
                        // the tree latency; only loop-line jitter
                        // survives into the value.
                        let jitter = match (&cell.realization, raw.is_never()) {
                            (Some(rz), false) => {
                                rz.perturb_units(loop_delay, &mut rng) - loop_delay
                            }
                            _ => 0.0,
                        };
                        *partial = match loop_drift {
                            None => {
                                if raw.is_never() {
                                    raw
                                } else {
                                    raw.delayed(jitter - k_tree)
                                }
                            }
                            Some(fraction) => {
                                // The drifted loop line realises
                                // loop_delay × (1 + fraction) while the
                                // reference-frame shift still cancels
                                // the nominal; the excess survives.
                                let excess = if 1.0 + fraction < 0.0 {
                                    acc.stats.saturations += 1;
                                    -loop_delay
                                } else {
                                    loop_delay * fraction
                                };
                                if raw.is_never() {
                                    raw
                                } else {
                                    raw.delayed(jitter + excess - k_tree)
                                }
                            }
                        };
                    } else {
                        *partial = raw;
                    }
                }
                if let Some(t) = t_tree {
                    acc.stage.nlse_tree += t.elapsed();
                }
            }
            rail_vals[rail_i] = if spine_batch {
                // Back to the newtype for rail renormalisation (non-NaN
                // by construction, so the round-trip is lossless).
                partials_f.into_iter().map(DelayValue::from_delay).collect()
            } else {
                partials
            };
        }

        let t_renorm = stage_clock();
        let rails = delay_kernels[k_idx].rails();
        let mut row_out: Vec<f64> = Vec::with_capacity(ow);
        for (ox, &pos_raw) in rail_vals[0].iter().enumerate() {
            let rail_raw = [
                pos_raw,
                if rails.len() == 2 {
                    rail_vals[1][ox]
                } else {
                    DelayValue::ZERO
                },
            ];
            row_out.push(combine_rails::<PROF>(
                arch,
                k_idx,
                rails,
                rail_raw,
                mode,
                sx,
                faults,
                &mut acc.stats,
                &mut acc.counts,
                &mut rng,
            ));
        }
        if let Some(t) = t_renorm {
            acc.stage.nlde_renorm += t.elapsed();
        }
        if PROF {
            acc.counts.edge_events += edge_events;
            acc.counts.nlse_ops += nlse_ops;
        }
        acc.rows.push((item, row_out));
    });

    let mut outputs: Vec<Image> = (0..delay_kernels.len())
        .map(|_| Image::zeros(ow, oh))
        .collect();
    let mut cache = PlanCacheStats::default();
    for acc in row_accs {
        stats.merge(&acc.stats);
        cache.computed += acc.rows_computed;
        cache.reused += acc.rows_reused;
        if PROF {
            counts += acc.counts;
            stage += acc.stage;
        }
        for (item, row) in acc.rows {
            let out = &mut outputs[item / oh];
            let oy = item % oh;
            for (ox, &value) in row.iter().enumerate() {
                out.set(ox, oy, value);
            }
        }
    }
    (outputs, counts, PROF.then_some(stage), cache)
}

/// One row cell: the balanced spine inputs for every output column plus
/// the cycle's noise realization and its data-dependent profiling
/// counters — everything an output row consumes from the shareable part
/// of a cycle.
struct RowCell {
    /// `spine_len × ow` balanced spine inputs as raw delays, spine-step
    /// major: `vals[s_i * ow + ox]`. Step-major rows keep each spine
    /// step's inputs contiguous so the batched spine pass streams them
    /// through the SIMD kernels; the scalar path re-wraps single
    /// elements through [`DelayValue::from_delay`] (the engine
    /// guarantees non-NaN, so the round-trip is free and lossless).
    vals: Vec<f64>,
    /// The cycle's common-mode noise realization (noisy mode only); the
    /// spine pass and loop line of every consuming output row see the
    /// same supply excursion the row's weight lines saw.
    realization: Option<NoiseRealization>,
    /// Finite leaves that fired (post-truncation), added to the census on
    /// *every* use so reuse keeps the dynamic counters exact.
    edges: u64,
}

/// Immutable per-frame context shared by every row-cell computation.
struct CellCtx<'a> {
    arch: &'a Architecture,
    faults: &'a FaultMap,
    mode: ArithmeticMode,
    noisy: bool,
    seed: u64,
    truncate_at: f64,
    kw: usize,
    lvl_units: &'a [f64],
    pixel_delays: &'a [DelayValue],
    img_w: usize,
    img_h: usize,
    ow: usize,
    stride: usize,
    /// The session's SIMD dispatch mode; `Off` pins every cell to the
    /// scalar golden path.
    simd: SimdMode,
}

/// Selects the tree-node arithmetic for one cycle: mode × tree-chain
/// drift fault × noise realization. The exact mode evaluates pure
/// mathematics — there are no chains for drift to age.
pub(crate) fn tree_mode_ops<'a>(
    mode: ArithmeticMode,
    unit: &'a NlseUnit,
    tree_drift: Option<f64>,
    realization: Option<&'a NoiseRealization>,
) -> TreeOps<'a> {
    match (mode, tree_drift, realization) {
        (ArithmeticMode::DelayExact, ..) => TreeOps::Exact,
        (ArithmeticMode::DelayApprox, None, _) => TreeOps::Approx(unit),
        (ArithmeticMode::DelayApprox, Some(f), _) => TreeOps::Drifted(unit, f),
        (ArithmeticMode::DelayApproxNoisy, None, Some(rz)) => TreeOps::Noisy(unit, rz),
        (ArithmeticMode::DelayApproxNoisy, Some(f), Some(rz)) => TreeOps::NoisyDrifted(unit, rz, f),
        (ArithmeticMode::DelayApproxNoisy, _, None) | (ArithmeticMode::ImportanceExact, ..) => {
            unreachable!("noisy cycles carry a realization; importance mode never reaches trees")
        }
    }
}

/// Resolves a tree-program operand against the current scratch arrays.
#[inline]
fn fetch(src: Src, leaves: &[DelayValue], nodes: &[DelayValue]) -> DelayValue {
    match src {
        Src::Leaf(i) => leaves[i as usize],
        Src::Node(i) => nodes[i as usize],
    }
}

/// Evaluates one row cell — the cycle's weighted, truncated leaves and
/// every partial-free tree reduction for all output columns, exported as
/// the balanced spine inputs. Draws exclusively from the cell's own
/// [`Domain::RowCycle`] stream (indexed by the cell's slot), making the
/// result a pure function of `(kernel, rail, class, input row)` — the
/// property both the cache and the reference engine rely on. `ky` is the
/// weight row whose taps (and, via `overlay`, faults) apply: the class
/// representative for cached cells, the consuming row itself for the
/// faulted inline path.
#[allow(clippy::too_many_arguments)]
fn compute_row_cell<const PROF: bool>(
    ctx: &CellCtx<'_>,
    k_idx: usize,
    rp: &RailPlan,
    ky: usize,
    r: usize,
    overlay: Option<&[Option<FaultKind>]>,
    acc: &mut RowAcc,
) -> RowCell {
    let cfg = ctx.arch.cfg();
    let plan = ctx.arch.plan();
    let class = rp.class_of[ky] as usize;
    let cell_idx = (rp.cell_base + class) * ctx.img_h + r;
    let mut rng = SmallRng::seed_from_u64(derive_seed(ctx.seed, Domain::RowCycle, cell_idx as u64));
    // One noise realization covers the whole cycle: PSIJ is common-mode
    // supply droop, so the weight lines, tree chains and loop line of a
    // cycle all see the same excursion — and because the cell is keyed
    // by what it computes, every output row sharing it sees that same
    // excursion, which is exactly what makes reuse bit-identical.
    let realization = ctx.noisy.then(|| cfg.noise.begin_eval(cfg.unit, &mut rng));
    let tree_drift = ctx.faults.tree_drift(k_idx, rp.rail);
    let ops = tree_mode_ops(
        ctx.mode,
        ctx.arch.nlse_unit(),
        tree_drift,
        realization.as_ref(),
    );
    let n_spine = plan.tree.spine.len();
    let mut vals = vec![f64::INFINITY; ctx.ow * n_spine];

    // Batched cell evaluation: whole output-column rows stream through
    // the `ta-simd` kernels instead of one column at a time. Only pure
    // cycles qualify — no noise realization (nothing draws from `rng`
    // in the Exact/Approx ops, so skipping the column loop cannot shift
    // a stream), no weight-fault overlay, no tree-chain drift — and the
    // profiling twin keeps the scalar loop for its per-column clocks
    // and edge counters. The kernels replicate the scalar engine f64-op
    // for f64-op.
    if !PROF && ctx.simd != SimdMode::Off && !ctx.noisy && overlay.is_none() && tree_drift.is_none()
    {
        compute_row_cell_batch(ctx, rp, ky, r, &mut vals);
        return RowCell {
            vals,
            realization,
            edges: 0,
        };
    }

    let mut leaves = vec![DelayValue::ZERO; ctx.kw];
    let mut nodes = vec![DelayValue::ZERO; plan.tree.row_nodes.len()];
    let mut edges: u64 = 0;
    let taps = &rp.taps[ky];

    for ox in 0..ctx.ow {
        let t_matrix = PROF.then(Instant::now);
        for slot in leaves.iter_mut() {
            *slot = DelayValue::ZERO;
        }
        for (t_i, &(kx, w_units)) in taps.finite.iter().enumerate() {
            let weight_fault = overlay.and_then(|tf| tf[t_i]);
            let nominal = match weight_fault {
                Some(FaultKind::DelayDrift { fraction }) => {
                    let factor = 1.0 + fraction;
                    if factor < 0.0 {
                        // A delay line cannot advance edges: saturate
                        // at zero.
                        acc.stats.saturations += 1;
                        0.0
                    } else {
                        w_units * factor
                    }
                }
                _ => w_units,
            };
            let w_delay = match &realization {
                Some(rz) => rz.perturb_units(nominal, &mut rng),
                None => nominal,
            };
            let mut leaf =
                ctx.pixel_delays[r * ctx.img_w + ox * ctx.stride + kx as usize].delayed(w_delay);
            if let Some(fault) = weight_fault.and_then(FaultKind::edge_fault) {
                let mut obs = FaultObservation::default();
                leaf = fault.apply(leaf, &mut obs);
                acc.stats.absorb_observation(obs);
            }
            let leaf = if leaf.delay() > ctx.truncate_at {
                DelayValue::ZERO
            } else {
                leaf
            };
            // Edge events are data-dependent and feed no energy
            // cross-check; a branchless add on the hot path.
            if PROF {
                edges += u64::from(!leaf.is_never());
            }
            leaves[kx as usize] = leaf;
        }
        if let Some(t) = t_matrix {
            acc.stage.delay_matrix += t.elapsed();
        }
        let t_tree = PROF.then(Instant::now);
        for n_i in 0..nodes.len() {
            let node = plan.tree.row_nodes[n_i];
            let a = ops.balance(
                fetch(node.left, &leaves, &nodes),
                ctx.lvl_units[node.left_bal as usize],
                &mut rng,
            );
            let b = ops.balance(
                fetch(node.right, &leaves, &nodes),
                ctx.lvl_units[node.right_bal as usize],
                &mut rng,
            );
            nodes[n_i] = ops.combine(a, b, &mut rng);
        }
        for (s_i, step) in plan.tree.spine.iter().enumerate() {
            vals[s_i * ctx.ow + ox] = ops
                .balance(
                    fetch(step.input, &leaves, &nodes),
                    ctx.lvl_units[step.input_bal as usize],
                    &mut rng,
                )
                .delay();
        }
        if let Some(t) = t_tree {
            acc.stage.nlse_tree += t.elapsed();
        }
    }
    RowCell {
        vals,
        realization,
        edges,
    }
}

/// Resolves a tree-program operand to its batched output-column row.
#[inline]
fn fetch_row<'a>(src: Src, leaves: &'a [f64], nodes: &'a [f64], ow: usize) -> &'a [f64] {
    match src {
        Src::Leaf(i) => &leaves[i as usize * ow..(i as usize + 1) * ow],
        Src::Node(i) => &nodes[i as usize * ow..(i as usize + 1) * ow],
    }
}

/// Batched twin of the column loop in [`compute_row_cell`]: evaluates the
/// cycle one whole output-column row per tree operand, through the
/// `ta-simd` kernels. Callers guarantee a pure cycle (no noise, no
/// overlay, no drift), so this is the `TreeOps::Exact` / `TreeOps::Approx`
/// arithmetic only. Every kernel replicates the scalar engine
/// bit-for-bit (same comparator flavors, same balance short-circuit,
/// libm transcendentals in the exact mode).
fn compute_row_cell_batch(ctx: &CellCtx<'_>, rp: &RailPlan, ky: usize, r: usize, vals: &mut [f64]) {
    let plan = ctx.arch.plan();
    let unit = ctx.arch.nlse_unit();
    let exact = ctx.mode == ArithmeticMode::DelayExact;
    let ow = ctx.ow;
    let taps = &rp.taps[ky];

    // Raw delays of the input row (NaN-free: `DelayValue` guarantees it).
    let px: Vec<f64> = ctx.pixel_delays[r * ctx.img_w..(r + 1) * ctx.img_w]
        .iter()
        .map(|v| v.delay())
        .collect();

    // Weighted, truncated leaves: one contiguous row per tap position;
    // positions without a finite tap stay never for every column.
    let mut leaf_rows = vec![f64::INFINITY; ctx.kw * ow];
    for &(kx, w_units) in &taps.finite {
        let kx = kx as usize;
        ta_simd::weighted_leaves(
            &px[kx..],
            ctx.stride,
            w_units,
            ctx.truncate_at,
            &mut leaf_rows[kx * ow..(kx + 1) * ow],
        );
    }

    // Row-node reductions. Nodes are emitted bottom-up (a node only
    // references earlier nodes), so `split_at_mut` yields the output row
    // disjoint from every operand row.
    let mut node_rows = vec![0.0_f64; plan.tree.row_nodes.len() * ow];
    for n_i in 0..plan.tree.row_nodes.len() {
        let node = plan.tree.row_nodes[n_i];
        let (prev, rest) = node_rows.split_at_mut(n_i * ow);
        let out = &mut rest[..ow];
        let a = fetch_row(node.left, &leaf_rows, prev, ow);
        let b = fetch_row(node.right, &leaf_rows, prev, ow);
        let au = ctx.lvl_units[node.left_bal as usize];
        let bu = ctx.lvl_units[node.right_bal as usize];
        if exact {
            ta_simd::nlse_exact_rows(a, au, b, bu, out);
        } else {
            unit.eval_ideal_rows(a, au, b, bu, out);
        }
    }

    // Balanced spine exports: copy, then add the balance units unless
    // the count is exactly `0.0` (the balance short-circuit preserving
    // `-0.0`, uniform across the row).
    for (s_i, step) in plan.tree.spine.iter().enumerate() {
        let out = &mut vals[s_i * ow..(s_i + 1) * ow];
        out.copy_from_slice(fetch_row(step.input, &leaf_rows, &node_rows, ow));
        let units = ctx.lvl_units[step.input_bal as usize];
        if units != 0.0 {
            ta_simd::add_units(out, units);
        }
    }
}

/// One kernel's decoder scale factors, hoisted out of the per-pixel
/// decode: the reference-frame shift is invariant per (kernel, frame), so
/// `exp(shift)` — and the approximate modes' `exp(shift + K_nlde)`, where
/// the readout adds the subtraction unit's nominal latency — need one
/// `exp` each per kernel instead of one per output pixel. The memoized
/// values are the very same `f64::exp` results the per-pixel form
/// produced, so decoding is bit-identical by construction.
pub(crate) struct ShiftExps {
    /// `exp(shift)` — exact mode and single-rail decode.
    exp_shift: f64,
    /// `exp(shift + K_nlde)` — split-rail decode in the approximate
    /// modes (equals `exp_shift` for architectures without an nLDE unit,
    /// which never take that path).
    exp_shift_lat: f64,
}

impl ShiftExps {
    pub(crate) fn new(arch: &Architecture, shift: f64) -> Self {
        let lat = arch.nlde_unit().map_or(0.0, NldeUnit::latency_units);
        ShiftExps {
            exp_shift: shift.exp(),
            exp_shift_lat: (shift + lat).exp(),
        }
    }
}

/// Renormalises the split rails through the subtraction unit and decodes
/// to a signed importance-space value.
#[allow(clippy::too_many_arguments)]
pub(crate) fn combine_rails<const PROF: bool>(
    arch: &Architecture,
    k_idx: usize,
    rails: &[Rail],
    rail_raw: [DelayValue; 2],
    mode: ArithmeticMode,
    sx: &ShiftExps,
    faults: &FaultMap,
    stats: &mut FaultStats,
    counts: &mut OpCounts,
    rng: &mut SmallRng,
) -> f64 {
    let cfg = arch.cfg();
    if PROF {
        if rails.len() == 2 {
            counts.nlde_ops += 1;
        }
        // The decode closure below quantises through the TDC once per
        // combine in the approximate modes.
        if cfg.tdc.is_some()
            && matches!(
                mode,
                ArithmeticMode::DelayApprox | ArithmeticMode::DelayApproxNoisy
            )
        {
            counts.tdc_conversions += 1;
        }
    }
    // `exp_total_shift` is the memoized `exp()` of the decoder's total
    // shift (`sx.exp_shift` or `sx.exp_shift_lat`), computed once per
    // kernel per frame instead of once per output pixel.
    let decode = |edge: DelayValue, exp_total_shift: f64| -> f64 {
        let edge = match (cfg.tdc, mode) {
            (Some(tdc), ArithmeticMode::DelayApprox | ArithmeticMode::DelayApproxNoisy) => {
                tdc.quantize(edge, cfg.unit)
            }
            _ => edge,
        };
        edge.decode() * exp_total_shift
    };

    if rails.len() == 1 {
        return decode(rail_raw[0], sx.exp_shift);
    }

    // Split representation: route the dominant rail's difference out.
    let (pos, neg) = (rail_raw[0], rail_raw[1]);
    let (minuend, subtrahend, sign) = if pos <= neg {
        (pos, neg, 1.0)
    } else {
        (neg, pos, -1.0)
    };
    match mode {
        ArithmeticMode::DelayExact => {
            // Exact subtraction is pure mathematics; an nLDE-chain drift
            // fault has no hardware to act on here. The comparator above
            // ordered the operands, so nLDE cannot fail; if the invariant
            // ever broke, saturating to "never" mirrors the hardware
            // (a missing edge, not a crash).
            let diff = ops::nlde(minuend, subtrahend).unwrap_or(DelayValue::ZERO);
            sign * decode(diff, sx.exp_shift)
        }
        ArithmeticMode::DelayApprox => {
            let Some(unit) = arch.nlde_unit() else {
                unreachable!("split kernels carry an nLDE unit")
            };
            let diff = match faults.nlde_drift(k_idx) {
                None => unit.eval_ideal(minuend, subtrahend),
                Some(f) => {
                    if 1.0 + f < 0.0 {
                        stats.saturations += 1;
                    }
                    unit.eval_drifted(minuend, subtrahend, f)
                }
            };
            // The decoder's shift stays nominal: the fixed readout cannot
            // know the chains drifted, which is exactly how drift becomes
            // output error.
            sign * decode(diff, sx.exp_shift_lat)
        }
        ArithmeticMode::DelayApproxNoisy => {
            let Some(unit) = arch.nlde_unit() else {
                unreachable!("split kernels carry an nLDE unit")
            };
            let realization = cfg.noise.begin_eval(cfg.unit, rng);
            let diff = match faults.nlde_drift(k_idx) {
                None => unit.eval_noisy(minuend, subtrahend, &realization, rng),
                Some(f) => {
                    if 1.0 + f < 0.0 {
                        stats.saturations += 1;
                    }
                    unit.eval_noisy_drifted(minuend, subtrahend, &realization, rng, f)
                }
            };
            sign * decode(diff, sx.exp_shift_lat)
        }
        ArithmeticMode::ImportanceExact => unreachable!("handled in run_importance"),
    }
}

/// Pushes a sequence of frames through the architecture (a rolling camera
/// stream): each frame gets a distinct derived seed, and the engine's
/// per-frame energy and timing aggregate linearly — the pipelining claim
/// of §5.3 (the engine never becomes the bottleneck; the camera does).
///
/// Returns one [`RunResult`] per frame.
///
/// # Errors
///
/// Returns [`ExecError::DimensionMismatch`] for the first frame that does
/// not match the compiled geometry.
pub fn run_sequence(
    arch: &Architecture,
    frames: &[Image],
    mode: ArithmeticMode,
    seed: u64,
) -> Result<Vec<RunResult>, ExecError> {
    frames
        .iter()
        .enumerate()
        .map(|(i, frame)| {
            run(
                arch,
                frame,
                mode,
                derive_seed(seed, Domain::Frame, i as u64),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use crate::fault::{FaultModel, FaultSite};
    use crate::{ArchConfig, SystemDescription};
    use ta_image::{conv, metrics, synth, Kernel};

    fn arch_for(kernels: Vec<Kernel>, stride: usize, size: usize) -> Architecture {
        let desc = SystemDescription::new(size, size, kernels, stride).unwrap();
        Architecture::new(desc, ArchConfig::fast_1ns(7, 20)).unwrap()
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let arch = arch_for(vec![Kernel::box_filter(3)], 1, 16);
        let img = synth::natural_image(8, 8, 0);
        assert!(matches!(
            run(&arch, &img, ArithmeticMode::DelayExact, 0),
            Err(ExecError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn importance_mode_equals_software_conv() {
        let arch = arch_for(vec![Kernel::sobel_x(), Kernel::sobel_y()], 1, 24);
        let img = synth::natural_image(24, 24, 1);
        let result = run(&arch, &img, ArithmeticMode::ImportanceExact, 0).unwrap();
        for (out, kernel) in result.outputs.iter().zip(arch.desc().kernels()) {
            let reference = conv::convolve(&img, kernel, 1);
            assert!(metrics::rmse(out, &reference) < 1e-12);
        }
    }

    #[test]
    fn delay_exact_equals_software_conv() {
        // §5.1: exact delay-space ops reproduce software convolution after
        // conversion back to importance space.
        for kernels in [
            vec![Kernel::pyr_down_5x5()],
            vec![Kernel::sobel_x(), Kernel::sobel_y()],
        ] {
            let stride = if kernels[0].width() == 5 { 2 } else { 1 };
            let arch = arch_for(kernels, stride, 24);
            let img = synth::natural_image(24, 24, 2);
            let result = run(&arch, &img, ArithmeticMode::DelayExact, 0).unwrap();
            for (out, kernel) in result.outputs.iter().zip(arch.desc().kernels()) {
                // The VTC's dynamic-range floor clips pixels below e^-6;
                // compare against the convolution of the clipped image.
                let clipped = img.map(|p| p.max((-6.0_f64).exp()));
                let reference = conv::convolve(&clipped, kernel, stride);
                let err = metrics::normalized_rmse(out, &reference);
                assert!(err < 1e-9, "{}: nrmse {err}", kernel.name());
            }
        }
    }

    #[test]
    fn approx_mode_tracks_reference_within_percent_band() {
        let arch = arch_for(vec![Kernel::pyr_down_5x5()], 2, 32);
        let img = synth::natural_image(32, 32, 3);
        let result = run(&arch, &img, ArithmeticMode::DelayApprox, 0).unwrap();
        let reference = conv::convolve(&img, &Kernel::pyr_down_5x5(), 2);
        let err = metrics::normalized_rmse(&result.outputs[0], &reference);
        assert!(err > 0.0, "approximation must not be exact");
        assert!(err < 0.1, "nrmse {err}");
    }

    #[test]
    fn approx_split_kernel_keeps_signs() {
        let arch = arch_for(vec![Kernel::sobel_x()], 1, 24);
        // A hard vertical edge: strong positive response at the edge.
        let img = Image::from_fn(24, 24, |x, _| if x < 12 { 0.1 } else { 0.9 });
        let result = run(&arch, &img, ArithmeticMode::DelayApprox, 0).unwrap();
        let reference = conv::convolve(&img, &Kernel::sobel_x(), 1);
        // Sign agreement on strong responses.
        let out = &result.outputs[0];
        for y in 0..out.height() {
            for x in 0..out.width() {
                let r = reference.get(x, y);
                if r.abs() > 0.5 {
                    assert!(
                        out.get(x, y) * r > 0.0,
                        "sign flip at ({x},{y}): {} vs {r}",
                        out.get(x, y)
                    );
                }
            }
        }
    }

    #[test]
    fn noisy_mode_is_seeded_and_degrades_gracefully() {
        let arch = arch_for(vec![Kernel::pyr_down_5x5()], 2, 32);
        let img = synth::natural_image(32, 32, 4);
        let a = run(&arch, &img, ArithmeticMode::DelayApproxNoisy, 42).unwrap();
        let b = run(&arch, &img, ArithmeticMode::DelayApproxNoisy, 42).unwrap();
        assert_eq!(a.outputs[0], b.outputs[0], "same seed, same frame");
        let c = run(&arch, &img, ArithmeticMode::DelayApproxNoisy, 43).unwrap();
        assert_ne!(a.outputs[0], c.outputs[0], "seeds must differ");

        let reference = conv::convolve(&img, &Kernel::pyr_down_5x5(), 2);
        let noisy_err = metrics::normalized_rmse(&a.outputs[0], &reference);
        let clean = run(&arch, &img, ArithmeticMode::DelayApprox, 0).unwrap();
        let clean_err = metrics::normalized_rmse(&clean.outputs[0], &reference);
        assert!(noisy_err > clean_err * 0.5, "noise should not help much");
        assert!(noisy_err < 0.2, "noisy nrmse {noisy_err}");
    }

    #[test]
    fn related_seeds_produce_independent_noise() {
        // Regression for the old `seed ^ 0x7a11_5eed` purpose fold: the
        // engine xor'ed a constant into the caller's seed, so seeds `s`
        // and `s ^ 0x7a11_5eed` collapsed onto the identical noise
        // stream. Derived per-row streams must keep them independent.
        let arch = arch_for(vec![Kernel::pyr_down_5x5()], 2, 32);
        let img = synth::natural_image(32, 32, 4);
        let s = 42u64;
        let a = run(&arch, &img, ArithmeticMode::DelayApproxNoisy, s).unwrap();
        let b = run(
            &arch,
            &img,
            ArithmeticMode::DelayApproxNoisy,
            s ^ 0x7a11_5eed,
        )
        .unwrap();
        assert_ne!(
            a.outputs[0], b.outputs[0],
            "xor-related seeds must not alias onto one noise stream"
        );
    }

    #[test]
    fn sequences_aggregate_linearly_with_distinct_noise() {
        let arch = arch_for(vec![Kernel::box_filter(3)], 1, 16);
        let frames: Vec<_> = (0..3).map(|i| synth::natural_image(16, 16, i)).collect();
        let runs = run_sequence(&arch, &frames, ArithmeticMode::DelayApproxNoisy, 7).unwrap();
        assert_eq!(runs.len(), 3);
        let total: f64 = runs.iter().map(|r| r.energy.total_pj()).sum();
        assert!((total - 3.0 * runs[0].energy.total_pj()).abs() < 1e-9);
        // Identical frames still draw different noise per position.
        let same = vec![frames[0].clone(), frames[0].clone()];
        let reruns = run_sequence(&arch, &same, ArithmeticMode::DelayApproxNoisy, 7).unwrap();
        assert_ne!(reruns[0].outputs[0], reruns[1].outputs[0]);
    }

    #[test]
    fn degenerate_geometries_run() {
        // 1×1 kernel, stride larger than the kernel, image exactly
        // kernel-sized.
        for (kernels, stride, size) in [
            (vec![Kernel::new("id", 1, 1, vec![0.5])], 3, 9),
            (vec![Kernel::box_filter(3)], 5, 13),
            (vec![Kernel::box_filter(3)], 1, 3),
        ] {
            let arch = arch_for(kernels.clone(), stride, size);
            let img = synth::natural_image(size, size, 2);
            let run = run(&arch, &img, ArithmeticMode::DelayExact, 0).unwrap();
            let reference =
                conv::convolve(&img.map(|p| p.max((-6.0_f64).exp())), &kernels[0], stride);
            assert!(
                metrics::normalized_rmse(&run.outputs[0], &reference) < 1e-9,
                "{} s{stride} {size}px",
                kernels[0].name()
            );
        }
    }

    #[test]
    fn energy_identical_across_modes() {
        let arch = arch_for(vec![Kernel::sobel_x()], 1, 16);
        let img = synth::natural_image(16, 16, 5);
        let e: Vec<f64> = ArithmeticMode::ALL
            .iter()
            .map(|&m| run(&arch, &img, m, 1).unwrap().energy.total_pj())
            .collect();
        for w in e.windows(2) {
            assert_eq!(w[0], w[1]);
        }
        assert!(e[0] > 0.0);
    }

    #[test]
    fn empty_fault_map_is_bit_identical() {
        // Acceptance gate of the fault subsystem: with no faults injected,
        // every delay mode's output carries the exact same bits as the
        // fault-free engine.
        let arch = arch_for(vec![Kernel::sobel_x(), Kernel::sobel_y()], 1, 12);
        let img = synth::natural_image(12, 12, 6);
        let empty = FaultMap::new();
        for mode in [
            ArithmeticMode::DelayExact,
            ArithmeticMode::DelayApprox,
            ArithmeticMode::DelayApproxNoisy,
        ] {
            let plain = run(&arch, &img, mode, 11).unwrap();
            let faulty = run_faulty(&arch, &img, mode, 11, &empty).unwrap();
            for (a, b) in plain.outputs.iter().zip(&faulty.outputs) {
                for (pa, pb) in a.pixels().iter().zip(b.pixels()) {
                    assert_eq!(pa.to_bits(), pb.to_bits(), "{mode:?}");
                }
            }
            assert_eq!(faulty.fault_stats, FaultStats::default());
        }
    }

    #[test]
    fn importance_mode_rejects_faults() {
        let arch = arch_for(vec![Kernel::box_filter(3)], 1, 8);
        let img = synth::natural_image(8, 8, 0);
        assert!(matches!(
            run_faulty(
                &arch,
                &img,
                ArithmeticMode::ImportanceExact,
                0,
                &FaultMap::new()
            ),
            Err(ExecError::Fault(FaultError::UnsupportedMode(_)))
        ));
    }

    #[test]
    fn faulty_runs_are_seeded_and_reproducible() {
        let arch = arch_for(vec![Kernel::sobel_x()], 1, 12);
        let img = synth::natural_image(12, 12, 7);
        let map = FaultModel::with_rate(0.05).unwrap().sample(&arch, 3);
        assert!(!map.is_empty());
        let a = run_faulty(&arch, &img, ArithmeticMode::DelayApproxNoisy, 9, &map).unwrap();
        let b = run_faulty(&arch, &img, ArithmeticMode::DelayApproxNoisy, 9, &map).unwrap();
        assert_eq!(a.outputs[0], b.outputs[0]);
        assert_eq!(a.fault_stats, b.fault_stats);
        assert_eq!(a.fault_stats.sites_injected, map.len());
    }

    #[test]
    fn stuck_weight_degrades_but_never_panics_or_nans() {
        let arch = arch_for(vec![Kernel::sobel_x()], 1, 12);
        let img = synth::natural_image(12, 12, 8);
        let clean = run(&arch, &img, ArithmeticMode::DelayApprox, 0).unwrap();
        let reference = conv::convolve(&img, &Kernel::sobel_x(), 1);

        let mut map = FaultMap::new();
        map.insert(
            FaultSite::WeightLine {
                kernel: 0,
                rail: Rail::Pos,
                ky: 0,
                kx: 2,
            },
            FaultKind::StuckAtNever,
        )
        .unwrap();
        let faulty = run_faulty(&arch, &img, ArithmeticMode::DelayApprox, 0, &map).unwrap();
        assert!(faulty.outputs[0].pixels().iter().all(|p| p.is_finite()));
        assert!(faulty.fault_stats.edges_faulted > 0);
        let clean_err = metrics::normalized_rmse(&clean.outputs[0], &reference);
        let faulty_err = metrics::normalized_rmse(&faulty.outputs[0], &reference);
        assert!(
            faulty_err > clean_err,
            "a stuck weight line must hurt accuracy: {faulty_err} vs {clean_err}"
        );
    }

    #[test]
    fn drift_faults_saturate_gracefully() {
        let arch = arch_for(vec![Kernel::pyr_down_5x5()], 2, 16);
        let img = synth::natural_image(16, 16, 9);
        let mut map = FaultMap::new();
        // Below -100%: the loop line and a weight line saturate at zero
        // delay rather than advancing edges.
        map.insert(
            FaultSite::LoopLine {
                kernel: 0,
                rail: Rail::Pos,
            },
            FaultKind::DelayDrift { fraction: -2.0 },
        )
        .unwrap();
        map.insert(
            FaultSite::WeightLine {
                kernel: 0,
                rail: Rail::Pos,
                ky: 2,
                kx: 2,
            },
            FaultKind::DelayDrift { fraction: -3.0 },
        )
        .unwrap();
        let faulty = run_faulty(&arch, &img, ArithmeticMode::DelayApprox, 0, &map).unwrap();
        assert!(faulty.outputs[0].pixels().iter().all(|p| p.is_finite()));
        assert!(faulty.fault_stats.saturations > 0);
    }
}
