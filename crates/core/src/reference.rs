//! The serial reference engine the plan executor is verified against
//! (DESIGN.md §5.11).
//!
//! [`run_frame`] evaluates a frame with none of the hot path's machinery:
//! no compiled [`crate::plan::FramePlan`] (the tree shape, balancing
//! levels, row classes and cell numbering are re-derived here by the
//! recursion that defined them), no row-cell cache (every cycle is
//! recomputed from scratch), no thread pool (strictly serial). Under
//! counter-based RNG, recomputing a row cell from its
//! [`Domain::RowCycle`] stream *is* reuse — same stream, same draws, same
//! bits — so a cache hit in the optimised engine and a fresh evaluation
//! here must agree bit for bit, in all four arithmetic modes, clean or
//! faulted, at any worker count. The `plan_equivalence` integration test
//! pins exactly that.
//!
//! Nothing on the production path calls it: the equivalence test and the
//! `sequential` bench are its only users.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use ta_delay_space::DelayValue;
use ta_image::Image;
use ta_race_logic::{FaultObservation, NormalSampler};

use crate::census::{self, OpCounts};
use crate::exec::{combine_rails, run_importance, tree_mode_ops, ExecError, ShiftExps};
use crate::fault::{FaultError, FaultKind, FaultMap, FaultStats};
use crate::seed::{derive_seed, Domain};
use crate::transform::{DelayKernel, Rail};
use crate::tree::TreeOps;
use crate::{Architecture, ArithmeticMode, RunResult};

/// Row classes of one (kernel, rail): first-occurrence ids over bitwise
/// weight-row equality — independently re-deriving the numbering
/// convention [`crate::plan::FramePlan`] compiles, so the equivalence
/// test would catch a plan that mis-classifies rows.
fn row_classes(dk: &DelayKernel, rail: Rail) -> Vec<usize> {
    let (kw, kh) = (dk.width(), dk.height());
    let mut classes = Vec::with_capacity(kh);
    let mut reps: Vec<usize> = Vec::new();
    for ky in 0..kh {
        let same = |&rep: &usize| {
            (0..kw).all(|kx| {
                dk.rail_delay(rail, kx, rep).delay().to_bits()
                    == dk.rail_delay(rail, kx, ky).delay().to_bits()
            })
        };
        classes.push(reps.iter().position(same).unwrap_or_else(|| {
            reps.push(ky);
            reps.len() - 1
        }));
    }
    classes
}

/// One collected spine input: the value of a partial-free subtree that
/// feeds a spine node, with the balancing levels for its own edge
/// (`input_lv`, drawn from the row stream) and for the running spine
/// value it merges with (`spine_lv`, drawn from the consuming item's
/// stream).
struct SpineInput {
    value: DelayValue,
    input_lv: u32,
    spine_lv: u32,
}

enum Sub {
    /// A partial-free subtree: `(value, levels)`.
    Row(DelayValue, u32),
    /// The subtree containing the partial leaf: `levels`.
    Spine(u32),
}

/// Walks the path-balanced tree over `leaves + partial` exactly like
/// `tree::eval_rec`, evaluating the partial-free row nodes in place and
/// collecting the (unbalanced) spine inputs bottom-up. The partial is
/// the virtual last leaf (`index == leaves.len()`).
fn collect_rec(
    ops: &TreeOps<'_>,
    leaves: &[DelayValue],
    lo: usize,
    hi: usize,
    rng: &mut SmallRng,
    out: &mut Vec<SpineInput>,
) -> Sub {
    if hi - lo == 1 {
        return if lo == leaves.len() {
            Sub::Spine(0)
        } else {
            Sub::Row(leaves[lo], 0)
        };
    }
    let mid = (hi - lo).div_ceil(2);
    let left = collect_rec(ops, leaves, lo, lo + mid, rng, out);
    let right = collect_rec(ops, leaves, lo + mid, hi, rng, out);
    let k = ops.k();
    match (left, right) {
        (Sub::Row(a, ll), Sub::Row(b, rl)) => {
            let lv = ll.max(rl);
            let a = ops.balance(a, (lv - ll) as f64 * k, rng);
            let b = ops.balance(b, (lv - rl) as f64 * k, rng);
            Sub::Row(ops.combine(a, b, rng), lv + 1)
        }
        (Sub::Row(a, ll), Sub::Spine(rl)) => {
            let lv = ll.max(rl);
            out.push(SpineInput {
                value: a,
                input_lv: lv - ll,
                spine_lv: lv - rl,
            });
            Sub::Spine(lv + 1)
        }
        // The partial is the last leaf of a contiguous split: it can only
        // ever sit in a right subtree.
        (Sub::Spine(..), _) => unreachable!("partial leaf escaped the right spine"),
    }
}

/// Pushes one frame through the architecture serially and recursively —
/// same semantics as [`crate::exec::run`] / [`crate::exec::run_faulty`]
/// (pass an empty map for the clean path), minus the telemetry epilogue.
///
/// # Errors
///
/// [`ExecError::DimensionMismatch`] on geometry mismatch;
/// [`ExecError::Fault`] when faults are injected under
/// [`ArithmeticMode::ImportanceExact`].
pub fn run_frame(
    arch: &Architecture,
    image: &Image,
    mode: ArithmeticMode,
    seed: u64,
    faults: &FaultMap,
) -> Result<RunResult, ExecError> {
    let desc = arch.desc();
    if (image.width(), image.height()) != (desc.image_width(), desc.image_height()) {
        return Err(ExecError::DimensionMismatch {
            expected: (desc.image_width(), desc.image_height()),
            got: (image.width(), image.height()),
        });
    }
    if mode == ArithmeticMode::ImportanceExact {
        if !faults.is_empty() {
            return Err(FaultError::UnsupportedMode(mode).into());
        }
        return Ok(RunResult {
            outputs: run_importance(arch, image),
            energy: arch.energy_per_frame(),
            timing: arch.timing(),
            mode,
            fault_stats: FaultStats::default(),
            ops: OpCounts::default(),
            stages: None,
        });
    }

    let cfg = arch.cfg();
    let stride = desc.stride();
    let (ow, oh) = desc.output_dims();
    let kw = desc.kernel_width();
    let kh = desc.kernel_height();
    let noisy = mode == ArithmeticMode::DelayApproxNoisy;
    let approximate = mode != ArithmeticMode::DelayExact;
    let mut stats = FaultStats {
        sites_injected: faults.len(),
        ..FaultStats::default()
    };

    // Stage 1 — serial VTC conversion, one derived stream per image row
    // (identical to the pool version: counter-based seeding makes the
    // schedule irrelevant).
    let vtc = arch.vtc();
    let img_w = image.width();
    let img_h = image.height();
    let mut pixel_delays: Vec<DelayValue> = Vec::with_capacity(img_w * img_h);
    let mut sampler = NormalSampler::new();
    for y in 0..img_h {
        let mut rng = SmallRng::seed_from_u64(derive_seed(seed, Domain::VtcRow, y as u64));
        for (x, &p) in image.row(y).iter().enumerate() {
            let v = if noisy {
                vtc.convert_with(p, &mut rng, &mut sampler)
            } else {
                vtc.convert_ideal(p)
            };
            pixel_delays.push(match faults.pixel_fault(x, y) {
                None => v,
                Some(fault) => {
                    let mut obs = FaultObservation::default();
                    let v = fault.apply(v, &mut obs);
                    stats.absorb_observation(obs);
                    v
                }
            });
        }
    }

    let k_tree = if approximate {
        arch.tree_depth() as f64 * arch.nlse_unit().latency_units()
    } else {
        0.0
    };
    let loop_delay = arch.schedule().loop_delay_units;
    let truncate_at = if approximate {
        arch.schedule().cycle_units
    } else {
        f64::INFINITY
    };

    // Row-cell stream numbering: cumulative class count over (kernel,
    // rail) in declaration order, re-derived without the plan.
    let delay_kernels = arch.delay_kernels();
    let mut cell_bases: Vec<Vec<usize>> = Vec::with_capacity(delay_kernels.len());
    let mut classes: Vec<Vec<Vec<usize>>> = Vec::with_capacity(delay_kernels.len());
    let mut base = 0usize;
    for dk in delay_kernels {
        let mut kernel_bases = Vec::new();
        let mut kernel_classes = Vec::new();
        for &rail in dk.rails() {
            let cls = row_classes(dk, rail);
            let count = cls.iter().max().map_or(0, |&m| m + 1);
            kernel_bases.push(base);
            kernel_classes.push(cls);
            base += count;
        }
        cell_bases.push(kernel_bases);
        classes.push(kernel_classes);
    }

    // Stage 2 — serial, in flat item order, with the executor's canonical
    // loop structure (rail-outer, cycle, then column-inner spine pass and
    // a final rail-combine pass) so the two engines' per-stream draw
    // orders line up. Every cycle's shareable part is evaluated afresh
    // from its own RowCycle stream — recomputation is reuse.
    let mut outputs: Vec<Image> = (0..delay_kernels.len())
        .map(|_| Image::zeros(ow, oh))
        .collect();
    let mut leaves = vec![DelayValue::ZERO; kw];
    for item in 0..delay_kernels.len() * oh {
        let k_idx = item / oh;
        let oy = item % oh;
        let dk = &delay_kernels[k_idx];
        let shift_exps = ShiftExps::new(arch, arch.output_shift_units(k_idx, approximate));
        let mut rng = SmallRng::seed_from_u64(derive_seed(seed, Domain::TreeRow, item as u64));
        let mut rail_vals: [Vec<DelayValue>; 2] = [Vec::new(), Vec::new()];

        for (rail_i, &rail) in dk.rails().iter().enumerate() {
            let tree_drift = faults.tree_drift(k_idx, rail);
            let drift_saturates =
                mode != ArithmeticMode::DelayExact && tree_drift.is_some_and(|f| 1.0 + f < 0.0);
            let loop_drift = faults.loop_drift(k_idx, rail);
            let mut partials = vec![DelayValue::ZERO; ow];
            for (ky, &class) in classes[k_idx][rail_i].iter().enumerate() {
                let r = oy * stride + ky;
                // The whole cycle row, recomputed from the cell's own
                // stream. The cell index is keyed by the row *class* even
                // though the taps below use `ky` itself: same-class rows
                // are bitwise-equal, and a fault on this row must not
                // re-roll its noise.
                let cell = (cell_bases[k_idx][rail_i] + class) * img_h + r;
                let mut cell_rng =
                    SmallRng::seed_from_u64(derive_seed(seed, Domain::RowCycle, cell as u64));
                let realization = noisy.then(|| cfg.noise.begin_eval(cfg.unit, &mut cell_rng));
                let ops = tree_mode_ops(mode, arch.nlse_unit(), tree_drift, realization.as_ref());
                let k = ops.k();
                let mut row_inputs: Vec<Vec<SpineInput>> = Vec::with_capacity(ow);
                for ox in 0..ow {
                    for (kx, slot) in leaves.iter_mut().enumerate() {
                        let w = dk.rail_delay(rail, kx, ky);
                        if w.is_never() {
                            *slot = DelayValue::ZERO;
                            continue;
                        }
                        let weight_fault = faults.weight_fault(k_idx, rail, ky, kx);
                        let nominal = match weight_fault {
                            Some(FaultKind::DelayDrift { fraction }) => {
                                let factor = 1.0 + fraction;
                                if factor < 0.0 {
                                    stats.saturations += 1;
                                    0.0
                                } else {
                                    w.delay() * factor
                                }
                            }
                            _ => w.delay(),
                        };
                        let w_delay = match &realization {
                            Some(rz) => rz.perturb_units(nominal, &mut cell_rng),
                            None => nominal,
                        };
                        let mut leaf = pixel_delays[r * img_w + ox * stride + kx].delayed(w_delay);
                        if let Some(fault) = weight_fault.and_then(FaultKind::edge_fault) {
                            let mut obs = FaultObservation::default();
                            leaf = fault.apply(leaf, &mut obs);
                            stats.absorb_observation(obs);
                        }
                        *slot = if leaf.delay() > truncate_at {
                            DelayValue::ZERO
                        } else {
                            leaf
                        };
                    }
                    let mut inputs = Vec::new();
                    collect_rec(&ops, &leaves, 0, kw + 1, &mut cell_rng, &mut inputs);
                    for si in &mut inputs {
                        si.value = ops.balance(si.value, si.input_lv as f64 * k, &mut cell_rng);
                    }
                    row_inputs.push(inputs);
                }

                // Spine pass, from the consuming item's stream.
                for (ox, partial) in partials.iter_mut().enumerate() {
                    if drift_saturates {
                        stats.saturations += 1;
                    }
                    let mut s = *partial;
                    for si in &row_inputs[ox] {
                        s = ops.balance(s, si.spine_lv as f64 * k, &mut rng);
                        s = ops.combine(si.value, s, &mut rng);
                    }
                    let raw = s;
                    if ky + 1 < kh {
                        let jitter = match (&realization, raw.is_never()) {
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
                                let excess = if 1.0 + fraction < 0.0 {
                                    stats.saturations += 1;
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
            }
            rail_vals[rail_i] = partials;
        }

        let mut counts = OpCounts::default();
        for (ox, &pos_raw) in rail_vals[0].iter().enumerate() {
            let rail_raw = [
                pos_raw,
                if dk.rails().len() == 2 {
                    rail_vals[1][ox]
                } else {
                    DelayValue::ZERO
                },
            ];
            let value = combine_rails::<false>(
                arch,
                k_idx,
                dk.rails(),
                rail_raw,
                mode,
                &shift_exps,
                faults,
                &mut stats,
                &mut counts,
                &mut rng,
            );
            outputs[k_idx].set(ox, oy, value);
        }
    }

    Ok(RunResult {
        outputs,
        energy: arch.energy_per_frame(),
        timing: arch.timing(),
        mode,
        fault_stats: stats,
        ops: census::expected_ops(arch, mode),
        stages: None,
    })
}
