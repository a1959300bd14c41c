//! Functional model of the nLSE accumulation tree (§4.3).
//!
//! The tree is built recursively over its leaves exactly like the
//! gate-level constructor in `ta_race_logic::blocks::build_nlse_tree`:
//! the left subtree takes `ceil(n/2)` leaves, shallower subtrees are
//! path-balanced with delays equal to one nLSE block latency per skipped
//! level (inserted as deep as possible), and the root's output carries a
//! uniform shift of `depth × K`.

use rand::rngs::SmallRng;
use ta_circuits::{NlseUnit, NoiseRealization};
use ta_delay_space::{ops, DelayValue};

/// How tree nodes combine values.
pub(crate) enum TreeOps<'a> {
    /// Exact nLSE (zero latency, no balancing needed).
    Exact,
    /// Ideal approximation hardware.
    Approx(&'a NlseUnit),
    /// Approximation hardware with noisy delay elements.
    Noisy(&'a NlseUnit, &'a NoiseRealization),
    /// Approximation hardware whose shared chains (unit taps and the
    /// balancing delay lines alike) have drifted by a multiplicative
    /// fraction — the tree-chain fault-injection path.
    Drifted(&'a NlseUnit, f64),
    /// Drifted chains with noisy delay elements on top.
    NoisyDrifted(&'a NlseUnit, &'a NoiseRealization, f64),
}

impl TreeOps<'_> {
    /// The per-level latency `K` in abstract units (the *design* latency:
    /// drift perturbs realised delays, not the balancing structure).
    /// The iterative executor pre-applies `K` into the plan's balance
    /// table instead; only the recursive reference engine still asks.
    pub(crate) fn k(&self) -> f64 {
        match self {
            TreeOps::Exact => 0.0,
            TreeOps::Approx(u)
            | TreeOps::Noisy(u, _)
            | TreeOps::Drifted(u, _)
            | TreeOps::NoisyDrifted(u, _, _) => u.latency_units(),
        }
    }

    /// The multiplicative factor drift applies to realised chain delays.
    fn drift_factor(&self) -> f64 {
        match self {
            TreeOps::Exact | TreeOps::Approx(_) | TreeOps::Noisy(..) => 1.0,
            TreeOps::Drifted(_, f) | TreeOps::NoisyDrifted(_, _, f) => (1.0 + f).max(0.0),
        }
    }

    pub(crate) fn combine(&self, a: DelayValue, b: DelayValue, rng: &mut SmallRng) -> DelayValue {
        match self {
            TreeOps::Exact => ops::nlse(a, b),
            TreeOps::Approx(u) => u.eval_ideal(a, b),
            TreeOps::Noisy(u, r) => u.eval_noisy(a, b, r, rng),
            TreeOps::Drifted(u, f) => u.eval_drifted(a, b, *f),
            TreeOps::NoisyDrifted(u, r, f) => u.eval_noisy_drifted(a, b, r, rng, *f),
        }
    }

    pub(crate) fn balance(&self, v: DelayValue, units: f64, rng: &mut SmallRng) -> DelayValue {
        if units == 0.0 || v.is_never() {
            return v;
        }
        match self {
            TreeOps::Exact | TreeOps::Approx(_) => v.delayed(units),
            TreeOps::Noisy(_, r) => v.delayed(r.perturb_units(units, rng)),
            TreeOps::Drifted(..) => v.delayed(units * self.drift_factor()),
            TreeOps::NoisyDrifted(_, r, _) => {
                v.delayed(r.perturb_units(units * self.drift_factor(), rng))
            }
        }
    }
}

/// Tree depth (levels of nLSE blocks) for a given fan-in.
pub(crate) fn depth(fan_in: usize) -> u32 {
    assert!(fan_in >= 1, "tree needs at least one leaf");
    let mut d = 0;
    let mut n = fan_in;
    while n > 1 {
        n = n.div_ceil(2);
        d += 1;
    }
    d
}

/// Evaluates the tree over `leaves`, returning the root edge (including
/// the uniform `depth × K` shift for approximate modes). Superseded on
/// the hot path by the compiled plan (`crate::plan`); kept for the unit
/// tests that pin the tree semantics the plan must reproduce.
#[cfg(test)]
pub(crate) fn eval(ops: &TreeOps<'_>, leaves: &[DelayValue], rng: &mut SmallRng) -> DelayValue {
    assert!(!leaves.is_empty(), "tree needs at least one leaf");
    eval_rec(ops, leaves, rng).0
}

#[cfg(test)]
fn eval_rec(ops: &TreeOps<'_>, leaves: &[DelayValue], rng: &mut SmallRng) -> (DelayValue, u32) {
    if leaves.len() == 1 {
        return (leaves[0], 0);
    }
    let mid = leaves.len().div_ceil(2);
    let (mut left, l_lv) = eval_rec(ops, &leaves[..mid], rng);
    let (mut right, r_lv) = eval_rec(ops, &leaves[mid..], rng);
    let levels = l_lv.max(r_lv);
    let k = ops.k();
    if l_lv < levels {
        left = ops.balance(left, (levels - l_lv) as f64 * k, rng);
    }
    if r_lv < levels {
        right = ops.balance(right, (levels - r_lv) as f64 * k, rng);
    }
    (ops.combine(left, right, rng), levels + 1)
}

/// Per-evaluation energy bookkeeping of one tree pass: returns
/// `(nlse_op_fired_input_counts, balancing_delay_units_fired)` given which
/// leaves fire. Mirrors the recursion exactly so the static energy model
/// charges precisely the hardware that switches.
pub(crate) fn firing_profile(fired: &[bool]) -> FiringProfile {
    let mut profile = FiringProfile::default();
    profile_rec(fired, &mut profile);
    profile
}

/// Switching activity of one tree evaluation.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct FiringProfile {
    /// One entry per internal nLSE block: how many of its two inputs fire.
    pub fired_inputs: Vec<usize>,
    /// Total balancing delay traversed by firing edges, in units of `K`.
    pub balance_k_units: f64,
}

fn profile_rec(fired: &[bool], profile: &mut FiringProfile) -> (bool, u32) {
    if fired.len() == 1 {
        return (fired[0], 0);
    }
    let mid = fired.len().div_ceil(2);
    let (l_fires, l_lv) = profile_rec(&fired[..mid], profile);
    let (r_fires, r_lv) = profile_rec(&fired[mid..], profile);
    let levels = l_lv.max(r_lv);
    if l_fires && l_lv < levels {
        profile.balance_k_units += (levels - l_lv) as f64;
    }
    if r_fires && r_lv < levels {
        profile.balance_k_units += (levels - r_lv) as f64;
    }
    profile
        .fired_inputs
        .push(l_fires as usize + r_fires as usize);
    (l_fires || r_fires, levels + 1)
}

/// Total *static* balancing delay built into a tree of the given fan-in,
/// in units of `K` (for area accounting).
pub(crate) fn static_balance_k_units(fan_in: usize) -> f64 {
    fn rec(n: usize) -> (f64, u32) {
        if n == 1 {
            return (0.0, 0);
        }
        let mid = n.div_ceil(2);
        let (l_sum, l_lv) = rec(mid);
        let (r_sum, r_lv) = rec(n - mid);
        let levels = l_lv.max(r_lv);
        let balance = (levels - l_lv) as f64 + (levels - r_lv) as f64;
        (l_sum + r_sum + balance, levels + 1)
    }
    rec(fan_in).0
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use rand::SeedableRng;
    use ta_circuits::UnitScale;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(0)
    }

    fn dv(t: f64) -> DelayValue {
        DelayValue::from_delay(t)
    }

    #[test]
    fn depth_formula() {
        assert_eq!(depth(1), 0);
        assert_eq!(depth(2), 1);
        assert_eq!(depth(3), 2);
        assert_eq!(depth(4), 2);
        assert_eq!(depth(5), 3);
        assert_eq!(depth(8), 3);
        assert_eq!(depth(9), 4);
    }

    #[test]
    fn exact_tree_is_nary_nlse() {
        let leaves: Vec<DelayValue> = [0.3, 1.2, 0.7, 2.0, 0.1].iter().map(|&t| dv(t)).collect();
        let got = eval(&TreeOps::Exact, &leaves, &mut rng());
        let expect = ops::nlse_many(&leaves);
        assert!((got.delay() - expect.delay()).abs() < 1e-12);
    }

    #[test]
    fn approx_tree_shift_is_depth_times_k() {
        let unit = NlseUnit::with_terms(5, UnitScale::default_1ns());
        let k = unit.latency_units();
        let tree_ops = TreeOps::Approx(&unit);
        // All-equal inputs of a 4-leaf tree: every level adds exactly K
        // plus the approximation of a 2-way equal merge.
        let leaves = vec![dv(1.0); 4];
        let got = eval(&tree_ops, &leaves, &mut rng());
        let exact = ops::nlse_many(&leaves);
        let err = got.delay() - 2.0 * k - exact.delay();
        assert!(
            err.abs() < 2.0 * unit.approx().max_slice_error() + 1e-9,
            "err {err}"
        );
    }

    #[test]
    fn approx_tree_matches_race_logic_netlist() {
        use ta_race_logic::{blocks, CircuitBuilder};
        let unit = NlseUnit::with_terms(4, UnitScale::default_1ns());
        let k = unit.latency_units();

        let mut b = CircuitBuilder::new();
        let ins: Vec<_> = (0..5).map(|i| b.input(format!("i{i}"))).collect();
        let out = blocks::build_nlse_tree(&mut b, &ins, unit.approx().terms(), k);
        b.output("o", out.node);
        let circuit = b.build().unwrap();

        let leaves: Vec<DelayValue> = [0.5, 2.2, 1.1, 0.05, 3.0].iter().map(|&t| dv(t)).collect();
        let net = circuit.evaluate(&leaves).unwrap()[0];
        let fun = eval(&TreeOps::Approx(&unit), &leaves, &mut rng());
        assert!(
            (net.delay() - fun.delay()).abs() < 1e-9,
            "netlist {} vs functional {}",
            net.delay(),
            fun.delay()
        );
    }

    #[test]
    fn never_leaves_pass_through() {
        let unit = NlseUnit::with_terms(3, UnitScale::default_1ns());
        let tree_ops = TreeOps::Approx(&unit);
        let k = unit.latency_units();
        // Single firing leaf in a 4-leaf tree: output = leaf + depth·K.
        let leaves = vec![
            DelayValue::ZERO,
            dv(1.5),
            DelayValue::ZERO,
            DelayValue::ZERO,
        ];
        let got = eval(&tree_ops, &leaves, &mut rng());
        assert!((got.delay() - (1.5 + 2.0 * k)).abs() < 1e-9);
        // All-never: never.
        let none = vec![DelayValue::ZERO; 4];
        assert!(eval(&tree_ops, &none, &mut rng()).is_never());
    }

    #[test]
    fn firing_profile_counts() {
        // 3 leaves: tree is ((l0,l1),(l2 balanced)). Two internal nodes.
        let p = firing_profile(&[true, true, true]);
        assert_eq!(p.fired_inputs.len(), 2);
        assert_eq!(p.fired_inputs.iter().sum::<usize>(), 4);
        assert_eq!(p.balance_k_units, 1.0); // l2 balanced one level

        // Only one leaf fires: each node sees at most 1 fired input.
        let p1 = firing_profile(&[false, true, false]);
        assert_eq!(p1.fired_inputs, vec![1, 1]);
        assert_eq!(p1.balance_k_units, 0.0); // the balanced leaf is silent
    }

    #[test]
    fn static_balance_units() {
        assert_eq!(static_balance_k_units(1), 0.0);
        assert_eq!(static_balance_k_units(2), 0.0);
        assert_eq!(static_balance_k_units(3), 1.0);
        assert_eq!(static_balance_k_units(4), 0.0);
        // 5 leaves: left=3 (one balance), right=2 (depth 1, balanced 1).
        assert_eq!(static_balance_k_units(5), 2.0);
    }

    #[test]
    fn zero_drift_tree_equals_approx() {
        let unit = NlseUnit::with_terms(5, UnitScale::default_1ns());
        let leaves: Vec<DelayValue> = [0.4, 0.9, 1.3, 2.2, 0.05].iter().map(|&t| dv(t)).collect();
        let a = eval(&TreeOps::Approx(&unit), &leaves, &mut rng());
        let b = eval(&TreeOps::Drifted(&unit, 0.0), &leaves, &mut rng());
        assert!((a.delay() - b.delay()).abs() < 1e-12);
    }

    #[test]
    fn drifted_tree_matches_drifted_netlist() {
        use ta_race_logic::{blocks, CircuitBuilder, FaultPlan, NoNoise};
        let unit = NlseUnit::with_terms(4, UnitScale::default_1ns());
        let k = unit.latency_units();

        let mut b = CircuitBuilder::new();
        let ins: Vec<_> = (0..5).map(|i| b.input(format!("i{i}"))).collect();
        let out = blocks::build_nlse_tree(&mut b, &ins, unit.approx().terms(), k);
        b.output("o", out.node);
        let circuit = b.build().unwrap();

        let leaves: Vec<DelayValue> = [0.5, 2.2, 1.1, 0.05, 3.0].iter().map(|&t| dv(t)).collect();
        for &fraction in &[0.15, -0.4, -2.0] {
            let mut plan = FaultPlan::new();
            for (node, _) in circuit.delay_elements() {
                plan.set_delay_drift(node, fraction);
            }
            let (net, _) = circuit
                .evaluate_faulty(&leaves, &mut NoNoise, &plan)
                .unwrap();
            let fun = eval(&TreeOps::Drifted(&unit, fraction), &leaves, &mut rng());
            assert!(
                (net[0].delay() - fun.delay()).abs() < 1e-9,
                "fraction {fraction}: netlist {} vs functional {}",
                net[0].delay(),
                fun.delay()
            );
        }
    }

    #[test]
    fn noisy_tree_with_ideal_realization_equals_approx() {
        let unit = NlseUnit::with_terms(5, UnitScale::default_1ns());
        let r = NoiseRealization::ideal(UnitScale::default_1ns());
        let leaves: Vec<DelayValue> = [0.4, 0.9, 1.3].iter().map(|&t| dv(t)).collect();
        let a = eval(&TreeOps::Approx(&unit), &leaves, &mut rng());
        let b = eval(&TreeOps::Noisy(&unit, &r), &leaves, &mut rng());
        assert!((a.delay() - b.delay()).abs() < 1e-12);
    }
}
