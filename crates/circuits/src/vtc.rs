//! Voltage-to-time conversion (§4.1): the sensor-facing edge of the
//! architecture.
//!
//! The delay-space encoding needs a VTC whose delay follows the *negative
//! log* of the pixel voltage, not the linear mapping of conventional
//! time-based ADCs. A current-starved inverter (Fig 8a) naturally provides
//! a monotonically decreasing, log-like delay; this module offers both an
//! idealised negative-log converter and a behavioural starved-inverter
//! transfer curve calibrated against it.

use rand::Rng;
use ta_delay_space::DelayValue;
use ta_race_logic::NormalSampler;

use crate::UnitScale;

/// An idealised negative-log VTC with the two noise injection points of
/// the paper's sensitivity study (Fig 13): Gaussian noise on the pixel
/// voltage *before* conversion (sensor noise — fixed-pattern, dark shot)
/// and Gaussian timing noise *after* conversion (VTC non-idealities).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VtcModel {
    scale: UnitScale,
    /// Darkest convertible pixel; darker values saturate to the maximum
    /// delay (the temporal dynamic-range limit).
    min_pixel: f64,
    /// σ of pre-conversion voltage noise, as a fraction of full scale.
    pre_noise_frac: f64,
    /// σ of post-conversion timing noise, in nanoseconds.
    post_noise_ns: f64,
}

impl VtcModel {
    /// An ideal noiseless converter with the default dynamic-range floor
    /// `min_pixel = e^-6 ≈ 0.0025` (≈ 8.7 bits of delay-space dynamic
    /// range).
    pub fn ideal(scale: UnitScale) -> Self {
        VtcModel {
            scale,
            min_pixel: (-6.0_f64).exp(),
            pre_noise_frac: 0.0,
            post_noise_ns: 0.0,
        }
    }

    /// Sets both noise injection points (used by the Fig 13 sweep).
    pub fn with_noise(mut self, pre_noise_frac: f64, post_noise_ns: f64) -> Self {
        assert!(
            pre_noise_frac >= 0.0 && post_noise_ns >= 0.0,
            "noise magnitudes must be non-negative"
        );
        self.pre_noise_frac = pre_noise_frac;
        self.post_noise_ns = post_noise_ns;
        self
    }

    /// Sets the darkest convertible pixel value.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < min_pixel < 1`.
    pub fn with_min_pixel(mut self, min_pixel: f64) -> Self {
        assert!(
            min_pixel > 0.0 && min_pixel < 1.0,
            "min_pixel must lie strictly inside (0, 1)"
        );
        self.min_pixel = min_pixel;
        self
    }

    /// The unit scale of the produced delays.
    pub fn scale(&self) -> UnitScale {
        self.scale
    }

    /// The longest delay the converter can emit, in abstract units.
    pub fn max_delay_units(&self) -> f64 {
        -self.min_pixel.ln()
    }

    /// Converts a pixel value in `[0, 1]` to a delay-space edge,
    /// applying both noise sources.
    ///
    /// # Panics
    ///
    /// Panics if `pixel` is not finite.
    pub fn convert<R: Rng>(&self, pixel: f64, rng: &mut R) -> DelayValue {
        let mut sampler = NormalSampler::new();
        self.convert_with(pixel, rng, &mut sampler)
    }

    /// [`convert`] with a caller-provided sampler, for hot loops that
    /// hoist the sampler out of a per-pixel closure instead of
    /// constructing one per pixel.
    ///
    /// The sampler's cached spare is discarded at entry, which is what
    /// makes this bit-identical to [`convert`] under any interleaving:
    /// with both noise sources active the polar method's spare deviate
    /// would otherwise carry across pixels, consume one fewer `rng` draw,
    /// and shift every subsequent stream value.
    ///
    /// [`convert`]: VtcModel::convert
    ///
    /// # Panics
    ///
    /// Panics if `pixel` is not finite.
    pub fn convert_with<R: Rng>(
        &self,
        pixel: f64,
        rng: &mut R,
        sampler: &mut NormalSampler,
    ) -> DelayValue {
        assert!(pixel.is_finite(), "pixel must be finite");
        sampler.reset();
        let mut v = pixel;
        if self.pre_noise_frac > 0.0 {
            v += self.pre_noise_frac * sampler.sample(rng);
        }
        let v = v.clamp(0.0, 1.0).max(self.min_pixel);
        let mut ns = self.scale.to_ns(-v.ln());
        if self.post_noise_ns > 0.0 {
            ns += self.post_noise_ns * sampler.sample(rng);
        }
        DelayValue::from_delay(self.scale.to_units(ns.max(0.0)))
    }

    /// Converts without noise (the deterministic transfer curve).
    pub fn convert_ideal(&self, pixel: f64) -> DelayValue {
        assert!(pixel.is_finite(), "pixel must be finite");
        let v = pixel.clamp(0.0, 1.0).max(self.min_pixel);
        DelayValue::from_delay(-v.ln())
    }
}

/// A behavioural current-starved-inverter transfer curve (Fig 8a).
///
/// The starved inverter's delay is set by the charging current, which the
/// pixel voltage controls through the starving transistor:
/// `t(v) = t₀ + k / (v + v_off)^α`. The constants are calibrated (once, at
/// construction) so the curve approximates the ideal negative-log
/// transfer over the converter's dynamic range — quantifying the paper's
/// claim that the starved inverter "approximates negative log for specific
/// regions of interest".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StarvedInverterVtc {
    scale: UnitScale,
    min_pixel: f64,
    t0_ns: f64,
    k_ns: f64,
    v_off: f64,
    alpha: f64,
}

impl StarvedInverterVtc {
    /// Calibrates a starved-inverter curve against the ideal negative-log
    /// transfer of [`VtcModel::ideal`] under the same unit scale.
    pub fn calibrated(scale: UnitScale) -> Self {
        let min_pixel = (-6.0_f64).exp();
        // Fit t0 + k/(v+off)^α ≈ -ln(v) · unit_ns over [min_pixel, 1].
        let unit = scale.unit_ns();
        let objective = |p: &[f64]| -> f64 {
            let (t0, k, off, alpha) = (p[0], p[1], p[2], p[3]);
            if k <= 0.0 || off <= 1e-4 || alpha <= 0.1 || alpha > 3.0 {
                return f64::INFINITY;
            }
            let mut sq = 0.0;
            let n = 200;
            for i in 0..n {
                // Log-spaced sample points emphasise the dark end.
                let f = i as f64 / (n - 1) as f64;
                let v = min_pixel.powf(1.0 - f);
                let ideal = -v.ln() * unit;
                let got = t0 + k / (v + off).powf(alpha);
                let e = got - ideal;
                sq += e * e;
            }
            (sq / n as f64).sqrt()
        };
        let (p, _) = ta_approx::optimizer::compass_search(
            objective,
            &[-unit, 0.5 * unit, 0.1, 0.5],
            0.1 * unit,
            1e-9,
            600,
        );
        StarvedInverterVtc {
            scale,
            min_pixel,
            t0_ns: p[0],
            k_ns: p[1],
            v_off: p[2],
            alpha: p[3],
        }
    }

    /// The deterministic transfer curve: pixel voltage to delay units.
    pub fn convert_ideal(&self, pixel: f64) -> DelayValue {
        assert!(pixel.is_finite(), "pixel must be finite");
        let v = pixel.clamp(0.0, 1.0).max(self.min_pixel);
        let ns = self.t0_ns + self.k_ns / (v + self.v_off).powf(self.alpha);
        DelayValue::from_delay(self.scale.to_units(ns.max(0.0)))
    }

    /// Worst absolute deviation (in abstract units) from the ideal
    /// negative-log transfer over the dynamic range.
    pub fn max_deviation_units(&self) -> f64 {
        let ideal = VtcModel::ideal(self.scale);
        let mut worst = 0.0_f64;
        let n = 400;
        for i in 0..n {
            let f = i as f64 / (n - 1) as f64;
            let v = self.min_pixel.powf(1.0 - f);
            let d = (self.convert_ideal(v).delay() - ideal.convert_ideal(v).delay()).abs();
            worst = worst.max(d);
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn scale() -> UnitScale {
        UnitScale::new(1.0, 50.0)
    }

    #[test]
    fn ideal_transfer_is_negative_log() {
        let vtc = VtcModel::ideal(scale());
        assert_eq!(vtc.convert_ideal(1.0).delay(), 0.0);
        let half = vtc.convert_ideal(0.5).delay();
        assert!((half - 2.0_f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn dark_pixels_saturate() {
        let vtc = VtcModel::ideal(scale());
        let floor = vtc.convert_ideal(0.0);
        assert!(floor.delay().is_finite());
        assert!((floor.delay() - vtc.max_delay_units()).abs() < 1e-12);
        assert_eq!(vtc.convert_ideal(1e-9), floor);
    }

    #[test]
    fn transfer_is_monotone_decreasing_in_pixel() {
        let vtc = VtcModel::ideal(scale());
        let mut prev = f64::INFINITY;
        for i in 1..100 {
            let d = vtc.convert_ideal(i as f64 / 100.0).delay();
            assert!(d <= prev);
            prev = d;
        }
    }

    #[test]
    fn noiseless_convert_matches_ideal() {
        let vtc = VtcModel::ideal(scale());
        let mut rng = SmallRng::seed_from_u64(1);
        for &p in &[0.1, 0.5, 0.9] {
            assert!(
                (vtc.convert(p, &mut rng).delay() - vtc.convert_ideal(p).delay()).abs() < 1e-12
            );
        }
    }

    #[test]
    fn pre_noise_perturbs_in_voltage_domain() {
        let vtc = VtcModel::ideal(scale()).with_noise(0.05, 0.0);
        let mut rng = SmallRng::seed_from_u64(2);
        let n = 20_000;
        let p = 0.5;
        // Mean decoded value should stay near the pixel (noise is centred).
        let mean: f64 = (0..n)
            .map(|_| vtc.convert(p, &mut rng).decode())
            .sum::<f64>()
            / n as f64;
        assert!((mean - p).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn post_noise_perturbs_in_time_domain() {
        let vtc = VtcModel::ideal(scale()).with_noise(0.0, 0.1);
        let mut rng = SmallRng::seed_from_u64(3);
        let n = 20_000;
        let p = 0.5;
        let base = vtc.convert_ideal(p).delay();
        let mut sq = 0.0;
        for _ in 0..n {
            let d = vtc.convert(p, &mut rng).delay();
            sq += (d - base) * (d - base);
        }
        let sigma = (sq / n as f64).sqrt();
        // 0.1 ns at 1 ns/unit = 0.1 units.
        assert!((sigma - 0.1).abs() < 0.01, "sigma {sigma}");
    }

    #[test]
    fn starved_inverter_tracks_negative_log() {
        let si = StarvedInverterVtc::calibrated(scale());
        // The behavioural curve should track -ln within a fraction of a
        // unit across ~8.7 bits of dynamic range.
        assert!(
            si.max_deviation_units() < 0.6,
            "{}",
            si.max_deviation_units()
        );
        // And must be monotone decreasing.
        let mut prev = f64::INFINITY;
        for i in 1..=50 {
            let d = si.convert_ideal(i as f64 / 50.0).delay();
            assert!(d <= prev + 1e-12);
            prev = d;
        }
    }

    #[test]
    fn convert_with_hoisted_sampler_is_bit_identical() {
        // Regression for the per-pixel sampler hoist: a single sampler
        // shared across a whole stream (reset at each pixel entry) must
        // reproduce the fresh-sampler-per-pixel golden stream bit for bit
        // in every noise configuration — including both-sources, where a
        // carried polar spare would shift the rng draw order.
        let configs = [(0.0, 0.0), (0.05, 0.0), (0.0, 0.1), (0.05, 0.1)];
        for &(pre, post) in &configs {
            let vtc = VtcModel::ideal(scale()).with_noise(pre, post);
            let pixels: Vec<f64> = (0..257).map(|i| f64::from(i) / 256.0).collect();

            let mut golden_rng = SmallRng::seed_from_u64(0xD1CE);
            let golden: Vec<u64> = pixels
                .iter()
                .map(|&p| vtc.convert(p, &mut golden_rng).delay().to_bits())
                .collect();

            let mut rng = SmallRng::seed_from_u64(0xD1CE);
            let mut sampler = NormalSampler::new();
            let hoisted: Vec<u64> = pixels
                .iter()
                .map(|&p| {
                    vtc.convert_with(p, &mut rng, &mut sampler)
                        .delay()
                        .to_bits()
                })
                .collect();

            assert_eq!(golden, hoisted, "pre={pre} post={post}");
        }
    }

    #[test]
    fn starved_inverter_scales_with_unit() {
        let a = StarvedInverterVtc::calibrated(UnitScale::new(1.0, 50.0));
        let b = StarvedInverterVtc::calibrated(UnitScale::new(5.0, 50.0));
        // Delays in *units* should agree regardless of the physical scale.
        let da = a.convert_ideal(0.3).delay();
        let db = b.convert_ideal(0.3).delay();
        assert!((da - db).abs() < 0.2, "{da} vs {db}");
    }
}
