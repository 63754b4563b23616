//! Timing helpers: order statistics, the in-situ predictor timer, and the
//! process's peak resident set.

use asura_core::pool::{PoolPredictor, UNetPredictor};
use fdps::Vec3;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use surrogate::GasParticle;

/// Run `f` and return its result with its wall time in milliseconds.
pub fn time_ms<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = std::hint::black_box(f());
    (r, t0.elapsed().as_secs_f64() * 1e3)
}

/// The `q`-quantile (`0..=1`) of `values`, linearly interpolated between
/// order statistics; 0 for no values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let x = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = x.floor() as usize;
    let hi = x.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (x - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What [`TimedPredictor`] saw: one wall time and region size per
/// prediction, and the first region (for the stage replays).
#[derive(Debug, Default)]
pub struct PredictLog {
    pub ms: Vec<f64>,
    pub gas: Vec<usize>,
    pub first_region: Option<(Vec3, Vec<GasParticle>)>,
}

/// A timing decorator around the shared, already-decoded U-Net
/// predictor: the driver calls it exactly where it would call the
/// predictor, so its times are in-situ.
pub struct TimedPredictor {
    pub inner: Arc<UNetPredictor>,
    pub log: Arc<Mutex<PredictLog>>,
}

impl PoolPredictor for TimedPredictor {
    fn predict(
        &self,
        center: Vec3,
        energy: f64,
        horizon: f64,
        particles: &[GasParticle],
    ) -> Vec<GasParticle> {
        let (out, ms) = time_ms(|| self.inner.predict(center, energy, horizon, particles));
        let mut log = self.log.lock().expect("predict log lock is never poisoned");
        log.ms.push(ms);
        log.gas.push(particles.len());
        if log.first_region.is_none() {
            log.first_region = Some((center, particles.to_vec()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert!((quantile(&v, 0.9) - 4.6).abs() < 1e-12);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 0.0);
        }
    }
}
