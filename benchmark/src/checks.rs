//! Output checks, applied after every episode and never inside a timed
//! span. A failed check counts against `failed` (and so `failed_frac`);
//! it is reported, never tuned away.

use asura_core::Particle;
use std::collections::BTreeSet;

/// Relative tolerance on total-mass conservation.
pub const MASS_TOL: f64 = 1e-12;

/// Episodes checked and the ones that failed, with the reasons.
#[derive(Debug, Clone, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    /// Count one checked episode; it fails if `problems` is non-empty.
    pub fn record(&mut self, label: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.failures
                .push(format!("{label}: {}", problems.join("; ")));
        }
    }

    /// Episodes that failed a check ÷ episodes checked.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Problems of a final particle state against its initial condition:
/// non-finite positions, velocities, `u` or `h`; duplicate IDs or a lost
/// initial ID; total mass off by more than [`MASS_TOL`] relative.
pub fn state_problems(initial: &[Particle], last: &[Particle]) -> Vec<String> {
    let mut problems = Vec::new();
    let non_finite = last
        .iter()
        .filter(|p| {
            ![
                p.pos.x, p.pos.y, p.pos.z, p.vel.x, p.vel.y, p.vel.z, p.u, p.h,
            ]
            .iter()
            .all(|v| v.is_finite())
        })
        .count();
    if non_finite > 0 {
        problems.push(format!("{non_finite} particle(s) with non-finite state"));
    }
    let ids: BTreeSet<u64> = last.iter().map(|p| p.id).collect();
    if ids.len() != last.len() {
        problems.push(format!("{} duplicate id(s)", last.len() - ids.len()));
    }
    let lost = initial.iter().filter(|p| !ids.contains(&p.id)).count();
    if lost > 0 {
        problems.push(format!("{lost} initial id(s) missing"));
    }
    let m0: f64 = initial.iter().map(|p| p.mass).sum();
    let m1: f64 = last.iter().map(|p| p.mass).sum();
    let rel = ((m1 - m0) / m0).abs();
    if rel.is_nan() || rel > MASS_TOL {
        problems.push(format!("total mass drifted by {rel:.3e} (relative)"));
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdps::Vec3;

    fn gas(n: u64) -> Vec<Particle> {
        (0..n)
            .map(|i| Particle::gas(i, Vec3::new(i as f64, 0.0, 0.0), Vec3::ZERO, 1.0, 1.0, 1.0))
            .collect()
    }

    #[test]
    fn a_clean_state_passes() {
        let ic = gas(10);
        assert!(state_problems(&ic, &ic).is_empty());
    }

    #[test]
    fn corrupted_copies_are_counted_as_failures() {
        let ic = gas(10);
        let mut checks = Checks::default();
        checks.record("clean", state_problems(&ic, &ic));

        let mut nan_u = ic.clone();
        nan_u[3].u = f64::NAN;
        checks.record("nan_u", state_problems(&ic, &nan_u));

        let mut dropped = ic.clone();
        dropped.remove(7);
        let problems = state_problems(&ic, &dropped);
        assert!(problems.iter().any(|p| p.contains("missing")));
        // Dropping a particle loses its mass too.
        assert!(problems.iter().any(|p| p.contains("mass")));
        checks.record("dropped_id", problems);

        assert_eq!(checks.attempted, 3);
        assert_eq!(checks.failed, 2);
        assert!((checks.failed_frac() - 2.0 / 3.0).abs() < 1e-15);
        assert!(checks.failures[0].starts_with("nan_u: 1 particle"));
    }

    #[test]
    fn duplicate_ids_and_mass_drift_are_caught() {
        let ic = gas(4);
        let mut dup = ic.clone();
        dup[1].id = 0;
        let problems = state_problems(&ic, &dup);
        assert!(problems.iter().any(|p| p.contains("duplicate")));
        let mut heavy = ic.clone();
        heavy[0].mass *= 1.0 + 1e-9;
        assert_eq!(state_problems(&ic, &heavy).len(), 1);
    }
}
