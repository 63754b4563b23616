//! Per-layer measurements for the traced run, taken from outside the
//! program: each layer's public functions are replayed on a state the
//! driver produced, between steps and outside every step's timing.

use crate::timing::time_ms;
use astro::cooling::CoolingCurve;
use astro::units::{G, NH_PER_MSUN_PC3};
use asura_core::pool::UNetPredictor;
use asura_core::{Particle, SimConfig};
use fdps::{Tree, Vec3};
use gravity::GravitySolver;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sph::density::DensityConfig;
use sph::solver::{HydroState, SphScratch, SphSolver};
use sph::GammaLawEos;
use std::collections::BTreeMap;
use surrogate::{decode_fields, encode_fields, grid_to_particles, particles_to_grid, GasParticle};

/// Named samples of the traced run (milliseconds unless the name says
/// otherwise).
#[derive(Debug, Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn add(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    /// Median of `name`'s samples, 0 when there are none.
    pub fn median(&self, name: &str) -> f64 {
        crate::timing::median(self.get(name))
    }

    pub fn sum(&self, name: &str) -> f64 {
        self.get(name).iter().sum()
    }
}

/// The gravity solver the driver configures for `cfg`.
pub fn gravity_solver(cfg: &SimConfig) -> GravitySolver {
    GravitySolver {
        g: G,
        theta: cfg.theta,
        n_group: cfg.n_group,
        n_leaf: 8,
        eps: cfg.eps,
        mixed_precision: cfg.mixed_precision,
    }
}

/// The SPH solver the driver configures for `cfg`.
pub fn sph_solver(cfg: &SimConfig) -> SphSolver {
    SphSolver {
        density_cfg: DensityConfig {
            n_ngb_target: cfg.n_ngb,
            ..Default::default()
        },
        cfl: cfg.cfl,
        ..Default::default()
    }
}

/// One full force evaluation replayed layer by layer on `particles`:
/// octree build, moment refresh and walk index (`fdps`), the MAC walk and
/// monopole kernel (`gravity`), then the SPH density h-iteration and hydro
/// force on the gas (`sph`).
pub fn replay_forces(particles: &[Particle], cfg: &SimConfig, s: &mut Samples) {
    let pos: Vec<Vec3> = particles.iter().map(|p| p.pos).collect();
    let mass: Vec<f64> = particles.iter().map(|p| p.mass).collect();
    let solver = gravity_solver(cfg);
    let (mut tree, ms) = time_ms(|| Tree::build(&pos, &mass, solver.n_leaf));
    s.add("fdps.tree_build_ms", ms);
    let ((), ms) = time_ms(|| tree.refresh(&pos, &mass));
    s.add("fdps.tree_refresh_ms", ms);
    let (index, ms) = time_ms(|| tree.walk_index());
    s.add("fdps.walk_index_ms", ms);
    let (mut acc, mut pot) = (Vec::new(), Vec::new());
    let (interactions, ms) = time_ms(|| {
        solver.evaluate_into_indexed(&tree, &index, &pos, &mass, pos.len(), &mut acc, &mut pot)
    });
    s.add("gravity.eval_ms", ms);
    s.add(
        "gravity.ns_per_interaction",
        ms * 1e6 / interactions.max(1) as f64,
    );

    let gas: Vec<&Particle> = particles.iter().filter(|p| p.is_gas()).collect();
    if gas.len() < 2 {
        return;
    }
    let mut state = HydroState::new(
        gas.iter().map(|p| p.pos).collect(),
        gas.iter().map(|p| p.vel).collect(),
        gas.iter().map(|p| p.mass).collect(),
        gas.iter().map(|p| p.u).collect(),
        gas.iter().map(|p| p.h.max(1e-3)).collect(),
    );
    let sph = sph_solver(cfg);
    let mut scratch = SphScratch::default();
    let n = gas.len();
    let (d, ms) = time_ms(|| sph.density_pass_with(&mut state, n, &mut scratch));
    s.add("sph.density_ms", ms);
    s.add(
        "sph.density_ns_per_interaction",
        ms * 1e6 / d.density_interactions.max(1) as f64,
    );
    s.add(
        "sph.h_walks_per_iteration",
        d.h_walks as f64 / d.h_iterations.max(1) as f64,
    );
    let (f, ms) = time_ms(|| sph.force_pass_with(&mut state, n, &mut scratch));
    s.add("sph.force_ms", ms);
    s.add(
        "sph.force_ns_per_interaction",
        ms * 1e6 / f.force_interactions.max(1) as f64,
    );
}

/// The cooling update the driver applies to every gas particle each step,
/// replayed over `particles`' gas (`astro`).
pub fn replay_cooling(particles: &[Particle], dt: f64, s: &mut Samples) {
    let cooling = CoolingCurve::standard_ism();
    let eos = GammaLawEos::default();
    let (_, ms) = time_ms(|| {
        particles
            .iter()
            .filter(|p| p.is_gas() && p.rho > 0.0)
            .map(|p| cooling.update(eos.temperature_from_u(p.u), p.rho * NH_PER_MSUN_PC3, dt))
            .sum::<f64>()
    });
    s.add("astro.cooling_ms", ms);
}

/// The surrogate pipeline's stages replayed one by one on a region the
/// driver dispatched: voxelize → encode → U-Net forward → decode → Gibbs
/// resample (the body of `SurrogateModel::predict_particles`).
pub fn replay_surrogate_stages(
    predictor: &UNetPredictor,
    center: Vec3,
    region: &[GasParticle],
    s: &mut Samples,
) {
    let model = &predictor.model;
    let grid = model.region_grid(center);
    let (fields, ms) = time_ms(|| particles_to_grid(grid, region));
    s.add("surrogate.voxelize_ms", ms);
    let (encoded, ms) = time_ms(|| encode_fields(&fields));
    s.add("surrogate.encode_ms", ms);
    let (predicted, ms) = time_ms(|| model.infer(&encoded));
    s.add("unet.forward_ms", ms);
    let (out_fields, ms) = time_ms(|| decode_fields(&predicted, grid));
    s.add("surrogate.decode_ms", ms);
    let ids: Vec<u64> = region.iter().map(|p| p.id).collect();
    let mut rng = StdRng::seed_from_u64(predictor.seed);
    let (_, ms) = time_ms(|| grid_to_particles(&mut rng, &out_fields, region.len(), &ids, 30, 1));
    s.add("surrogate.gibbs_ms", ms);
}

/// The gas inside the `side`-cube around `center`, as the driver cuts an
/// SN region for the pool.
pub fn cut_region(particles: &[Particle], center: Vec3, side: f64) -> Vec<GasParticle> {
    let eos = GammaLawEos::default();
    let half = 0.5 * side;
    particles
        .iter()
        .filter(|p| {
            let d = p.pos - center;
            p.is_gas() && d.x.abs() < half && d.y.abs() < half && d.z.abs() < half
        })
        .map(|p| GasParticle {
            pos: p.pos,
            vel: p.vel,
            mass: p.mass,
            temp: eos.temperature_from_u(p.u),
            h: p.h.max(1e-3),
            id: p.id,
        })
        .collect()
}
