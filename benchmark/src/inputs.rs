//! Workload inputs: initial conditions, SN cadences and driver RNG seeds
//! derived from the `--seed` argument, the driver configs, and the fixed
//! surrogate training spec. The simulator only ever sees what these
//! functions return.

use astro::lifetime::stellar_lifetime_myr;
use asura::scenarios;
use asura::surrogate_train::TrainSpec;
use asura_core::{Particle, SimConfig};
use fdps::Vec3;
use galactic_ic::GalaxyModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The benchmark's workloads (see README.md for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Galaxy,
    SnSurrogate,
    SnBlock,
    GalaxyDist,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Galaxy,
        Workload::SnSurrogate,
        Workload::SnBlock,
        Workload::GalaxyDist,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Galaxy => "galaxy",
            Workload::SnSurrogate => "sn_surrogate",
            Workload::SnBlock => "sn_block",
            Workload::GalaxyDist => "galaxy_dist",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload deploys the trained U-Net predictor.
    pub fn uses_surrogate(self) -> bool {
        self != Workload::SnBlock
    }
}

/// Problem size: `Full` is what the benchmark measures, `Smoke` the
/// smallest inputs that still exercise every layer (the package's tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

/// One workload's generated inputs.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub cfg: SimConfig,
    pub particles: Vec<Particle>,
    /// Steps (base steps in block mode) to the fixed simulated end time
    /// `steps * cfg.dt_global`.
    pub steps: usize,
    /// Seed of the driver's own RNG (star formation draws).
    pub sim_seed: u64,
}

/// Mix `seed` with a per-purpose tag (splitmix64 finalizer), so the IC,
/// the SN cadence and the driver RNG get independent streams from one
/// `--seed`.
fn derive(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const TAG_IC: u64 = 1;
const TAG_SN: u64 = 2;
const TAG_SIM: u64 = 3;

/// The offline training recipe: `asura train-surrogate` with the spec of
/// `cargo bench --bench surrogate_loop` (two conventional SN-shell runs,
/// the deployed 16^3 geometry). The spec is fixed, not derived from the
/// seed: the trained model decides the gas state after every applied
/// region, and models trained from different seeds changed the SPH work
/// of an `sn_surrogate` episode by up to a factor of two.
pub fn train_spec(size: Size) -> TrainSpec {
    let (samples, epochs, grid_n) = match size {
        Size::Full => (2, 120, 16),
        Size::Smoke => (1, 2, 8),
    };
    TrainSpec {
        samples,
        epochs,
        grid_n,
        base_features: 4,
        lr: 1e-2,
        seed: 7,
    }
}

/// Realize `workload`'s inputs.
pub fn build(workload: Workload, seed: u64, size: Size) -> Inputs {
    let sim_seed = derive(seed, TAG_SIM);
    match workload {
        Workload::Galaxy | Workload::GalaxyDist => galaxy(seed, size, sim_seed),
        Workload::SnSurrogate => sn_surrogate(seed, size, sim_seed),
        Workload::SnBlock => sn_block(seed, size, sim_seed),
    }
}

fn registered(name: &str) -> SimConfig {
    scenarios::find(name)
        .unwrap_or_else(|| panic!("scenario {name} is registered"))
        .config()
}

/// A massive star of a random mass in `9..20` M_sun that explodes at
/// `t_explode`.
fn sn_star(id: u64, pos: Vec3, t_explode: f64, rng: &mut StdRng) -> Particle {
    let m = rng.gen_range(9.0..20.0);
    Particle::star(id, pos, Vec3::ZERO, m, t_explode - stellar_lifetime_myr(m))
}

/// The `dwarf_galaxy` recipe (mw_mini DM + stars + gas, surrogate scheme,
/// cooling and star formation) at 4x its particle counts, with massive
/// stars exploding throughout the run and checkpoints every 2 steps.
fn galaxy(seed: u64, size: Size, sim_seed: u64) -> Inputs {
    let ((n_dm, n_star, n_gas), steps, n_sn) = match size {
        Size::Full => ((8000, 4000, 12000), 7, 24),
        Size::Smoke => ((500, 250, 750), 5, 6),
    };
    let mut cfg = registered("dwarf_galaxy");
    cfg.snapshot_every = 2;
    let t_end = steps as f64 * cfg.dt_global;

    let model = GalaxyModel::mw_mini();
    let real = model.realize(n_dm, n_star, n_gas, derive(seed, TAG_IC));
    let h0 = model.gas_disk.r_scale * 0.04;
    let mut particles = Vec::new();
    for (p, v) in real.dm.pos.iter().zip(&real.dm.vel) {
        let id = particles.len() as u64;
        particles.push(Particle::dm(id, v3(p), v3(v), real.m_dm_particle));
    }
    for (p, v) in real.stars.pos.iter().zip(&real.stars.vel) {
        // Born long ago: the old population never explodes.
        let id = particles.len() as u64;
        particles.push(Particle::star(
            id,
            v3(p),
            v3(v),
            real.m_star_particle,
            -500.0,
        ));
    }
    for (p, v) in real.gas.pos.iter().zip(&real.gas.vel) {
        let id = particles.len() as u64;
        particles.push(Particle::gas(
            id,
            v3(p),
            v3(v),
            real.m_gas_particle,
            2.0,
            h0,
        ));
    }
    // Young massive stars in the gas disk, timed to explode throughout the
    // run (the early ones soon enough that their regions come back).
    let mut rng = StdRng::seed_from_u64(derive(seed, TAG_SN));
    for k in 0..n_sn {
        let t_explode = (k as f64 + rng.gen_range(0.1..0.9)) / n_sn as f64 * t_end;
        let r = rng.gen_range(100.0..1500.0);
        let th = rng.gen_range(0.0..std::f64::consts::TAU);
        let pos = Vec3::new(r * th.cos(), r * th.sin(), 0.0);
        let id = particles.len() as u64;
        particles.push(sn_star(id, pos, t_explode, &mut rng));
    }
    Inputs {
        cfg,
        particles,
        steps,
        sim_seed,
    }
}

/// The `supernova_remnant` lattice (1000 gas, the trained model's
/// geometry) with massive stars going off every `SN_CADENCE` steps; the
/// run ends once the last prediction has come back.
fn sn_surrogate(seed: u64, size: Size, sim_seed: u64) -> Inputs {
    const SN_CADENCE: usize = 8;
    const MAX_OFFSET: usize = 3;
    let n_sn = match size {
        Size::Full => 8,
        Size::Smoke => 2,
    };
    let (cfg, mut particles) = scenarios::find("supernova_remnant")
        .expect("scenario supernova_remnant is registered")
        .build(derive(seed, TAG_IC));
    // The registered star is replaced by the cadence below.
    particles.retain(|p| p.is_gas());
    let mut rng = StdRng::seed_from_u64(derive(seed, TAG_SN));
    let offset = rng.gen_range(1..MAX_OFFSET + 1);
    for k in 0..n_sn {
        let step = offset + SN_CADENCE * k;
        let t_explode = (step as f64 + rng.gen_range(0.2..0.8)) * cfg.dt_global;
        let pos = Vec3::new(
            rng.gen_range(-2.0..2.0),
            rng.gen_range(-2.0..2.0),
            rng.gen_range(-2.0..2.0),
        );
        let id = particles.len() as u64;
        particles.push(sn_star(id, pos, t_explode, &mut rng));
    }
    // Every seed runs the same number of steps, long enough for the last
    // prediction to come back.
    let last_step = MAX_OFFSET + SN_CADENCE * (n_sn - 1);
    Inputs {
        cfg,
        particles,
        steps: last_step + cfg.pool_latency_steps + 1,
        sim_seed,
    }
}

/// The `spiked_dt` recipe: a cold gas blob whose centre particle carries
/// SN-level internal energy, integrated conventionally with block
/// timesteps, at 16^3 (the registered scenario is 8^3) so each substep
/// does enough work that thread wake-ups do not dominate its time. The
/// seed sets the blob's orientation and position, which leaves its
/// physics (and so its timestep hierarchy) unchanged while the trees see
/// different particle layouts.
fn sn_block(seed: u64, size: Size, sim_seed: u64) -> Inputs {
    let (n_side, steps) = match size {
        Size::Full => (16usize, 7),
        Size::Smoke => (5, 2),
    };
    let mut rng = StdRng::seed_from_u64(derive(seed, TAG_IC));
    let rotate = random_rotation(&mut rng);
    let shift = Vec3::new(
        rng.gen_range(-10.0..10.0),
        rng.gen_range(-10.0..10.0),
        rng.gen_range(-10.0..10.0),
    );
    let half = n_side as f64 / 2.0;
    let mut particles = Vec::new();
    for i in 0..n_side {
        for j in 0..n_side {
            for k in 0..n_side {
                let local = Vec3::new(i as f64 - half, j as f64 - half, k as f64 - half);
                let id = particles.len() as u64;
                let pos = rotate(local) + shift;
                particles.push(Particle::gas(id, pos, Vec3::ZERO, 1.0, 1.0, 1.3));
            }
        }
    }
    let c = n_side / 2;
    particles[(c * n_side + c) * n_side + c].u = 1.0e8;
    Inputs {
        cfg: registered("spiked_dt"),
        particles,
        steps,
        sim_seed,
    }
}

/// A uniformly random rotation (unit quaternion from four normal draws).
fn random_rotation(rng: &mut StdRng) -> impl Fn(Vec3) -> Vec3 {
    let mut q = [0.0f64; 4];
    for x in q.iter_mut() {
        // Box-Muller: a standard normal draw.
        let (u1, u2): (f64, f64) = (rng.gen_range(1e-12..1.0), rng.gen_range(0.0..1.0));
        *x = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    }
    let n = q.iter().map(|x| x * x).sum::<f64>().sqrt();
    let [w, x, y, z] = q.map(|c| c / n);
    move |v: Vec3| {
        Vec3::new(
            (1.0 - 2.0 * (y * y + z * z)) * v.x
                + 2.0 * (x * y - w * z) * v.y
                + 2.0 * (x * z + w * y) * v.z,
            2.0 * (x * y + w * z) * v.x
                + (1.0 - 2.0 * (x * x + z * z)) * v.y
                + 2.0 * (y * z - w * x) * v.z,
            2.0 * (x * z - w * y) * v.x
                + 2.0 * (y * z + w * x) * v.y
                + (1.0 - 2.0 * (x * x + y * y)) * v.z,
        )
    }
}

fn v3(a: &[f64; 3]) -> Vec3 {
    Vec3::new(a[0], a[1], a[2])
}
