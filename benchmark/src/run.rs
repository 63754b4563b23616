//! One benchmark run: offline training, repeated set-up, then episodes
//! from the initial condition to the workload's fixed simulated end time,
//! repeated until the measuring window closes.

use crate::checks::{state_problems, Checks};
use crate::inputs::{self, Inputs, Size, Workload};
use crate::layers::{self, Samples};
use crate::timing::{median, peak_rss_mb, quantile, time_ms, PredictLog, TimedPredictor};
use astro::units::E_SN;
use asura::surrogate_train;
use asura_core::ckpt::DEFAULT_KEEP;
use asura_core::dist::{run_distributed, DistConfig, DistReport, PredictorKind};
use asura_core::pool::{PoolPredictor, UNetPredictor};
use asura_core::sim::total_energy_of;
use asura_core::{phases, CkptFormat, CkptStore, FaultInjector, Particle, SedovOverlayPredictor};
use asura_core::{SimStats, Simulation, TimestepMode};
use fdps::exchange::Routing;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What to run.
#[derive(Debug, Clone)]
pub struct Params {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measuring window; episodes start until it closes.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    pub size: Size,
    /// Scratch directory for checkpoint stores (removed afterwards).
    pub tmp_dir: PathBuf,
}

/// Work and physics counts of one episode. Every episode of a run starts
/// from the same inputs, so these repeat exactly for a given seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub steps: u64,
    pub sn_events: u64,
    pub regions_applied: u64,
    pub stars_formed: u64,
    pub gravity_interactions: u64,
    pub hydro_interactions: u64,
    pub active_updates: u64,
    pub substeps: u64,
    pub tree_rebuilds: u64,
    pub tree_refreshes: u64,
    pub sph_tree_rebuilds: u64,
    pub sph_tree_refreshes: u64,
}

impl Counts {
    fn add_rank(&mut self, s: &SimStats) {
        self.stars_formed += s.stars_formed;
        self.active_updates += s.active_updates;
        self.substeps += s.substeps;
        self.tree_rebuilds += s.tree_rebuilds;
        self.tree_refreshes += s.tree_refreshes;
        self.sph_tree_rebuilds += s.sph_tree_rebuilds;
        self.sph_tree_refreshes += s.sph_tree_refreshes;
    }

    fn of_sim(s: &SimStats) -> Counts {
        let mut c = Counts {
            steps: s.steps,
            sn_events: s.sn_events,
            regions_applied: s.regions_applied,
            gravity_interactions: s.gravity_interactions,
            hydro_interactions: s.hydro_interactions,
            ..Default::default()
        };
        c.add_rank(s);
        c
    }

    /// Σ over the main ranks of a distributed run.
    fn of_dist(r: &DistReport) -> Counts {
        let mut c = Counts {
            steps: r.steps,
            sn_events: r.sn_events,
            regions_applied: r.regions_applied,
            gravity_interactions: r.gravity_interactions,
            hydro_interactions: r.hydro_interactions,
            ..Default::default()
        };
        for s in &r.rank_stats {
            c.add_rank(s);
        }
        c
    }

    pub fn named(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("steps", self.steps),
            ("sn_events", self.sn_events),
            ("regions_applied", self.regions_applied),
            ("stars_formed", self.stars_formed),
            ("gravity_interactions", self.gravity_interactions),
            ("hydro_interactions", self.hydro_interactions),
            ("active_updates", self.active_updates),
            ("substeps", self.substeps),
            ("tree_rebuilds", self.tree_rebuilds),
            ("tree_refreshes", self.tree_refreshes),
            ("sph_tree_rebuilds", self.sph_tree_rebuilds),
            ("sph_tree_refreshes", self.sph_tree_refreshes),
        ]
    }
}

/// A finished run.
#[derive(Debug)]
pub struct Outcome {
    pub checks: Checks,
    /// End-to-end metrics (untraced) or per-layer metrics (traced); a
    /// catalog name missing here reads 0.
    pub metrics: BTreeMap<&'static str, f64>,
    /// The first episode's counts.
    pub counts: Counts,
    /// Whether every episode repeated the first one's counts.
    pub counts_repeat: bool,
    pub episodes: usize,
    /// Step-time samples behind the untraced percentiles.
    pub step_samples: usize,
    /// Time to solution of each untraced episode \[s\].
    pub episode_tts: Vec<f64>,
    /// The first episode's energy-budget error (untraced runs only; see
    /// README.md for why it is reported but not gated).
    pub energy_err: Option<f64>,
    /// 90th percentile of the untraced step times, where there are at
    /// least 100 of them.
    pub step_ms_p90: Option<f64>,
}

/// What a set-up hands to the episodes: the first episode's simulation on
/// the shared-memory workloads, the run configuration on `galaxy_dist`.
struct Setup {
    inputs: Inputs,
    predictor: Option<Arc<UNetPredictor>>,
    sim: Option<Simulation>,
    dist: Option<DistConfig>,
}

/// One episode's results.
struct Episode {
    tts: f64,
    step_ms: Vec<f64>,
    counts: Counts,
    final_state: Vec<Particle>,
    problems: Vec<String>,
}

/// Set-up as a user pays it: realize the IC, decode the trained weights,
/// construct the driver.
fn setup(
    p: &Params,
    weights: Option<&(u64, String)>,
    log: &Arc<Mutex<PredictLog>>,
    s: &mut Samples,
) -> Setup {
    let t0 = Instant::now();
    let inputs = inputs::build(p.workload, p.seed, p.size);
    let ic_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let predictor = weights.map(|(seed, json)| {
        Arc::new(
            UNetPredictor::from_weights(*seed, json, inputs.cfg.region_side)
                .expect("freshly trained weights decode"),
        )
    });
    let decode_s = t1.elapsed().as_secs_f64();
    let (sim, dist) = match p.workload {
        Workload::GalaxyDist => {
            let (seed, json) = weights.expect("galaxy_dist deploys the trained U-Net");
            let mut sim = inputs.cfg;
            sim.snapshot_every = 0;
            let cfg = DistConfig {
                grid: (2, 1, 1),
                n_pool: 1,
                routing: Routing::Flat,
                sim,
                steps: inputs.steps,
                predictor: PredictorKind::UNetWeights {
                    seed: *seed,
                    weights_json: json.clone(),
                },
                snapshot_every: 0,
            };
            (None, Some(cfg))
        }
        _ => (Some(new_sim(&inputs, predictor.as_ref(), log)), None),
    };
    s.add("setup_s", t0.elapsed().as_secs_f64());
    s.add("setup.ic_s", ic_s);
    if predictor.is_some() {
        s.add("setup.weights_decode_s", decode_s);
    }
    Setup {
        inputs,
        predictor,
        sim,
        dist,
    }
}

fn new_sim(
    inputs: &Inputs,
    predictor: Option<&Arc<UNetPredictor>>,
    log: &Arc<Mutex<PredictLog>>,
) -> Simulation {
    let predictor: Box<dyn PoolPredictor> = match predictor {
        Some(inner) => Box::new(TimedPredictor {
            inner: Arc::clone(inner),
            log: Arc::clone(log),
        }),
        None => Box::new(SedovOverlayPredictor),
    };
    Simulation::with_predictor(
        inputs.cfg,
        inputs.particles.clone(),
        inputs.sim_seed,
        predictor,
    )
}

/// Integrate one shared-memory episode the way `run_with_store` does:
/// `step`, then any cadence commit into `store_dir`'s rotation. A traced
/// episode splits each commit into encode + commit and replays the force
/// layers on a few step states, between steps.
fn shared_episode(
    mut sim: Simulation,
    inputs: &Inputs,
    store_dir: &Path,
    mut trace: Option<&mut Samples>,
) -> Episode {
    let store = CkptStore::new(store_dir, DEFAULT_KEEP);
    let mut faults = FaultInjector::none();
    let every = sim.config.snapshot_every;
    let sample_every = (inputs.steps / 3).max(1);
    let mut step_ms = Vec::with_capacity(inputs.steps);
    let mut problems = Vec::new();
    for k in 0..inputs.steps {
        let t0 = Instant::now();
        sim.step();
        faults.enforce_step(sim.step_count);
        if every > 0 && sim.step_count.is_multiple_of(every) {
            let committed = match trace.as_deref_mut() {
                None => store.commit_sim(&sim.snapshot(), CkptFormat::Bin, &mut faults),
                Some(s) => {
                    let snap = sim.snapshot();
                    let (bytes, ms) = time_ms(|| snap.to_bytes());
                    s.add("snapshot.encode_ms", ms);
                    s.add("ckpt.bytes_per_commit", bytes.len() as f64);
                    let (r, ms) = time_ms(|| {
                        store.commit_bytes(snap.step_count, CkptFormat::Bin, bytes, &mut faults)
                    });
                    s.add("ckpt.commit_ms", ms);
                    r
                }
            };
            if let Err(e) = committed {
                problems.push(format!("checkpoint commit at step {}: {e}", sim.step_count));
            }
        }
        step_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        if let Some(s) = trace.as_deref_mut() {
            if (k + 1) % sample_every == 0 {
                layers::replay_forces(&sim.particles, &sim.config, s);
                if sim.config.cooling {
                    layers::replay_cooling(&sim.particles, sim.config.dt_global, s);
                }
            }
        }
    }
    problems.extend(state_problems(&inputs.particles, &sim.particles));
    Episode {
        tts: step_ms.iter().sum::<f64>() / 1e3,
        step_ms,
        counts: Counts::of_sim(&sim.stats),
        final_state: sim.particles,
        problems,
    }
}

/// One `run_distributed` call over the whole interval. It is a single
/// call, so its per-step time is the episode's mean.
fn dist_episode(cfg: &DistConfig, inputs: &Inputs, trace: Option<&mut Samples>) -> Episode {
    let t0 = Instant::now();
    let result = run_distributed(cfg, &inputs.particles);
    let tts = t0.elapsed().as_secs_f64();
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            return Episode {
                tts,
                step_ms: vec![tts * 1e3 / cfg.steps.max(1) as f64],
                counts: Counts::default(),
                final_state: Vec::new(),
                problems: vec![format!("run_distributed: {e}")],
            }
        }
    };
    let mut problems = Vec::new();
    if let Some(e) = &report.error {
        problems.push(format!("DistReport.error: {e}"));
    }
    problems.extend(state_problems(&inputs.particles, &report.final_state));
    if let Some(s) = trace {
        record_dist_phases(&report, s);
        // The ranks' layers, replayed whole on the gathered final state.
        layers::replay_forces(&report.final_state, &cfg.sim, s);
        if cfg.sim.cooling {
            layers::replay_cooling(&report.final_state, cfg.sim.dt_global, s);
        }
    }
    Episode {
        tts,
        step_ms: vec![tts * 1e3 / report.steps.max(1) as f64],
        counts: Counts::of_dist(&report),
        final_state: report.final_state,
        problems,
    }
}

/// Phase shares of the slowest-rank breakdown, bytes sent per step, and
/// the main ranks' work imbalance.
fn record_dist_phases(r: &DistReport, s: &mut Samples) {
    let total = r.phases.total_s().max(1e-12);
    let share = |names: &[&str]| {
        names
            .iter()
            .filter_map(|n| r.phases.get(n))
            .map(|e| e.total_s)
            .sum::<f64>()
            / total
    };
    s.add(
        "dist.force_share",
        share(&[phases::CALC_FORCE_1, phases::CALC_FORCE_2]),
    );
    s.add(
        "dist.density_share",
        share(&[phases::CALC_KERNEL_DENSITY_1, phases::CALC_KERNEL_SIZE_2]),
    );
    s.add(
        "dist.tree_share",
        share(&[phases::MAKE_LOCAL_TREE_1, phases::MAKE_TREE_2]),
    );
    s.add(
        "dist.comm_share",
        share(&[
            phases::EXCHANGE_PARTICLE,
            phases::EXCHANGE_LET_1,
            phases::EXCHANGE_LET_2,
            phases::SEND_SNE,
            phases::RECEIVE_SNE,
        ]),
    );
    let bytes: u64 = r.bytes_sent.iter().sum();
    s.add(
        "mpisim.bytes_per_step",
        bytes as f64 / r.steps.max(1) as f64,
    );
    let updates: Vec<f64> = r
        .rank_stats
        .iter()
        .map(|x| x.active_updates as f64)
        .collect();
    let mean = updates.iter().sum::<f64>() / updates.len().max(1) as f64;
    let max = updates.iter().copied().fold(0.0, f64::max);
    s.add("dist.rank_imbalance", max / mean.max(1e-12));
}

/// Checks that depend on the workload's purpose.
fn workload_problems(w: Workload, c: &Counts) -> Vec<String> {
    let mut problems = Vec::new();
    if w == Workload::SnSurrogate && c.regions_applied < 1 {
        problems.push("no surrogate region was applied".into());
    }
    if w == Workload::SnBlock && c.substeps <= c.steps {
        problems.push(format!(
            "{} substeps for {} base steps",
            c.substeps, c.steps
        ));
    }
    problems
}

/// |E_end − E_start − N_SN·E_SN| / (|E_start| + N_SN·E_SN), with the
/// exact (theta = 0) potential.
fn energy_err(e_start: f64, last: &[Particle], eps: f64, n_sn: u64) -> f64 {
    let e_sn = n_sn as f64 * E_SN;
    let e_end = total_energy_of(last, eps);
    ((e_end - e_start - e_sn) / (e_start.abs() + e_sn)).abs()
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Wall time the repeated set-ups may take before the last one is kept.
const SETUP_BUDGET_S: f64 = 0.3;
const MAX_SETUPS: usize = 5000;

/// Run the workload and compute its metrics.
pub fn run(p: &Params) -> Outcome {
    let (setups, min_episodes) = match (p.size, p.trace) {
        (Size::Full, false) => (5, 3),
        (Size::Full, true) => (5, 2),
        (Size::Smoke, false) => (1, 1),
        (Size::Smoke, true) => (1, 2),
    };
    // Offline training, before anything is timed (the paper trains its
    // model ahead of the run).
    let weights = p.workload.uses_surrogate().then(|| {
        let spec = inputs::train_spec(p.size);
        (spec.seed, surrogate_train::train(&spec).model.to_json())
    });
    let log = Arc::new(Mutex::new(PredictLog::default()));
    let mut s = Samples::default();
    // Set up repeatedly (at least `setups` times, and for cheap set-ups
    // until SETUP_BUDGET_S has been spent) so `setup_s` is a steady median.
    let mut kept = None;
    let mut reps = 0;
    let budget = if p.size == Size::Full {
        SETUP_BUDGET_S
    } else {
        0.0
    };
    while reps < setups || (s.sum("setup_s") < budget && reps < MAX_SETUPS) {
        kept = Some(setup(p, weights.as_ref(), &log, &mut s));
        reps += 1;
    }
    let Setup {
        inputs,
        predictor,
        sim: mut first_sim,
        dist: dist_cfg,
    } = kept.expect("at least one set-up");
    let e_start = (!p.trace).then(|| total_energy_of(&inputs.particles, inputs.cfg.eps));

    std::fs::create_dir_all(&p.tmp_dir).expect("create the scratch directory");
    let mut checks = Checks::default();
    let mut plain: Vec<Episode> = Vec::new();
    let mut traced: Vec<Episode> = Vec::new();
    let mut rss_mb = 0.0;
    let window = Instant::now();
    let mut k = 0usize;
    while k < min_episodes || window.elapsed().as_secs_f64() < p.seconds {
        let tracing = p.trace && k % 2 == 1;
        let trace = tracing.then_some(&mut s);
        let ep = match &dist_cfg {
            Some(cfg) => dist_episode(cfg, &inputs, trace),
            None => {
                let sim = first_sim
                    .take()
                    .unwrap_or_else(|| new_sim(&inputs, predictor.as_ref(), &log));
                let dir = p.tmp_dir.join(format!("episode-{k}"));
                let ep = shared_episode(sim, &inputs, &dir, trace);
                let _ = std::fs::remove_dir_all(&dir);
                ep
            }
        };
        let mut problems = ep.problems.clone();
        problems.extend(workload_problems(p.workload, &ep.counts));
        checks.record(&format!("episode {k}"), problems);
        if k == 0 {
            // Read after a fixed amount of work: allocator fragmentation
            // keeps raising the high-water mark episode after episode.
            rss_mb = peak_rss_mb();
        }
        if tracing {
            traced.push(ep);
        } else {
            plain.push(ep);
        }
        k += 1;
    }
    let _ = std::fs::remove_dir_all(&p.tmp_dir);
    if let Some(parent) = p.tmp_dir.parent() {
        // Only succeeds once no other run is using it.
        let _ = std::fs::remove_dir(parent);
    }

    let first = &plain[0];
    let counts = first.counts;
    let counts_repeat = plain.iter().chain(&traced).all(|e| e.counts == counts);
    let tts: Vec<f64> = plain.iter().map(|e| e.tts).collect();
    let step_ms: Vec<f64> = plain
        .iter()
        .flat_map(|e| e.step_ms.iter().copied())
        .collect();
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let energy_err =
        e_start.map(|e0| energy_err(e0, &first.final_state, inputs.cfg.eps, counts.sn_events));
    // A 90th percentile needs ten samples beyond it.
    let step_ms_p90 = (!p.trace && step_ms.len() >= 100).then(|| quantile(&step_ms, 0.9));
    if e_start.is_some() {
        let tts_med = median(&tts);
        m.insert("time_to_solution_s", tts_med);
        m.insert("updates_per_s", counts.active_updates as f64 / tts_med);
        m.insert("step_ms_p50", median(&step_ms));
        m.insert("setup_s", s.median("setup_s"));
        m.insert("peak_rss_mb", rss_mb);
    } else {
        let log = log.lock().expect("predict log lock is never poisoned");
        let is_dist = p.workload == Workload::GalaxyDist;
        per_layer(
            &inputs,
            is_dist,
            predictor.as_deref(),
            &log,
            &plain,
            &traced,
            &mut s,
            &mut m,
        );
    }
    Outcome {
        checks,
        metrics: m,
        counts,
        counts_repeat,
        episodes: plain.len() + traced.len(),
        step_samples: step_ms.len(),
        episode_tts: tts,
        energy_err,
        step_ms_p90,
    }
}

/// The traced run's per-layer metrics (see README.md for how each is
/// measured).
#[allow(clippy::too_many_arguments)]
fn per_layer(
    inputs: &Inputs,
    is_dist: bool,
    predictor: Option<&UNetPredictor>,
    log: &PredictLog,
    plain: &[Episode],
    traced: &[Episode],
    s: &mut Samples,
    m: &mut BTreeMap<&'static str, f64>,
) {
    let ep = &traced[0];
    let c = ep.counts;
    let episodes = (plain.len() + traced.len()) as f64;
    let cfg = &inputs.cfg;

    if let Some(pred) = predictor {
        // The region the driver dispatched first; a distributed run
        // dispatches on its pool rank, so there the region is cut from the
        // final state around the exploded star holding the most gas.
        let region = log.first_region.clone().or_else(|| {
            ep.final_state
                .iter()
                .filter(|p| p.is_star() && p.exploded)
                .map(|p| {
                    (
                        p.pos,
                        layers::cut_region(&ep.final_state, p.pos, cfg.region_side),
                    )
                })
                .max_by_key(|(_, gas)| gas.len())
        });
        if let Some((center, gas)) = region.filter(|(_, gas)| !gas.is_empty()) {
            for _ in 0..3 {
                layers::replay_surrogate_stages(pred, center, &gas, s);
                if log.ms.is_empty() {
                    let (_, ms) = time_ms(|| pred.predict(center, E_SN, cfg.horizon(), &gas));
                    s.add("surrogate.predict_ms", ms);
                    s.add("surrogate.region_gas_mean", gas.len() as f64);
                }
            }
        }
        for (ms, gas) in log.ms.iter().zip(&log.gas) {
            s.add("surrogate.predict_ms", *ms);
            s.add("surrogate.region_gas_mean", *gas as f64);
        }
    }
    for (name, _) in crate::report::PER_LAYER {
        if !s.get(name).is_empty() {
            m.insert(name, s.median(name));
        }
    }
    if predictor.is_some() {
        let region_gas = s.get("surrogate.region_gas_mean");
        m.insert(
            "surrogate.region_gas_mean",
            region_gas.iter().sum::<f64>() / region_gas.len().max(1) as f64,
        );
        if !log.ms.is_empty() {
            m.insert(
                "surrogate.regions_dispatched",
                log.ms.len() as f64 / episodes,
            );
        }
        m.insert("surrogate.regions_applied", c.regions_applied as f64);
    }
    m.insert(
        "gravity.interactions_per_update",
        ratio(c.gravity_interactions, c.active_updates),
    );
    m.insert(
        "fdps.tree_reuse_ratio",
        ratio(c.tree_refreshes, c.tree_refreshes + c.tree_rebuilds),
    );
    m.insert(
        "sph.tree_reuse_ratio",
        ratio(
            c.sph_tree_refreshes,
            c.sph_tree_refreshes + c.sph_tree_rebuilds,
        ),
    );
    if let TimestepMode::Block { .. } = cfg.timestep {
        m.insert(
            "scheduler.substeps_per_base_step",
            ratio(c.substeps, c.steps),
        );
        m.insert(
            "scheduler.active_fraction",
            ratio(c.active_updates, c.substeps * inputs.particles.len() as u64),
        );
    } else if !is_dist {
        // Σ(layer replay ms × calls per step) against the traced step time:
        // what remains is the driver's own work (kicks, drifts, buffer
        // refreshes, SN scans, snapshot copies).
        let get = |n: &str| m.get(n).copied().unwrap_or(0.0);
        let forces = c.tree_rebuilds as f64
            * (get("fdps.tree_build_ms") + get("fdps.walk_index_ms") + get("gravity.eval_ms"))
            + c.sph_tree_rebuilds as f64 * get("sph.density_ms")
            + c.sph_tree_refreshes as f64 * get("sph.force_ms");
        let predict = log.ms.iter().sum::<f64>() / episodes;
        let commits = (s.sum("snapshot.encode_ms") + s.sum("ckpt.commit_ms")) / traced.len() as f64;
        let cooling = if cfg.cooling {
            c.steps as f64 * get("astro.cooling_ms")
        } else {
            0.0
        };
        let steps: Vec<f64> = traced
            .iter()
            .flat_map(|e| e.step_ms.iter().copied())
            .collect();
        let step_mean = steps.iter().sum::<f64>() / steps.len().max(1) as f64;
        let accounted = (forces + predict + commits + cooling) / c.steps.max(1) as f64;
        m.insert("core.untimed_share", 1.0 - accounted / step_mean);
    }
    let plain_tts: Vec<f64> = plain.iter().map(|e| e.tts).collect();
    let traced_tts: Vec<f64> = traced.iter().map(|e| e.tts).collect();
    m.insert(
        "trace.overhead_frac",
        median(&traced_tts) / median(&plain_tts) - 1.0,
    );
}
