//! Resample-move rejuvenation (Gilks & Berzuini 2001) for posterior
//! particle ensembles.
//!
//! After resampling, an ensemble contains duplicated particles — the
//! degeneracy the paper's Discussion worries about ("posterior weights
//! concentrating on just a few draws"). A *move step* restores diversity
//! without changing the target: each particle takes a few
//! Metropolis–Hastings steps in `(theta, rho)`, re-simulating its scored
//! window from its stored origin checkpoint **with its own seed held
//! fixed** (the seed is an input coordinate under trajectory-oriented
//! calibration, so the move explores the parameter directions of the
//! posterior while preserving each particle's stochastic identity).
//!
//! Both kernels run one MH pass that differs only in its proposal
//! factor: the public [`rejuvenate`] random walk uses the diagonal
//! factor `diag(step)`, and the calibrator's PMMH kernel
//! ([`crate::config::RejuvenationKernel::Pmmh`]) uses the factor of the
//! shrunk, scaled ensemble covariance `c·Σ̂`. Either proposal is a
//! symmetric reflected Gaussian, so the pass accepts on the window
//! likelihood ratio alone, under the locally-flat-prior approximation
//! the windowed scheme already makes.

use std::sync::Arc;

use episim::output::SharedTrajectory;
use epistats::linalg::{sample_mvn, shrink_covariance, Cholesky};
use epistats::rng::StreamKey;
use epistats::summary::covariance_matrix;

use crate::config::PmmhConfig;
use crate::error::SmcError;
use crate::particle::{Particle, ParticleEnsemble};
use crate::prior::JitterKernel;
use crate::runner::ParallelRunner;
use crate::simulator::{PooledWorkspace, TrajectorySimulator, WorkspaceStats};
use crate::sis::{score_window_prepared, ObservedData, PreparedObserved};
use crate::window::TimeWindow;

/// Configuration of the move step.
#[derive(Clone, Debug)]
pub struct RejuvenationConfig {
    /// Metropolis steps per particle.
    pub moves: usize,
    /// Random-walk step standard deviation per theta coordinate.
    pub step_theta: Vec<f64>,
    /// Random-walk step standard deviation for rho.
    pub step_rho: f64,
    /// Hard support bounds per theta coordinate (`(lo, hi)`), applied by
    /// reflection.
    pub support_theta: Vec<(f64, f64)>,
    /// Support bounds for rho (reflection; stays inside `(0, 1)` in any
    /// case).
    pub support_rho: (f64, f64),
}

impl RejuvenationConfig {
    /// Validate the configuration.
    ///
    /// # Errors
    /// Returns the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.moves == 0 {
            return Err("moves must be >= 1".into());
        }
        if self.step_theta.len() != self.support_theta.len() {
            return Err("step/support dimension mismatch".into());
        }
        if self.step_theta.iter().any(|&s| !(s.is_finite() && s > 0.0)) {
            return Err("invalid theta step".into());
        }
        if !(self.step_rho.is_finite() && self.step_rho > 0.0) {
            return Err("invalid rho step".into());
        }
        for &(lo, hi) in self.support_theta.iter().chain([&self.support_rho]) {
            if lo >= hi {
                return Err(format!("invalid support [{lo}, {hi}]"));
            }
        }
        Ok(())
    }
}

/// Outcome statistics of a rejuvenation pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct RejuvenationStats {
    /// Total proposed moves.
    pub proposed: usize,
    /// Accepted moves.
    pub accepted: usize,
}

impl RejuvenationStats {
    /// Acceptance rate (0 when nothing was proposed).
    pub fn acceptance_rate(&self) -> f64 {
        if self.proposed == 0 {
            0.0
        } else {
            self.accepted as f64 / self.proposed as f64
        }
    }
}

/// Reflect `x` into `[lo, hi]`.
fn reflect(mut x: f64, lo: f64, hi: f64) -> f64 {
    let span = hi - lo;
    // Fold into a 2-span period, then mirror.
    if !x.is_finite() {
        return (lo + hi) / 2.0;
    }
    while x < lo || x > hi {
        if x < lo {
            x = lo + (lo - x);
        }
        if x > hi {
            x = hi - (x - hi);
        }
        // Pathological huge steps: clamp after a few folds.
        if (x - lo).abs() > 10.0 * span {
            return (lo + hi) / 2.0;
        }
    }
    x
}

/// Stream tags of the public random-walk pass.
const TAG_MOVE: u64 = 0x4E10;
const TAG_MOVE_BIAS: u64 = 0x4E11;

/// Stream tags of the PMMH pass, additionally keyed by the window index,
/// so every window's move pass draws from its own stream and
/// streaming-vs-batch identity holds window by window.
const TAG_PMMH_MOVE: u64 = 0x4E12;
const TAG_PMMH_BIAS: u64 = 0x4E13;

/// Apply a random-walk move step to every particle of `ensemble` in
/// place, scoring proposals against `observed` on `window`: the shared
/// MH pass with the diagonal proposal factor `diag(step_theta, step_rho)`
/// and reflection into the configured supports.
///
/// Particles simulated fresh from day 0 (`origin == None`) are re-run
/// with `run_fresh`; continued particles re-run from their stored origin
/// checkpoint. Trajectories, end checkpoints, and parameters update on
/// acceptance; seeds never change.
///
/// # Errors
/// [`SmcError::Config`] for an invalid configuration, plus simulator and
/// scoring failures.
pub fn rejuvenate<S: TrajectorySimulator>(
    simulator: &S,
    ensemble: &mut ParticleEnsemble,
    observed: &ObservedData,
    window: TimeWindow,
    config: &RejuvenationConfig,
    master_seed: u64,
    threads: Option<usize>,
) -> Result<RejuvenationStats, SmcError> {
    config.validate().map_err(SmcError::Config)?;
    let steps: Vec<f64> = config
        .step_theta
        .iter()
        .copied()
        .chain([config.step_rho])
        .collect();
    let moves = MovePass {
        factor: Cholesky::from_diagonal(&steps),
        theta_bounds: config.support_theta.clone(),
        rho_bounds: config.support_rho,
        move_key: StreamKey::new(master_seed).absorb(TAG_MOVE),
        bias_key: StreamKey::new(master_seed).absorb(TAG_MOVE_BIAS),
        moves: config.moves,
    };
    moves.run(
        simulator,
        ensemble,
        observed,
        window,
        &ParallelRunner::from_option(threads),
    )
}

/// The [`crate::config::RejuvenationKernel::Pmmh`] move pass: after a
/// window's resampling step, every posterior particle takes
/// `config.moves` Metropolis–Hastings steps whose joint `(θ, ρ)`
/// proposal is a Gaussian with covariance `c·Σ̂` — `Σ̂` the
/// shrinkage-regularized empirical covariance of the posterior ensemble
/// ([`covariance_matrix`] + [`shrink_covariance`], so the factorization
/// cannot fail even for collapsed ensembles) and `c = 2.38²/d` by
/// default, the Roberts–Rosenthal optimal random-walk scaling.
/// Proposals are reflected into the jitter kernels' support bounds,
/// keeping the pass inside the same parameter box as the between-window
/// jitter.
///
/// # Errors
/// [`SmcError::Degenerate`] if the proposal covariance cannot be
/// factored (not reachable for valid configs — pinned by proptest in
/// epistats), plus simulator and scoring failures.
#[allow(clippy::too_many_arguments)]
pub(crate) fn pmmh_moves<S: TrajectorySimulator>(
    simulator: &S,
    ensemble: &mut ParticleEnsemble,
    observed: &ObservedData,
    window: TimeWindow,
    config: &PmmhConfig,
    jitter_theta: &[JitterKernel],
    jitter_rho: &JitterKernel,
    master_seed: u64,
    window_index: usize,
    runner: &ParallelRunner,
) -> Result<RejuvenationStats, SmcError> {
    config.validate().map_err(SmcError::Config)?;
    let Some(first) = ensemble.particles().first() else {
        return Ok(RejuvenationStats::default());
    };
    let theta_dim = first.theta.len();
    let d = theta_dim + 1; // theta coordinates plus rho

    // Empirical covariance of the posterior in (θ, ρ), shrunk to SPD and
    // scaled; computed serially once per pass, so it is deterministic
    // for every thread shape.
    let mut columns: Vec<Vec<f64>> = (0..theta_dim).map(|k| ensemble.thetas(k)).collect();
    columns.push(ensemble.rhos());
    let refs: Vec<&[f64]> = columns.iter().map(Vec::as_slice).collect();
    let cov = covariance_matrix(&refs);
    let shrunk = shrink_covariance(&cov, d, config.shrinkage, config.floor);
    let c = config.scale_for(d);
    let scaled: Vec<f64> = shrunk.iter().map(|&v| c * v).collect();
    let factor = Cholesky::new(&scaled, d)
        .map_err(|e| SmcError::Degenerate(format!("pmmh proposal covariance: {e}")))?;

    let moves = MovePass {
        factor,
        theta_bounds: jitter_theta.iter().map(|k| (k.lo, k.hi)).collect(),
        rho_bounds: (jitter_rho.lo, jitter_rho.hi),
        move_key: StreamKey::new(master_seed)
            .absorb(TAG_PMMH_MOVE)
            .absorb(window_index as u64),
        bias_key: StreamKey::new(master_seed)
            .absorb(TAG_PMMH_BIAS)
            .absorb(window_index as u64),
        moves: config.moves,
    };
    moves.run(simulator, ensemble, observed, window, runner)
}

/// One Metropolis–Hastings move pass: the proposal, the reflection box,
/// and the counter streams it draws from.
struct MovePass {
    /// Lower Cholesky factor of the joint `(θ, ρ)` proposal covariance.
    factor: Cholesky,
    /// Reflection bounds per theta coordinate.
    theta_bounds: Vec<(f64, f64)>,
    /// Reflection bounds for rho (further clamped into `(0, 1]`).
    rho_bounds: (f64, f64),
    /// Per-particle proposal/accept streams (`rng(particle)`).
    move_key: StreamKey,
    /// Per-particle bias-draw seeds (`derive(particle)`).
    bias_key: StreamKey,
    /// MH steps per particle.
    moves: usize,
}

impl MovePass {
    /// Move every particle of `ensemble` in place: each proposes
    /// `(θ, ρ) + L z` with exactly `d` standard-normal draws in
    /// coordinate order (so the stream layout never depends on the
    /// covariance), reflects into the bounds, re-simulates its window
    /// from its origin under its own seed, and accepts on the window
    /// likelihood ratio with one uniform draw.
    ///
    /// Each particle's streams derive in O(1) from the counter keys, and
    /// the pass runs on pooled per-worker workspaces with the
    /// observed-side preparation built once, so results are
    /// bit-identical for any thread count.
    fn run<S: TrajectorySimulator>(
        &self,
        simulator: &S,
        ensemble: &mut ParticleEnsemble,
        observed: &ObservedData,
        window: TimeWindow,
        runner: &ParallelRunner,
    ) -> Result<RejuvenationStats, SmcError> {
        let particles: Vec<Particle> = ensemble.particles().to_vec();
        let theta_dim = self.theta_bounds.len();
        if let Some(p) = particles.first() {
            if p.theta.len() != theta_dim || self.factor.dim() != theta_dim + 1 {
                return Err(SmcError::Config(format!(
                    "move pass: ensemble theta dimension {} != proposal theta dimension \
                     {theta_dim} (factor dimension {})",
                    p.theta.len(),
                    self.factor.dim()
                )));
            }
        }
        let (rlo, rhi) = self.rho_bounds;
        let (rlo, rhi) = (rlo.max(1e-9), rhi.min(1.0));
        let prepared = PreparedObserved::build(observed, window)?;
        let zeros = vec![0.0f64; theta_dim + 1];
        let ws_stats = Arc::new(WorkspaceStats::default());
        let moved: Vec<Result<(Particle, usize), SmcError>> = runner.run_grid_pooled(
            particles.len(),
            1,
            || PooledWorkspace::new(Arc::clone(&ws_stats)),
            |ws, i, _| {
                let mut p = particles[i].clone();
                let mut rng = self.move_key.rng(i as u64);
                let bias_seed = self.bias_key.derive(i as u64);
                let (sim, scratch) = ws.parts();
                // Current likelihood under a fixed bias draw (shared
                // between current and proposed states so the comparison
                // is exact in the parameters).
                let mut current_ll = score_window_prepared(
                    &p.trajectory,
                    p.rho,
                    bias_seed,
                    observed,
                    &prepared,
                    scratch,
                )?;
                let mut accepted_here = 0usize;

                for _ in 0..self.moves {
                    let delta = sample_mvn(&self.factor, &zeros, &mut rng);
                    let theta_new: Vec<f64> = p
                        .theta
                        .iter()
                        .zip(&delta)
                        .zip(&self.theta_bounds)
                        .map(|((&t, &dx), &(lo, hi))| reflect(t + dx, lo, hi))
                        .collect();
                    let rho_new = reflect(p.rho + delta[theta_dim], rlo, rhi);

                    // Re-simulate the window with the SAME seed.
                    let (trajectory_new, checkpoint_new) = match &p.origin {
                        None => {
                            let (t, ck) =
                                simulator.run_fresh_in(sim, &theta_new, p.seed, window.end)?;
                            (SharedTrajectory::root(t), ck)
                        }
                        Some(origin) => {
                            let (tail, ck) = simulator
                                .run_from_in(sim, origin, &theta_new, p.seed, window.end)?;
                            // Share the (unchanged) pre-window history:
                            // only the re-simulated window segment is
                            // fresh storage.
                            (p.trajectory.truncated(origin.day).append(tail), ck)
                        }
                    };
                    let proposed_ll = score_window_prepared(
                        &trajectory_new,
                        rho_new,
                        bias_seed,
                        observed,
                        &prepared,
                        scratch,
                    )?;
                    let accept = proposed_ll >= current_ll
                        || rng.next_f64() < (proposed_ll - current_ll).exp();
                    if accept {
                        p.theta = theta_new.into();
                        p.rho = rho_new;
                        p.trajectory = trajectory_new;
                        p.checkpoint = crate::ckpool::share(checkpoint_new);
                        current_ll = proposed_ll;
                        accepted_here += 1;
                    }
                }
                Ok((p, accepted_here))
            },
        );

        let mut stats = RejuvenationStats {
            proposed: self.moves * particles.len(),
            accepted: 0,
        };
        for (slot, item) in ensemble.particles_mut().iter_mut().zip(moved) {
            let (p, acc) = item?;
            *slot = p;
            stats.accepted += acc;
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CalibrationConfig;
    use crate::observation::BiasMode;
    use crate::simulator::SeirSimulator;
    use crate::sis::{Priors, SingleWindowIs};
    use episim::seir::SeirParams;

    fn default_config() -> RejuvenationConfig {
        RejuvenationConfig {
            moves: 2,
            step_theta: vec![0.03],
            step_rho: 0.03,
            support_theta: vec![(0.05, 1.0)],
            support_rho: (0.05, 1.0),
        }
    }

    #[test]
    fn reflect_stays_in_bounds() {
        for &x in &[-3.0, -0.2, 0.0, 0.5, 1.0, 1.7, 9.0, f64::NAN] {
            let r = reflect(x, 0.0, 1.0);
            assert!((0.0..=1.0).contains(&r), "reflect({x}) = {r}");
        }
        // Interior points unchanged.
        assert_eq!(reflect(0.3, 0.0, 1.0), 0.3);
        // Simple mirror.
        assert!((reflect(1.2, 0.0, 1.0) - 0.8).abs() < 1e-12);
        assert!((reflect(-0.2, 0.0, 1.0) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn config_validation() {
        assert!(default_config().validate().is_ok());
        let mut c = default_config();
        c.moves = 0;
        assert!(c.validate().is_err());
        let mut c = default_config();
        c.step_rho = -0.1;
        assert!(c.validate().is_err());
        let mut c = default_config();
        c.support_theta = vec![(1.0, 0.5)];
        assert!(c.validate().is_err());
    }

    fn calibrated() -> (SeirSimulator, ParticleEnsemble, ObservedData, TimeWindow) {
        use crate::simulator::TrajectorySimulator;
        let sim = SeirSimulator::new(SeirParams {
            population: 15_000,
            initial_exposed: 50,
            ..SeirParams::default()
        })
        .unwrap();
        let (truth, _) = sim.run_fresh(&[0.45], 99, 30).unwrap();
        let observed = ObservedData::cases_only_with(
            truth.series_f64("infections").unwrap(),
            BiasMode::Mean,
            1.0,
        );
        let window = TimeWindow::new(5, 30);
        let cfg = CalibrationConfig::builder()
            .n_params(60)
            .n_replicates(3)
            .resample_size(120)
            .seed(3)
            .build();
        let priors = Priors {
            theta: vec![Box::new(crate::prior::UniformPrior::new(0.1, 0.9))],
            rho: Box::new(crate::prior::BetaPrior::new(100.0, 1.0)),
        };
        let result = SingleWindowIs::new(&sim, cfg)
            .run(&priors, &observed, window)
            .unwrap();
        (sim, result.posterior, observed, window)
    }

    #[test]
    fn rejuvenation_increases_diversity_without_losing_accuracy() {
        let (sim, mut posterior, observed, window) = calibrated();
        let before_unique = posterior.unique_inputs();
        let before_mean = posterior.mean_theta(0);
        let stats = rejuvenate(
            &sim,
            &mut posterior,
            &observed,
            window,
            &default_config(),
            42,
            None,
        )
        .unwrap();
        assert!(stats.proposed > 0);
        assert!(
            stats.acceptance_rate() > 0.05,
            "acceptance {:.3} suspiciously low",
            stats.acceptance_rate()
        );
        let after_unique = posterior.unique_inputs();
        assert!(
            after_unique > before_unique,
            "diversity {before_unique} -> {after_unique} did not improve"
        );
        // Posterior mean must stay in the right neighbourhood (truth 0.45).
        let after_mean = posterior.mean_theta(0);
        assert!(
            (after_mean - 0.45).abs() < (before_mean - 0.45).abs() + 0.05,
            "mean drifted: {before_mean:.3} -> {after_mean:.3}"
        );
    }

    #[test]
    fn rejuvenation_is_deterministic_in_seed() {
        let (sim, posterior, observed, window) = calibrated();
        let mut a = posterior.clone();
        let mut b = posterior.clone();
        rejuvenate(
            &sim,
            &mut a,
            &observed,
            window,
            &default_config(),
            7,
            Some(1),
        )
        .unwrap();
        rejuvenate(
            &sim,
            &mut b,
            &observed,
            window,
            &default_config(),
            7,
            Some(2),
        )
        .unwrap();
        let fp = |e: &ParticleEnsemble| -> Vec<u64> {
            e.particles().iter().map(|p| p.theta[0].to_bits()).collect()
        };
        assert_eq!(fp(&a), fp(&b));
    }

    #[test]
    fn empty_ensemble_is_a_noop() {
        let (sim, _, observed, window) = calibrated();
        let mut empty = ParticleEnsemble::new();
        let stats = rejuvenate(
            &sim,
            &mut empty,
            &observed,
            window,
            &default_config(),
            1,
            None,
        )
        .unwrap();
        assert_eq!(stats.proposed, 0);
        assert_eq!(stats.acceptance_rate(), 0.0);
    }
}
