//! Sequential importance sampling calibration (paper Sections IV-B/IV-C).
//!
//! [`SingleWindowIs`] is Algorithm 1: sample `(theta, rho)` from the
//! prior, run `n_replicates` seeded simulations per tuple (common random
//! numbers across tuples), weight every trajectory by the likelihood of
//! the observed window, and resample with replacement proportional to
//! the weights.
//!
//! [`SequentialCalibrator`] is the outer loop: the posterior particles of
//! window `m-1` — *including their checkpointed simulator states* — are
//! jittered by uniform kernels and continued through window `m`, weighted
//! by the incremental likelihood of the new data only (the conditional
//! decomposition of Section IV-C.2). This is what the paper's
//! checkpointing machinery buys: window `m` costs only window-`m`
//! simulation days, never a replay from day zero. Its window loop is the
//! one streaming uses too ([`crate::stream`]): a batch run is a stream
//! over the plan's windows. Algorithm 1 and every sequential window
//! simulate through one grid function.

use std::sync::Arc;
use std::time::Duration;

use epistats::logweight::log_mean_exp;
use epistats::rng::{StreamKey, Xoshiro256PlusPlus};
use epistats::summary::ess;

use crate::ckpool;
use crate::config::{CalibrationConfig, CheckpointPolicy};
use crate::error::SmcError;
use crate::likelihood::{CompositeLikelihood, GaussianSqrtLikelihood, Likelihood};
use crate::observation::{BiasMode, BiasModel, BinomialBias, IdentityBias};
use crate::particle::{Particle, ParticleEnsemble};
use crate::persist::writer::Persister;
use crate::persist::{self, ResumeReport, RunStore};
use crate::prior::{JitterKernel, Prior};
use crate::runner::ParallelRunner;
use crate::simulator::{PooledWorkspace, TrajectorySimulator, WorkspaceStats};
use crate::stream::WindowLoop;
use crate::window::{TimeWindow, WindowPlan};

use episim::output::SharedTrajectory;

/// Stream-derivation tags (arbitrary distinct constants).
const TAG_SIM_SEED: u64 = 0x5EED_0001;
const TAG_BIAS: u64 = 0xB1A5_0002;
const TAG_WINDOW: u64 = 0xA11D_0003;

/// An observed data series aligned to absolute simulation days:
/// `values[i]` is the observation for day `start_day + i`.
#[derive(Clone, Debug, PartialEq)]
pub struct ObservedSeries {
    /// Day of the first observation.
    pub start_day: u32,
    /// Daily observed values.
    pub values: Vec<f64>,
}

impl ObservedSeries {
    /// A series starting at day 1 (the usual case: observations from the
    /// epidemic's first simulated day).
    pub fn from_day_one(values: Vec<f64>) -> Self {
        Self {
            start_day: 1,
            values,
        }
    }

    /// The slice covering absolute days `[lo, hi]`, if fully observed.
    pub fn window(&self, lo: u32, hi: u32) -> Option<&[f64]> {
        if lo < self.start_day || hi < lo {
            return None;
        }
        let a = (lo - self.start_day) as usize;
        let b = (hi - self.start_day) as usize;
        if b >= self.values.len() {
            return None;
        }
        Some(&self.values[a..=b])
    }

    /// Last observed day, or `None` for an empty series (an empty series
    /// used to underflow here: `start_day + 0 - 1` panics in debug and
    /// wraps in release).
    pub fn end_day(&self) -> Option<u32> {
        if self.values.is_empty() {
            None
        } else {
            Some(self.start_day + self.values.len() as u32 - 1)
        }
    }
}

/// Reject the first value of `values` (observed on days `start_day..`)
/// that is not a finite, non-negative count, naming data source `source`
/// (simulator series `series`) and the absolute day.
pub(crate) fn check_counts(
    source: usize,
    series: &str,
    start_day: u32,
    values: &[f64],
) -> Result<(), SmcError> {
    match values
        .iter()
        .enumerate()
        .find(|(_, v)| !(v.is_finite() && **v >= 0.0))
    {
        Some((k, v)) => Err(SmcError::Observation(format!(
            "source {source} ('{series}'): value {v} on day {} is not a finite \
             non-negative count",
            u64::from(start_day) + k as u64
        ))),
        None => Ok(()),
    }
}

/// One empirical data stream: which simulator output it observes, the
/// data themselves, and the bias/likelihood pair linking them.
pub struct DataSource {
    /// Simulator output series name (e.g. `"infections"`, `"deaths"`).
    pub series: String,
    /// The observed data.
    pub observed: ObservedSeries,
    /// Measurement-bias model mapping true counts to the observed scale.
    pub bias: Arc<dyn BiasModel>,
    /// Likelihood comparing observed to bias-transformed simulated counts.
    pub likelihood: Arc<dyn Likelihood>,
}

/// The full observed dataset: one or more sources scored jointly
/// (independent product likelihood, Equation 4).
pub struct ObservedData {
    /// The data sources.
    pub sources: Vec<DataSource>,
}

impl ObservedData {
    /// Paper configuration for Section V-B: reported case counts only,
    /// binomially thinned, Gaussian sqrt-scale likelihood with
    /// `sigma = 1`.
    pub fn cases_only(cases: Vec<f64>) -> Self {
        Self::cases_only_with(cases, BiasMode::Sampled, 1.0)
    }

    /// Cases-only with explicit bias mode and likelihood sigma.
    pub fn cases_only_with(cases: Vec<f64>, mode: BiasMode, sigma: f64) -> Self {
        Self {
            sources: vec![DataSource {
                series: "infections".into(),
                observed: ObservedSeries::from_day_one(cases),
                bias: Arc::new(BinomialBias { mode }),
                likelihood: Arc::new(GaussianSqrtLikelihood::new(sigma)),
            }],
        }
    }

    /// Paper configuration for Section V-C: cases (binomial bias) plus
    /// deaths (no bias), both Gaussian on the sqrt scale.
    pub fn cases_and_deaths(cases: Vec<f64>, deaths: Vec<f64>) -> Self {
        Self::cases_and_deaths_with(cases, deaths, BiasMode::Sampled, 1.0)
    }

    /// Cases+deaths with explicit bias mode and sigma.
    pub fn cases_and_deaths_with(
        cases: Vec<f64>,
        deaths: Vec<f64>,
        mode: BiasMode,
        sigma: f64,
    ) -> Self {
        Self {
            sources: vec![
                DataSource {
                    series: "infections".into(),
                    observed: ObservedSeries::from_day_one(cases),
                    bias: Arc::new(BinomialBias { mode }),
                    likelihood: Arc::new(GaussianSqrtLikelihood::new(sigma)),
                },
                DataSource {
                    series: "deaths".into(),
                    observed: ObservedSeries::from_day_one(deaths),
                    bias: Arc::new(IdentityBias),
                    likelihood: Arc::new(GaussianSqrtLikelihood::new(sigma)),
                },
            ],
        }
    }

    /// Add a custom source.
    pub fn push_source(&mut self, source: DataSource) {
        self.sources.push(source);
    }
}

/// Joint prior over `(theta, rho)`.
pub struct Priors {
    /// One prior per theta coordinate.
    pub theta: Vec<Box<dyn Prior>>,
    /// Prior on the reporting probability.
    pub rho: Box<dyn Prior>,
}

impl Priors {
    /// The paper's first-window priors: `Uniform(0.1, 0.5)` on the
    /// transmission rate and `Beta(4, 1)` on `rho` (Section V-B).
    pub fn paper() -> Self {
        Self {
            theta: vec![Box::new(crate::prior::UniformPrior::new(0.1, 0.5))],
            rho: Box::new(crate::prior::BetaPrior::new(4.0, 1.0)),
        }
    }
}

/// Counters of one calibrated window: its posterior ensemble's memory
/// footprint (the numbers behind the structural-sharing claim: per-window
/// resident trajectory bytes should stay roughly flat as windows
/// accumulate, while the flat-equivalent bytes grow linearly), its grid's
/// work, and its durability.
///
/// Every word is a count, never a clock. Ten of them are deterministic —
/// a function of the configuration, seed, observed data and window index
/// alone — and those are the words a snapshot record persists (see
/// [`crate::persist::format`]). The other four (`pool_builds`,
/// `workspaces_built`, `workspace_reuses`, `grid_chunks`) depend on the
/// thread shape, so they live in memory only and read 0 on a window
/// restored from a snapshot. Per-phase timing is not kept here; a
/// caller that needs it measures around the library.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TrajectoryTelemetry {
    /// Trajectory bytes actually resident for the posterior ensemble:
    /// every distinct segment counted once, however many particles share
    /// it. Persisted.
    pub shared_bytes: usize,
    /// Bytes the same ensemble would hold if every particle owned a flat
    /// copy of its full history (the pre-sharing representation).
    /// Persisted.
    pub flat_bytes: usize,
    /// Distinct trajectory segments across the ensemble. Persisted.
    pub unique_segments: usize,
    /// Total segment references across the ensemble (chain lengths
    /// summed); `segment_refs - unique_segments` references were shared
    /// rather than copied. Persisted.
    pub segment_refs: usize,
    /// Dedicated rayon pools built while computing this window. The
    /// sequential calibrator pre-builds its pool once per run, so this
    /// should be 0 for every window it emits. Not persisted.
    pub pool_builds: usize,
    /// Days simulated across the window's whole `(parameter, replicate)`
    /// grid (all adaptive iterations included). Deterministic for a
    /// given configuration, regardless of thread count. Persisted.
    pub days_simulated: u64,
    /// Per-worker simulation workspaces built for this window (≈ one per
    /// worker chunk; depends on thread count, so it must never feed
    /// deterministic fingerprints). Not persisted.
    pub workspaces_built: u64,
    /// Simulation runs that reused an already-built workspace instead of
    /// allocating a fresh one. Not persisted.
    pub workspace_reuses: u64,
    /// Distinct `SimCheckpoint` allocations backing the posterior
    /// ensemble's `checkpoint`/`origin` references. Deterministic:
    /// sharing structure depends only on resampling ancestry, never on
    /// scheduling. Persisted.
    pub unique_checkpoints: usize,
    /// Total checkpoint references across the posterior ensemble
    /// (`checkpoint` plus `origin`); `checkpoint_refs -
    /// unique_checkpoints` references alias a shared allocation instead
    /// of deep-copying it. Persisted.
    pub checkpoint_refs: usize,
    /// Scheduling chunks the window's simulation grids were split into
    /// (summed over adaptive iterations). Depends on worker count and
    /// chunk policy, so it must never feed deterministic fingerprints.
    /// Not persisted.
    pub grid_chunks: u64,
    /// Durability records written for this window (0 or 1 under the
    /// current policies). Deterministic for a given
    /// [`crate::config::CheckpointPolicy`]. Persisted (as 1: a record
    /// holds the window it was written for).
    pub records_written: u64,
    /// Per-source scoring passes that took the fused day-loop path
    /// (per-day bias + likelihood term, no materialized observation
    /// buffers) instead of the materialize-then-score fallback.
    /// Deterministic for a given configuration: fusion eligibility
    /// depends only on the bias/likelihood types, never on scheduling.
    /// Persisted.
    pub fused_scores: u64,
    /// Binomial/Poisson draws issued through the steppers' batched
    /// sampling entry points (`HazardSampler::draw_many`,
    /// `sample_poisson_batch`) across the window's grid. Deterministic
    /// for a given configuration and model. Persisted.
    pub batched_draws: u64,
}

impl TrajectoryTelemetry {
    /// Segment references satisfied by sharing instead of copying.
    pub fn reused_segments(&self) -> usize {
        self.segment_refs - self.unique_segments
    }

    /// Checkpoint references satisfied by `Arc` sharing instead of deep
    /// copies — under interned checkpoints this is every reference beyond
    /// the first per allocation.
    pub fn shared_checkpoints(&self) -> usize {
        self.checkpoint_refs - self.unique_checkpoints
    }

    /// `flat_bytes / shared_bytes` — how many times over the ensemble's
    /// history would have been duplicated without structural sharing
    /// (1.0 when nothing is shared, 0 on an empty ensemble).
    pub fn sharing_ratio(&self) -> f64 {
        if self.shared_bytes == 0 {
            0.0
        } else {
            self.flat_bytes as f64 / self.shared_bytes as f64
        }
    }
}

/// Per-window scheduling/accounting context threaded into
/// [`finalize_window`] — the counters that are not derivable from the
/// candidate ensemble itself.
#[derive(Clone, Copy, Debug, Default)]
struct WindowAccounting {
    /// Importance-sampling iterations spent (1 unless adaptive).
    iterations: usize,
    /// Dedicated pools charged to this window (see
    /// [`crate::runner::ParallelRunner::take_build_charge`]).
    pool_builds: usize,
    /// Scheduling chunks across the window's simulation grids.
    grid_chunks: u64,
}

/// Measure the posterior ensemble's trajectory and checkpoint footprint
/// by deduplicating on allocation identity, folding in the window's
/// workspace-pool counters.
///
/// The ensemble is split into contiguous index shards; each shard walks
/// its particles' chains in parallel and reports `(flat bytes, segment
/// id → bytes, checkpoint sharing shard)`. The serial merge is a pure
/// set/map union plus counter addition — order-independent, so the
/// result is bit-identical for any thread count or shard split.
fn measure_telemetry(
    posterior: &ParticleEnsemble,
    runner: &ParallelRunner,
    acct: WindowAccounting,
    ws_stats: &WorkspaceStats,
) -> TrajectoryTelemetry {
    let n = posterior.len();
    let shard = runner.chunk_size(n).max(1);
    let n_shards = n.div_ceil(shard);
    let parts = runner.run_indexed(n_shards, |s| {
        let lo = s * shard;
        let hi = (lo + shard).min(n);
        let mut flat_bytes = 0usize;
        let mut segment_refs = 0usize;
        let mut segments = std::collections::BTreeMap::new();
        for p in &posterior.particles()[lo..hi] {
            flat_bytes += p.trajectory.flat_bytes();
            for (id, bytes) in p.trajectory.segment_footprint() {
                segment_refs += 1;
                segments.entry(id).or_insert(bytes);
            }
        }
        let checkpoints = ckpool::sharing_shard(
            posterior.particles()[lo..hi]
                .iter()
                .flat_map(|p| std::iter::once(&p.checkpoint).chain(p.origin.as_ref())),
        );
        (flat_bytes, segment_refs, segments, checkpoints)
    });
    let mut t = TrajectoryTelemetry {
        pool_builds: acct.pool_builds,
        grid_chunks: acct.grid_chunks,
        days_simulated: ws_stats.days_simulated(),
        workspaces_built: ws_stats.built(),
        workspace_reuses: ws_stats.reuses(),
        fused_scores: ws_stats.fused_scores(),
        batched_draws: ws_stats.batched_draws(),
        ..Default::default()
    };
    let mut seen = std::collections::BTreeMap::new();
    let mut ck_shards = Vec::with_capacity(parts.len());
    for (flat_bytes, segment_refs, segments, checkpoints) in parts {
        t.flat_bytes += flat_bytes;
        t.segment_refs += segment_refs;
        for (id, bytes) in segments {
            seen.entry(id).or_insert(bytes);
        }
        ck_shards.push(checkpoints);
    }
    t.unique_segments = seen.len();
    t.shared_bytes = seen.values().sum();
    let sharing = ckpool::sharing_union(ck_shards);
    t.unique_checkpoints = sharing.unique;
    t.checkpoint_refs = sharing.refs;
    t
}

/// The outcome of calibrating one window. Cloning is cheap where it
/// matters: the ensembles are Arc structural sharing all the way down.
#[derive(Clone, Debug)]
pub struct WindowResult {
    /// The scored window.
    pub window: TimeWindow,
    /// Resampled (uniformly weighted) posterior particles.
    pub posterior: ParticleEnsemble,
    /// The full weighted candidate ensemble, kept only when
    /// [`CalibrationConfig::keep_prior_ensemble`] is set.
    pub prior_ensemble: Option<ParticleEnsemble>,
    /// Effective sample size of the importance weights before resampling.
    pub ess: f64,
    /// Log marginal likelihood estimate of the window
    /// (`log mean exp(log w)`).
    pub log_marginal: f64,
    /// Number of distinct candidates surviving the resampling step.
    pub unique_ancestors: usize,
    /// Importance-sampling iterations spent on this window (1 unless
    /// adaptive refinement re-proposed; see [`crate::adaptive`]).
    pub iterations: usize,
    /// Wall-clock time of the window (simulation + weighting +
    /// resampling) — the one clock a result carries. Zero on a window
    /// restored from a snapshot: records hold no clocks.
    pub wall_time: Duration,
    /// Counters of the window: posterior memory, grid work, durability.
    pub telemetry: TrajectoryTelemetry,
    /// Move statistics of the post-resampling rejuvenation pass; `None`
    /// under the default [`UniformJitter`] kernel (no pass runs) and on
    /// windows restored from a snapshot (diagnostics are not persisted).
    ///
    /// [`UniformJitter`]: crate::config::RejuvenationKernel::UniformJitter
    pub rejuvenation: Option<crate::rejuvenate::RejuvenationStats>,
}

/// Reusable buffers for window scoring: the simulated window (integer
/// counts), its float conversion, and the bias-transformed observation —
/// the three per-source allocations [`score_window`] used to make on
/// every call. One scratch lives in each worker's
/// [`crate::simulator::PooledWorkspace`], so scoring fused into the grid
/// pass allocates nothing per cell after warm-up.
#[derive(Debug, Default)]
pub struct ScoreScratch {
    /// Simulated window counts (`SharedTrajectory::window_into` target).
    sim_u: Vec<u64>,
    /// Simulated window counts as `f64` (materialized fallback only).
    sim_f: Vec<f64>,
    /// Bias-transformed simulated observations (materialized fallback
    /// only).
    sim_obs: Vec<f64>,
    /// Per-source scoring passes that took the fused day-loop path;
    /// flushed into [`crate::simulator::WorkspaceStats`] when the owning
    /// pooled workspace drops.
    pub(crate) fused_scores: u64,
}

impl ScoreScratch {
    /// Fresh (empty) scratch buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Scoring passes through this scratch that took the fused path.
    pub fn fused_scores(&self) -> u64 {
        self.fused_scores
    }
}

/// Per-window cache of the likelihoods' observed-side preparation (e.g.
/// `sqrt(y_t)` for the paper's sqrt-scale Gaussian), built **once per
/// window** and shared read-only across the grid's workers — the
/// observed series is fixed while every particle scores against it, so
/// re-deriving the transform per particle was pure waste.
#[derive(Clone, Debug)]
pub struct PreparedObserved {
    /// The window the preparation covers.
    window: TimeWindow,
    /// One prepared value per window day, per source (source order of
    /// the [`ObservedData`] it was built from).
    per_source: Vec<Vec<f64>>,
}

impl PreparedObserved {
    /// Prepare every source's observed window through its likelihood's
    /// [`Likelihood::prepare_observed`]. Every window is scored through
    /// here, so this is also where a scored day's value is checked.
    ///
    /// # Errors
    /// Returns [`SmcError::Observation`] if any source's observed series
    /// does not cover the window, or holds a value on a window day that
    /// is not a finite, non-negative count (naming the source and the
    /// absolute day).
    pub fn build(observed: &ObservedData, window: TimeWindow) -> Result<Self, SmcError> {
        let mut per_source = Vec::with_capacity(observed.sources.len());
        for (si, src) in observed.sources.iter().enumerate() {
            let obs_w = src
                .observed
                .window(window.start, window.end)
                .ok_or_else(|| {
                    SmcError::Observation(format!(
                        "observed series '{}' does not cover days [{}, {}]",
                        src.series, window.start, window.end
                    ))
                })?;
            check_counts(si, &src.series, window.start, obs_w)?;
            let mut prep = Vec::new();
            src.likelihood.prepare_observed(obs_w, &mut prep);
            assert_eq!(
                prep.len(),
                obs_w.len(),
                "prepare_observed must emit one value per observed day"
            );
            per_source.push(prep);
        }
        Ok(Self { window, per_source })
    }

    /// The window this preparation covers.
    pub fn window(&self) -> TimeWindow {
        self.window
    }
}

/// Compute a particle's log weight for a window: the joint log likelihood
/// of all data sources over the window days.
///
/// # Errors
/// Returns [`SmcError::Observation`] if the trajectory or the observed
/// data do not cover the window, or the trajectory lacks a referenced
/// series.
pub fn score_window(
    trajectory: &SharedTrajectory,
    rho: f64,
    bias_seed: u64,
    observed: &ObservedData,
    window: TimeWindow,
) -> Result<f64, SmcError> {
    score_window_with(
        trajectory,
        rho,
        bias_seed,
        observed,
        window,
        &mut ScoreScratch::new(),
    )
}

/// [`score_window`] with caller-provided scratch buffers — the
/// allocation-free variant the grid pass uses. Results are bit-identical
/// to [`score_window`] for any scratch state.
///
/// Builds the observed-side preparation on every call; the grid passes
/// build one [`PreparedObserved`] per window instead and go through
/// [`score_window_prepared`] directly.
///
/// # Errors
/// Same coverage errors as [`score_window`].
pub fn score_window_with(
    trajectory: &SharedTrajectory,
    rho: f64,
    bias_seed: u64,
    observed: &ObservedData,
    window: TimeWindow,
    scratch: &mut ScoreScratch,
) -> Result<f64, SmcError> {
    let prepared = PreparedObserved::build(observed, window)?;
    score_window_prepared(trajectory, rho, bias_seed, observed, &prepared, scratch)
}

/// The scoring core: per source, try the **fused day loop** — walk the
/// simulated window once, mapping each day through
/// [`BiasModel::observe_one`] and [`Likelihood::prepared_day_term`] and
/// accumulating the log-likelihood directly, with no materialized
/// float/observation buffers. Sources whose bias has cross-day state
/// (reporting delays) or whose likelihood lacks a per-day form fall back
/// to the materialize-then-score path on a **fresh** bias stream (the
/// probe's partial draws are discarded with the generator), so results
/// are bit-identical either way: same per-day float operations in the
/// same ascending-day order, sources summed in source order.
///
/// `prepared` must have been built from the same `observed` and window.
///
/// # Errors
/// Returns [`SmcError::Observation`] if the trajectory does not cover
/// the window on a referenced series.
pub fn score_window_prepared(
    trajectory: &SharedTrajectory,
    rho: f64,
    bias_seed: u64,
    observed: &ObservedData,
    prepared: &PreparedObserved,
    scratch: &mut ScoreScratch,
) -> Result<f64, SmcError> {
    let window = prepared.window;
    assert_eq!(
        prepared.per_source.len(),
        observed.sources.len(),
        "PreparedObserved was built from a different ObservedData"
    );
    let mut comp = CompositeLikelihood::new();
    for (si, src) in observed.sources.iter().enumerate() {
        if !trajectory.window_into(&src.series, window.start, window.end, &mut scratch.sim_u) {
            return Err(SmcError::Observation(format!(
                "trajectory does not cover series '{}' on days [{}, {}]",
                src.series, window.start, window.end
            )));
        }
        let prep = &prepared.per_source[si];
        let mut bias_rng =
            Xoshiro256PlusPlus::from_stream(bias_seed, &[TAG_BIAS, window.start as u64, si as u64]);
        let mut acc = 0.0;
        let mut fused = true;
        for (t, &u) in scratch.sim_u.iter().enumerate() {
            let term = src
                .bias
                .observe_one(u as f64, rho, &mut bias_rng)
                .and_then(|eta_obs| src.likelihood.prepared_day_term(prep[t], eta_obs));
            match term {
                Some(v) => acc += v,
                None => {
                    fused = false;
                    break;
                }
            }
        }
        if fused {
            scratch.fused_scores += 1;
            comp.add(acc);
            continue;
        }
        // Materialized fallback. A fresh bias stream replaces whatever
        // the fused probe consumed before bailing out, so partial
        // consumption above is harmless.
        let obs_w = src
            .observed
            .window(window.start, window.end)
            .ok_or_else(|| {
                SmcError::Observation(format!(
                    "observed series '{}' does not cover days [{}, {}]",
                    src.series, window.start, window.end
                ))
            })?;
        scratch.sim_f.clear();
        scratch
            .sim_f
            .extend(scratch.sim_u.iter().map(|&v| v as f64));
        let mut bias_rng =
            Xoshiro256PlusPlus::from_stream(bias_seed, &[TAG_BIAS, window.start as u64, si as u64]);
        src.bias
            .observe_into(&scratch.sim_f, rho, &mut bias_rng, &mut scratch.sim_obs);
        comp.add(src.likelihood.log_likelihood(obs_w, &scratch.sim_obs));
    }
    Ok(comp.total())
}

/// Weight, resample, and package a candidate ensemble into a
/// [`WindowResult`].
///
/// The between-window phases run parallel wherever the deterministic
/// contract allows: weight exponentiation fans out elementwise
/// ([`ParticleEnsemble::normalized_weights_par`]), posterior duplicate
/// materialization (pure `Arc` bumps under shared trajectories /
/// checkpoints / thetas) runs on the grid runner, and the telemetry
/// footprint measurement shards across it too. Only the float
/// *reductions* (log-sum-exp, whose summation order is part of the
/// contract) and resampling-index generation (a single sequential RNG
/// stream at O(1) alias work per draw) stay serial.
///
/// # Errors
/// [`SmcError::Degenerate`] when every candidate's log weight is `-∞`:
/// no trajectory is compatible with the window's data, so the weights
/// (and any resample drawn from them) are undefined.
#[allow(clippy::too_many_arguments)]
fn finalize_window(
    window: TimeWindow,
    candidates: Vec<Particle>,
    config: &CalibrationConfig,
    rng: &mut Xoshiro256PlusPlus,
    runner: &ParallelRunner,
    started: std::time::Instant,
    acct: WindowAccounting,
    ws_stats: &WorkspaceStats,
) -> Result<WindowResult, SmcError> {
    let ensemble = ParticleEnsemble::from_vec(candidates);
    let log_w: Vec<f64> = ensemble.particles().iter().map(|p| p.log_weight).collect();
    if log_w
        .iter()
        .all(|w| w.is_infinite() && w.is_sign_negative())
    {
        return Err(SmcError::Degenerate(format!(
            "window [{}, {}]: all {} candidates have log weight -inf; no simulated \
             trajectory is compatible with the observed data",
            window.start,
            window.end,
            log_w.len()
        )));
    }
    let log_marginal = log_mean_exp(&log_w);
    let weights = ensemble.normalized_weights_par(runner);
    let window_ess = ess(&weights);

    let idx = config
        .resample
        .resampler()
        .resample(&weights, config.resample_size, rng);
    let mut unique = idx.clone();
    unique.sort_unstable();
    unique.dedup();
    let unique_ancestors = unique.len();

    let mut posterior = ParticleEnsemble::from_vec(
        runner.run_indexed(idx.len(), |j| ensemble.particles()[idx[j]].clone()),
    );
    posterior.set_uniform_weights();
    let telemetry = measure_telemetry(&posterior, runner, acct, ws_stats);

    Ok(WindowResult {
        window,
        posterior,
        prior_ensemble: if config.keep_prior_ensemble {
            Some(ensemble)
        } else {
            None
        },
        ess: window_ess,
        log_marginal,
        unique_ancestors,
        iterations: acct.iterations,
        wall_time: started.elapsed(),
        telemetry,
        rejuvenation: None,
    })
}

/// One proposed parameter tuple, optionally anchored to an ancestor
/// particle whose checkpoint it continues from.
#[derive(Clone, Debug)]
pub(crate) struct Proposal {
    /// Index into the ancestor ensemble (ignored for fresh runs).
    pub ancestor: usize,
    /// Proposed simulator parameters, shared across the proposal's
    /// `n_replicates` particles (one allocation per proposal, `Arc`
    /// bumps per particle).
    pub theta: Arc<[f64]>,
    /// Proposed reporting probability.
    pub rho: f64,
}

/// Algorithm 1: importance sampling of a single calibration window from
/// fresh day-0 simulations.
pub struct SingleWindowIs<'a, S: TrajectorySimulator> {
    simulator: &'a S,
    config: CalibrationConfig,
    runner: ParallelRunner,
}

impl<'a, S: TrajectorySimulator> SingleWindowIs<'a, S> {
    /// Create a driver over a simulator with the given configuration.
    ///
    /// # Panics
    /// Panics if the configuration is invalid; use [`Self::try_new`] to
    /// handle that case without panicking.
    pub fn new(simulator: &'a S, config: CalibrationConfig) -> Self {
        // epilint: allow(panic-unwrap) — documented panicking convenience wrapper over try_new
        Self::try_new(simulator, config).expect("invalid CalibrationConfig")
    }

    /// Fallible constructor: validates the configuration and pre-builds
    /// the runner (and its dedicated pool, if any) once for the driver's
    /// lifetime — repeated [`Self::run`] calls reuse it, and only the
    /// first charges the build to its window's telemetry.
    ///
    /// # Errors
    /// Returns [`SmcError::Config`] if the configuration is invalid.
    pub fn try_new(simulator: &'a S, config: CalibrationConfig) -> Result<Self, SmcError> {
        config.validate().map_err(SmcError::Config)?;
        let runner =
            ParallelRunner::from_option(config.threads).with_chunk_cells(config.chunk_cells);
        Ok(Self {
            simulator,
            config,
            runner,
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &CalibrationConfig {
        &self.config
    }

    /// Run Algorithm 1 on one window.
    ///
    /// # Errors
    /// Propagates simulator failures and window-coverage mismatches.
    pub fn run(
        &self,
        priors: &Priors,
        observed: &ObservedData,
        window: TimeWindow,
    ) -> Result<WindowResult, SmcError> {
        if priors.theta.len() != self.simulator.theta_dim() {
            return Err(SmcError::Config(format!(
                "prior dimension {} != simulator theta dimension {}",
                priors.theta.len(),
                self.simulator.theta_dim()
            )));
        }
        // epilint: allow(wall-clock) — reported as `WindowResult::wall_time` only; never feeds simulation state
        let started = std::time::Instant::now();
        let cfg = &self.config;
        let mut rng = Xoshiro256PlusPlus::new(cfg.seed);

        // Draw parameter tuples from the prior. Each theta is shared
        // across the tuple's replicates — particles take Arc bumps.
        let proposals: Vec<Proposal> = (0..cfg.n_params)
            .map(|_| Proposal {
                ancestor: 0,
                theta: priors.theta.iter().map(|p| p.sample(&mut rng)).collect(),
                rho: priors.rho.sample(&mut rng),
            })
            .collect();

        let runner = &self.runner;
        let ws_stats = Arc::new(WorkspaceStats::default());
        // Un-windowed keys: the seed absorbs only the stream tag.
        let candidates = simulate_grid(
            self.simulator,
            runner,
            cfg.n_replicates,
            StreamKey::new(cfg.seed).absorb(TAG_SIM_SEED),
            StreamKey::new(cfg.seed).absorb(TAG_BIAS),
            &proposals,
            None,
            observed,
            window,
            &ws_stats,
        )?;
        // The driver's pre-built pool is charged to the first window that
        // uses it — later runs on the same driver report 0.
        let acct = WindowAccounting {
            iterations: 1,
            pool_builds: runner.take_build_charge(),
            grid_chunks: runner.chunk_count(cfg.n_params * cfg.n_replicates) as u64,
        };
        finalize_window(
            window, candidates, cfg, &mut rng, runner, started, acct, &ws_stats,
        )
    }
}

/// The full sequential scheme: window 1 from the prior, every later
/// window from the jittered, checkpoint-continued posterior of its
/// predecessor.
pub struct SequentialCalibrator<'a, S: TrajectorySimulator> {
    simulator: &'a S,
    config: CalibrationConfig,
    jitter_theta: Vec<JitterKernel>,
    jitter_rho: JitterKernel,
    adaptive: Option<crate::adaptive::AdaptiveConfig>,
}

/// Result of a sequential calibration: one [`WindowResult`] per window.
#[derive(Debug)]
pub struct CalibrationResult {
    /// Per-window outcomes, in plan order. For a resumed run this covers
    /// the restored window and everything after it (earlier windows live
    /// only in the original run / the store).
    pub windows: Vec<WindowResult>,
    /// How the run rejoined a durable store, when it was resumed via
    /// [`SequentialCalibrator::resume_from`] (`None` for fresh runs).
    pub resume: Option<ResumeReport>,
}

impl CalibrationResult {
    /// The posterior of the last window.
    ///
    /// # Panics
    /// Panics if there are no windows (cannot happen for results produced
    /// by [`SequentialCalibrator::run`]).
    pub fn final_posterior(&self) -> &ParticleEnsemble {
        // epilint: allow(panic-unwrap) — documented invariant: run() always emits >= 1 window
        &self.windows.last().expect("at least one window").posterior
    }

    /// Per-window `(mean theta[0], sd theta[0], mean rho, sd rho)` —
    /// the time-varying parameter trace of Figs 4b/5b.
    pub fn parameter_trace(&self) -> Vec<(TimeWindow, f64, f64, f64, f64)> {
        self.windows
            .iter()
            .map(|w| {
                (
                    w.window,
                    w.posterior.mean_theta(0),
                    w.posterior.sd_theta(0),
                    w.posterior.mean_rho(),
                    w.posterior.sd_rho(),
                )
            })
            .collect()
    }

    /// Accumulated log evidence: the sum of per-window log marginal
    /// likelihood estimates. Under the sequential decomposition of
    /// Section IV-C this estimates `log p(y_{1:T})` for the model +
    /// prior + bias configuration, so differences between runs on the
    /// *same data* are log Bayes factors — usable for model comparison
    /// (e.g. "does a reporting-bias model explain the data better than
    /// assuming full reporting?").
    pub fn total_log_marginal(&self) -> f64 {
        self.windows.iter().map(|w| w.log_marginal).sum()
    }
}

impl<'a, S: TrajectorySimulator> SequentialCalibrator<'a, S> {
    /// Create a sequential driver.
    ///
    /// `jitter_theta` must have one kernel per theta coordinate; the
    /// paper uses a symmetric kernel for theta and an asymmetric one
    /// (skewed high) for rho.
    ///
    /// # Panics
    /// Panics if the configuration is invalid; use [`Self::try_new`] to
    /// handle that case without panicking.
    pub fn new(
        simulator: &'a S,
        config: CalibrationConfig,
        jitter_theta: Vec<JitterKernel>,
        jitter_rho: JitterKernel,
    ) -> Self {
        let built = Self::try_new(simulator, config, jitter_theta, jitter_rho);
        // epilint: allow(panic-unwrap) — documented panicking convenience wrapper over try_new
        built.expect("invalid CalibrationConfig")
    }

    /// Fallible constructor: validates the configuration.
    ///
    /// # Errors
    /// Returns [`SmcError::Config`] if the configuration is invalid.
    pub fn try_new(
        simulator: &'a S,
        config: CalibrationConfig,
        jitter_theta: Vec<JitterKernel>,
        jitter_rho: JitterKernel,
    ) -> Result<Self, SmcError> {
        config.validate().map_err(SmcError::Config)?;
        Ok(Self {
            simulator,
            config,
            jitter_theta,
            jitter_rho,
            adaptive: None,
        })
    }

    /// Enable adaptive ESS-triggered refinement: when a window's
    /// importance weights degenerate (e.g. the truth jumped beyond the
    /// jitter kernel's reach), re-propose around the current weighted
    /// candidates with shrinking kernels and re-simulate, up to the
    /// configured iteration budget. See [`crate::adaptive`].
    ///
    /// # Panics
    /// Panics if the adaptive configuration is invalid; use
    /// [`Self::try_with_adaptive`] to handle that case without panicking.
    pub fn with_adaptive(self, adaptive: crate::adaptive::AdaptiveConfig) -> Self {
        let built = self.try_with_adaptive(adaptive);
        // epilint: allow(panic-unwrap) — documented panicking convenience wrapper over the fallible path
        built.expect("invalid AdaptiveConfig")
    }

    /// Fallible variant of [`Self::with_adaptive`].
    ///
    /// # Errors
    /// Returns [`SmcError::Config`] if the adaptive configuration is
    /// invalid.
    pub fn try_with_adaptive(
        mut self,
        adaptive: crate::adaptive::AdaptiveConfig,
    ) -> Result<Self, SmcError> {
        adaptive.validate().map_err(SmcError::Config)?;
        self.adaptive = Some(adaptive);
        Ok(self)
    }

    /// Run the full windowed calibration: the window loop over the
    /// plan, with no store.
    ///
    /// # Errors
    /// Propagates simulator failures, dimension mismatches, coverage
    /// errors, and [`SmcError::Degenerate`] for a window no candidate
    /// trajectory is compatible with.
    pub fn run(
        &self,
        priors: &Priors,
        observed: &ObservedData,
        plan: &WindowPlan,
    ) -> Result<CalibrationResult, SmcError> {
        let state = WindowLoop::new(self, priors)?;
        self.drive(state, priors, observed, plan, None)
    }

    /// [`Self::run`] with durability: a fresh stream over the plan's
    /// windows (the store is not read first). After each window the
    /// policy's cadence selects, and after the final window, the
    /// complete calibration state is snapshotted into `store` (see
    /// [`crate::persist`]). Persistence never changes results — the
    /// returned [`CalibrationResult`] is bit-identical to a plain
    /// [`Self::run`] on every deterministic field — and both
    /// [`crate::config::PersistMode`]s write records in window order and
    /// leave the same durable prefix behind on failure.
    ///
    /// # Errors
    /// Everything [`Self::run`] returns, plus [`SmcError::Persist`] when
    /// a snapshot write fails — immediately under `Sync`, at the next
    /// handoff or the final writer join under `Pipelined`; completed
    /// snapshots stay behind for [`Self::resume_from`].
    pub fn run_persisted(
        &self,
        priors: &Priors,
        observed: &ObservedData,
        plan: &WindowPlan,
        store: &dyn RunStore,
        policy: &CheckpointPolicy,
    ) -> Result<CalibrationResult, SmcError> {
        policy.validate().map_err(SmcError::Config)?;
        let state = WindowLoop::new(self, priors)?;
        self.drive(state, priors, observed, plan, Some((store, policy)))
    }

    /// Resume a killed [`Self::run_persisted`] campaign from its store:
    /// reopen it exactly like [`crate::stream::StreamingCalibrator::open`]
    /// does (newest decodable snapshot, corrupt or unsupported records
    /// skipped and counted in [`ResumeReport::recoveries`], seed /
    /// fingerprint / observed-data validation), check the restored
    /// window belongs to `plan`, and continue the remaining windows —
    /// persisting along the way under the same policy.
    ///
    /// Every window's RNG stream derives independently from the master
    /// seed, so the restored posterior ensemble is the only cross-window
    /// state; windows computed after the resume are **bit-identical** to
    /// the uninterrupted run's, at any thread count.
    ///
    /// # Errors
    /// [`SmcError::Persist`] when no usable snapshot exists or the
    /// snapshot belongs to a differently configured run (seed /
    /// fingerprint / observed data / plan mismatch), plus everything
    /// [`Self::run`] returns.
    pub fn resume_from(
        &self,
        priors: &Priors,
        observed: &ObservedData,
        plan: &WindowPlan,
        store: &dyn RunStore,
        policy: &CheckpointPolicy,
    ) -> Result<CalibrationResult, SmcError> {
        policy.validate().map_err(SmcError::Config)?;
        let state = WindowLoop::recover(self, priors, observed, store)?;
        let Some(restored) = state.history.last() else {
            return Err(SmcError::Persist(
                "no usable snapshot in the run store; nothing to resume".into(),
            ));
        };
        let widx = state.next - 1;
        if plan.windows().get(widx) != Some(&restored.window) {
            return Err(SmcError::Persist(format!(
                "snapshot window {widx} (days [{}, {}]) is not window {widx} of this plan",
                restored.window.start, restored.window.end
            )));
        }
        self.drive(state, priors, observed, plan, Some((store, policy)))
    }

    /// The batch stream behind every entry point: advance `state` over
    /// the rest of the plan, then park the final window. One persister
    /// serves the whole plan, so a pipelined writer hides persistence
    /// behind every window's grid.
    fn drive(
        &self,
        mut state: WindowLoop,
        priors: &Priors,
        observed: &ObservedData,
        plan: &WindowPlan,
        durable: Option<(&dyn RunStore, &CheckpointPolicy)>,
    ) -> Result<CalibrationResult, SmcError> {
        std::thread::scope(|scope| {
            let mut persister = durable.map(|(store, policy)| Persister::new(scope, store, policy));
            for &window in plan.windows().get(state.next..).unwrap_or(&[]) {
                state.advance(self, priors, observed, window, persister.as_mut())?;
            }
            if let Some(mut persister) = persister {
                state.park(self, observed, &mut persister)?;
                persister.finish()?;
            }
            Ok(state.into_result())
        })
    }

    /// The configuration fingerprint stamped into every snapshot this
    /// calibrator writes (see [`persist::run_fingerprint`]).
    pub fn fingerprint(&self) -> u64 {
        persist::run_fingerprint(&self.config, &self.jitter_theta, &self.jitter_rho)
    }

    /// The calibration configuration this calibrator runs under.
    pub fn config(&self) -> &CalibrationConfig {
        &self.config
    }

    /// Check the jitter kernels and priors against the simulator's
    /// parameter dimension.
    pub(crate) fn validate_dims(&self, priors: &Priors) -> Result<(), SmcError> {
        if self.jitter_theta.len() != self.simulator.theta_dim() {
            return Err(SmcError::Config(format!(
                "jitter dimension {} != simulator theta dimension {}",
                self.jitter_theta.len(),
                self.simulator.theta_dim()
            )));
        }
        if priors.theta.len() != self.simulator.theta_dim() {
            return Err(SmcError::Config(format!(
                "prior dimension {} != simulator theta dimension {}",
                priors.theta.len(),
                self.simulator.theta_dim()
            )));
        }
        Ok(())
    }

    /// Compute one window of the SIS pass: propose (from the priors for
    /// the first window, by jittering `prev` otherwise), simulate and
    /// weight with adaptive refinement, resample, and — when the
    /// configuration selects it — run the PMMH rejuvenation pass on the
    /// posterior.
    ///
    /// This is the entire per-window computation, shared bit-for-bit by
    /// the batch loop ([`Self::run`] and friends) and the streaming
    /// calibrator ([`crate::stream::StreamingCalibrator`]): its output
    /// depends only on the master seed, the window index `widx`, the
    /// observed slice of `window`, and `prev` — never on how many
    /// windows the surrounding run intends to compute or on which
    /// process computed the previous ones. That purity is what makes
    /// streaming-equals-batch an identity rather than an approximation.
    pub(crate) fn compute_window(
        &self,
        runner: &ParallelRunner,
        priors: &Priors,
        observed: &ObservedData,
        window: TimeWindow,
        widx: usize,
        prev: Option<&ParticleEnsemble>,
    ) -> Result<WindowResult, SmcError> {
        let mut rng = Xoshiro256PlusPlus::from_stream(self.config.seed, &[TAG_WINDOW, widx as u64]);
        let proposals: Vec<Proposal> = (0..self.config.n_params)
            .map(|_| match prev {
                // Window 1: Algorithm 1 from the prior (with optional
                // adaptive refinement over fresh runs).
                None => Proposal {
                    ancestor: 0,
                    theta: priors.theta.iter().map(|p| p.sample(&mut rng)).collect(),
                    rho: priors.rho.sample(&mut rng),
                },
                Some(ancestors) => {
                    let a = rng.next_bounded(ancestors.len() as u64) as usize;
                    let anc = &ancestors.particles()[a];
                    Proposal {
                        ancestor: a,
                        theta: anc
                            .theta
                            .iter()
                            .zip(&self.jitter_theta)
                            .map(|(&t, k)| k.sample(t, &mut rng))
                            .collect(),
                        rho: self.jitter_rho.sample(anc.rho, &mut rng),
                    }
                }
            })
            .collect();
        let mut result =
            self.adaptive_window(runner, observed, window, widx, prev, proposals, rng)?;
        if let crate::config::RejuvenationKernel::Pmmh(pmmh) = &self.config.rejuvenation {
            let stats = crate::rejuvenate::pmmh_moves(
                self.simulator,
                &mut result.posterior,
                observed,
                window,
                pmmh,
                &self.jitter_theta,
                &self.jitter_rho,
                self.config.seed,
                widx,
                runner,
            )?;
            result.rejuvenation = Some(stats);
        }
        Ok(result)
    }

    /// Simulate/weight one window, re-proposing with shrinking kernels
    /// while the adaptive criterion demands it, then finalize. The runner
    /// (and its pool) is pre-built by [`Self::run`], so every batch —
    /// across windows *and* adaptive iterations — reuses it; windows
    /// therefore report `pool_builds == 0`.
    #[allow(clippy::too_many_arguments)]
    fn adaptive_window(
        &self,
        runner: &ParallelRunner,
        observed: &ObservedData,
        window: TimeWindow,
        window_index: usize,
        ancestors: Option<&ParticleEnsemble>,
        mut proposals: Vec<Proposal>,
        mut rng: Xoshiro256PlusPlus,
    ) -> Result<WindowResult, SmcError> {
        // epilint: allow(wall-clock) — reported as `WindowResult::wall_time` only; never feeds simulation state
        let started = std::time::Instant::now();
        let cfg = &self.config;
        // One stats sink for all iterations of this window: adaptive
        // re-proposals accumulate into the same telemetry.
        let ws_stats = Arc::new(WorkspaceStats::default());
        let mut iteration = 0usize;
        let mut grid_chunks = 0u64;
        loop {
            grid_chunks += runner.chunk_count(proposals.len() * cfg.n_replicates) as u64;
            // Counter-mode keys with the `(window, iteration)` prefix
            // absorbed once.
            let key = |tag: u64| {
                StreamKey::new(cfg.seed)
                    .absorb(tag)
                    .absorb(window_index as u64)
                    .absorb(iteration as u64)
            };
            let candidates = simulate_grid(
                self.simulator,
                runner,
                cfg.n_replicates,
                key(TAG_SIM_SEED),
                key(TAG_BIAS),
                &proposals,
                ancestors,
                observed,
                window,
                &ws_stats,
            )?;
            iteration += 1;
            // The calibration-level pool build is never re-charged to a
            // window: `run` pre-builds the runner, so windows report 0.
            let acct = WindowAccounting {
                iterations: iteration,
                pool_builds: 0,
                grid_chunks,
            };

            let adaptive = match &self.adaptive {
                None => {
                    return finalize_window(
                        window, candidates, cfg, &mut rng, runner, started, acct, &ws_stats,
                    )
                }
                Some(a) => a,
            };
            let log_w: Vec<f64> = candidates.iter().map(|p| p.log_weight).collect();
            let weights = epistats::logweight::normalize_log_weights(&log_w);
            let current_ess = ess(&weights);
            if iteration >= adaptive.max_iterations
                || current_ess >= adaptive.target_ess_fraction * candidates.len() as f64
            {
                return finalize_window(
                    window, candidates, cfg, &mut rng, runner, started, acct, &ws_stats,
                );
            }

            // Re-propose around the weighted candidates with shrunken
            // kernels, inheriting each chosen candidate's ancestor.
            let decay = adaptive.jitter_decay.powi(iteration as i32);
            let shrink = |k: &JitterKernel| JitterKernel {
                down: (k.down * decay).max(1e-6),
                up: (k.up * decay).max(1e-6),
                ..*k
            };
            let theta_kernels: Vec<JitterKernel> = self.jitter_theta.iter().map(shrink).collect();
            let rho_kernel = shrink(&self.jitter_rho);
            let picks = cfg
                .resample
                .resampler()
                .resample(&weights, cfg.n_params, &mut rng);
            proposals = picks
                .into_iter()
                .map(|ci| {
                    let cand = &candidates[ci];
                    let parent = proposals[ci / cfg.n_replicates].ancestor;
                    Proposal {
                        ancestor: parent,
                        theta: cand
                            .theta
                            .iter()
                            .zip(&theta_kernels)
                            .map(|(&t, k)| k.sample(t, &mut rng))
                            .collect(),
                        rho: rho_kernel.sample(cand.rho, &mut rng),
                    }
                })
                .collect();
        }
    }
}

/// Run one `(proposal, replicate)` simulation grid and score every cell
/// against the window: fresh day-0 runs when `ancestors` is `None`,
/// checkpoint continuations otherwise. Both Algorithm 1 and every
/// sequential window run through here.
///
/// Cell `(i, r)` simulates under `sim_key.derive(r)` and thins under
/// `bias_key.derive2(i, r)`: each worker derives its cell's seeds in
/// O(1) from the shared absorbed prefix, and because the simulation
/// counter is the replicate index alone, replicate `r` shares its seed
/// across all proposals — common random numbers by layout (Section
/// V-B).
#[allow(clippy::too_many_arguments)]
fn simulate_grid<S: TrajectorySimulator>(
    simulator: &S,
    runner: &ParallelRunner,
    n_replicates: usize,
    sim_key: StreamKey,
    bias_key: StreamKey,
    proposals: &[Proposal],
    ancestors: Option<&ParticleEnsemble>,
    observed: &ObservedData,
    window: TimeWindow,
    ws_stats: &Arc<WorkspaceStats>,
) -> Result<Vec<Particle>, SmcError> {
    // One observed-side preparation per grid, shared by all workers.
    let prepared = PreparedObserved::build(observed, window)?;
    let results: Vec<Result<Particle, SmcError>> = runner.run_grid_pooled(
        proposals.len(),
        n_replicates,
        || PooledWorkspace::new(Arc::clone(ws_stats)),
        |ws, i, r| {
            let prop = &proposals[i];
            let (sim, scratch) = ws.parts();
            let sim_seed = sim_key.derive(r as u64);
            let (trajectory, checkpoint, origin) = match ancestors {
                None => {
                    let (t, ck) = simulator.run_fresh_in(sim, &prop.theta, sim_seed, window.end)?;
                    (SharedTrajectory::root(t), ckpool::share(ck), None)
                }
                Some(anc_set) => {
                    let anc = &anc_set.particles()[prop.ancestor];
                    let (tail, ck) = simulator.run_from_in(
                        sim,
                        &anc.checkpoint,
                        &prop.theta,
                        sim_seed,
                        window.end,
                    )?;
                    // O(window), not O(history): the ancestor's past —
                    // trajectory *and* origin checkpoint — is shared
                    // structurally, never copied.
                    (
                        anc.trajectory.append(tail),
                        ckpool::share(ck),
                        Some(Arc::clone(&anc.checkpoint)),
                    )
                }
            };
            let bias_seed = bias_key.derive2(i as u64, r as u64);
            // Incremental likelihood: only this window's data.
            let log_weight = score_window_prepared(
                &trajectory,
                prop.rho,
                bias_seed,
                observed,
                &prepared,
                scratch,
            )?;
            Ok(Particle {
                theta: Arc::clone(&prop.theta),
                rho: prop.rho,
                seed: sim_seed,
                log_weight,
                trajectory,
                checkpoint,
                origin,
            })
        },
    );
    results.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observed_series_windowing() {
        let s = ObservedSeries::from_day_one(vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(s.window(1, 3).unwrap(), &[1.0, 2.0, 3.0]);
        assert_eq!(s.window(5, 5).unwrap(), &[5.0]);
        assert!(s.window(0, 2).is_none());
        assert!(s.window(4, 6).is_none());
        assert_eq!(s.end_day(), Some(5));
    }

    #[test]
    fn empty_observed_series_has_no_end_day() {
        // Regression: `start_day + len - 1` underflowed on empty series.
        let empty = ObservedSeries::from_day_one(Vec::new());
        assert_eq!(empty.end_day(), None);
        assert!(empty.window(1, 1).is_none());
        let zero_start = ObservedSeries {
            start_day: 0,
            values: Vec::new(),
        };
        assert_eq!(zero_start.end_day(), None);
    }

    #[test]
    fn observed_data_constructors() {
        let d = ObservedData::cases_only(vec![1.0; 10]);
        assert_eq!(d.sources.len(), 1);
        assert!(d.sources[0].bias.uses_rho());
        let d2 = ObservedData::cases_and_deaths(vec![1.0; 10], vec![0.0; 10]);
        assert_eq!(d2.sources.len(), 2);
        assert!(!d2.sources[1].bias.uses_rho());
        assert_eq!(d2.sources[1].series, "deaths");
    }

    #[test]
    fn score_window_reports_missing_coverage() {
        let traj = SharedTrajectory::empty(vec!["infections".into()], 1);
        let obs = ObservedData::cases_only(vec![1.0; 5]);
        let err = score_window(&traj, 0.5, 1, &obs, TimeWindow::new(1, 3)).unwrap_err();
        assert!(
            err.to_string().contains("trajectory does not cover"),
            "{err}"
        );
    }

    #[test]
    fn score_window_prefers_matching_trajectory() {
        use episim::output::DailySeries;
        let mut good = DailySeries::new(vec!["infections".into()], 1);
        let mut bad = DailySeries::new(vec!["infections".into()], 1);
        for day in 0..5 {
            good.push_day(&[100 + day]);
            bad.push_day(&[500 + day * 10]);
        }
        // Observed ~ 0.8 * good trajectory.
        let observed: Vec<f64> = (0..5).map(|d| 0.8 * (100 + d) as f64).collect();
        let obs = ObservedData::cases_only_with(observed, BiasMode::Mean, 1.0);
        let w = TimeWindow::new(1, 5);
        let good = SharedTrajectory::root(good);
        let bad = SharedTrajectory::root(bad);
        let lg = score_window(&good, 0.8, 7, &obs, w).unwrap();
        let lb = score_window(&bad, 0.8, 7, &obs, w).unwrap();
        assert!(lg > lb, "good {lg} should beat bad {lb}");
    }

    #[test]
    fn score_window_bias_draw_is_reproducible() {
        use episim::output::DailySeries;
        let mut traj = DailySeries::new(vec!["infections".into()], 1);
        for _ in 0..5 {
            traj.push_day(&[250]);
        }
        let traj = SharedTrajectory::root(traj);
        let obs = ObservedData::cases_only(vec![200.0; 5]);
        let w = TimeWindow::new(1, 5);
        let a = score_window(&traj, 0.8, 42, &obs, w).unwrap();
        let b = score_window(&traj, 0.8, 42, &obs, w).unwrap();
        let c = score_window(&traj, 0.8, 43, &obs, w).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c); // different bias seed, different thinning draw
    }

    #[test]
    fn score_window_is_segmentation_invariant() {
        use episim::output::DailySeries;
        // The same history, stored as one segment vs three, must score
        // bit-identically (the equivalence the storage refactor rests on).
        let mut flat = DailySeries::new(vec!["infections".into()], 1);
        for d in 0..9u64 {
            flat.push_day(&[100 + 7 * d]);
        }
        let one = SharedTrajectory::root(flat.clone());
        let mut seg1 = DailySeries::new(vec!["infections".into()], 1);
        let mut seg2 = DailySeries::new(vec!["infections".into()], 4);
        let mut seg3 = DailySeries::new(vec!["infections".into()], 7);
        for d in 0..3u64 {
            seg1.push_day(&[100 + 7 * d]);
            seg2.push_day(&[100 + 7 * (d + 3)]);
            seg3.push_day(&[100 + 7 * (d + 6)]);
        }
        let three = SharedTrajectory::root(seg1).append(seg2).append(seg3);
        assert_eq!(one, three);
        let obs = ObservedData::cases_only(vec![90.0; 9]);
        let w = TimeWindow::new(2, 8);
        let a = score_window(&one, 0.8, 42, &obs, w).unwrap();
        let b = score_window(&three, 0.8, 42, &obs, w).unwrap();
        assert_eq!(a.to_bits(), b.to_bits());
    }
}
