//! Online inference: streaming window updates over a durable run store.
//!
//! Batch and streaming calibration are one algorithm, so they share one
//! window loop, `WindowLoop`: the window history, the next window
//! index, the newest durable index, the resume report, and the hoisted
//! [`ParallelRunner`]. Each step computes a window, persists it when the
//! [`CheckpointPolicy`] cadence selects it. A batch
//! [`SequentialCalibrator::run_persisted`] is a fresh loop over the
//! plan's windows that then parks the last one;
//! [`SequentialCalibrator::resume_from`] reopens the loop from the store
//! exactly as [`StreamingCalibrator::open`] does.
//!
//! [`StreamingCalibrator`] is the arrival-driven face of that loop:
//! instead of taking the whole observed series and a complete
//! [`crate::window::WindowPlan`] up front, it opens a [`RunStore`],
//! restores the newest durable snapshot (if any), and then accepts
//! observation windows one at a time as the data come in —
//! [`StreamingCalibrator::append_window`] checks and ingests the new
//! days, then advances the loop for exactly that window.
//!
//! ## The equivalence invariant
//!
//! Streaming `N` windows one at a time is **bit-identical** to a batch
//! [`SequentialCalibrator::run_persisted`] over the same `N`-window
//! plan: same posterior ensembles, same log marginals, same decoded
//! store records — for every resampling scheme, every thread shape, and
//! every kill-point between appends. This is an identity, not an
//! approximation, because every window's RNG stream derives
//! independently from the master seed and the window index
//! (`from_stream(seed, [TAG_WINDOW, widx])`), so the posterior ensemble
//! is the *only* state a window inherits — and that ensemble is exactly
//! what the store records carry. `tests/streaming_equivalence.rs` pins
//! the invariant with `total_cmp`-exact comparisons.
//!
//! ## Persistence cadence
//!
//! The loop persists on the [`CheckpointPolicy`] cadence. A batch run
//! then parks the plan's final window; a stream has no final window, so
//! [`StreamingCalibrator::flush`] parks the newest one on request — with
//! the default `every_windows = 1` parking is a no-op and both paths
//! write identical record sets. A batch run keeps one persister (and so
//! one pipelined writer) across all plan windows; a stream opens one per
//! append.
//!
//! ## Fail-stop
//!
//! Like the pipelined writer, the stream is fail-stop: the first error
//! (simulation, degeneracy, or persistence) poisons the handle, every
//! later call returns [`SmcError::Persist`], and the store keeps the
//! durable prefix written before the fault. Reopen with
//! [`StreamingCalibrator::open`] to continue from the newest snapshot.
//! Malformed arrivals (non-finite or negative values, gaps, overlaps,
//! and windows that do not start after the newest one) are rejected
//! before anything is appended, and do not poison the handle. A bad
//! value already in the data handed to [`StreamingCalibrator::open`]
//! is caught where every window is scored, and fail-stops like any
//! other window error.

use std::time::Duration;

use crate::config::CheckpointPolicy;
use crate::error::SmcError;
use crate::particle::ParticleEnsemble;
use crate::persist::writer::Persister;
use crate::persist::{self, ResumeReport, RunSnapshot, RunStore};
use crate::runner::ParallelRunner;
use crate::simulator::TrajectorySimulator;
use crate::sis::{
    check_counts, CalibrationResult, ObservedData, ObservedSeries, Priors, SequentialCalibrator,
    WindowResult,
};
use crate::window::TimeWindow;

/// The window loop shared by batch runs and streams. Priors and observed
/// data are borrowed per step, so a batch run clones neither.
#[derive(Debug)]
pub(crate) struct WindowLoop {
    /// One runner — and at most one dedicated pool — for the life of the
    /// loop, reused by every window and adaptive iteration.
    runner: ParallelRunner,
    fingerprint: u64,
    /// Window results seen so far, ending at plan window `next - 1`. A
    /// reopened loop starts from the restored snapshot's window.
    pub(crate) history: Vec<WindowResult>,
    /// Plan index of the next window [`Self::advance`] computes.
    pub(crate) next: usize,
    /// Newest window handed to the persister (restored snapshots count:
    /// they are on disk by definition); durable once the persister
    /// finishes.
    last_durable: Option<usize>,
    /// How the loop rejoined its store (`None` for a fresh loop).
    pub(crate) resume: Option<ResumeReport>,
}

impl WindowLoop {
    /// A fresh loop starting at window 0.
    ///
    /// # Errors
    /// [`SmcError::Config`] on a parameter-dimension mismatch.
    pub(crate) fn new<S: TrajectorySimulator>(
        calibrator: &SequentialCalibrator<'_, S>,
        priors: &Priors,
    ) -> Result<Self, SmcError> {
        calibrator.validate_dims(priors)?;
        let config = calibrator.config();
        Ok(Self {
            runner: ParallelRunner::from_option(config.threads)
                .with_chunk_cells(config.chunk_cells),
            fingerprint: calibrator.fingerprint(),
            history: Vec::new(),
            next: 0,
            last_durable: None,
            resume: None,
        })
    }

    /// Rejoin `store`: recover the newest decodable snapshot (corrupt or
    /// unsupported records are skipped and counted), validate it against
    /// the calibrator's seed and configuration fingerprint and — for v5
    /// records — the observed data, and continue after it. An empty
    /// store yields a fresh loop.
    ///
    /// # Errors
    /// [`SmcError::Persist`] when the snapshot belongs to a differently
    /// configured run or different observed data.
    pub(crate) fn recover<S: TrajectorySimulator>(
        calibrator: &SequentialCalibrator<'_, S>,
        priors: &Priors,
        observed: &ObservedData,
        store: &dyn RunStore,
    ) -> Result<Self, SmcError> {
        let mut state = Self::new(calibrator, priors)?;
        let (snap, recoveries) = persist::recover_latest(store)?;
        let Some(snap) = snap else {
            return Ok(state);
        };
        let seed = calibrator.config().seed;
        if snap.seed != seed {
            return Err(SmcError::Persist(format!(
                "snapshot was written with seed {}, this run uses seed {seed}",
                snap.seed
            )));
        }
        if snap.fingerprint != state.fingerprint {
            return Err(SmcError::Persist(format!(
                "snapshot fingerprint {:#018x} does not match this calibration's {:#018x}",
                snap.fingerprint, state.fingerprint
            )));
        }
        // v5 records carry a fingerprint of the observed slice they were
        // scored against; refuse to continue against different data. The
        // 0 sentinel (pre-v5 records) skips the check, as does an
        // observed set that does not (yet) cover the snapshot window.
        if snap.observed_fingerprint != 0 {
            if let Some(fp) = persist::observed_fingerprint(observed, snap.window) {
                if fp != snap.observed_fingerprint {
                    return Err(SmcError::Persist(format!(
                        "snapshot for window {} was scored against different observed \
                         data (fingerprint {:#018x}, this run's data gives {fp:#018x})",
                        snap.window_index, snap.observed_fingerprint
                    )));
                }
            }
        }
        // A record holds no clocks and none of the thread-shape-dependent
        // counters, so the restored window reports zero for those.
        let widx = snap.window_index as usize;
        state.history.push(WindowResult {
            window: snap.window,
            posterior: snap.posterior,
            prior_ensemble: None,
            ess: snap.ess,
            log_marginal: snap.log_marginal,
            unique_ancestors: snap.unique_ancestors as usize,
            iterations: snap.iterations as usize,
            wall_time: Duration::ZERO,
            telemetry: snap.telemetry,
            rejuvenation: None,
        });
        state.next = widx + 1;
        state.last_durable = Some(widx);
        state.resume = Some(ResumeReport {
            resumed_window: snap.window_index,
            recoveries,
        });
        Ok(state)
    }

    /// Whether the newest window (if any) has been handed to a persister.
    fn is_parked(&self) -> bool {
        self.next.checked_sub(1) == self.last_durable
    }

    /// Reject a window that does not start after the newest one. A batch
    /// plan guarantees this; a stream reopened over held data that ends
    /// before the restored window would otherwise accept a window that
    /// goes back in time.
    fn check_follows(&self, window: TimeWindow) -> Result<(), SmcError> {
        match self.history.last() {
            Some(last) if window.start <= last.window.end => Err(SmcError::Observation(format!(
                "window [{}, {}] does not follow the newest window [{}, {}]",
                window.start, window.end, last.window.start, last.window.end
            ))),
            _ => Ok(()),
        }
    }

    /// Compute `window` as plan window `next` and persist it through
    /// `persister` when it is on the cadence.
    pub(crate) fn advance<S: TrajectorySimulator>(
        &mut self,
        calibrator: &SequentialCalibrator<'_, S>,
        priors: &Priors,
        observed: &ObservedData,
        window: TimeWindow,
        persister: Option<&mut Persister<'_>>,
    ) -> Result<(), SmcError> {
        let widx = self.next;
        let prev = self.history.last().map(|r| &r.posterior);
        let result =
            calibrator.compute_window(&self.runner, priors, observed, window, widx, prev)?;
        self.history.push(result);
        self.next = widx + 1;
        match persister {
            Some(p) if (widx + 1).is_multiple_of(p.every_windows) => {
                self.park(calibrator, observed, p)
            }
            _ => Ok(()),
        }
    }

    /// Persist the newest window unless it already is.
    pub(crate) fn park<S: TrajectorySimulator>(
        &mut self,
        calibrator: &SequentialCalibrator<'_, S>,
        observed: &ObservedData,
        persister: &mut Persister<'_>,
    ) -> Result<(), SmcError> {
        if self.is_parked() {
            return Ok(());
        }
        let widx = self.next - 1;
        let Some(result) = self.history.last_mut() else {
            return Ok(());
        };
        result.telemetry.records_written = 1;
        let snap = RunSnapshot {
            seed: calibrator.config().seed,
            fingerprint: self.fingerprint,
            window_index: widx as u32,
            window: result.window,
            ess: result.ess,
            log_marginal: result.log_marginal,
            unique_ancestors: result.unique_ancestors as u64,
            iterations: result.iterations as u64,
            observed_fingerprint: persist::observed_fingerprint(observed, result.window)
                .unwrap_or(0),
            telemetry: result.telemetry,
            posterior: result.posterior.clone(),
        };
        persister.submit(snap)?;
        self.last_durable = Some(widx);
        Ok(())
    }

    /// The windows seen, as a calibration result.
    pub(crate) fn into_result(self) -> CalibrationResult {
        CalibrationResult {
            windows: self.history,
            resume: self.resume,
        }
    }
}

/// An open streaming calibration over a durable run store.
///
/// Create with [`Self::open`]; feed with [`Self::append_window`] (single
/// data source) or [`Self::ingest`] + [`Self::advance_window`]
/// (multi-source or custom window geometry); park with [`Self::flush`].
pub struct StreamingCalibrator<'a, S: TrajectorySimulator> {
    calibrator: SequentialCalibrator<'a, S>,
    priors: Priors,
    observed: ObservedData,
    store: &'a dyn RunStore,
    policy: CheckpointPolicy,
    state: WindowLoop,
    failed: bool,
}

impl<S: TrajectorySimulator> std::fmt::Debug for StreamingCalibrator<'_, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamingCalibrator")
            .field("fingerprint", &self.state.fingerprint)
            .field("next_window", &self.state.next)
            .field("last_persisted", &self.state.last_durable)
            .field("failed", &self.failed)
            .finish_non_exhaustive()
    }
}

impl<'a, S: TrajectorySimulator> StreamingCalibrator<'a, S> {
    /// Open a stream over `store`: recover the newest decodable snapshot
    /// (corrupt or unsupported records are skipped and counted, exactly
    /// like [`SequentialCalibrator::resume_from`]) and validate it
    /// against this calibrator's seed, configuration fingerprint, and —
    /// for v5 records — the observed data. An empty store opens a fresh
    /// stream starting at window 0.
    ///
    /// `observed` must already hold any days *before* the first window
    /// this stream will advance (e.g. the warm-up days a batch plan
    /// would skip); appended series extend it contiguously. Held values
    /// are checked when a window scores them, as in a batch run: a
    /// non-finite or negative value on a scored day is
    /// [`SmcError::Observation`] from that advance, which fail-stops the
    /// handle.
    ///
    /// # Errors
    /// [`SmcError::Config`] for an invalid policy or dimension mismatch,
    /// [`SmcError::Persist`] when the newest snapshot belongs to a
    /// differently configured run or different observed data.
    pub fn open(
        calibrator: SequentialCalibrator<'a, S>,
        priors: Priors,
        observed: ObservedData,
        store: &'a dyn RunStore,
        policy: CheckpointPolicy,
    ) -> Result<Self, SmcError> {
        policy.validate().map_err(SmcError::Config)?;
        let state = WindowLoop::recover(&calibrator, &priors, &observed, store)?;
        Ok(Self {
            calibrator,
            priors,
            observed,
            store,
            policy,
            state,
            failed: false,
        })
    }

    /// How this stream rejoined its store: `Some` when [`Self::open`]
    /// restored a snapshot, `None` for a fresh stream.
    pub fn resume(&self) -> Option<&ResumeReport> {
        self.state.resume.as_ref()
    }

    /// Plan index of the next window [`Self::advance_window`] will
    /// compute.
    pub fn next_window_index(&self) -> usize {
        self.state.next
    }

    /// Every window result this handle has seen, oldest first. For a
    /// reopened stream the first entry is the restored snapshot's window
    /// (its index is `next_window_index() - len()` windows before the
    /// next one).
    pub fn windows(&self) -> &[WindowResult] {
        &self.state.history
    }

    /// The newest posterior ensemble, if any window has been computed or
    /// restored.
    pub fn latest_posterior(&self) -> Option<&ParticleEnsemble> {
        self.state.history.last().map(|r| &r.posterior)
    }

    /// Accumulated log evidence over the windows this handle has seen
    /// (restored window included).
    pub fn total_log_marginal(&self) -> f64 {
        self.state.history.iter().map(|r| r.log_marginal).sum()
    }

    /// Whether an earlier error fail-stopped this handle.
    pub fn is_failed(&self) -> bool {
        self.failed
    }

    /// Append newly arrived days to data source `source` (0-based index
    /// into [`ObservedData::sources`]). The series must be contiguous
    /// with what that source already holds: `series.start_day` exactly
    /// one past the source's current end day (or anywhere, for a source
    /// with no data yet). Every value must be a finite, non-negative
    /// count.
    ///
    /// Ingestion alone never computes anything — pair with
    /// [`Self::advance_window`], or use [`Self::append_window`] for the
    /// single-source case. A rejected series appends nothing and leaves
    /// the handle usable.
    ///
    /// # Errors
    /// [`SmcError::Observation`] for an unknown source, an empty series,
    /// a non-finite or negative value (naming the source and the
    /// absolute day), or a gap/overlap with the existing data.
    pub fn ingest(&mut self, source: usize, series: &ObservedSeries) -> Result<(), SmcError> {
        let n_sources = self.observed.sources.len();
        let Some(target) = self.observed.sources.get_mut(source) else {
            return Err(SmcError::Observation(format!(
                "no data source {source} (the stream has {n_sources})"
            )));
        };
        if series.values.is_empty() {
            return Err(SmcError::Observation(
                "cannot ingest an empty observed series".into(),
            ));
        }
        check_counts(source, &target.series, series.start_day, &series.values)?;
        match target.observed.end_day() {
            Some(end) if series.start_day != end + 1 => {
                return Err(SmcError::Observation(format!(
                    "source {source} ends at day {end}; appended series starts at day {} \
                     (must be {})",
                    series.start_day,
                    end + 1
                )));
            }
            Some(_) => {}
            None => target.observed.start_day = series.start_day,
        }
        target.observed.values.extend_from_slice(&series.values);
        Ok(())
    }

    /// Advance the SIS pass over `window` as plan window
    /// [`Self::next_window_index`]: propose from the newest posterior
    /// (or the priors, for window 0), simulate/weight/resample on the
    /// stream's worker pool, run the configured rejuvenation kernel, and
    /// persist on the policy cadence. Bit-identical to the batch loop
    /// computing the same window index over the same data.
    ///
    /// # Errors
    /// [`SmcError::Observation`] for a window that does not start after
    /// the newest one (the handle stays usable); everything else the
    /// batch window loop returns, which fail-stops the handle (see the
    /// module docs).
    pub fn advance_window(&mut self, window: TimeWindow) -> Result<&WindowResult, SmcError> {
        self.guard()?;
        self.state.check_follows(window)?;
        self.step(Some(window))?;
        self.state
            .history
            .last()
            .ok_or_else(|| SmcError::Degenerate("advanced stream has no window".into()))
    }

    /// Single-source convenience: ingest `series` (checked as in
    /// [`Self::ingest`]) and advance one window spanning exactly its
    /// days. Returns the window's result by (cheap, Arc-shared) clone.
    ///
    /// # Errors
    /// [`SmcError::Observation`] unless the stream has exactly one data
    /// source, plus everything [`Self::ingest`] and
    /// [`Self::advance_window`] return.
    pub fn append_window(&mut self, series: &ObservedSeries) -> Result<WindowResult, SmcError> {
        self.guard()?;
        if self.observed.sources.len() != 1 {
            return Err(SmcError::Observation(format!(
                "append_window requires exactly one data source (the stream has {}); \
                 use ingest + advance_window",
                self.observed.sources.len()
            )));
        }
        let Some(end) = series.end_day() else {
            return Err(SmcError::Observation(
                "cannot append an empty observed series".into(),
            ));
        };
        let window = TimeWindow::new(series.start_day, end);
        self.state.check_follows(window)?;
        self.ingest(0, series)?;
        Ok(self.advance_window(window)?.clone())
    }

    /// Force the newest window to disk if it is not already durable —
    /// the streaming analogue of a batch run parking its final window,
    /// for policies with `every_windows > 1`. A no-op when the newest
    /// window is already persisted (or nothing has been computed).
    ///
    /// # Errors
    /// [`SmcError::Persist`] on write failure (fail-stops the handle).
    pub fn flush(&mut self) -> Result<(), SmcError> {
        self.guard()?;
        if self.state.is_parked() {
            return Ok(());
        }
        self.step(None)
    }

    fn guard(&self) -> Result<(), SmcError> {
        if self.failed {
            return Err(SmcError::Persist(
                "streaming calibrator is fail-stopped after an earlier error; \
                 reopen from the store to continue"
                    .into(),
            ));
        }
        Ok(())
    }

    /// Advance one window (`Some`) or park the newest (`None`) through a
    /// persister that lives for this call, fail-stopping on any error.
    fn step(&mut self, window: Option<TimeWindow>) -> Result<(), SmcError> {
        self.guard()?;
        let Self {
            calibrator,
            priors,
            observed,
            store,
            policy,
            state,
            ..
        } = self;
        let outcome = std::thread::scope(|scope| {
            let mut persister = Persister::new(scope, *store, policy);
            match window {
                Some(w) => state.advance(calibrator, priors, observed, w, Some(&mut persister))?,
                None => state.park(calibrator, observed, &mut persister)?,
            }
            persister.finish()
        });
        if outcome.is_err() {
            self.failed = true;
        }
        outcome
    }
}
