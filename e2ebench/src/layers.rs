//! Delegating wrappers around the program's layer interfaces. They time
//! every call into the layer and pass it through unchanged, so a traced
//! run computes bit for bit what an untraced one does.

use std::sync::Mutex;
use std::time::Instant;

use episim::checkpoint::SimCheckpoint;
use episim::output::DailySeries;
use episim::workspace::SimWorkspace;
use epismc_core::error::SmcError;
use epismc_core::persist::{DirStore, RunStore};
use epismc_core::simulator::TrajectorySimulator;

use crate::trace::{classify, CallKind, Tracer};

/// Calls of one phase (grid or moves) of one window.
#[derive(Clone, Copy, Debug)]
pub struct PhaseCalls {
    pub calls: u64,
    pub cell_days: u64,
    /// Summed call durations, across workers.
    pub busy: u64,
    pub first_start: u64,
    pub last_end: u64,
    /// Driving-thread span open when the phase's first call returned.
    pub parent: u32,
}

impl Default for PhaseCalls {
    fn default() -> Self {
        Self {
            calls: 0,
            cell_days: 0,
            busy: 0,
            first_start: u64::MAX,
            last_end: 0,
            parent: 0,
        }
    }
}

impl PhaseCalls {
    pub fn span(&self) -> u64 {
        self.last_end.saturating_sub(self.first_start)
    }
}

/// Simulator calls of one window, told apart by their end day: every
/// call of a window simulates up to that window's last day.
#[derive(Clone, Debug, Default)]
pub struct WindowCalls {
    pub end_day: u32,
    pub claimed: u64,
    pub grid: PhaseCalls,
    pub moves: PhaseCalls,
}

/// A [`TrajectorySimulator`] that times every call of the inner one. The
/// calls are folded into per-window aggregates rather than one span
/// each, which keeps a traced 500k-cell window close to an untraced one.
pub struct TracedSim<'t, S> {
    inner: &'t S,
    tracer: &'t Tracer,
    grid_cells: u64,
    windows: Mutex<Vec<WindowCalls>>,
}

impl<'t, S: TrajectorySimulator> TracedSim<'t, S> {
    pub fn new(inner: &'t S, tracer: &'t Tracer, grid_cells: u64) -> Self {
        Self {
            inner,
            tracer,
            grid_cells,
            windows: Mutex::new(Vec::new()),
        }
    }

    fn timed<R>(&self, end_day: u32, cell_days: u64, call: impl FnOnce() -> R) -> R {
        let start = self.tracer.now();
        let (slot, index) = {
            let mut windows = self.windows.lock().expect("window calls poisoned");
            if windows.last().is_none_or(|w| w.end_day != end_day) {
                windows.push(WindowCalls {
                    end_day,
                    ..WindowCalls::default()
                });
            }
            let slot = windows.len() - 1;
            let w = &mut windows[slot];
            w.claimed += 1;
            (slot, w.claimed - 1)
        };
        let out = call();
        let end = self.tracer.now();
        let parent = self.tracer.current();
        let mut windows = self.windows.lock().expect("window calls poisoned");
        let w = &mut windows[slot];
        let phase = match classify(index, self.grid_cells) {
            CallKind::Grid => &mut w.grid,
            CallKind::Move => &mut w.moves,
        };
        if phase.calls == 0 {
            phase.parent = parent;
        }
        phase.calls += 1;
        phase.cell_days += cell_days;
        phase.busy += end - start;
        phase.first_start = phase.first_start.min(start);
        phase.last_end = phase.last_end.max(end);
        out
    }

    /// The per-window aggregates, recording a `grid` and a `moves` span
    /// for each window that had such calls.
    pub fn finish(self) -> Vec<WindowCalls> {
        let windows = self.windows.into_inner().expect("window calls poisoned");
        for w in &windows {
            for (name, phase) in [("grid", &w.grid), ("moves", &w.moves)] {
                if phase.calls > 0 {
                    self.tracer
                        .record(name, phase.parent, phase.first_start, phase.last_end);
                }
            }
        }
        windows
    }
}

impl<S: TrajectorySimulator> TrajectorySimulator for TracedSim<'_, S> {
    fn theta_dim(&self) -> usize {
        self.inner.theta_dim()
    }

    fn output_names(&self) -> Vec<String> {
        self.inner.output_names()
    }

    fn run_fresh(
        &self,
        theta: &[f64],
        seed: u64,
        end_day: u32,
    ) -> Result<(DailySeries, SimCheckpoint), SmcError> {
        self.timed(end_day, u64::from(end_day), || {
            self.inner.run_fresh(theta, seed, end_day)
        })
    }

    fn run_from(
        &self,
        checkpoint: &SimCheckpoint,
        theta: &[f64],
        seed: u64,
        end_day: u32,
    ) -> Result<(DailySeries, SimCheckpoint), SmcError> {
        let days = u64::from(end_day.saturating_sub(checkpoint.day));
        self.timed(end_day, days, || {
            self.inner.run_from(checkpoint, theta, seed, end_day)
        })
    }

    fn run_fresh_in(
        &self,
        ws: &mut SimWorkspace,
        theta: &[f64],
        seed: u64,
        end_day: u32,
    ) -> Result<(DailySeries, SimCheckpoint), SmcError> {
        self.timed(end_day, u64::from(end_day), || {
            self.inner.run_fresh_in(ws, theta, seed, end_day)
        })
    }

    fn run_from_in(
        &self,
        ws: &mut SimWorkspace,
        checkpoint: &SimCheckpoint,
        theta: &[f64],
        seed: u64,
        end_day: u32,
    ) -> Result<(DailySeries, SimCheckpoint), SmcError> {
        let days = u64::from(end_day.saturating_sub(checkpoint.day));
        self.timed(end_day, days, || {
            self.inner.run_from_in(ws, checkpoint, theta, seed, end_day)
        })
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreOpKind {
    Put,
    Get,
    List,
    Delete,
}

#[derive(Clone, Copy, Debug)]
pub struct StoreOp {
    pub kind: StoreOpKind,
    pub window: Option<u32>,
    pub bytes: u64,
    /// Nanoseconds since the run's epoch.
    pub start: u64,
    pub end: u64,
}

/// A [`DirStore`] whose calls are logged with their times. The log is
/// how an untraced batch run sees when each window became durable; a
/// traced run also records each call as a span.
pub struct LoggedStore<'t> {
    inner: DirStore,
    epoch: Instant,
    tracer: Option<&'t Tracer>,
    ops: Mutex<Vec<StoreOp>>,
}

impl<'t> LoggedStore<'t> {
    pub fn new(inner: DirStore, epoch: Instant, tracer: Option<&'t Tracer>) -> Self {
        Self {
            inner,
            epoch,
            tracer,
            ops: Mutex::new(Vec::new()),
        }
    }

    pub fn inner(&self) -> &DirStore {
        &self.inner
    }

    pub fn ops(&self) -> Vec<StoreOp> {
        self.ops.lock().expect("store log poisoned").clone()
    }

    fn logged<R>(
        &self,
        kind: StoreOpKind,
        window: Option<u32>,
        call: impl FnOnce() -> Result<R, SmcError>,
        bytes: impl FnOnce(&R) -> u64,
    ) -> Result<R, SmcError> {
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = call();
        let end = self.epoch.elapsed().as_nanos() as u64;
        if let Ok(r) = &out {
            let op = StoreOp {
                kind,
                window,
                bytes: bytes(r),
                start,
                end,
            };
            self.ops.lock().expect("store log poisoned").push(op);
            if let Some(t) = self.tracer {
                let name = match kind {
                    StoreOpKind::Put => "store.put",
                    StoreOpKind::Get => "store.get",
                    StoreOpKind::List => "store.list",
                    StoreOpKind::Delete => "store.delete",
                };
                t.record(name, t.current(), start, end);
            }
        }
        out
    }
}

impl RunStore for LoggedStore<'_> {
    fn put(&self, window: u32, record: &[u8]) -> Result<(), SmcError> {
        let bytes = record.len() as u64;
        self.logged(
            StoreOpKind::Put,
            Some(window),
            || self.inner.put(window, record),
            |_| bytes,
        )
    }

    fn get(&self, window: u32) -> Result<Option<Vec<u8>>, SmcError> {
        self.logged(
            StoreOpKind::Get,
            Some(window),
            || self.inner.get(window),
            |r| r.as_ref().map_or(0, |b| b.len() as u64),
        )
    }

    fn list(&self) -> Result<Vec<u32>, SmcError> {
        self.logged(StoreOpKind::List, None, || self.inner.list(), |_| 0)
    }

    fn delete(&self, window: u32) -> Result<(), SmcError> {
        self.logged(
            StoreOpKind::Delete,
            Some(window),
            || self.inner.delete(window),
            |_| 0,
        )
    }
}
