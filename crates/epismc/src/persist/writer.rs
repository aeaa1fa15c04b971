//! Background snapshot persistence: a bounded, double-buffered writer
//! thread behind any [`RunStore`].
//!
//! The sequential calibrator's critical path is the window loop; under
//! [`crate::config::PersistMode::Pipelined`] the loop hands each
//! completed window's [`RunSnapshot`] to a `SnapshotWriter` and starts
//! the next window immediately, while encode + CRC + atomic rename run
//! off-thread. The handoff itself is O(1): the posterior is Arc
//! structural sharing all the way down, so cloning it into the snapshot
//! copies pointers, not trajectories.
//!
//! The window loop never picks a mode itself: it talks to a
//! crate-private `Persister`, the one place the
//! [`crate::config::PersistMode`] choice is made, which writes inline
//! under `Sync` and through a `SnapshotWriter` under `Pipelined`. Both
//! report only errors: a write that succeeds returns `()`, and no clock
//! is read on either path.
//!
//! Protocol invariants (relied on by `tests/async_durability.rs` and
//! documented in DESIGN.md §14):
//!
//! * **Bounded queue** — `sync_channel(QUEUE_DEPTH)` with depth 2: at
//!   most two snapshots queued behind the one being written, so the
//!   loop can run at most three windows ahead of durability and the
//!   memory bound is three snapshots. Depth 1 would already pipeline,
//!   but fsync latency is jittery: with a single slot every slow write
//!   stalls the loop and every fast one gives nothing back, while one
//!   extra slot lets a fast write absorb the next slow one. When the
//!   queue is full, `SnapshotWriter::submit` blocks (backpressure).
//! * **Write order** — snapshots are written in submission order, which
//!   is window order, so "newest durable snapshot" is always a prefix
//!   of the completed windows and resume semantics are unchanged.
//! * **Fail-stop** — after the first write error the writer drains and
//!   discards every later snapshot without touching the store. The
//!   error surfaces as a typed [`SmcError`] at the next handoff or at
//!   the final join, and the store holds exactly the windows written
//!   before the fault — the same durable prefix a synchronous loop
//!   killed at that write would leave.
//! * **Retention on the writer** — [`super::apply_retention_after`]
//!   runs on the writer thread after each successful put, keeping
//!   deletes off the critical path too. It prunes relative to the
//!   record just written, so the newest durable record is never a
//!   retention casualty even when the store still holds stale
//!   higher-indexed corpses of an abandoned longer run.

use std::sync::mpsc;
use std::thread;

use crate::config::{CheckpointPolicy, PersistMode};
use crate::error::SmcError;

use super::{apply_retention_after, format, RunSnapshot, RunStore};

/// Bounded handoff queue depth (snapshots queued behind the in-flight
/// write). See the module docs for why 2 and not 1.
const QUEUE_DEPTH: usize = 2;

/// The window loop's handle to the background writer thread.
///
/// Created inside a [`std::thread::scope`] so the writer can borrow the
/// caller's `&dyn RunStore` without reference counting; dropping the
/// handle closes the queue and the scope joins the thread.
pub(crate) struct SnapshotWriter<'scope> {
    tx: Option<mpsc::SyncSender<RunSnapshot>>,
    /// The writer's first (and only) write error, once it has one.
    failure: mpsc::Receiver<SmcError>,
    handle: Option<thread::ScopedJoinHandle<'scope, ()>>,
}

impl<'scope> SnapshotWriter<'scope> {
    /// Spawn the writer thread on `scope`, writing to `store` and
    /// applying `retain` after each successful write.
    pub(crate) fn spawn<'env: 'scope>(
        scope: &'scope thread::Scope<'scope, 'env>,
        store: &'env dyn RunStore,
        retain: Option<usize>,
    ) -> Self {
        let (tx, rx) = mpsc::sync_channel::<RunSnapshot>(QUEUE_DEPTH);
        let (failure_tx, failure) = mpsc::channel::<SmcError>();
        let handle = scope.spawn(move || {
            let mut failed = false;
            for snap in rx {
                if failed {
                    // Fail-stop: drain (so the sender never blocks on a
                    // dead pipeline) but write nothing further.
                    continue;
                }
                if let Err(e) = write_snapshot(store, retain, &snap) {
                    failed = true;
                    if failure_tx.send(e).is_err() {
                        return; // calibrator gone; nothing left to report to
                    }
                }
            }
        });
        Self {
            tx: Some(tx),
            failure,
            handle: Some(handle),
        }
    }

    /// Hand one snapshot to the writer. Blocks only while the bounded
    /// queue is full, and surfaces the first background write error, if
    /// any, as `Err`.
    ///
    /// # Errors
    /// The writer's first write error ([`SmcError::Persist`] and
    /// friends), or [`SmcError::Persist`] if the writer thread is gone.
    pub(crate) fn submit(&mut self, snap: RunSnapshot) -> Result<(), SmcError> {
        self.check()?;
        let Some(tx) = self.tx.as_ref() else {
            return Err(SmcError::Persist("snapshot writer already finished".into()));
        };
        if tx.send(snap).is_err() {
            // The writer exited early; its parting error (if it managed
            // to send one) explains why.
            self.check()?;
            return Err(SmcError::Persist(
                "snapshot writer thread exited before the handoff".into(),
            ));
        }
        Ok(())
    }

    /// Close the queue and wait for every outstanding write.
    ///
    /// # Errors
    /// The writer's first write error, or [`SmcError::Persist`] if the
    /// writer thread panicked.
    pub(crate) fn finish(mut self) -> Result<(), SmcError> {
        drop(self.tx.take());
        if let Some(handle) = self.handle.take() {
            if handle.join().is_err() {
                return Err(SmcError::Persist("snapshot writer thread panicked".into()));
            }
        }
        self.check()
    }

    /// The writer's first write error, if it has reported one.
    fn check(&self) -> Result<(), SmcError> {
        match self.failure.try_recv() {
            Ok(e) => Err(e),
            Err(_) => Ok(()),
        }
    }
}

impl Drop for SnapshotWriter<'_> {
    fn drop(&mut self) {
        // Close the queue so the writer thread exits; the enclosing
        // thread::scope joins it. Without this an early calibrator error
        // would deadlock the scope on a writer still waiting for jobs.
        self.tx.take();
    }
}

/// Encode one snapshot, put it, and apply retention relative to it —
/// the write both persistence modes perform, inline or on the writer.
fn write_snapshot(
    store: &dyn RunStore,
    retain: Option<usize>,
    snap: &RunSnapshot,
) -> Result<(), SmcError> {
    store.put(snap.window_index, &format::encode_record(snap))?;
    if let Some(keep) = retain {
        apply_retention_after(store, keep, snap.window_index)?;
    }
    Ok(())
}

/// A window loop's persistence under a [`CheckpointPolicy`]: the one
/// place the [`PersistMode`] choice is made. [`Self::submit`] and
/// [`Self::finish`] report only errors either way — under `Sync` the
/// write runs inline and blocks for its full span; under `Pipelined` a
/// `SnapshotWriter` takes it and only backpressure (and the final join)
/// block.
pub(crate) struct Persister<'scope> {
    /// The policy's cadence ([`CheckpointPolicy::every_windows`]).
    pub(crate) every_windows: usize,
    sink: Sink<'scope>,
}

enum Sink<'scope> {
    Inline {
        store: &'scope dyn RunStore,
        retain: Option<usize>,
    },
    Background(SnapshotWriter<'scope>),
}

impl<'scope> Persister<'scope> {
    /// A persister writing to `store` under `policy`; a pipelined one
    /// spawns its writer thread on `scope`.
    pub(crate) fn new<'env: 'scope>(
        scope: &'scope thread::Scope<'scope, 'env>,
        store: &'env dyn RunStore,
        policy: &CheckpointPolicy,
    ) -> Self {
        let sink = match policy.mode {
            PersistMode::Sync => Sink::Inline {
                store,
                retain: policy.retain,
            },
            PersistMode::Pipelined => {
                Sink::Background(SnapshotWriter::spawn(scope, store, policy.retain))
            }
        };
        Self {
            every_windows: policy.every_windows,
            sink,
        }
    }

    /// Write (or hand off) one snapshot.
    ///
    /// # Errors
    /// The write error (under `Pipelined`, the writer's first one).
    pub(crate) fn submit(&mut self, snap: RunSnapshot) -> Result<(), SmcError> {
        match &mut self.sink {
            Sink::Inline { store, retain } => write_snapshot(*store, *retain, &snap),
            Sink::Background(writer) => writer.submit(snap),
        }
    }

    /// Wait until every submitted snapshot is durable.
    ///
    /// # Errors
    /// The writer's first write error.
    pub(crate) fn finish(self) -> Result<(), SmcError> {
        match self.sink {
            Sink::Inline { .. } => Ok(()),
            Sink::Background(writer) => writer.finish(),
        }
    }
}
