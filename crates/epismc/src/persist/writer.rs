//! Background snapshot persistence: a bounded, double-buffered writer
//! thread behind any [`RunStore`].
//!
//! The sequential calibrator's critical path is the window loop; under
//! [`crate::config::PersistMode::Pipelined`] the loop hands each
//! completed window's [`RunSnapshot`] to a [`SnapshotWriter`] and starts
//! the next window immediately, while encode + CRC + atomic rename run
//! off-thread. The handoff itself is O(1): the posterior is Arc
//! structural sharing all the way down, so cloning it into the snapshot
//! copies pointers, not trajectories.
//!
//! The window loop never picks a mode itself: it talks to a
//! crate-private `Persister`, the one place the
//! [`crate::config::PersistMode`] choice is made, which writes inline
//! under `Sync` and through a [`SnapshotWriter`] under `Pipelined`.
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
//!   queue is full, [`SnapshotWriter::submit`] blocks; that wait is the
//!   *backpressure* component reported as `persist_nanos`.
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

/// Acknowledgement of one completed background write.
#[derive(Clone, Copy, Debug)]
pub struct WriteReceipt {
    /// Window index the record was keyed by.
    pub window_index: u32,
    /// Nanoseconds the writer spent encoding (serialize + CRC) the
    /// record, off the critical path. Retro-patched into the window's
    /// `encode_nanos` telemetry by the calibrator.
    pub encode_nanos: u64,
}

/// What one handoff (or the final join) observed.
#[derive(Clone, Debug, Default)]
pub struct Handoff {
    /// Nanoseconds the window loop blocked: waiting for queue capacity
    /// on submit, or for the writer to finish on the final join.
    pub blocked_nanos: u64,
    /// Writes that completed in the background since the last handoff.
    pub receipts: Vec<WriteReceipt>,
}

enum Event {
    Done(WriteReceipt),
    Failed(SmcError),
}

/// The window loop's handle to the background writer thread.
///
/// Created inside a [`std::thread::scope`] so the writer can borrow the
/// caller's `&dyn RunStore` without reference counting; dropping the
/// handle closes the queue and the scope joins the thread.
pub struct SnapshotWriter<'scope> {
    tx: Option<mpsc::SyncSender<RunSnapshot>>,
    events: mpsc::Receiver<Event>,
    handle: Option<thread::ScopedJoinHandle<'scope, ()>>,
}

impl<'scope> SnapshotWriter<'scope> {
    /// Spawn the writer thread on `scope`, writing to `store` and
    /// applying `retain` after each successful write.
    pub fn spawn<'env: 'scope>(
        scope: &'scope thread::Scope<'scope, 'env>,
        store: &'env dyn RunStore,
        retain: Option<usize>,
    ) -> Self {
        let (tx, rx) = mpsc::sync_channel::<RunSnapshot>(QUEUE_DEPTH);
        let (event_tx, events) = mpsc::channel::<Event>();
        let handle = scope.spawn(move || {
            let mut failed = false;
            for snap in rx {
                if failed {
                    // Fail-stop: drain (so the sender never blocks on a
                    // dead pipeline) but write nothing further.
                    continue;
                }
                let event = match write_snapshot(store, retain, &snap) {
                    Ok(receipt) => Event::Done(receipt),
                    Err(e) => {
                        failed = true;
                        Event::Failed(e)
                    }
                };
                if event_tx.send(event).is_err() {
                    return; // calibrator gone; nothing left to report to
                }
            }
        });
        Self {
            tx: Some(tx),
            events,
            handle: Some(handle),
        }
    }

    /// Hand one snapshot to the writer. Blocks only while the bounded
    /// queue is full (that wait is returned as `blocked_nanos`), and
    /// surfaces the first background write error, if any, as `Err`.
    ///
    /// # Errors
    /// The writer's first write error ([`SmcError::Persist`] and
    /// friends), or [`SmcError::Persist`] if the writer thread is gone.
    pub fn submit(&mut self, snap: RunSnapshot) -> Result<Handoff, SmcError> {
        let receipts = self.drain_events()?;
        let Some(tx) = self.tx.as_ref() else {
            return Err(SmcError::Persist("snapshot writer already finished".into()));
        };
        // epilint: allow(wall-clock) — telemetry timing only; never feeds simulation state
        let submit_started = std::time::Instant::now();
        if tx.send(snap).is_err() {
            // The writer exited early; its parting error (if it managed
            // to send one) explains why.
            self.drain_events()?;
            return Err(SmcError::Persist(
                "snapshot writer thread exited before the handoff".into(),
            ));
        }
        Ok(Handoff {
            blocked_nanos: submit_started.elapsed().as_nanos() as u64,
            receipts,
        })
    }

    /// Close the queue, wait for every outstanding write, and report
    /// the remaining receipts plus the join wait.
    ///
    /// # Errors
    /// The writer's first write error, or [`SmcError::Persist`] if the
    /// writer thread panicked.
    pub fn finish(mut self) -> Result<Handoff, SmcError> {
        drop(self.tx.take());
        // epilint: allow(wall-clock) — telemetry timing only; never feeds simulation state
        let join_started = std::time::Instant::now();
        if let Some(handle) = self.handle.take() {
            if handle.join().is_err() {
                return Err(SmcError::Persist("snapshot writer thread panicked".into()));
            }
        }
        let blocked_nanos = join_started.elapsed().as_nanos() as u64;
        let receipts = self.drain_events()?;
        Ok(Handoff {
            blocked_nanos,
            receipts,
        })
    }

    fn drain_events(&mut self) -> Result<Vec<WriteReceipt>, SmcError> {
        let mut receipts = Vec::new();
        for event in self.events.try_iter() {
            match event {
                Event::Done(receipt) => receipts.push(receipt),
                Event::Failed(e) => return Err(e),
            }
        }
        Ok(receipts)
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
) -> Result<WriteReceipt, SmcError> {
    // epilint: allow(wall-clock) — telemetry timing only; never feeds simulation state
    let encode_started = std::time::Instant::now();
    let record = format::encode_record(snap);
    let encode_nanos = encode_started.elapsed().as_nanos() as u64;
    store.put(snap.window_index, &record)?;
    if let Some(keep) = retain {
        apply_retention_after(store, keep, snap.window_index)?;
    }
    Ok(WriteReceipt {
        window_index: snap.window_index,
        encode_nanos,
    })
}

/// A window loop's persistence under a [`CheckpointPolicy`]: the one
/// place the [`PersistMode`] choice is made. [`Self::submit`] and
/// [`Self::finish`] report the same [`Handoff`] either way — under
/// `Sync` the write runs inline and blocks for its full span; under
/// `Pipelined` a [`SnapshotWriter`] takes it and only backpressure (and
/// the final join) block.
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
    pub(crate) fn submit(&mut self, snap: RunSnapshot) -> Result<Handoff, SmcError> {
        match &mut self.sink {
            Sink::Inline { store, retain } => {
                // epilint: allow(wall-clock) — telemetry timing only; never feeds simulation state
                let started = std::time::Instant::now();
                let receipt = write_snapshot(*store, *retain, &snap)?;
                Ok(Handoff {
                    blocked_nanos: started.elapsed().as_nanos() as u64,
                    receipts: vec![receipt],
                })
            }
            Sink::Background(writer) => writer.submit(snap),
        }
    }

    /// Wait until every submitted snapshot is durable.
    ///
    /// # Errors
    /// The writer's first write error.
    pub(crate) fn finish(self) -> Result<Handoff, SmcError> {
        match self.sink {
            Sink::Inline { .. } => Ok(Handoff::default()),
            Sink::Background(writer) => writer.finish(),
        }
    }
}
