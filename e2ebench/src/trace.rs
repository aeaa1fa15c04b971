//! In-memory spans recorded around calls into the program's layers, and
//! the arithmetic that turns them into per-layer figures.
//!
//! Spans are recorded only by this benchmark's own code; the program
//! under test is not instrumented. A span has a name, a start, an end and
//! the id of the span that caused it; all spans of one traced run share
//! the tracer's run id. They stay in memory until the run ends.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Id of "no span": the parent of a root span.
pub const NO_SPAN: u32 = 0;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn len(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

pub struct Tracer {
    run_id: u64,
    epoch: Instant,
    next_id: AtomicU32,
    /// Innermost span open on the driving thread. Calls made from other
    /// threads (pool workers, the snapshot writer) take it as parent.
    current: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(run_id: u64, epoch: Instant) -> Self {
        Self {
            run_id,
            epoch,
            next_id: AtomicU32::new(NO_SPAN + 1),
            current: AtomicU32::new(NO_SPAN),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn run_id(&self) -> u64 {
        self.run_id
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn current(&self) -> u32 {
        self.current.load(Ordering::SeqCst)
    }

    /// Record a finished span and return its id.
    pub fn record(&self, name: &'static str, parent: u32, start: u64, end: u64) -> u32 {
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        let span = Span {
            id,
            parent,
            name,
            start,
            end,
        };
        self.spans.lock().expect("span list poisoned").push(span);
        id
    }

    /// Run `f` inside a span opened on the driving thread.
    pub fn scope<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        let parent = self.current.swap(id, Ordering::SeqCst);
        let start = self.now();
        let out = f();
        let end = self.now();
        self.current.store(parent, Ordering::SeqCst);
        let span = Span {
            id,
            parent,
            name,
            start,
            end,
        };
        self.spans.lock().expect("span list poisoned").push(span);
        out
    }

    /// The spans recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span list poisoned").clone();
        spans.sort_by_key(|s| (s.start, s.id));
        spans
    }
}

/// `f` inside a span when tracing, plainly otherwise.
pub fn scoped<T>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(t) => t.scope(name, f),
        None => f(),
    }
}

/// Total length covered by a set of possibly overlapping intervals.
pub fn union_len(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.retain(|&(s, e)| e > s);
    intervals.sort_unstable();
    let mut total = 0;
    let mut open: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match open {
            Some((os, oe)) if s <= oe => open = Some((os, oe.max(e))),
            Some((os, oe)) => {
                total += oe - os;
                open = Some((s, e));
            }
            None => open = Some((s, e)),
        }
    }
    total + open.map_or(0, |(s, e)| e - s)
}

/// Self time of `parent`: its length minus the part of it that its
/// direct children cover, on any thread.
pub fn self_time(parent: &Span, spans: &[Span]) -> u64 {
    let covered = spans
        .iter()
        .filter(|c| c.parent == parent.id)
        .map(|c| (c.start.max(parent.start), c.end.min(parent.end)))
        .collect();
    parent.len().saturating_sub(union_len(covered))
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CallKind {
    Grid,
    Move,
}

/// The first `grid_cells` simulator calls of a window are the grid's
/// (every cell is simulated once before weighting); later calls of the
/// same window come from the move pass, which runs after resampling.
pub fn classify(call_index: u64, grid_cells: u64) -> CallKind {
    if call_index < grid_cells {
        CallKind::Grid
    } else {
        CallKind::Move
    }
}

/// Samples a percentile needs beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// A nearest-rank percentile with the sample that supports it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quantile {
    pub value: f64,
    pub n: usize,
    pub beyond: usize,
}

/// Nearest-rank percentile `q` (in `(0, 1)`) of `samples`, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Option<Quantile> {
    let n = samples.len();
    let rank = (q * n as f64).ceil() as usize;
    if rank == 0 || n - rank.min(n) < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Quantile {
        value: sorted[rank - 1],
        n,
        beyond: n - rank,
    })
}

/// Smallest sample count for which [`percentile`] reports `q`.
pub fn samples_needed(q: f64) -> usize {
    (1..)
        .find(|&n| {
            let rank = (q * n as f64).ceil() as usize;
            rank >= 1 && n - rank >= MIN_BEYOND
        })
        .expect("some sample count supports every q < 1")
}

/// The report line for a percentile metric, which always states the
/// sample count. When `q` lacks support, the value is the highest
/// percentile that has it, named as such; when no percentile has support
/// (fewer than 20 samples), it is the median, marked as unsupported.
pub fn describe_percentile(name: &str, unit: &str, q: f64, samples: &[f64]) -> (f64, String) {
    let n = samples.len();
    if let Some(p) = percentile(samples, q) {
        return (
            p.value,
            format!(
                "{name} = {:.4} {unit} (n={n}, {} beyond)",
                p.value, p.beyond
            ),
        );
    }
    let need = samples_needed(q);
    if n >= samples_needed(0.5) {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let rank = n - MIN_BEYOND;
        let value = sorted[rank - 1];
        let level = 100.0 * rank as f64 / n as f64;
        return (
            value,
            format!(
                "{name} = {value:.4} {unit} is p{level:.1}, the highest percentile with \
                 {MIN_BEYOND} samples beyond it (n={n}; p{:.0} needs n>={need})",
                100.0 * q
            ),
        );
    }
    let value = median(samples);
    (
        value,
        format!(
            "{name} = {value:.4} {unit} is the median of too few samples to support any \
             percentile (n={n}; p{:.0} needs n>={need})",
            100.0 * q
        ),
    )
}

pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            start,
            end,
        }
    }

    #[test]
    fn union_merges_overlapping_and_touching_intervals() {
        assert_eq!(union_len(vec![]), 0);
        assert_eq!(union_len(vec![(0, 10)]), 10);
        assert_eq!(union_len(vec![(0, 10), (5, 15)]), 15);
        assert_eq!(union_len(vec![(5, 15), (0, 10), (10, 12)]), 15);
        assert_eq!(union_len(vec![(0, 4), (6, 8)]), 6);
        assert_eq!(union_len(vec![(0, 10), (2, 3), (20, 25)]), 15);
        // Empty and inverted intervals cover nothing.
        assert_eq!(union_len(vec![(7, 7), (9, 3)]), 0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_direct_children_only() {
        let parent = span(1, NO_SPAN, 100, 200);
        let spans = vec![
            parent.clone(),
            // Two overlapping children on different threads: 120..170.
            span(2, 1, 120, 150),
            span(3, 1, 140, 170),
            // A grandchild inside child 2 is already covered.
            span(4, 2, 125, 130),
            // A child that outlives the parent counts only inside it.
            span(5, 1, 190, 260),
            // A span of another parent is ignored.
            span(6, 9, 100, 200),
        ];
        assert_eq!(self_time(&parent, &spans), 100 - 50 - 10);
        let leaf = span(7, 1, 0, 40);
        assert_eq!(self_time(&leaf, &spans), 40);
    }

    #[test]
    fn calls_beyond_the_grid_are_moves() {
        assert_eq!(classify(0, 3), CallKind::Grid);
        assert_eq!(classify(2, 3), CallKind::Grid);
        assert_eq!(classify(3, 3), CallKind::Move);
        assert_eq!(classify(99, 3), CallKind::Move);
        assert_eq!(classify(0, 0), CallKind::Move);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), None);
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(
            percentile(&xs, 0.5),
            Some(Quantile {
                value: 10.0,
                n: 20,
                beyond: 10
            })
        );
        let xs: Vec<f64> = (1..=99).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.9), None);
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(
            percentile(&xs, 0.9).map(|p| (p.value, p.beyond)),
            Some((90.0, 10))
        );
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(samples_needed(0.5), 20);
        assert_eq!(samples_needed(0.9), 100);
    }

    #[test]
    fn every_percentile_line_states_its_sample_count() {
        let xs: Vec<f64> = (1..=131).map(f64::from).collect();
        let (v, line) = describe_percentile("arrival_ms_p90", "ms", 0.9, &xs);
        assert_eq!(v, 118.0);
        assert!(line.contains("n=131, 13 beyond"), "{line}");

        // p90 lacks support at n=60: fall back to the highest percentile
        // that has ten samples beyond it, rank 50.
        let xs: Vec<f64> = (1..=60).rev().map(f64::from).collect();
        let (v, line) = describe_percentile("arrival_ms_p90", "ms", 0.9, &xs);
        assert_eq!(v, 50.0);
        assert!(line.contains("is p83.3, the highest percentile"), "{line}");
        assert!(line.contains("n=60") && line.contains("n>=100"), "{line}");

        // No percentile has support below 20 samples.
        let few = [3.0, 9.0, 4.0];
        let (v, line) = describe_percentile("arrival_ms_p50", "ms", 0.5, &few);
        assert_eq!(v, 4.0);
        assert!(line.contains("median of too few samples"), "{line}");
        assert!(line.contains("n=3") && line.contains("n>=20"), "{line}");
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn scoped_spans_nest_under_the_driving_thread() {
        let tracer = Tracer::new(7, Instant::now());
        tracer.scope("outer", || {
            let outer = tracer.current();
            tracer.scope("inner", || assert_ne!(tracer.current(), outer));
            assert_eq!(tracer.current(), outer);
            tracer.record("worker", tracer.current(), 0, 1);
        });
        assert_eq!(tracer.current(), NO_SPAN);
        let spans = tracer.spans();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(outer.parent, NO_SPAN);
        for name in ["inner", "worker"] {
            let s = spans.iter().find(|s| s.name == name).unwrap();
            assert_eq!(s.parent, outer.id, "{name}");
        }
    }
}
