//! The three workloads. Each builds its inputs from the workload seed,
//! drives the public API as one closed-loop client, and checks what the
//! program returned and what it left in the store.

use std::path::Path;
use std::time::Instant;

use epidata::{generate_ground_truth, Scenario};
use episim::seir::SeirParams;
use epismc_core::config::{CalibrationConfig, CheckpointPolicy, PmmhConfig, RejuvenationKernel};
use epismc_core::error::SmcError;
use epismc_core::observation::BiasMode;
use epismc_core::persist::{format, DirStore, RunStore};
use epismc_core::prior::{BetaPrior, JitterKernel, UniformPrior};
use epismc_core::simulator::{CovidSimulator, SeirSimulator, TrajectorySimulator};
use epismc_core::sis::{ObservedData, ObservedSeries, Priors, SequentialCalibrator, WindowResult};
use epismc_core::stream::StreamingCalibrator;
use epismc_core::window::{TimeWindow, WindowPlan};

use crate::layers::{LoggedStore, StoreOpKind, TracedSim, WindowCalls};
use crate::trace::{scoped, Span, Tracer};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Campaign15k,
    Window500k,
    StreamDaily,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Campaign15k,
        Workload::Window500k,
        Workload::StreamDaily,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Campaign15k => "campaign_15k",
            Workload::Window500k => "window_500k",
            Workload::StreamDaily => "stream_daily",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Pool workers the calibration runs on.
    pub fn workers(self) -> usize {
        match self {
            Workload::Campaign15k => std::thread::available_parallelism().map_or(1, |n| n.get()),
            Workload::Window500k | Workload::StreamDaily => 1,
        }
    }

    /// The set-up of one pass alone, timed: inputs, simulator, an empty
    /// store and, for a batch workload, the calibrator; all dropped again.
    pub fn setup_sample(self, seed: u64, dir: &Path) -> Result<f64, SmcError> {
        fn calibrator<S: TrajectorySimulator>(
            sim: &S,
            config: &CalibrationConfig,
        ) -> Result<(), SmcError> {
            let (jitter_theta, jitter_rho) = jitter();
            SequentialCalibrator::try_new(sim, config.clone(), jitter_theta, jitter_rho).map(drop)
        }
        let t = Instant::now();
        match self {
            Workload::Campaign15k => {
                let s = campaign_setup(seed)?;
                let _store = fresh_store(dir)?;
                calibrator(&s.sim, &s.config)?;
            }
            Workload::Window500k => {
                let s = window_setup(seed)?;
                let _store = fresh_store(dir)?;
                calibrator(&s.sim, &s.config)?;
            }
            // A stream builds its calibrator per arrival, inside the run.
            Workload::StreamDaily => drop(stream_setup(seed, dir)?),
        }
        Ok(t.elapsed().as_secs_f64())
    }

    /// One pass: set up from `seed`, run the timed section, check. Times
    /// are taken from `epoch`, which a tracer shares.
    pub fn run_pass(
        self,
        seed: u64,
        dir: &Path,
        tracer: Option<&Tracer>,
        epoch: Instant,
    ) -> PassOutcome {
        match self {
            Workload::Campaign15k => batch_pass(|| campaign_setup(seed), dir, tracer, epoch),
            Workload::Window500k => batch_pass(|| window_setup(seed), dir, tracer, epoch),
            Workload::StreamDaily => stream_pass(seed, dir, tracer, epoch),
        }
    }
}

/// SplitMix64 finalizer: derives the ground-truth and calibration seeds
/// from the workload seed.
fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const TAG_TRUTH: u64 = 1;
const TAG_CALIBRATION: u64 = 2;

/// What a pass's layers did, from its trace.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    /// The tracer's run id, shared by every span of the pass.
    pub run_id: u64,
    pub run_s: f64,
    pub windows: Vec<WindowCalls>,
    pub spans: Vec<Span>,
    pub loop_between_s: f64,
    pub moves_proposed: u64,
    pub moves_accepted: u64,
    pub batched_draws: u64,
    pub days_simulated: u64,
    pub unique_ancestor_share: f64,
    pub puts: u64,
    pub put_bytes: u64,
    pub put_ms: Vec<f64>,
    pub gets: u64,
    pub get_ms: Vec<f64>,
    pub lists: u64,
    pub codec: Codec,
}

/// The snapshot codec run over a pass's stored records.
#[derive(Clone, Copy, Debug, Default)]
pub struct Codec {
    pub records: u64,
    pub bytes: u64,
    pub encode_s: f64,
    pub decode_s: f64,
}

/// One closed-loop pass of a workload.
#[derive(Debug, Default)]
pub struct PassOutcome {
    pub setup_s: f64,
    pub run_s: f64,
    pub cell_days: u64,
    /// Per-arrival latencies: a daily arrival open→park, or one window
    /// of a batch plan from the previous durable snapshot to its own.
    pub arrivals_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// Final posterior digest (theta, rho and seed bits).
    pub digest: u64,
    pub layers: Option<Layers>,
}

impl PassOutcome {
    fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }
}

/// The figures a window result contributes to checks and layers.
struct WindowFacts {
    window: TimeWindow,
    ess: f64,
    log_marginal: f64,
    posterior_len: usize,
    unique_ancestors: usize,
    days_simulated: u64,
    batched_draws: u64,
    moves: Option<(u64, u64)>,
}

impl WindowFacts {
    fn of(r: &WindowResult) -> Self {
        Self {
            window: r.window,
            ess: r.ess,
            log_marginal: r.log_marginal,
            posterior_len: r.posterior.len(),
            unique_ancestors: r.unique_ancestors,
            days_simulated: r.telemetry.days_simulated,
            batched_draws: r.telemetry.batched_draws,
            moves: r
                .rejuvenation
                .as_ref()
                .map(|m| (m.proposed as u64, m.accepted as u64)),
        }
    }

    /// Output check: exact cell-days for the days the window advanced,
    /// a finite evidence increment, an ESS in `[1, cells]` and a full
    /// posterior.
    fn check(&self, cells: u64, resample: usize, prev_end: u32) -> Result<(), String> {
        let days = u64::from(self.window.end - prev_end);
        let w = (self.window.start, self.window.end);
        if self.days_simulated != cells * days {
            return Err(format!(
                "window {w:?}: {} cell-days, expected {cells} x {days}",
                self.days_simulated
            ));
        }
        if !self.log_marginal.is_finite() {
            return Err(format!("window {w:?}: log_marginal {}", self.log_marginal));
        }
        if !(1.0..=cells as f64).contains(&self.ess) {
            return Err(format!(
                "window {w:?}: ess {} outside [1, {cells}]",
                self.ess
            ));
        }
        if self.posterior_len != resample {
            return Err(format!(
                "window {w:?}: posterior of {} particles, expected {resample}",
                self.posterior_len
            ));
        }
        Ok(())
    }
}

/// FNV-1a over the final posterior's theta, rho and seed bits.
fn digest(result: &WindowResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for p in result.posterior.particles() {
        for t in p.theta.iter() {
            eat(t.to_bits());
        }
        eat(p.rho.to_bits());
        eat(p.seed);
    }
    h
}

fn jitter() -> (Vec<JitterKernel>, JitterKernel) {
    (
        vec![JitterKernel::symmetric(0.08, 0.05, 0.95)],
        JitterKernel::asymmetric(0.05, 0.08, 0.05, 1.0),
    )
}

fn fresh_store(dir: &Path) -> Result<DirStore, SmcError> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)
            .map_err(|e| SmcError::Persist(format!("clear {}: {e}", dir.display())))?;
    }
    DirStore::open(dir)
}

/// Every record in the store decodes, one per expected window, in order;
/// re-encoding a decoded record reproduces its bytes. Returns what the
/// codec pass cost.
fn check_store(store: &DirStore, expected: &[TimeWindow]) -> Result<Codec, String> {
    let keys = store.list().map_err(|e| e.to_string())?;
    let want: Vec<u32> = (0..expected.len() as u32).collect();
    if keys != want {
        return Err(format!(
            "store holds records {keys:?}, expected 0..{}",
            expected.len()
        ));
    }
    let mut codec = Codec::default();
    for (k, window) in keys.into_iter().zip(expected) {
        let bytes = store
            .get(k)
            .map_err(|e| e.to_string())?
            .ok_or_else(|| format!("record {k} vanished"))?;
        let t = Instant::now();
        let snap = format::decode_record(&bytes).map_err(|e| format!("record {k}: {e}"))?;
        codec.decode_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let again = format::encode_record(&snap);
        codec.encode_s += t.elapsed().as_secs_f64();
        if snap.window_index != k || snap.window != *window {
            return Err(format!(
                "record {k} holds window {} {:?}, expected {window:?}",
                snap.window_index, snap.window
            ));
        }
        if again != bytes {
            return Err(format!("record {k} does not re-encode to its bytes"));
        }
        codec.records += 1;
        codec.bytes += bytes.len() as u64;
    }
    Ok(codec)
}

/// Inputs of a batch workload, built from its seed.
struct BatchSetup<S> {
    sim: S,
    observed: ObservedData,
    priors: Priors,
    plan: WindowPlan,
    config: CalibrationConfig,
}

/// `Scenario::paper_small` (200k population), 750x20 cells, resample
/// 2000, ten weekly windows from day 20, on every core.
fn campaign_setup(seed: u64) -> Result<BatchSetup<CovidSimulator>, SmcError> {
    let scenario = Scenario::paper_small();
    let truth = generate_ground_truth(&scenario, mix(seed, TAG_TRUTH));
    Ok(BatchSetup {
        sim: CovidSimulator::new(scenario.base_params.clone())?,
        observed: ObservedData::cases_only(truth.observed_cases),
        priors: Priors::paper(),
        plan: WindowPlan::regular(20, 7, scenario.horizon),
        config: CalibrationConfig::builder()
            .n_params(750)
            .n_replicates(20)
            .resample_size(2_000)
            .seed(mix(seed, TAG_CALIBRATION))
            .threads(Workload::Campaign15k.workers())
            .build(),
    })
}

/// The paper's 25,000x20 grid on the SEIR model with population 200,
/// two windows, one worker.
fn window_setup(seed: u64) -> Result<BatchSetup<SeirSimulator>, SmcError> {
    let sim = SeirSimulator::new(SeirParams {
        population: 200,
        initial_exposed: 4,
        ..SeirParams::default()
    })?;
    let plan = WindowPlan::new(vec![TimeWindow::new(3, 8), TimeWindow::new(9, 13)]);
    let (truth, _) = sim.run_fresh(&[0.5], mix(seed, TAG_TRUTH), plan.horizon())?;
    let infections = truth
        .series_f64("infections")
        .ok_or_else(|| SmcError::Simulation("SEIR output has no infections series".into()))?;
    Ok(BatchSetup {
        sim,
        observed: ObservedData::cases_only_with(infections, BiasMode::Mean, 1.0),
        priors: Priors {
            theta: vec![Box::new(UniformPrior::new(0.1, 0.9))],
            rho: Box::new(BetaPrior::new(100.0, 1.0)),
        },
        plan,
        config: CalibrationConfig::builder()
            .n_params(25_000)
            .n_replicates(20)
            .resample_size(2_000)
            .seed(mix(seed, TAG_CALIBRATION))
            .threads(1)
            .build(),
    })
}

fn batch_pass<S: TrajectorySimulator>(
    setup: impl FnOnce() -> Result<BatchSetup<S>, SmcError>,
    dir: &Path,
    tracer: Option<&Tracer>,
    epoch: Instant,
) -> PassOutcome {
    let mut pass = PassOutcome::default();
    let built = setup().and_then(|s| Ok((s, fresh_store(dir)?)));
    let (setup, store) = match built {
        Ok(b) => b,
        Err(e) => {
            pass.attempted = 1;
            pass.fail(format!("setup: {e}"));
            return pass;
        }
    };
    let store = LoggedStore::new(store, epoch, tracer);
    let windows = setup.plan.windows().to_vec();
    pass.attempted = windows.len() as u64;
    let cells = setup.config.ensemble_size() as u64;
    let resample = setup.config.resample_size;

    let traced_sim = tracer.map(|t| TracedSim::new(&setup.sim, t, cells));
    let (result, run_start, run_end) = match &traced_sim {
        Some(sim) => timed_batch(sim, &setup, &store, tracer, epoch),
        None => timed_batch(&setup.sim, &setup, &store, None, epoch),
    };
    pass.setup_s = run_start;
    pass.run_s = run_end - run_start;
    let result = match result {
        Ok(r) => r,
        Err(e) => {
            pass.failed = pass.attempted;
            pass.problems.push(format!("run_persisted: {e}"));
            return pass;
        }
    };

    let facts: Vec<WindowFacts> = result.windows.iter().map(WindowFacts::of).collect();
    if facts.len() != windows.len() {
        pass.fail(format!(
            "{} window results for {} windows",
            facts.len(),
            windows.len()
        ));
    }
    let mut prev_end = 0;
    for f in &facts {
        if let Err(p) = f.check(cells, resample, prev_end) {
            pass.fail(p);
        }
        prev_end = f.window.end;
    }
    pass.cell_days = facts.iter().map(|f| f.days_simulated).sum();
    if let Some(last) = result.windows.last() {
        pass.digest = digest(last);
    }

    // Each window after the first is one arrival of new data. It has
    // arrived for the client when its snapshot is durable, and its
    // latency runs from the previous window's durable point to the end
    // of its own put. The first window fits the prior from day 0; its
    // cost is in `run_s`, not in the arrival latencies.
    let mut durable: Vec<(u32, u64)> = store
        .ops()
        .iter()
        .filter(|op| op.kind == StoreOpKind::Put)
        .filter_map(|op| op.window.map(|w| (w, op.end)))
        .collect();
    durable.sort_unstable();
    for pair in durable.windows(2) {
        pass.arrivals_ms
            .push(pair[1].1.saturating_sub(pair[0].1) as f64 / 1e6);
    }

    let codec = check_store(store.inner(), &windows).unwrap_or_else(|p| {
        pass.fail(p);
        Codec::default()
    });
    if let (Some(sim), Some(t)) = (traced_sim, tracer) {
        let calls = sim.finish();
        pass.layers = Some(reduce_layers(
            t, &store, calls, &facts, resample, codec, pass.run_s, "run",
        ));
    }
    pass
}

fn timed_batch<S: TrajectorySimulator, T>(
    sim: &S,
    setup: &BatchSetup<T>,
    store: &LoggedStore<'_>,
    tracer: Option<&Tracer>,
    epoch: Instant,
) -> (
    Result<epismc_core::sis::CalibrationResult, SmcError>,
    f64,
    f64,
) {
    let (jitter_theta, jitter_rho) = jitter();
    let calibrator =
        SequentialCalibrator::try_new(sim, setup.config.clone(), jitter_theta, jitter_rho);
    let policy = CheckpointPolicy::every_window();
    let start = epoch.elapsed().as_secs_f64();
    let result = calibrator.and_then(|c| {
        scoped(tracer, "run", || {
            c.run_persisted(&setup.priors, &setup.observed, &setup.plan, store, &policy)
        })
    });
    (result, start, epoch.elapsed().as_secs_f64())
}

/// Days 20..=150 of `Scenario::slow_burn` arrive one at a time.
const STREAM_FIRST_DAY: u32 = 20;
const STREAM_LAST_DAY: u32 = 150;

struct StreamSetup {
    sim: CovidSimulator,
    /// Reported cases of days `1..=STREAM_LAST_DAY`.
    cases: Vec<f64>,
    config: CalibrationConfig,
}

/// `Scenario::slow_burn` (100k population), 250x4 cells, resample 500,
/// PMMH moves, one worker; and an empty store.
fn stream_setup(seed: u64, dir: &Path) -> Result<(StreamSetup, DirStore), SmcError> {
    let scenario = Scenario::slow_burn();
    let truth = generate_ground_truth(&scenario, mix(seed, TAG_TRUTH));
    let setup = StreamSetup {
        sim: CovidSimulator::new(scenario.base_params.clone())?,
        cases: truth.observed_cases,
        config: CalibrationConfig::builder()
            .n_params(250)
            .n_replicates(4)
            .resample_size(500)
            .seed(mix(seed, TAG_CALIBRATION))
            .threads(1)
            .rejuvenation(RejuvenationKernel::Pmmh(PmmhConfig::default()))
            .build(),
    };
    Ok((setup, fresh_store(dir)?))
}

fn stream_pass(seed: u64, dir: &Path, tracer: Option<&Tracer>, epoch: Instant) -> PassOutcome {
    let mut pass = PassOutcome::default();
    let days = STREAM_FIRST_DAY..=STREAM_LAST_DAY;
    pass.attempted = days.clone().count() as u64;
    let (StreamSetup { sim, cases, config }, store) = match stream_setup(seed, dir) {
        Ok(b) => b,
        Err(e) => {
            pass.fail(format!("setup: {e}"));
            return pass;
        }
    };
    let store = LoggedStore::new(store, epoch, tracer);
    let cells = config.ensemble_size() as u64;
    let resample = config.resample_size;
    let traced_sim = tracer.map(|t| TracedSim::new(&sim, t, cells));

    let run_start = epoch.elapsed().as_secs_f64();
    let arrivals = scoped(tracer, "run", || {
        let mut out = Vec::new();
        for day in days.clone() {
            let held = &cases[..day as usize - 1];
            let new_day = cases[day as usize - 1];
            let t = Instant::now();
            let result = match &traced_sim {
                Some(s) => arrival(s, &config, held, day, new_day, &store, tracer),
                None => arrival(&sim, &config, held, day, new_day, &store, None),
            };
            let ms = t.elapsed().as_secs_f64() * 1e3;
            // Keep what the checks need, not the result: holding every
            // arrival's posterior would inflate the process's memory.
            out.push((day, ms, result.map(|r| (WindowFacts::of(&r), digest(&r)))));
        }
        out
    });
    pass.setup_s = run_start;
    pass.run_s = epoch.elapsed().as_secs_f64() - run_start;

    let mut facts = Vec::new();
    let mut prev_end = 0;
    let mut last_digest = None;
    for (day, ms, result) in arrivals {
        pass.arrivals_ms.push(ms);
        match result {
            Ok((f, d)) => {
                let check = if f.window != TimeWindow::new(day, day) {
                    Err(format!(
                        "arrival of day {day} computed window {:?}",
                        f.window
                    ))
                } else {
                    f.check(cells, resample, prev_end)
                };
                if let Err(p) = check {
                    pass.fail(p);
                }
                prev_end = day;
                pass.cell_days += f.days_simulated;
                last_digest = Some(d);
                facts.push(f);
            }
            Err(e) => pass.fail(format!("arrival of day {day}: {e}")),
        }
    }
    pass.digest = last_digest.unwrap_or(0);

    let expected: Vec<TimeWindow> = days.map(|d| TimeWindow::new(d, d)).collect();
    let codec = check_store(store.inner(), &expected).unwrap_or_else(|p| {
        pass.fail(p);
        Codec::default()
    });
    if let (Some(s), Some(t)) = (traced_sim, tracer) {
        let calls = s.finish();
        pass.layers = Some(reduce_layers(
            t, &store, calls, &facts, resample, codec, pass.run_s, "append",
        ));
    }
    pass
}

/// One daily arrival: open the stream on the store, append the day,
/// park it durably, and drop the handle.
fn arrival<S: TrajectorySimulator>(
    sim: &S,
    config: &CalibrationConfig,
    held: &[f64],
    day: u32,
    new_day: f64,
    store: &LoggedStore<'_>,
    tracer: Option<&Tracer>,
) -> Result<WindowResult, SmcError> {
    scoped(tracer, "arrival", || {
        let mut stream = scoped(tracer, "open", || {
            let (jitter_theta, jitter_rho) = jitter();
            let calibrator =
                SequentialCalibrator::try_new(sim, config.clone(), jitter_theta, jitter_rho)?;
            StreamingCalibrator::open(
                calibrator,
                Priors::paper(),
                ObservedData::cases_only(held.to_vec()),
                store,
                CheckpointPolicy::every_window(),
            )
        })?;
        let series = ObservedSeries {
            start_day: day,
            values: vec![new_day],
        };
        let result = scoped(tracer, "append", || stream.append_window(&series))?;
        scoped(tracer, "park", || {
            let parked = stream.flush();
            drop(stream);
            parked
        })?;
        Ok(result)
    })
}

#[allow(clippy::too_many_arguments)]
fn reduce_layers(
    tracer: &Tracer,
    store: &LoggedStore<'_>,
    windows: Vec<WindowCalls>,
    facts: &[WindowFacts],
    resample: usize,
    codec: Codec,
    run_s: f64,
    loop_span: &str,
) -> Layers {
    let ops = store.ops();
    let ms = |kind| -> Vec<f64> {
        ops.iter()
            .filter(|op| op.kind == kind)
            .map(|op| (op.end - op.start) as f64 / 1e6)
            .collect()
    };
    let count = |kind| ops.iter().filter(|op| op.kind == kind).count() as u64;
    let spans = tracer.spans();
    let loop_between: u64 = spans
        .iter()
        .filter(|s| s.name == loop_span)
        .map(|s| crate::trace::self_time(s, &spans))
        .sum();
    let n = facts.len().max(1) as f64;
    Layers {
        run_id: tracer.run_id(),
        run_s,
        windows,
        loop_between_s: loop_between as f64 / 1e9,
        moves_proposed: facts.iter().filter_map(|f| f.moves).map(|m| m.0).sum(),
        moves_accepted: facts.iter().filter_map(|f| f.moves).map(|m| m.1).sum(),
        batched_draws: facts.iter().map(|f| f.batched_draws).sum(),
        days_simulated: facts.iter().map(|f| f.days_simulated).sum(),
        unique_ancestor_share: facts
            .iter()
            .map(|f| f.unique_ancestors as f64 / resample as f64)
            .sum::<f64>()
            / n,
        puts: count(StoreOpKind::Put),
        put_bytes: ops
            .iter()
            .filter(|op| op.kind == StoreOpKind::Put)
            .map(|op| op.bytes)
            .sum(),
        put_ms: ms(StoreOpKind::Put),
        gets: count(StoreOpKind::Get),
        get_ms: ms(StoreOpKind::Get),
        lists: count(StoreOpKind::List),
        codec,
        spans,
    }
}
