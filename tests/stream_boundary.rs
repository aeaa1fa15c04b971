//! What the window loop refuses. Malformed arrivals (non-finite or
//! negative values, gaps, overlaps) are rejected at the stream boundary
//! with a typed error, append nothing, persist nothing, and leave the
//! handle usable — the next valid append still matches batch bit for
//! bit. The same values already in the data — handed to a batch run,
//! to Algorithm 1, or held by a stream when it opens — are a typed
//! error as soon as a window scores them. A window no candidate
//! trajectory is compatible with (every log weight `-∞`) is a typed
//! error in batch and fail-stops a stream with nothing persisted for it.

use std::sync::Arc;

use epismc::prelude::*;
use epismc::smc::sis::{DataSource, WindowResult};

fn setup() -> (GroundTruth, CovidSimulator) {
    let scenario = Scenario::paper_tiny();
    let truth = generate_ground_truth(&scenario, scenario.truth_seed);
    let simulator = CovidSimulator::new(scenario.base_params).unwrap();
    (truth, simulator)
}

fn calibrator(simulator: &CovidSimulator) -> SequentialCalibrator<'_, CovidSimulator> {
    let cfg = CalibrationConfig::builder()
        .n_params(48)
        .n_replicates(3)
        .resample_size(96)
        .seed(7_311)
        .build();
    SequentialCalibrator::new(
        simulator,
        cfg,
        vec![JitterKernel::symmetric(0.08, 0.05, 0.8)],
        JitterKernel::asymmetric(0.05, 0.08, 0.05, 1.0),
    )
}

/// Observed days `lo..=hi` of the truth's reported cases.
fn days(cases: &[f64], lo: u32, hi: u32) -> ObservedSeries {
    let values = cases[(lo - 1) as usize..hi as usize].to_vec();
    ObservedSeries {
        start_day: lo,
        values,
    }
}

/// Every bit a window result determines about its posterior.
fn bits(r: &WindowResult) -> Vec<u64> {
    let mut out = vec![r.log_marginal.to_bits(), r.ess.to_bits()];
    for p in r.posterior.particles() {
        out.extend(p.theta.iter().map(|t| t.to_bits()));
        out.extend([p.rho.to_bits(), p.seed, p.log_weight.to_bits()]);
    }
    out
}

#[test]
fn malformed_arrivals_are_rejected_without_side_effects() {
    let (truth, simulator) = setup();
    let cases = &truth.observed_cases;
    let plan = WindowPlan::new(vec![TimeWindow::new(20, 33), TimeWindow::new(34, 47)]);
    let observed = ObservedData::cases_only(cases.clone());
    let batch = calibrator(&simulator)
        .run(&Priors::paper(), &observed, &plan)
        .unwrap();
    let stores = [MemStore::new(), MemStore::new()];
    let open = |store, lo: u32| {
        let held = ObservedData::cases_only(cases[..(lo - 1) as usize].to_vec());
        let policy = CheckpointPolicy::every_window();
        StreamingCalibrator::open(calibrator(&simulator), Priors::paper(), held, store, policy)
            .unwrap()
    };

    // k = 0: a fresh stream; k = 1: a stream reopened from the snapshot
    // of window 0, appended on an earlier handle.
    for (k, window) in plan.windows().iter().enumerate() {
        let (lo, hi) = (window.start, window.end);
        let store = &stores[k];
        if k == 1 {
            open(store, 20).append_window(&days(cases, 20, 33)).unwrap();
        }
        let mut stream = open(store, lo);
        assert_eq!(stream.resume().is_some(), k == 1);
        let listed = store.list().unwrap();
        let poisoned = |v: f64| {
            let mut s = days(cases, lo, hi);
            s.values[3] = v;
            s
        };
        let bad_day = Some(lo + 3);
        for (name, series, bad_day) in [
            ("NaN", poisoned(f64::NAN), bad_day),
            ("+inf", poisoned(f64::INFINITY), bad_day),
            ("-inf", poisoned(f64::NEG_INFINITY), bad_day),
            ("negative", poisoned(-50.0), bad_day),
            ("gap", days(cases, lo + 1, hi), None),
            ("overlap", days(cases, lo - 1, hi), None),
        ] {
            let ctx = format!("window {k} {name}");
            let err = stream.append_window(&series).unwrap_err();
            assert!(matches!(err, SmcError::Observation(_)), "{ctx}: {err}");
            if let Some(day) = bad_day {
                let msg = err.to_string();
                assert!(
                    msg.contains("source 0") && msg.contains(&format!("day {day}")),
                    "{ctx}: error must name the source and day: {msg}"
                );
            }
            assert!(!stream.is_failed(), "{ctx}: rejection must not poison");
            assert_eq!(stream.next_window_index(), k, "{ctx}: nothing advanced");
            assert_eq!(store.list().unwrap(), listed, "{ctx}: nothing persisted");
        }
        let got = stream.append_window(&days(cases, lo, hi)).unwrap();
        assert_eq!(
            bits(&got),
            bits(&batch.windows[k]),
            "window {k} matches batch"
        );
    }
}

#[test]
fn a_reopened_stream_refuses_a_window_before_its_restored_one() {
    // Held data that ends before the restored window passes the
    // contiguity check, so the window order is checked on its own.
    let (truth, simulator) = setup();
    let cases = &truth.observed_cases;
    let store = MemStore::new();
    let open = || {
        let held = ObservedData::cases_only(cases[..19].to_vec());
        let policy = CheckpointPolicy::every_window();
        StreamingCalibrator::open(
            calibrator(&simulator),
            Priors::paper(),
            held,
            &store,
            policy,
        )
        .unwrap()
    };
    open().append_window(&days(cases, 20, 33)).unwrap();
    let mut stream = open();
    let err = stream.append_window(&days(cases, 20, 33)).unwrap_err();
    assert!(matches!(err, SmcError::Observation(_)), "{err}");
    assert!(err.to_string().contains("does not follow"), "{err}");
    assert!(!stream.is_failed());
    assert_eq!(store.list().unwrap(), vec![0]);
}

#[test]
fn a_window_with_an_infinite_observation_is_a_typed_error_in_batch() {
    let (truth, simulator) = setup();
    let mut cases = truth.observed_cases.clone();
    cases[24] = f64::INFINITY; // day 25
    let plan = WindowPlan::new(vec![TimeWindow::new(20, 33)]);
    let err = calibrator(&simulator)
        .run(&Priors::paper(), &ObservedData::cases_only(cases), &plan)
        .unwrap_err();
    assert!(matches!(err, SmcError::Observation(_)), "{err}");
}

/// The error a scored day's bad value must produce: typed, naming the
/// source and the absolute day.
fn assert_names_bad_day(err: &SmcError, day: u32, ctx: &str) {
    assert!(matches!(err, SmcError::Observation(_)), "{ctx}: {err}");
    let msg = err.to_string();
    assert!(
        msg.contains("source 0") && msg.contains(&format!("day {day}")),
        "{ctx}: error must name the source and day: {msg}"
    );
}

#[test]
fn bad_values_already_in_the_data_are_rejected_when_scored() {
    let (truth, simulator) = setup();
    let window = TimeWindow::new(20, 33);
    for (name, bad) in [("NaN", f64::NAN), ("-1", -1.0)] {
        let mut cases = truth.observed_cases.clone();
        cases[24] = bad; // day 25
        let observed = || ObservedData::cases_only(cases.clone());

        // A batch run.
        let plan = WindowPlan::new(vec![window]);
        let err = calibrator(&simulator)
            .run(&Priors::paper(), &observed(), &plan)
            .unwrap_err();
        assert_names_bad_day(&err, 25, &format!("{name} batch run"));

        // Algorithm 1.
        let cfg = calibrator(&simulator).config().clone();
        let err = SingleWindowIs::new(&simulator, cfg)
            .run(&Priors::paper(), &observed(), window)
            .unwrap_err();
        assert_names_bad_day(&err, 25, &format!("{name} SingleWindowIs"));

        // A stream opened over held data that already covers the window.
        let store = MemStore::new();
        let mut stream = StreamingCalibrator::open(
            calibrator(&simulator),
            Priors::paper(),
            observed(),
            &store,
            CheckpointPolicy::every_window(),
        )
        .unwrap();
        let err = stream.advance_window(window).unwrap_err();
        assert_names_bad_day(&err, 25, &format!("{name} held stream"));
        assert!(
            store.list().unwrap().is_empty(),
            "{name}: nothing persisted"
        );
    }
}

/// A likelihood no simulated trajectory can satisfy.
struct Incompatible;

impl Likelihood for Incompatible {
    fn log_likelihood(&self, _observed: &[f64], _simulated: &[f64]) -> f64 {
        f64::NEG_INFINITY
    }

    fn name(&self) -> &'static str {
        "incompatible"
    }
}

#[test]
fn a_collapsed_window_is_a_typed_error_in_batch() {
    let (truth, simulator) = setup();
    let observed = ObservedData {
        sources: vec![DataSource {
            series: "infections".into(),
            observed: ObservedSeries::from_day_one(truth.observed_cases.clone()),
            bias: Arc::new(IdentityBias),
            likelihood: Arc::new(Incompatible),
        }],
    };
    let plan = WindowPlan::new(vec![TimeWindow::new(20, 33)]);
    let err = calibrator(&simulator)
        .run(&Priors::paper(), &observed, &plan)
        .unwrap_err();
    assert!(matches!(err, SmcError::Degenerate(_)), "{err}");
}

#[test]
fn a_collapsed_window_fail_stops_the_stream_with_nothing_persisted() {
    let (truth, simulator) = setup();
    let observed = ObservedData {
        sources: vec![DataSource {
            series: "infections".into(),
            observed: ObservedSeries::from_day_one(truth.observed_cases[..19].to_vec()),
            bias: Arc::new(IdentityBias),
            likelihood: Arc::new(Incompatible),
        }],
    };
    let store = MemStore::new();
    let mut stream = StreamingCalibrator::open(
        calibrator(&simulator),
        Priors::paper(),
        observed,
        &store,
        CheckpointPolicy::every_window(),
    )
    .unwrap();
    let window = days(&truth.observed_cases, 20, 33);
    let err = stream.append_window(&window).unwrap_err();
    assert!(matches!(err, SmcError::Degenerate(_)), "{err}");
    assert!(stream.is_failed());
    assert!(store.list().unwrap().is_empty(), "nothing persisted");
    let err = stream.flush().unwrap_err();
    assert!(err.to_string().contains("fail-stopped"), "{err}");
}
