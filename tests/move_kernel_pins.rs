//! Bit-level pins of the two Metropolis–Hastings move kernels: the
//! public random-walk [`rejuvenate`] pass and the PMMH pass the
//! calibrator runs after each window's resampling step. Each test
//! hashes the `(θ, ρ, seed)` bit patterns of the moved ensemble with
//! FNV-1a; the digests were recorded from the two separate kernel
//! implementations that preceded the shared move pass, so a match
//! proves the shared pass reproduces both bit for bit.

use epismc::prelude::*;

/// FNV-1a over the `(θ, ρ, seed)` bit patterns of every particle.
fn digest(ensemble: &ParticleEnsemble) -> u64 {
    let words = ensemble.particles().iter().flat_map(|p| {
        let theta = p.theta.iter().map(|t| t.to_bits());
        theta.chain([p.rho.to_bits(), p.seed]).collect::<Vec<_>>()
    });
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in std::iter::once(ensemble.len() as u64)
        .chain(words)
        .flat_map(u64::to_le_bytes)
    {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn random_walk_rejuvenate_matches_its_pinned_digest() {
    // The fixture of the rejuvenate module's unit tests: a SEIR window
    // calibrated by Algorithm 1, then two reflected random-walk moves.
    let sim = SeirSimulator::new(SeirParams {
        population: 15_000,
        initial_exposed: 50,
        ..SeirParams::default()
    })
    .unwrap();
    let (truth, _) = sim.run_fresh(&[0.45], 99, 30).unwrap();
    let observed =
        ObservedData::cases_only_with(truth.series_f64("infections").unwrap(), BiasMode::Mean, 1.0);
    let window = TimeWindow::new(5, 30);
    let cfg = CalibrationConfig::builder()
        .n_params(60)
        .n_replicates(3)
        .resample_size(120)
        .seed(3)
        .build();
    let priors = Priors {
        theta: vec![Box::new(UniformPrior::new(0.1, 0.9))],
        rho: Box::new(BetaPrior::new(100.0, 1.0)),
    };
    let mut posterior = SingleWindowIs::new(&sim, cfg)
        .run(&priors, &observed, window)
        .unwrap()
        .posterior;
    let config = RejuvenationConfig {
        moves: 2,
        step_theta: vec![0.03],
        step_rho: 0.03,
        support_theta: vec![(0.05, 1.0)],
        support_rho: (0.05, 1.0),
    };
    let stats = rejuvenate(&sim, &mut posterior, &observed, window, &config, 42, None).unwrap();
    assert_eq!((stats.accepted, stats.proposed), (38, 240));
    assert_eq!(digest(&posterior), 0xe29f_61cf_4c77_3fd2);
}

#[test]
fn pmmh_window_posterior_matches_its_pinned_digest() {
    // The rejuvenation-kernel suite's setup: two PMMH windows of the
    // paper-tiny scenario, so the pinned posterior has been through a
    // fresh-run move pass and a checkpoint-continued one.
    let scenario = Scenario::paper_tiny();
    let truth = generate_ground_truth(&scenario, scenario.truth_seed);
    let simulator = CovidSimulator::new(scenario.base_params).unwrap();
    let observed = ObservedData::cases_only(truth.observed_cases.clone());
    let cfg = CalibrationConfig::builder()
        .n_params(48)
        .n_replicates(3)
        .resample_size(96)
        .seed(7_311)
        .rejuvenation(RejuvenationKernel::Pmmh(PmmhConfig::default()))
        .build();
    let calibrator = SequentialCalibrator::new(
        &simulator,
        cfg,
        vec![JitterKernel::symmetric(0.08, 0.05, 0.8)],
        JitterKernel::asymmetric(0.05, 0.08, 0.05, 1.0),
    );
    let plan = WindowPlan::new(vec![TimeWindow::new(20, 33), TimeWindow::new(34, 47)]);
    let result = calibrator.run(&Priors::paper(), &observed, &plan).unwrap();
    let last = result.windows.last().unwrap();
    let stats = last.rejuvenation.unwrap();
    assert_eq!((stats.accepted, stats.proposed), (9, 192));
    assert_eq!(digest(&last.posterior), 0x1c1d_e7fe_afa0_a68e);
}
