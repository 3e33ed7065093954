//! Every output check passes the program's real output on the default
//! seed and a held-out seed, and fails on a corrupted copy of it.

use incam_auth::service::{ServiceConfig, Verdict};
use incam_vr::blocks::run_functional_pipeline;
use perfbench::fa::{replay_mismatches, FaBench, FrameReplay};
use perfbench::fleet::FleetBench;
use perfbench::trace::Tracer;
use perfbench::verify::VerifyBench;
use perfbench::vr::VrBench;

/// The default seed and a second one: the verify workload's fixed world
/// seed, where the service's known fault shows.
const SEEDS: [u64; 2] = [2017, perfbench::verify::WORLD_SEED];

#[test]
fn fa_checks_catch_a_flipped_verdict_and_a_wrong_window_count() {
    for seed in SEEDS {
        for mut bench in [FaBench::nn_grid(seed), FaBench::cascade(seed)] {
            let (summary, outcomes) = bench.program();
            assert_eq!(bench.check(&summary, &outcomes), 0, "seed {seed}");
            let program: Vec<FrameReplay> = outcomes.iter().map(FrameReplay::of).collect();
            let replay = bench.replay(&mut Tracer::default());
            assert_eq!(replay_mismatches(&replay, &program), 0, "seed {seed}");

            let mut flipped = program.clone();
            flipped[0].authenticated = !flipped[0].authenticated;
            assert_eq!(replay_mismatches(&replay, &flipped), 1);

            let mut miscounted = outcomes.clone();
            let busy = miscounted
                .iter()
                .position(|o| o.windows_scored > 0)
                .expect("some frame reaches the NN");
            miscounted[busy].windows_scored += 1;
            assert!(bench.check(&summary, &miscounted) >= 1);
        }
    }
}

#[test]
fn fa_cascade_check_catches_a_missed_walkthrough() {
    for seed in SEEDS {
        let mut bench = FaBench::cascade(seed);
        let (mut summary, outcomes) = bench.program();
        assert!(
            summary.enrolled_events > 0,
            "seed {seed} has no enrolled walk-through"
        );
        summary.enrolled_events_detected -= 1;
        assert_eq!(bench.check(&summary, &outcomes), outcomes.len() as u64);
    }
}

#[test]
fn vr_check_catches_a_disparity_map_shifted_by_one_pixel() {
    for seed in SEEDS {
        let bench = VrBench::new(seed);
        let capture = bench.capture();
        let program = run_functional_pipeline(capture);
        let mut replay = perfbench::vr::replay(capture, &mut Tracer::default());
        assert!(
            perfbench::vr::check(capture, &program, &replay),
            "seed {seed}"
        );
        for px in replay.disparities[0].pixels_mut() {
            *px += 1.0;
        }
        assert!(!perfbench::vr::check(capture, &program, &replay));
    }
}

#[test]
fn verify_check_catches_a_flipped_verdict_and_an_impostor_accept() {
    let threshold = ServiceConfig::experiment_default().threshold;
    for seed in SEEDS {
        let bench = VerifyBench::new(seed);
        let (mut service, run) = bench.serve();
        let (requests, genuine) = bench.requests();
        let scores = perfbench::verify::straight_line(&mut service, requests, &run);
        // the service's known fault: each impostor accept fails its
        // request (none at 2017, 14 at 40961), and nothing else fails
        let known = perfbench::verify::impostor_accepts(&run, genuine);
        eprintln!("seed {seed}: {known} impostor accepts");
        assert_eq!(
            perfbench::verify::check(&run, genuine, &scores, threshold),
            known,
            "seed {seed}"
        );

        // a genuine accept reported as a reject, counters kept consistent
        // so only the straight-line comparison can see it
        let mut flipped = run.clone();
        let i = flipped
            .served
            .iter()
            .zip(genuine)
            .position(|(s, &g)| g && s.verdict.is_accept())
            .expect("some genuine accept");
        if let Verdict::Accept { score } = flipped.served[i].verdict {
            flipped.served[i].verdict = Verdict::Reject { score };
        }
        flipped.report.accepts -= 1;
        flipped.report.rejects += 1;
        assert_eq!(
            perfbench::verify::check(&flipped, genuine, &scores, threshold),
            known + 1
        );

        // an accept granted to a request whose probe was an impostor's
        let mut impostor = genuine.to_vec();
        impostor[i] = false;
        assert_eq!(
            perfbench::verify::check(&run, &impostor, &scores, threshold),
            known + 1
        );
    }
}

#[test]
fn fleet_check_catches_a_broken_conservation_counter() {
    for seed in SEEDS {
        let bench = FleetBench::new(seed);
        let report = bench.run();
        assert!(
            perfbench::fleet::check(&report, bench.capture_bounds()),
            "seed {seed}"
        );
        let mut broken = report.clone();
        broken.frames_delivered += 1;
        assert!(!perfbench::fleet::check(&broken, bench.capture_bounds()));
    }
}
