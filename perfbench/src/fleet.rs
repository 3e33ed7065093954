//! The mixed-fleet simulator workload (`fleet-mixed`).
//!
//! A timed pass is one `FleetSim::run`: WISPCams and VR rigs interleaved
//! on one shared spectrum, with per-camera online cut re-selection. The
//! run is one call, so the traced pass reports the program's own
//! counters and the host time per captured frame.

use crate::clock::now_s;
use crate::trace::Tracer;
use crate::{Bench, Pass, Verdicts};
use incam_core::fleet::{CameraProfile, FleetReport};
use incam_core::units::Seconds;
use incam_fleet::{FleetConfig, FleetSim};
use incam_vr::backend::DepthBackend;

/// Cameras in the fleet: per-camera state far beyond a 2 MiB L2.
pub const CAMERAS: u64 = 20_000;

/// Simulated horizon, seconds.
pub const HORIZON_S: f64 = 5.0;

/// The fleet workload, set up.
pub struct FleetBench {
    sim: FleetSim,
    capture_bounds: (u64, u64),
    verdicts: Verdicts,
}

impl FleetBench {
    /// Builds the simulator (profiles, trace pool, per-cut tables) from
    /// `seed`.
    pub fn new(seed: u64) -> Self {
        let mut config = FleetConfig::canonical("mixed fleet", seed, CAMERAS);
        config.horizon = Seconds::new(HORIZON_S);
        let profiles = vec![
            incam_wispcam::fleet_profile(),
            incam_vr::fleet_profile(DepthBackend::Fpga),
        ];
        let capture_bounds = capture_bounds(&config, &profiles);
        Self {
            sim: FleetSim::new(config, profiles),
            capture_bounds,
            verdicts: Verdicts::default(),
        }
    }

    /// The fewest and most frames the fleet can capture in its horizon.
    pub fn capture_bounds(&self) -> (u64, u64) {
        self.capture_bounds
    }

    /// One simulation run.
    pub fn run(&self) -> FleetReport {
        self.sim.run()
    }
}

/// Camera `i` runs profile `i % profiles.len()` and fires once per
/// capture period from an offset inside its first period, so it captures
/// between ⌊horizon/period⌋ and ⌈horizon/period⌉ frames; the fleet's
/// total lies between the sums.
fn capture_bounds(config: &FleetConfig, profiles: &[CameraProfile]) -> (u64, u64) {
    let ticks = |secs: f64| (secs * config.ticks_per_sec as f64).ceil() as u64;
    let horizon = ticks(config.horizon.secs());
    let n = profiles.len() as u64;
    profiles
        .iter()
        .enumerate()
        .fold((0, 0), |(lo, hi), (i, profile)| {
            let cameras = config.cameras / n + u64::from((i as u64) < config.cameras % n);
            let period = ticks(1.0 / profile.capture.fps()).max(1);
            (
                lo + cameras * (horizon / period),
                hi + cameras * horizon.div_ceil(period),
            )
        })
}

/// The run's checks: frames are conserved, the capture count lies within
/// `bounds`, and delivered + dropped ≤ admitted ≤ captured − skipped.
pub fn check(report: &FleetReport, (lo, hi): (u64, u64)) -> bool {
    let dropped = report.frames_dropped_link + report.frames_dropped_ingest;
    report.conserves()
        && (lo..=hi).contains(&report.frames_captured)
        && report.frames_delivered + dropped <= report.frames_admitted
        && report
            .frames_captured
            .checked_sub(report.frames_skipped)
            .is_some_and(|unskipped| report.frames_admitted <= unskipped)
}

impl Bench for FleetBench {
    fn pass(&mut self) -> Pass {
        let start = now_s();
        let report = self.sim.run();
        let seconds = now_s() - start;
        let items = report.frames_captured;
        let bounds = self.capture_bounds;
        let failed = self.verdicts.failed(report.digest(), items, || {
            if check(&report, bounds) {
                0
            } else {
                items
            }
        });
        Pass {
            items,
            failed,
            known: 0,
            seconds,
        }
    }

    fn traced_pass(&mut self, tracer: &mut Tracer) -> Pass {
        let start = now_s();
        let report = tracer.span("fleet.sim", || self.sim.run());
        let seconds = now_s() - start;
        let captured = report.frames_captured;
        tracer.count(
            "fleet.sim.ns_per_capture",
            seconds * 1e9 / captured.max(1) as f64,
        );
        tracer.count(
            "fleet.capture.skip_ratio",
            report.frames_skipped as f64 / captured.max(1) as f64,
        );
        // one spectrum reservation per transmission attempt
        tracer.count(
            "fleet.spectrum.grants",
            (report.frames_admitted + report.link_retries) as f64,
        );
        tracer.count("fleet.ingest.batches", report.ingest_batches as f64);
        tracer.count("core.explore.re_searches", report.re_searches as f64);
        tracer.count("core.explore.cut_changes", report.cut_changes as f64);
        let same = self.verdicts.first_digest() == Some(report.digest());
        Pass {
            items: captured,
            failed: if same { 0 } else { captured },
            known: 0,
            seconds,
        }
    }
}
