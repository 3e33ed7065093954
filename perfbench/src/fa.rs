//! The WISPCam face-authentication workloads (`fa-nn-grid`,
//! `fa-cascade`).
//!
//! A timed pass is one `FaPipeline::run_trace` over the workload's video.
//! The traced pass replays the pipeline from outside: it calls the motion
//! detector, the Viola-Jones scan, the per-window crop/resize/flatten and
//! the SNNAP accelerator itself, with the pipeline's public configuration,
//! and must reproduce every frame's outcome of the timed pass.

use crate::clock::now_s;
use crate::trace::Tracer;
use crate::{Bench, Digest, Pass, Verdicts};
use incam_imaging::faces::Identity;
use incam_imaging::image::GrayImage;
use incam_imaging::motion::MotionDetector;
use incam_imaging::resample::resize_bilinear;
use incam_imaging::scenes::{LabeledFrame, SecurityScene, SecuritySceneConfig};
use incam_nn::mlp::Mlp;
use incam_nn::sigmoid::Sigmoid;
use incam_rng::rngs::StdRng;
use incam_rng::SeedableRng;
use incam_snnap::config::SnnapConfig;
use incam_snnap::sim::SnnapAccelerator;
use incam_viola::scan::{scan, Detection, ScanParams};
use incam_wispcam::pipeline::{
    FaPipeline, FaPipelineConfig, FrameOutcome, RunSummary, TransmitPolicy,
};
use incam_wispcam::workload::{train_authenticator, train_detector, TrainEffort, Workload};
use std::sync::{Mutex, PoisonError};

/// Frames of video in one `fa-nn-grid` pass (~3,170 NN windows each).
pub const NN_GRID_FRAMES: usize = 20;

/// Frames of video in one `fa-cascade` pass: 15 segments of one
/// walk-through (10 frames and an idle one) and 16 idle frames.
pub const CASCADE_FRAMES: usize = 405;

/// Idle frames after each walk-through.
const IDLE_GAP: usize = 16;

/// Frames of one walk-through segment of a back-to-back scene.
const WALK_SEGMENT: usize = 11;

/// Seed of the face detector: it is identity-agnostic and ships with
/// every camera, so it does not vary with the deployment.
pub const DETECTOR_SEED: u64 = 2017;

/// The motion detector's thresholds inside `FaPipeline` (not part of its
/// public configuration; the replay's per-frame check confirms them).
const MOTION_THRESHOLDS: (f32, f32) = (0.08, 0.01);

/// Largest mean absolute difference between the 8-bit accelerator and
/// the float reference network (incam-nn's own 8-bit bound).
pub const MAX_QUANT_MAD: f64 = 0.05;

/// Inferences per detection: the detection plus a four-way jitter cross.
const JITTER_OFFSETS: usize = 5;

/// Every this many grid windows of the first frame, one is compared
/// against the float reference network.
const MAD_SAMPLE_STRIDE: usize = 37;

/// What the replay saw on one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameReplay {
    /// Motion fired (always true without the motion block).
    pub motion: bool,
    /// The detector scanned the frame.
    pub scanned: bool,
    /// NN inferences spent.
    pub windows_scored: usize,
    /// Some window scored at or above the threshold.
    pub authenticated: bool,
}

impl FrameReplay {
    /// The program's own outcome of a frame, in replay terms.
    pub fn of(outcome: &FrameOutcome) -> Self {
        Self {
            motion: outcome.motion,
            scanned: outcome.scanned,
            windows_scored: outcome.windows_scored,
            authenticated: outcome.authenticated,
        }
    }
}

/// One FA workload, set up.
pub struct FaBench {
    workload: Workload,
    pipeline: FaPipeline,
    accelerator: SnnapAccelerator,
    verdicts: Verdicts,
    last: Vec<FrameReplay>,
}

impl FaBench {
    /// NN only: no motion gating, no detector; the NN scores a dense
    /// window grid on every frame.
    pub fn nn_grid(seed: u64) -> Self {
        Self::new(
            seed,
            NN_GRID_FRAMES,
            FaPipelineConfig::full_accelerated().with_blocks(false, false),
        )
    }

    /// The paper's full cascade: motion detection, Viola-Jones face
    /// detection, then the NN on jittered detections.
    pub fn cascade(seed: u64) -> Self {
        Self::new(seed, CASCADE_FRAMES, FaPipelineConfig::full_accelerated())
    }

    fn new(seed: u64, frames: usize, config: FaPipelineConfig) -> Self {
        let workload = deployment(seed, frames);
        let pipeline = workload.pipeline(config);
        // the same accelerator `Workload::pipeline` builds inside the pipeline
        let accelerator =
            SnnapAccelerator::new(&workload.reference_net, SnnapConfig::paper_default());
        Self {
            workload,
            pipeline,
            accelerator,
            verdicts: Verdicts::default(),
            last: Vec::new(),
        }
    }

    /// Replays the pipeline over the workload's frames, each layer call
    /// inside a span of `tracer`.
    pub fn replay(&self, tracer: &mut Tracer) -> Vec<FrameReplay> {
        let cfg = self.pipeline.config();
        let mut motion = MotionDetector::new(MOTION_THRESHOLDS.0, MOTION_THRESHOLDS.1);
        let mut out = Vec::with_capacity(self.workload.frames.len());
        for frame in &self.workload.frames {
            let img = &frame.image;
            let fired = if cfg.motion_detection {
                tracer.span("imaging.motion", || motion.observe(img))
            } else {
                true
            };
            let mut replay = FrameReplay {
                motion: fired,
                scanned: false,
                windows_scored: 0,
                authenticated: false,
            };
            if fired {
                let candidates = if cfg.face_detection {
                    let result = tracer.span("viola.scan", || {
                        scan(
                            &self.workload.detector.cascade,
                            img,
                            &self.workload.scan_params,
                        )
                    });
                    tracer.count("viola.scan.windows", result.stats.windows as f64);
                    tracer.count("viola.scan.features", result.stats.features as f64);
                    replay.scanned = true;
                    result
                        .detections
                        .into_iter()
                        .take(cfg.max_detections_scored)
                        .collect()
                } else {
                    grid_windows(img.dims(), cfg)
                };
                for det in &candidates {
                    let windows = if cfg.face_detection {
                        jittered(det)
                    } else {
                        vec![*det]
                    };
                    // the pipeline keeps the best score, starting from 0
                    let mut best = 0.0f32;
                    for window in &windows {
                        best = best.max(self.score(tracer, img, window, cfg.nn_input_side));
                    }
                    replay.windows_scored += windows.len();
                    replay.authenticated |= best >= cfg.auth_threshold;
                }
            }
            out.push(replay);
        }
        let windows: usize = out.iter().map(|r| r.windows_scored).sum();
        tracer.count(
            "wispcam.pipeline.windows_per_frame",
            windows as f64 / out.len().max(1) as f64,
        );
        out
    }

    /// Window preparation, then one quantized inference.
    fn score(&self, tracer: &mut Tracer, img: &GrayImage, det: &Detection, side_in: usize) -> f32 {
        let input = tracer.span("imaging.resample", || window_input(img, det, side_in));
        tracer.span("snnap.infer", || self.accelerator.infer(&input).0)
    }

    /// One run of the program over the video: its summary and per-frame
    /// outcomes.
    pub fn program(&mut self) -> (RunSummary, Vec<FrameOutcome>) {
        self.pipeline.run_trace(&self.workload.frames)
    }

    /// The full checks of one timed pass; returns the failed frames.
    pub fn check(&self, summary: &RunSummary, outcomes: &[FrameOutcome]) -> u64 {
        let cfg = self.pipeline.config();
        let frames = outcomes.len() as u64;
        let raw = self.raw_offload_energy_per_frame();
        let per_frame = summary.energy_per_frame().joules();
        let run_ok = if cfg.face_detection {
            let summed: f64 = outcomes.iter().map(|o| o.energy.joules()).sum();
            summary.enrolled_events_detected == summary.enrolled_events
                && per_frame < raw
                && (summed - summary.total_energy.joules()).abs()
                    <= 1e-9 * summary.total_energy.joules()
        } else {
            per_frame > raw && quantization_mad(self) <= MAX_QUANT_MAD
        };
        if !run_ok {
            return frames;
        }
        let bad = self
            .workload
            .frames
            .iter()
            .zip(outcomes)
            .filter(|(f, o)| !frame_ok(cfg, f.image.dims(), o))
            .count();
        bad as u64
    }

    /// Energy per frame of the raw-offload configuration (no vision,
    /// ship every frame) on the same video.
    fn raw_offload_energy_per_frame(&self) -> f64 {
        let mut config = FaPipelineConfig::full_accelerated().with_blocks(false, false);
        config.transmit = TransmitPolicy::RawFrame;
        config.grid_sides = Vec::new();
        let mut raw = self.workload.pipeline(config);
        raw.run(&self.workload.frames).energy_per_frame().joules()
    }
}

impl Bench for FaBench {
    fn pass(&mut self) -> Pass {
        let start = now_s();
        let (summary, outcomes) = self.program();
        let seconds = now_s() - start;
        let mut digest = Digest::default();
        for o in &outcomes {
            digest.eat(o.windows_scored as u64);
            digest.eat(
                u64::from(o.motion) | u64::from(o.scanned) << 1 | u64::from(o.authenticated) << 2,
            );
            digest.eat(o.energy.joules().to_bits());
        }
        let items = outcomes.len() as u64;
        let mut verdicts = std::mem::take(&mut self.verdicts);
        let failed = verdicts.failed(digest.value(), items, || self.check(&summary, &outcomes));
        self.verdicts = verdicts;
        self.last = outcomes.iter().map(FrameReplay::of).collect();
        Pass {
            items,
            failed,
            known: 0,
            seconds,
        }
    }

    fn traced_pass(&mut self, tracer: &mut Tracer) -> Pass {
        let start = now_s();
        let replay = self.replay(tracer);
        let seconds = now_s() - start;
        tracer.count("wispcam.pipeline.glue_s", seconds - tracer.covered_s());
        let failed = replay_mismatches(&replay, &self.last);
        Pass {
            items: replay.len() as u64,
            failed,
            known: 0,
            seconds,
        }
    }
}

/// Frames whose replay differs from the program's own outcome.
pub fn replay_mismatches(replay: &[FrameReplay], program: &[FrameReplay]) -> u64 {
    if replay.len() != program.len() {
        return replay.len() as u64;
    }
    replay.iter().zip(program).filter(|(r, p)| r != p).count() as u64
}

/// A camera deployment from `seed`: the scene's cast and enrolled user,
/// an authenticator trained for them with `Workload::generate`'s full
/// recipe (once per process, see [`authenticator`]), the shipped face
/// detector, and `frames` frames of video.
///
/// The video alternates one walk-through with [`IDLE_GAP`] idle frames,
/// so every seed puts the same share of frames in front of the detector;
/// who walks through, their pose, and the sensor noise follow the seed.
/// (`Workload::generate`'s Poisson events and per-seed detector made the
/// detection work per frame vary 2–3× between seeds.)
pub fn deployment(seed: u64, frames: usize) -> Workload {
    let scene = |event_rate: f64, salt: u64| {
        let config = SecuritySceneConfig {
            event_rate,
            ..SecuritySceneConfig::default()
        };
        SecurityScene::new(config, StdRng::seed_from_u64(seed ^ salt))
    };
    // event rate 1: a walk-through starts right after the previous one's
    // trailing idle frame
    let mut walks = scene(1.0, 0x5eed);
    let mut idle = scene(0.0, 0x1d1e);
    let mut video: Vec<LabeledFrame> = Vec::with_capacity(frames + WALK_SEGMENT + IDLE_GAP);
    while video.len() < frames {
        video.extend(walks.frames(WALK_SEGMENT));
        video.extend(idle.frames(IDLE_GAP));
    }
    video.truncate(frames);
    let enrolled = walks.enrolled().clone();
    Workload {
        frames: video,
        reference_net: authenticator(seed, &enrolled, &walks.cast()[1..]),
        enrolled,
        detector: train_detector(&mut StdRng::seed_from_u64(DETECTOR_SEED), TrainEffort::Full),
        scan_params: ScanParams::default(),
    }
}

/// The deployment's authenticator for `enrolled` against `impostors`,
/// trained from `seed` on its first request in this process and reused
/// after that.
///
/// Its training stops at an epoch that depends on the seed (it took
/// 0.02–0.41 s on seeds 1–12), so retraining it in every set-up made
/// `setup_s` measure the seed more than the set-up: the FA set-up
/// medians of two sets of ten seeds differed by 23 %. The run's untimed
/// first set-up trains it.
fn authenticator(seed: u64, enrolled: &Identity, impostors: &[Identity]) -> Mlp {
    static TRAINED: Mutex<Vec<(u64, Mlp)>> = Mutex::new(Vec::new());
    let mut trained = TRAINED.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some((_, net)) = trained.iter().find(|(s, _)| *s == seed) {
        return net.clone();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let net = train_authenticator(enrolled, impostors, 200, 40, 150, 20, &mut rng);
    trained.push((seed, net.clone()));
    net
}

/// One frame's own consistency: without the detector, exactly the grid's
/// windows; with it, five jittered inferences per scored detection.
fn frame_ok(cfg: &FaPipelineConfig, dims: (usize, usize), o: &FrameOutcome) -> bool {
    if !o.motion {
        return !o.scanned && o.windows_scored == 0 && !o.authenticated;
    }
    if cfg.face_detection {
        o.scanned
            && o.windows_scored.is_multiple_of(JITTER_OFFSETS)
            && o.windows_scored <= JITTER_OFFSETS * cfg.max_detections_scored
    } else {
        !o.scanned && o.windows_scored == grid_windows(dims, cfg).len()
    }
}

/// The dense grid the NN scores when no detector filters windows,
/// counted by the benchmark from the frame size, `grid_sides` and
/// `grid_stride`.
pub fn grid_windows((w, h): (usize, usize), cfg: &FaPipelineConfig) -> Vec<Detection> {
    let stride = cfg.grid_stride.max(1);
    let mut out = Vec::new();
    for &side in cfg.grid_sides.iter().filter(|&&s| s <= w && s <= h) {
        for y in (0..=h - side).step_by(stride) {
            for x in (0..=w - side).step_by(stride) {
                out.push(Detection { x, y, side });
            }
        }
    }
    out
}

/// A detection and its alignment jitter: ±side/8 (at least 1 px) along
/// each axis, clamped at the frame's top-left edge.
fn jittered(det: &Detection) -> Vec<Detection> {
    let jitter = (det.side as isize / 8).max(1);
    let shift = |c: usize, d: isize| (c as isize + d * jitter).max(0) as usize;
    [(0, 0), (-1, 0), (1, 0), (0, -1), (0, 1)]
        .iter()
        .map(|&(dx, dy)| Detection {
            x: shift(det.x, dx),
            y: shift(det.y, dy),
            side: det.side,
        })
        .collect()
}

/// The NN input for one window: crop (clamped into the frame), bilinear
/// resize to the NN's input side, flatten.
pub fn window_input(img: &GrayImage, det: &Detection, side_in: usize) -> Vec<f32> {
    let (w, h) = img.dims();
    let side = det.side.min(w).min(h);
    let x = det.x.min(w.saturating_sub(side));
    let y = det.y.min(h.saturating_sub(side));
    resize_bilinear(&img.crop(x, y, side, side), side_in, side_in).to_vec_f32()
}

/// Mean absolute difference between the accelerator's score and the
/// float reference network's (exact sigmoid) on a sample of the first
/// frame's grid windows.
fn quantization_mad(bench: &FaBench) -> f64 {
    let cfg = bench.pipeline.config();
    let Some(frame) = bench.workload.frames.first() else {
        return f64::INFINITY;
    };
    let windows = grid_windows(frame.image.dims(), cfg);
    let mut total = 0.0f64;
    let mut n = 0usize;
    for det in windows.iter().step_by(MAD_SAMPLE_STRIDE) {
        let input = window_input(&frame.image, det, cfg.nn_input_side);
        let quantized = bench.accelerator.infer(&input).0;
        let reference = bench
            .workload
            .reference_net
            .forward(&input, &Sigmoid::Exact)
            .first()
            .copied()
            .unwrap_or(f32::NAN);
        total += f64::from((quantized - reference).abs());
        n += 1;
    }
    if n == 0 {
        f64::INFINITY
    } else {
        total / n as f64
    }
}
