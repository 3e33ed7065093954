//! The VR-rig workload (`vr-rig`).
//!
//! A timed pass is one `run_functional_pipeline` over a synthetic
//! 16-camera rig frame. The traced pass calls the four blocks (B1
//! pre-processing, B2 alignment, B3 bilateral-space depth, B4 stitching)
//! itself, pair by pair, and must reproduce the timed pass's panorama
//! bit for bit. The first timed pass is checked through the same replay,
//! which exposes each pair's disparity map.

use crate::clock::now_s;
use crate::trace::Tracer;
use crate::{Bench, Digest, Pass, Verdicts};
use incam_bilateral::stereo::disparity_mae;
use incam_imaging::image::GrayImage;
use incam_rng::rngs::StdRng;
use incam_rng::SeedableRng;
use incam_vr::blocks::depth::{estimate_depth, DepthWorkload};
use incam_vr::blocks::stitch::{stitch, PairDepth, StereoPanorama};
use incam_vr::blocks::{align::align_pair, preprocess::preprocess, run_functional_pipeline};
use incam_vr::frame::{synthetic_capture, RigCapture};
use incam_vr::rig::CameraRig;

/// Cameras on the rig (one stereo pair per camera).
pub const CAMERAS: usize = 16;

/// View size of each camera. At 256×192 a pass took about 1 s, its
/// bilateral grids spilled far past L2, and its rate spread 0.2 between
/// runs even scaled to the host's speed; at this size a pass takes about
/// 0.25 s, stays near L2, and spreads a third as much.
pub const VIEW: (usize, usize) = (128, 96);

/// Largest synthesized disparity, pixels.
pub const MAX_DISPARITY: usize = 8;

/// How many times below a constant-disparity guess each pair's depth
/// error must stay.
pub const MAE_FACTOR: f64 = 3.0;

/// Inter-eye shift per pixel of disparity in `run_functional_pipeline`.
const IPD_SCALE: f32 = 0.5;

/// Bytes of one `GrayImage` pixel.
const PIXEL_BYTES: usize = std::mem::size_of::<f32>();

/// The rig workload, set up.
pub struct VrBench {
    capture: RigCapture,
    verdicts: Verdicts,
}

/// One replay of the four blocks: the panorama plus each pair's depth.
pub struct Replay {
    /// Each pair's refined disparity map, in rig order.
    pub disparities: Vec<GrayImage>,
    /// The stitched stereo panorama.
    pub panorama: StereoPanorama,
}

impl VrBench {
    /// Renders one synthetic rig frame from `seed`.
    pub fn new(seed: u64) -> Self {
        let rig = CameraRig::scaled(CAMERAS, VIEW.0, VIEW.1);
        let mut rng = StdRng::seed_from_u64(seed);
        Self {
            capture: synthetic_capture(&rig, MAX_DISPARITY, &mut rng),
            verdicts: Verdicts::default(),
        }
    }

    /// The rig capture the passes process.
    pub fn capture(&self) -> &RigCapture {
        &self.capture
    }
}

/// Runs B1–B4 over `capture`, each block call inside a span of `tracer`.
pub fn replay(capture: &RigCapture, tracer: &mut Tracer) -> Replay {
    let bytes = |img: &GrayImage| (img.len() * PIXEL_BYTES) as f64;
    let mut pairs = Vec::with_capacity(capture.pairs.len());
    let mut disparities = Vec::with_capacity(capture.pairs.len());
    for pair in &capture.pairs {
        let reference = tracer.span("vr.preprocess", || preprocess(&pair.reference_raw));
        let neighbour = tracer.span("vr.preprocess", || preprocess(&pair.neighbour_raw));
        tracer.count(
            "vr.preprocess.bytes_out",
            bytes(&reference) + bytes(&neighbour),
        );
        let aligned = tracer.span("vr.align", || {
            align_pair(&reference, &neighbour, &pair.calibration)
        });
        tracer.count(
            "vr.align.bytes_out",
            bytes(&aligned.reference) + bytes(&aligned.neighbour),
        );
        let depth = tracer.span("vr.depth", || {
            estimate_depth(&aligned, capture.max_disparity)
        });
        tracer.count("vr.depth.bytes_out", bytes(&depth.disparity));
        let (w, h) = aligned.reference.dims();
        tracer.count(
            "vr.depth.blur_ops",
            DepthWorkload::paper_default().blur_ops(w, h),
        );
        disparities.push(depth.disparity.clone());
        pairs.push(PairDepth {
            reference: aligned.reference,
            disparity: depth.disparity,
        });
    }
    let overlap = overlap(capture);
    let panorama = tracer.span("vr.stitch", || stitch(&pairs, overlap, IPD_SCALE));
    tracer.count(
        "vr.stitch.bytes_out",
        bytes(&panorama.left) + bytes(&panorama.right),
    );
    Replay {
        disparities,
        panorama,
    }
}

/// Seam overlap `run_functional_pipeline` uses: an eighth of a view.
fn overlap(capture: &RigCapture) -> usize {
    capture
        .pairs
        .first()
        .map_or(0, |p| p.reference_raw.width() / 8)
}

/// Digest of both eyes' pixels.
pub fn panorama_digest(pano: &StereoPanorama) -> u64 {
    let mut d = Digest::default();
    d.eat(pano.left.width() as u64);
    d.eat(pano.left.height() as u64);
    d.eat_f32s(pano.left.pixels());
    d.eat_f32s(pano.right.pixels());
    d.value()
}

/// The full checks of one rig frame: the replay reproduces the program's
/// panorama, every pair's depth error stays [`MAE_FACTOR`] times below a
/// constant-disparity guess, and the panorama has the rig's size, pixels
/// in [0, 1] and two differing eyes.
pub fn check(capture: &RigCapture, program: &StereoPanorama, replay: &Replay) -> bool {
    let margin = capture.max_disparity;
    let depth_ok = capture
        .pairs
        .iter()
        .zip(&replay.disparities)
        .all(|(pair, estimate)| {
            let truth = &pair.truth_disparity;
            let (w, h) = truth.dims();
            let guess = GrayImage::new(w, h, truth.mean());
            let guess_mae = disparity_mae(&guess, truth, margin);
            disparity_mae(estimate, truth, margin) * MAE_FACTOR < guess_mae
        });
    let (w, h) = capture
        .pairs
        .first()
        .map_or((0, 0), |p| p.reference_raw.dims());
    let overlap = overlap(capture);
    let expected = ((w - overlap) * capture.pairs.len() + overlap, h);
    let in_range = |img: &GrayImage| img.pixels().iter().all(|p| (0.0..=1.0).contains(p));
    let eyes_differ = program
        .left
        .pixels()
        .iter()
        .zip(program.right.pixels())
        .any(|(l, r)| l != r);
    depth_ok
        && panorama_digest(program) == panorama_digest(&replay.panorama)
        && program.left.dims() == expected
        && program.right.dims() == expected
        && in_range(&program.left)
        && in_range(&program.right)
        && eyes_differ
}

impl Bench for VrBench {
    fn pass(&mut self) -> Pass {
        let start = now_s();
        let panorama = run_functional_pipeline(&self.capture);
        let seconds = now_s() - start;
        let capture = &self.capture;
        let failed = self.verdicts.failed(panorama_digest(&panorama), 1, || {
            let replay = replay(capture, &mut Tracer::default());
            u64::from(!check(capture, &panorama, &replay))
        });
        Pass {
            items: 1,
            failed,
            known: 0,
            seconds,
        }
    }

    fn traced_pass(&mut self, tracer: &mut Tracer) -> Pass {
        let start = now_s();
        let replay = replay(&self.capture, tracer);
        let seconds = now_s() - start;
        let same = self.verdicts.first_digest() == Some(panorama_digest(&replay.panorama));
        Pass {
            items: 1,
            failed: u64::from(!same),
            known: 0,
            seconds,
        }
    }
}
