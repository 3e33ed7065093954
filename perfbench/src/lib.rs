// incam-lint: allow(crate-hygiene) — the counting global allocator needs one `unsafe impl GlobalAlloc`; `deny(unsafe_code)` keeps the rest of the crate safe
//! End-to-end benchmark of the incam case studies, with a traced
//! per-layer mode.
//!
//! [`run`] sets a workload up from its seed, makes one warm-up pass and
//! then timed passes until the run length is spent, checking every
//! pass's outputs. The end-to-end metrics ([`END_TO_END`]) come from the
//! timed passes and the set-ups, their times scaled to a nominal host
//! speed ([`calibrate`]). With tracing on, each timed pass is followed by a traced
//! pass: the benchmark calls each layer's public function itself inside a
//! span and counts allocations, which gives the per-layer metrics
//! ([`PER_LAYER`]). See `README.md` for the workloads and the checks.

#![deny(unsafe_code)]
#![warn(missing_docs)]

#[allow(unsafe_code)]
pub mod alloc_count;
pub mod calibrate;
pub mod clock;
pub mod fa;
pub mod fleet;
pub mod trace;
pub mod verify;
pub mod vr;

use clock::now_s;
use trace::Tracer;

/// The workloads, by the name `--workload` takes.
pub const WORKLOADS: [&str; 5] = [
    "fa-nn-grid",
    "fa-cascade",
    "vr-rig",
    "verify-chaos",
    "fleet-mixed",
];

/// End-to-end metrics (name, unit), printed by an untraced run.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (name, unit), printed by a traced run. Times and
/// counts are per pass; a layer a workload does not run reads 0.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("imaging.motion.calls", "count"),
    ("imaging.motion.self_s", "s"),
    ("viola.scan.calls", "count"),
    ("viola.scan.self_s", "s"),
    ("viola.scan.windows", "count"),
    ("viola.scan.features", "count"),
    ("imaging.resample.calls", "count"),
    ("imaging.resample.self_s", "s"),
    ("imaging.resample.allocs", "count"),
    ("snnap.infer.calls", "count"),
    ("snnap.infer.self_s", "s"),
    ("snnap.infer.allocs", "count"),
    ("wispcam.pipeline.glue_s", "s"),
    ("wispcam.pipeline.windows_per_frame", "count"),
    ("vr.preprocess.self_s", "s"),
    ("vr.preprocess.allocs", "count"),
    ("vr.preprocess.bytes_out", "B"),
    ("vr.align.self_s", "s"),
    ("vr.align.allocs", "count"),
    ("vr.align.bytes_out", "B"),
    ("vr.depth.self_s", "s"),
    ("vr.depth.allocs", "count"),
    ("vr.depth.bytes_out", "B"),
    ("vr.depth.blur_ops", "count"),
    ("vr.stitch.self_s", "s"),
    ("vr.stitch.allocs", "count"),
    ("vr.stitch.bytes_out", "B"),
    ("auth.align.calls", "count"),
    ("auth.align.self_s", "s"),
    ("auth.embed.calls", "count"),
    ("auth.embed.self_s", "s"),
    ("auth.gallery.calls", "count"),
    ("auth.gallery.self_s", "s"),
    ("auth.service.self_s", "s"),
    ("auth.service.retries", "count"),
    ("auth.service.fallbacks", "count"),
    ("fleet.sim.ns_per_capture", "ns"),
    ("fleet.capture.skip_ratio", "ratio"),
    ("fleet.spectrum.grants", "count"),
    ("fleet.ingest.batches", "count"),
    ("core.explore.re_searches", "count"),
    ("core.explore.cut_changes", "count"),
    ("alloc.count_per_item", "count"),
    ("alloc.bytes_per_item", "B"),
    ("trace.overhead_s", "s"),
    ("trace.covered_share", "ratio"),
];

/// Set-ups per run, at least; the run reports their median.
const MIN_SETUPS: usize = 3;

/// A run keeps setting up (to at most [`MAX_SETUPS`] times) until its
/// set-ups took this long, so a millisecond set-up still gets a steady
/// median.
const SETUP_BUDGET_S: f64 = 0.5;

/// Set-ups per run, at most.
const MAX_SETUPS: usize = 200;

/// Timed passes a run makes at least, however short its length.
const MIN_PASSES: usize = 3;

/// One pass's work and its checked outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pass {
    /// Items the pass attempted.
    pub items: u64,
    /// Items whose checks failed.
    pub failed: u64,
    /// Of the failed items, those that fail by a fault of the program
    /// the benchmark knows and reports (see `README.md`); they leave the
    /// run `correct`.
    pub known: u64,
    /// Time of the measured region, seconds.
    pub seconds: f64,
}

/// A workload, set up and ready to make passes.
pub trait Bench {
    /// One timed pass: the program's own entry point, timed alone, then
    /// the checks on its outputs.
    fn pass(&mut self) -> Pass;

    /// One traced pass: the benchmark calls each layer itself inside a
    /// span of `tracer`, and checks the result against the timed passes.
    fn traced_pass(&mut self, tracer: &mut Tracer) -> Pass;
}

/// Builds `workload`'s inputs from `seed`.
///
/// # Errors
///
/// Fails on an unknown workload name.
pub fn setup(workload: &str, seed: u64) -> Result<Box<dyn Bench>, String> {
    Ok(match workload {
        "fa-nn-grid" => Box::new(fa::FaBench::nn_grid(seed)),
        "fa-cascade" => Box::new(fa::FaBench::cascade(seed)),
        "vr-rig" => Box::new(vr::VrBench::new(seed)),
        // drawn from a fixed seed, so that every run makes the same
        // impostor accepts (see `verify::WORLD_SEED`)
        "verify-chaos" => Box::new(verify::VerifyBench::new(verify::WORLD_SEED)),
        "fleet-mixed" => Box::new(fleet::FleetBench::new(seed)),
        other => {
            return Err(format!(
                "unknown workload `{other}` (one of: {})",
                WORKLOADS.join(", ")
            ))
        }
    })
}

/// A run's result: the benchmark's last output line.
#[derive(Debug)]
pub struct Report {
    /// No checked item failed, other than by a known fault.
    pub correct: bool,
    /// Items attempted over every pass, warm-up included.
    pub attempted: u64,
    /// Items whose checks failed.
    pub failed: u64,
    /// (name, value, unit), in catalogue order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// The one-line JSON object the benchmark prints last.
    ///
    /// # Errors
    ///
    /// Fails if a metric is not finite, which JSON cannot carry.
    pub fn to_json(&self) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(self.metrics.len());
        for (name, value, unit) in &self.metrics {
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

/// Runs `workload` from `seed` for `seconds` of timed passes, traced or
/// not, on one worker thread.
///
/// # Errors
///
/// Fails on an unknown workload or when peak memory cannot be read.
pub fn run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    // Two workers made most workloads slower and noisier on a 2-core host.
    incam_parallel::set_thread_override(Some(1));

    // an untimed first set-up does the once-per-process work (the FA
    // authenticator's training), as the warm-up pass does for passes
    let mut bench = Some(setup(workload, seed)?);
    // every timed set-up and pass is scaled to the nominal host speed,
    // gauged by the reference kernel on each side of it
    let mut before = calibrate::reference_s();
    let mut setups: Vec<f64> = Vec::new();
    while setups.len() < MIN_SETUPS
        || (setups.len() < MAX_SETUPS && setups.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        // drop the previous set-up first, so peak memory holds one copy
        drop(bench.take());
        let start = now_s();
        let built = setup(workload, seed)?;
        let seconds = now_s() - start;
        let after = calibrate::reference_s();
        setups.push(calibrate::scaled(seconds, before, after));
        before = after;
        bench = Some(built);
    }
    let mut bench = bench.ok_or("no set-up ran")?;

    let warm = bench.pass();
    let (mut attempted, mut failed, mut known) = (warm.items, warm.failed, warm.known);
    let mut timed = Vec::new();
    let mut rates = Vec::new();
    let mut traced = Vec::new();
    let start = now_s();
    let mut before = calibrate::reference_s();
    while timed.len() < MIN_PASSES || now_s() - start < seconds {
        let pass = bench.pass();
        let after = calibrate::reference_s();
        rates.push(pass.items as f64 / calibrate::scaled(pass.seconds, before, after));
        before = after;
        attempted += pass.items;
        failed += pass.failed;
        known += pass.known;
        timed.push(pass);
        if trace {
            // a traced run prints no rates, so the traced pass may sit
            // between a timed pass and the next one's gauge
            let mut tracer = Tracer::default();
            let (allocs0, bytes0) = alloc_count::snapshot();
            alloc_count::set_counting(true);
            let pass = bench.traced_pass(&mut tracer);
            alloc_count::set_counting(false);
            let (allocs1, bytes1) = alloc_count::snapshot();
            attempted += pass.items;
            failed += pass.failed;
            known += pass.known;
            let items = pass.items.max(1) as f64;
            tracer.count("alloc.count_per_item", (allocs1 - allocs0) as f64 / items);
            tracer.count("alloc.bytes_per_item", (bytes1 - bytes0) as f64 / items);
            traced.push((pass, tracer));
        }
    }

    let metrics = if trace {
        per_layer(&timed, &traced)
    } else {
        let values = [median(&setups), median(&rates), peak_rss_mb()?];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| (name, value, unit))
            .collect()
    };
    Ok(Report {
        correct: failed == known,
        attempted,
        failed,
        metrics,
    })
}

/// The per-layer rows: medians over the traced passes, 0 for a layer the
/// workload does not run.
fn per_layer(timed: &[Pass], traced: &[(Pass, Tracer)]) -> Vec<(&'static str, f64, &'static str)> {
    let untraced_s = median(&timed.iter().map(|p| p.seconds).collect::<Vec<_>>());
    let passes: Vec<Vec<(String, f64)>> = traced
        .iter()
        .map(|(pass, tracer)| {
            let mut rows: Vec<(String, f64)> = tracer
                .counts()
                .iter()
                .map(|&(name, value)| (name.to_string(), value))
                .collect();
            for l in tracer.layers() {
                rows.push((format!("{}.calls", l.name), l.calls as f64));
                rows.push((format!("{}.self_s", l.name), l.self_s));
                rows.push((format!("{}.allocs", l.name), l.allocs as f64));
            }
            rows.push(("trace.overhead_s".into(), pass.seconds - untraced_s));
            rows.push((
                "trace.covered_share".into(),
                tracer.covered_s() / pass.seconds,
            ));
            rows
        })
        .collect();
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let values: Vec<f64> = passes
                .iter()
                .map(|rows| {
                    rows.iter()
                        .find(|(n, _)| n == name)
                        .map_or(0.0, |(_, v)| *v)
                })
                .collect();
            (name, median(&values), unit)
        })
        .collect()
}

/// Median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The process's peak resident memory, MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// FNV-1a over 64-bit words: the digest that pins a pass's outputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word in.
    pub fn eat(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds every pixel's bit pattern in.
    pub fn eat_f32s(&mut self, values: &[f32]) {
        for v in values {
            self.eat(u64::from(v.to_bits()));
        }
    }

    /// The digest so far.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Check verdicts carried across the passes of one run.
///
/// The first pass's outputs are checked in full. The program is
/// deterministic, so every later pass must reproduce the first pass's
/// output digest; it then carries the same verdicts, and a pass that
/// differs fails all its items.
#[derive(Debug, Default)]
pub struct Verdicts {
    first: Option<(u64, u64)>,
}

impl Verdicts {
    /// Failed items of a pass of `items` whose outputs digest to
    /// `digest`; `check` runs the full checks and returns the failures.
    pub fn failed(&mut self, digest: u64, items: u64, check: impl FnOnce() -> u64) -> u64 {
        match self.first {
            None => {
                let failed = check();
                self.first = Some((digest, failed));
                failed
            }
            Some((first, failed)) if first == digest => failed,
            Some(_) => items,
        }
    }

    /// The first pass's digest, once a pass was checked.
    pub fn first_digest(&self) -> Option<u64> {
        self.first.map(|(d, _)| d)
    }
}
