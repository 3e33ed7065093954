//! Spans around the benchmark's calls into each layer.
//!
//! Every span is a leaf: the benchmark calls each layer's public
//! function itself, so a layer's self time is its span's duration, and
//! the part of a traced pass no span covers is reported as its own row.

use crate::alloc_count;
use crate::clock::now_s;

/// Accumulated work of one layer over one traced pass.
#[derive(Debug)]
pub struct Layer {
    /// Layer name, the prefix of its metric names.
    pub name: &'static str,
    /// Spans recorded.
    pub calls: u64,
    /// Summed span durations, seconds.
    pub self_s: f64,
    /// Allocations made inside the spans.
    pub allocs: u64,
}

/// Spans and counts of one traced pass.
#[derive(Debug, Default)]
pub struct Tracer {
    layers: Vec<Layer>,
    counts: Vec<(&'static str, f64)>,
}

impl Tracer {
    /// Runs `f` inside a span of `layer`.
    pub fn span<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        let (allocs0, _) = alloc_count::snapshot();
        let start = now_s();
        let out = f();
        let self_s = now_s() - start;
        let (allocs1, _) = alloc_count::snapshot();
        let entry = match self.layers.iter().position(|l| l.name == layer) {
            Some(i) => &mut self.layers[i],
            None => {
                self.layers.push(Layer {
                    name: layer,
                    calls: 0,
                    self_s: 0.0,
                    allocs: 0,
                });
                let last = self.layers.len() - 1;
                &mut self.layers[last]
            }
        };
        entry.calls += 1;
        entry.self_s += self_s;
        entry.allocs += allocs1 - allocs0;
        out
    }

    /// Adds `value` to the count `name` (a full metric name).
    pub fn count(&mut self, name: &'static str, value: f64) {
        match self.counts.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v += value,
            None => self.counts.push((name, value)),
        }
    }

    /// The layers seen, in first-span order.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// The counts recorded, in first-record order.
    pub fn counts(&self) -> &[(&'static str, f64)] {
        &self.counts
    }

    /// Summed self time of every layer.
    pub fn covered_s(&self) -> f64 {
        self.layers.iter().map(|l| l.self_s).sum()
    }
}
