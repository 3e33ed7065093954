//! A fixed reference kernel that gauges the host's current speed.
//!
//! On a shared host the same code can run 1.6× slower from one
//! half-minute to the next. Arithmetic and cache-resident work slow down
//! together; work streaming through memory slows far less. The
//! benchmark times this kernel, which is of the first kind, just before
//! and just after each measured region, and scales the region's time to
//! what it would have taken on a host where the kernel takes
//! [`NOMINAL_S`]. The kernel is the benchmark's own code, so a change to
//! the program moves the scaled times and a change of host speed does
//! not.

use crate::clock::now_s;
use std::hint::black_box;

/// The kernel's time on a fast stretch of the host the benchmark was
/// written on (a 2.1 GHz Xeon vCPU), seconds: the time every measured
/// region is scaled to.
pub const NOMINAL_S: f64 = 0.004;

/// Rounds of the kernel over its 16 KiB table.
const ROUNDS: u32 = 400;

/// Runs the kernel once and returns its time, seconds: integer hashing
/// into a 16 KiB table with a dependent float multiply-add chain, all of
/// it in the core and its first-level cache.
pub fn reference_s() -> f64 {
    let start = now_s();
    let mut table = [0u32; 4096];
    let mut h = 0x9e37_79b9_u32;
    let mut x = 1.0_f32;
    for round in 0..ROUNDS {
        for i in 0..table.len() {
            h = (h ^ i as u32).wrapping_mul(0x85eb_ca6b).rotate_left(13);
            let j = h as usize & (table.len() - 1);
            table[j] = table[j].wrapping_add(h ^ round);
            x = x.mul_add(0.999_9, (table[i] & 0xff) as f32 * 1e-4);
        }
    }
    black_box((table, x));
    now_s() - start
}

/// `seconds` of a region scaled to the nominal host speed, given the
/// reference kernel's times just before and just after it.
pub fn scaled(seconds: f64, before: f64, after: f64) -> f64 {
    seconds * NOMINAL_S / ((before + after) / 2.0)
}
