//! The few numeric conversions the harness needs, each stated once.

use std::time::Duration;

/// A counter as a float, for ratios and rates.
pub fn f(n: u64) -> f64 {
    // cast(counters and nanosecond totals stay far below 2^53 within one run)
    n as f64
}

/// A length as a float.
pub fn fz(n: usize) -> f64 {
    // cast(lengths stay far below 2^53)
    n as f64
}

/// A duration in whole nanoseconds (saturating; a run lasts seconds).
pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// A length as a `u64` (lossless on the 64-bit targets the harness runs on).
pub fn n64(n: usize) -> u64 {
    // cast(usize is 64 bits on every target the workspace supports)
    n as u64
}

/// A `u64` that indexes memory.
pub fn idx(n: u64) -> usize {
    usize::try_from(n).expect("the harness runs on 64-bit targets")
}

/// `part / whole`, or 0 when `whole` is 0 (a layer that saw no work).
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}
