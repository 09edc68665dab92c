//! Order statistics, process resource counters and hashing.

use std::time::Duration;

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (the "inclusive" method of Python's `statistics`).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of `values` (in the order they were taken)
/// estimated block by block: the mean, over consecutive blocks of
/// `block` values (at least one block), of each block's `q`-quantile.
///
/// On a host whose cores switch between a fast and a slow state for
/// seconds at a time, a latency sample is a mix of two levels, and a
/// quantile of the whole sample jumps from one level to the other when
/// the share of slow time crosses it. Each block's quantile follows the
/// state of a few seconds, so their mean moves in proportion to the
/// slow share.
///
/// # Panics
///
/// Panics if `values` is empty or `block` is 0.
pub fn blocked_quantile(values: &[f64], block: usize, q: f64) -> f64 {
    assert!(block > 0, "blocks of no values");
    let n = values.len();
    let blocks = (n / block).max(1);
    let per_block: Vec<f64> = (0..blocks)
        .map(|i| quantile(&values[i * n / blocks..(i + 1) * n / blocks], q))
        .collect();
    mean(&per_block)
}

/// Mean of `values` (0 for an empty sample).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Milliseconds in `d`, with all its digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the resource counters assume the 64-bit Linux `struct rusage` layout");

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// User plus system CPU time of the whole process (every thread).
pub fn process_cpu_time() -> Duration {
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `usage` is a live, writable value with the layout of the
    // platform's `struct rusage` (checked by the cfg above), and
    // RUSAGE_SELF is a valid `who`; the call writes only into it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let micros = |t: &Timeval| t.sec as u64 * 1_000_000 + t.usec as u64;
    Duration::from_micros(micros(&usage.utime) + micros(&usage.stime))
}

/// The process's resident-set high-water mark (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// SplitMix64: derives independent, well-mixed values from one seed.
pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(quantile(&v, 0.9), 4.6);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn blocked_quantile_averages_block_quantiles() {
        // Two blocks of three: medians 2 and 20.
        let v = [1.0, 2.0, 30.0, 10.0, 20.0, 40.0];
        assert_eq!(blocked_quantile(&v, 3, 0.5), 11.0);
        // Fewer values than a block: the quantile of the whole sample.
        assert_eq!(blocked_quantile(&v, 10, 0.9), quantile(&v, 0.9));
        // A remainder is spread over the blocks: 7 values, blocks of 3
        // -> two blocks, [0..3) and [3..7).
        let w = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
        assert_eq!(blocked_quantile(&w, 3, 0.5), (2.0 + 5.5) / 2.0);
    }

    #[test]
    fn resource_counters_read() {
        assert!(peak_rss_mb() > 0.0);
        let spin: u64 = (0..2_000_000u64).fold(0, |a, x| a ^ splitmix(x));
        std::hint::black_box(spin);
        assert!(process_cpu_time() > Duration::ZERO);
    }
}
