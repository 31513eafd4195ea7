//! Statistics and process probes shared by the workloads.

use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile of `v` (0 when empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Total size of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// A fixed reference kernel that touches no code of the repository: sort
/// 64k pseudo-random integers, load them into a hash map, and probe it.
/// Its time moves only with the host, so a reader of the results can tell
/// a host-speed swing from a change in the program. Returns microseconds.
pub fn host_ref_us() -> f64 {
    const N: usize = 1 << 16;
    let mut x: u64 = 0x2545_f491_4f6c_dd1d;
    let mut v: Vec<u64> = (0..N)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    let t = Instant::now();
    v.sort_unstable();
    let map: HashMap<u64, usize> = v.iter().enumerate().map(|(i, &k)| (k, i)).collect();
    let hits = v
        .iter()
        .step_by(3)
        .filter(|k| map.contains_key(&k.wrapping_add(1)) || map.contains_key(k))
        .count();
    std::hint::black_box(hits);
    t.elapsed().as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }
}
