//! Small helpers shared by the workloads: a seeded generator, order
//! statistics, process memory and child-process plumbing.

use std::path::Path;
use std::process::Command;

/// SplitMix64: the workload generator. The same seed gives the same
/// inputs on every machine.
pub struct Rng(u64);

impl Rng {
    /// A generator for stream `stream` of seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Quantile `q` of `values` with linear interpolation between order
/// statistics; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// `(steal, total)` CPU ticks of the whole machine so far, from
/// `/proc/stat`. Steal is time a virtual CPU was ready but the host ran
/// something else: noise no benchmark design removes.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this
/// one), in MiB.
pub fn vm_hwm_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod rusage {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen
    /// `long`s of which `ru_maxrss` is the first.
    #[repr(C)]
    struct RUsage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss: i64,
        rest: [i64; 13],
    }

    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }

    const RUSAGE_CHILDREN: i32 = -1;

    /// Largest peak resident set among the waited-for children, in MiB.
    pub fn children_peak_rss_mb() -> Option<f64> {
        let mut usage = RUsage {
            utime: [0; 2],
            stime: [0; 2],
            maxrss: 0,
            rest: [0; 13],
        };
        // SAFETY: `getrusage` writes one `struct rusage` through the
        // pointer, and `RUsage` has that layout on 64-bit Linux; the
        // pointer is to a live, exclusively borrowed local.
        let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
        (rc == 0 && usage.maxrss > 0).then(|| usage.maxrss as f64 / 1024.0)
    }
}

/// Largest peak resident set among this process's waited-for children,
/// in MiB (`ru_maxrss` of `RUSAGE_CHILDREN`).
pub fn children_peak_rss_mb() -> Option<f64> {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    return rusage::children_peak_rss_mb();
    #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
    return None;
}

/// A command for the `xmodel` binary with every `XMODEL_*` variable
/// removed, so the child runs as users run it: no tracing, no fault
/// injection, no metrics exporter and the default job count.
pub fn xmodel_command(xmodel: &Path) -> Command {
    let mut cmd = Command::new(xmodel);
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("XMODEL_") {
            cmd.env_remove(key);
        }
    }
    cmd
}

/// Workers and client connections: the machine's core count.
pub fn cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A float as JSON text: shortest round-trip decimal, `null` when not
/// finite.
pub fn jnum(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
    }
}
