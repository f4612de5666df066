//! Statistics and host probes shared by the workloads.

use std::path::Path;
use std::time::{Duration, Instant};

/// A tail percentile is reported only when at least this many samples
/// lie beyond it; with fewer, one slow sample moves it.
pub const MIN_TAIL: usize = 10;

/// The median (mean of the middle pair for even counts); 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest nearest-rank percentile with at least [`MIN_TAIL`] samples
/// beyond it, as `(percentile, value)`, or `None` with too few samples.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    let rank = n.checked_sub(MIN_TAIL).filter(|&r| r > 0)?;
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Some((100.0 * rank as f64 / n as f64, v[rank - 1]))
}

/// Words in the host-speed probe's working set: 16 MiB, past one core's
/// L2 and into the cache the host's other tenants share.
const PROBE_WORDS: usize = 1 << 21;
/// Random read-modify-writes per probe.
const PROBE_TOUCHES: u64 = 4_000_000;
/// Probes per reading; a reading is their median, so one probe slowed by
/// a passing burst does not skew the scale.
const PROBE_REPEATS: usize = 3;
/// The reference speed, as a probe reading: on a 2-vCPU Xeon VM (4 MiB
/// L2 per core, 300 MiB shared L3) in a quiet stretch, readings were
/// about 26 ms. Only ratios matter; this keeps scaled figures near host
/// figures.
pub const PROBE_NOMINAL_S: f64 = 0.03;

/// One probe: fill a fresh working set, then pseudo-random
/// read-modify-writes over it.
fn probe_kernel() -> u64 {
    let mut words: Vec<u64> = (0..PROBE_WORDS as u64).collect();
    let (mut x, mut sum) = (0x2545_F491_4F6C_DD1Du64, 0u64);
    for _ in 0..PROBE_TOUCHES {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x % PROBE_WORDS as u64) as usize;
        sum = sum.wrapping_add(words[i]);
        words[i] = sum;
    }
    std::hint::black_box(&words);
    sum
}

/// Runs the probe kernel [`PROBE_REPEATS`] times in this process and
/// returns the median wall time (s). See [`probe_s`].
pub fn probe_here() -> f64 {
    let times: Vec<f64> = (0..PROBE_REPEATS)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(probe_kernel());
            secs(start.elapsed())
        })
        .collect();
    median(&times)
}

/// A host-speed probe reading: a fixed memory-bound kernel, the
/// benchmark's own code. Returns its wall time (s).
///
/// The host's speed drifts with its neighbours' load, by up to 2× within
/// a minute, and process CPU time drifts with it (the slowdown is in the
/// instructions, not in time stolen from the process). Scaling a fleet
/// pass by the readings next to it removes most of that drift.
///
/// The kernel runs in a child process (this binary with `--probe`), so
/// its working set never counts towards this process's peak RSS or
/// shapes its heap.
pub fn probe_s() -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("probe: {e}"))?;
    let out = std::process::Command::new(exe)
        .arg("--probe")
        .stdin(std::process::Stdio::null())
        .output()
        .map_err(|e| format!("probe: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match text.trim().parse::<f64>() {
        Ok(s) if out.status.success() && s > 0.0 => Ok(s),
        _ => Err(format!("probe failed ({}): {text:?}", out.status)),
    }
}

/// `time` (s), measured next to the probe reading `probe` (s), at the
/// reference host speed: scaled by [`PROBE_NOMINAL_S`] ÷ `probe`.
pub fn at_reference_speed(time: f64, probe: f64) -> f64 {
    time * PROBE_NOMINAL_S / probe
}

/// Takes a probe reading between consecutive measurements, so each
/// reading serves the measurement before and after it.
#[derive(Debug)]
pub struct Pacer {
    last: f64,
}

impl Pacer {
    /// Takes the first reading.
    pub fn new() -> Result<Pacer, String> {
        Ok(Pacer { last: probe_s()? })
    }

    /// Runs `f`, takes the next reading, and returns `f`'s output with
    /// the mean of the readings before and after it.
    pub fn run<T>(&mut self, f: impl FnOnce() -> T) -> Result<(T, f64), String> {
        let out = f();
        let next = probe_s()?;
        let probe = (self.last + next) / 2.0;
        self.last = next;
        Ok((out, probe))
    }
}

/// Seconds as `f64`.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time this process has used so far, all threads included, in
/// seconds (`utime + stime` of `/proc/self/stat`, in 100 Hz ticks), or 0
/// where `/proc` is unavailable.
pub fn cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name start at field 3, so
    // utime (14) and stime (15) are the 12th and 13th.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|t| t.parse::<u64>().ok())
        .sum();
    ticks as f64 / 100.0
}

/// Total size in bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map_or(0, |m| m.len()),
            Err(_) => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_tail_has_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&samples), Some((99.0, 990.0)));
        let samples: Vec<f64> = (1..=780).rev().map(f64::from).collect();
        assert_eq!(tail(&samples), Some((100.0 * 770.0 / 780.0, 770.0)));
        assert_eq!(tail(&[1.0; 10]), None);
        assert_eq!(tail(&[]), None);
        assert_eq!(tail(&[2.0; 11]), Some((100.0 / 11.0, 2.0)));
    }

    #[test]
    fn cpu_time_advances_with_work() {
        let (before, start) = (cpu_s(), Instant::now());
        let mut x = 1u64;
        while cpu_s() < before + 0.05 && start.elapsed() < Duration::from_secs(10) {
            x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1));
        }
        assert!(
            cpu_s() >= before + 0.05,
            "10 s of spinning moved CPU time by < 50 ms"
        );
    }

    #[test]
    fn scaling_divides_by_the_probe() {
        assert!(probe_here() > 0.0);
        assert_eq!(at_reference_speed(2.0, 2.0 * PROBE_NOMINAL_S), 1.0);
        assert_eq!(at_reference_speed(4.0, PROBE_NOMINAL_S / 2.0), 8.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
