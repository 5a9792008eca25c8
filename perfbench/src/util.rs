//! Small measurement helpers: order statistics, process counters read
//! from `/proc`, the per-run work directory, and file concatenation.

use std::path::{Path, PathBuf};
use std::time::Instant;

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `q`-quantile of an exact nanosecond sample by rank (nearest-rank
/// definition: the smallest value with at least `q · n` samples at or
/// below it). `u64::MAX` stands for "never answered" and sorts last.
pub fn rank_quantile_ns(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Times one call, returning its result and wall seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, secs(t))
}

fn proc_status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Resets the kernel's peak-RSS mark (`VmHWM`) to the current RSS, so a
/// later [`peak_rss_mb`] covers only what ran in between.
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// Peak resident set since the last [`reset_peak_rss`], in MiB.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// Bytes this process has passed to `write`-family calls so far
/// (`wchar` of `/proc/self/io`): every output file, spill run and
/// staged shard, whether or not it reached the device.
pub fn bytes_written() -> u64 {
    std::fs::read_to_string("/proc/self/io")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("wchar:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

extern "C" {
    fn sync();
}

/// Flushes every dirty page to disk and waits for it. Called before a
/// run's set-up, so write-back left over from an earlier run does not
/// land inside this run's timings.
pub fn flush_disks() {
    // SAFETY: `sync(2)` takes no arguments, touches no memory of this
    // process and cannot fail.
    unsafe { sync() }
}

/// A scratch directory inside the checkout, removed on drop.
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    /// Creates `.perfbench_work/<tag>-<pid>` under the current directory.
    pub fn create(tag: &str) -> std::io::Result<Self> {
        let path = PathBuf::from(".perfbench_work").join(format!("{tag}-{}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A fresh (emptied) subdirectory.
    pub fn fresh(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = self.path.join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Leave no empty parent behind when this was the only run.
        let _ = std::fs::remove_dir(".perfbench_work");
    }
}

/// The bytes of `paths` concatenated in order — the single-stream view
/// of a converter's per-rank part files.
pub fn concat_files(paths: &[PathBuf]) -> std::io::Result<Vec<u8>> {
    let mut out = Vec::new();
    for p in paths {
        out.extend_from_slice(&std::fs::read(p)?);
    }
    Ok(out)
}

/// 64-bit FNV-1a, used to fingerprint inputs and source trees.
pub fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_and_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(rank_quantile_ns(&sorted, 0.5), 50);
        assert_eq!(rank_quantile_ns(&sorted, 0.99), 99);
        assert_eq!(rank_quantile_ns(&[7], 0.99), 7);
    }
}
