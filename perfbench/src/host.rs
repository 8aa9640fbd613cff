//! The host block every result records, peak-memory probes and CPU
//! pinning.
//!
//! Linux only: the values come from `/proc`. Where a file is missing the
//! field reads `unknown` (or 0) instead of failing the run.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// Where a result was measured.
#[derive(Debug, Clone)]
pub struct Host {
    /// Logical cores available to this process.
    pub cores: usize,
    /// Total memory, MiB.
    pub mem_total_mb: u64,
    /// Kernel release.
    pub kernel: String,
    /// Git revision of the checkout, or `unknown` outside a repository.
    pub git_rev: String,
}

impl Host {
    /// Probes the running host; `root` is the checkout the benchmark runs in.
    pub fn detect(root: &Path) -> Host {
        let mem_total_mb = fs::read_to_string("/proc/meminfo")
            .ok()
            .and_then(|text| status_kib(&text, "MemTotal:"))
            .map_or(0, |kib| kib / 1024);
        Host {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            mem_total_mb,
            kernel: fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| "unknown".into(), |s| s.trim().to_string()),
            git_rev: git_revision(root).unwrap_or_else(|| "unknown".into()),
        }
    }

    /// The block as a JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"cores\": {}, \"mem_total_mb\": {}, \"kernel\": \"{}\", \"git_rev\": \"{}\"}}",
            self.cores,
            self.mem_total_mb,
            escape(&self.kernel),
            escape(&self.git_rev)
        );
        out
    }
}

/// Escapes a string for a JSON string literal.
pub fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => vec![' '],
            c => vec![c],
        })
        .collect()
}

/// Reads `HEAD` of the repository at `root` without running git.
fn git_revision(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (rev, name) = line.split_once(' ')?;
        (name == reference).then(|| rev.to_string())
    })
}

/// The `<key> <n> kB` value of a `/proc` status or meminfo file, in KiB.
fn status_kib(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|line| line.strip_prefix(key))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Peak resident memory of process `pid`, in MiB: `VmHWM` less the
/// file-backed and shared pages still mapped (program text, libraries,
/// mapped archives), which the page cache holds and can reclaim.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let mapped = status_kib(&status, "RssFile:")? + status_kib(&status, "RssShmem:")?;
    let kib = status_kib(&status, "VmHWM:")?.saturating_sub(mapped);
    Some(kib as f64 / 1024.0)
}

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread — and so every thread and process it starts
/// afterwards — to the highest-numbered CPU it may run on, and returns
/// that CPU. On a shared VM a client and a daemon on different vCPUs
/// pay a cross-CPU wake-up at every hand-over, whose cost swings with
/// the host's load; on one CPU they hand over directly.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> std::io::Result<usize> {
    const WORDS: usize = 16;
    let mut mask = [0u64; WORDS];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of `size` bytes.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    let cpu = (0..WORDS * 64)
        .rev()
        .find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .ok_or_else(|| std::io::Error::other("no CPU in the affinity mask"))?;
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of `size` bytes.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(cpu)
}

/// Pinning is Linux only; elsewhere nothing is pinned.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> std::io::Result<usize> {
    Err(std::io::Error::other("CPU pinning needs Linux"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(target_os = "linux")]
    #[test]
    fn pinning_leaves_one_cpu() {
        // Test threads are fresh threads: pinning this one leaves the
        // other tests alone.
        let cpu = pin_to_one_cpu().expect("pinning");
        assert!(cpu < 1024);
        assert_eq!(std::thread::available_parallelism().unwrap().get(), 1);
    }

    #[test]
    fn reads_status_fields() {
        let text = "Name:\tx\nVmHWM:\t  2048 kB\nVmRSS:\t1024 kB\nRssFile:\t512 kB\n";
        assert_eq!(status_kib(text, "VmHWM:"), Some(2048));
        assert_eq!(status_kib(text, "RssFile:"), Some(512));
        assert_eq!(status_kib(text, "VmPeak:"), None);
        assert!(peak_rss_mb(std::process::id()).is_some_and(|mb| mb > 0.0));
    }

    #[test]
    fn host_block_is_json() {
        let host = Host::detect(Path::new("/nonexistent"));
        assert_eq!(host.git_rev, "unknown");
        assert!(host.cores >= 1);
        let json = host.to_json();
        let _: serde::Value = serde_json::from_str(&json).expect("host block parses");
    }
}
