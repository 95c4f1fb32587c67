//! What the benchmark reads about its own process and machine (Linux
//! procfs; every reader degrades to `None` elsewhere).

use std::fs;

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// CPU seconds (user + system) this process has consumed. The kernel
/// reports them in clock ticks; Linux fixes `USER_HZ` at 100.
pub fn cpu_seconds() -> Option<f64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may contain spaces: count from its `)`.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// `rustc --version` of the toolchain on `PATH` (the one `run.sh` built
/// with), for the report header.
pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn procfs_readers_return_sane_values() {
        if let Some(rss) = peak_rss_mib() {
            assert!(rss > 0.0);
        }
        if let Some(cpu) = cpu_seconds() {
            assert!(cpu >= 0.0);
        }
        assert!(nproc() >= 1);
    }
}
