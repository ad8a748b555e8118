//! What the operating system says about this process: CPU time, peak
//! resident memory, core count, and the filesystem under a directory.
//! Everything is read from `/proc`, so the benchmark needs no libc
//! binding; on a system without `/proc` the readers return `None` and
//! the caller reports the metric as failed rather than inventing a value.

use std::path::Path;

/// Kernel clock ticks per second as exposed to user space. Linux fixes
/// `USER_HZ` at 100 on every architecture it supports.
const USER_HZ: f64 = 100.0;

/// Process CPU seconds (user + system, all threads, exited ones included).
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may contain spaces; fields are counted after the
    // closing parenthesis. utime and stime are fields 14 and 15 overall,
    // hence 12th and 13th after ") ".
    let rest = &stat[stat.rfind(')')? + 2..];
    let mut fields = rest.split(' ');
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Cores this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Filesystem type of the mount that holds `dir` (longest mount-point
/// prefix in `/proc/self/mountinfo`).
pub fn fs_type(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        // "... mount-point options optional* - fstype source superopts"
        let Some((left, right)) = line.split_once(" - ") else { continue };
        let Some(mount_point) = left.split(' ').nth(4) else { continue };
        let Some(fstype) = right.split(' ').next() else { continue };
        if dir.starts_with(mount_point) && best.as_ref().is_none_or(|b| mount_point.len() >= b.0) {
            best = Some((mount_point.len(), fstype.to_string()));
        }
    }
    best.map_or_else(|| "unknown".into(), |b| b.1)
}
