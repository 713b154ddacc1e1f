//! Host-side process measurements read from Linux `/proc`.
//!
//! CPU time comes from `/proc/self/stat` (user + system over every
//! thread the process ever ran, in clock ticks), and per-run peak memory
//! from resetting the kernel's resident-set high-water mark through
//! `/proc/self/clear_refs` before a run and reading `VmHWM` after it.

use std::time::Instant;

/// Clock ticks per second of the `/proc/self/stat` time fields. Linux
/// reports them in `USER_HZ`, which is 100 on every supported
/// architecture.
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds the process has used so far, summed
/// over all of its threads (exited sweep workers included).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may hold spaces; fields after it start
    // past the closing parenthesis. utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> f64 { fields[i].parse::<u64>().expect("numeric stat field") as f64 };
    (ticks(11) + ticks(12)) / USER_HZ
}

/// Resets the resident-set high-water mark to the current resident set,
/// so the next [`peak_rss_mb`] covers only what runs in between.
pub fn reset_peak_rss() {
    std::fs::write("/proc/self/clear_refs", "5")
        .expect("reset VmHWM through /proc/self/clear_refs");
}

/// The resident-set high-water mark since the last [`reset_peak_rss`],
/// in MiB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM") / 1024.0
}

fn status_kb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .unwrap_or_else(|| panic!("/proc/self/status has no {field}"))
}

/// Wall, CPU and peak memory of one measured interval.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// Host wall-clock seconds.
    pub wall_s: f64,
    /// Host user + system CPU seconds.
    pub cpu_s: f64,
    /// Peak resident memory over the interval, in MiB.
    pub peak_rss_mb: f64,
}

/// Runs `f` and measures it: the peak-memory mark is reset first, so the
/// reading belongs to this interval and not to the process's lifetime.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, Usage) {
    reset_peak_rss();
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let out = f();
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu0;
    (
        out,
        Usage {
            wall_s,
            cpu_s,
            peak_rss_mb: peak_rss_mb(),
        },
    )
}
