//! Process and host facts read from `/proc`.

use std::path::Path;

extern "C" {
    fn sysconf(name: i32) -> i64;
}

/// `_SC_CLK_TCK` on Linux.
const SC_CLK_TCK: i32 = 2;

/// Clock ticks per second of `/proc/<pid>/stat` CPU times.
pub fn clock_ticks_per_sec() -> u64 {
    // SAFETY: `sysconf` takes an integer selector, touches no caller memory
    // and is safe to call from any thread.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    u64::try_from(ticks).ok().filter(|&t| t > 0).unwrap_or(100)
}

/// User plus system CPU time of process `pid` (all its threads, live and
/// exited), in microseconds, from `/proc/<pid>/stat` `utime + stime`.
///
/// # Errors
///
/// The process is gone or the file does not parse.
pub fn process_cpu_us(pid: u32) -> Result<f64, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).map_err(|e| e.to_string())?;
    // The command name may contain spaces; fields resume after its ')'.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("malformed /proc stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // Fields 14 and 15 of the full line are the 12th and 13th after ')'.
    let tick = |i: usize| -> Result<u64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| format!("missing /proc stat field {i}"))
    };
    let ticks = tick(11)? + tick(12)?;
    Ok(ticks as f64 * 1e6 / clock_ticks_per_sec() as f64)
}

/// Peak resident set (`VmHWM`) of process `pid`, in MiB.
///
/// # Errors
///
/// The process is gone or the field is missing.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let status =
        std::fs::read_to_string(format!("/proc/{pid}/status")).map_err(|e| e.to_string())?;
    let kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .ok_or("no VmHWM in /proc status")?;
    Ok(kb as f64 / 1024.0)
}

extern "C" {
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
}

/// The calling thread's CPU set (the first 64 CPUs), if readable.
pub fn affinity() -> Option<u64> {
    let mut mask = 0u64;
    // SAFETY: `mask` is a valid, writable one-word CPU set and `size` is
    // its size in bytes; pid 0 names the calling thread.
    let ok = unsafe { sched_getaffinity(0, std::mem::size_of::<u64>(), &mut mask) } >= 0;
    ok.then_some(mask)
}

/// Restricts the calling thread, and the threads and processes it creates
/// from now on, to the CPUs in `mask`. Returns whether the kernel agreed.
pub fn set_affinity(mask: u64) -> bool {
    // SAFETY: `mask` is a readable one-word CPU set and `size` is its size
    // in bytes; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) == 0 }
}

/// The CPUs the process may run on, as first asked (before any pinning
/// narrowed the calling thread's set); all of the first 64 if unreadable.
fn allowed_cpus() -> u64 {
    static ALLOWED: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *ALLOWED.get_or_init(|| affinity().filter(|&m| m != 0).unwrap_or(u64::MAX))
}

/// The CPU the broker processes run on: the lowest one allowed. Broker and
/// generator each get a core of their own, so neither steals the other's
/// CPU and the kernel cannot settle the broker's threads into a different
/// placement from one run to the next (on a shared 2-core host that moved
/// throughput by 40%).
pub fn broker_cpu() -> usize {
    allowed_cpus().trailing_zeros() as usize
}

/// The CPU the generator's two threads run on during a phase: the highest
/// one allowed (the broker's own on a single-core host).
pub fn generator_cpu() -> usize {
    63 - allowed_cpus().leading_zeros() as usize
}

/// Cores this process may run on, as first asked.
pub fn nproc() -> usize {
    allowed_cpus().count_ones() as usize
}

/// The running kernel's release string.
pub fn kernel() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|_| "unknown".to_owned())
}

/// The commit the working directory is checked out at, read from `.git`
/// without running git; `"unknown"` outside a git checkout.
pub fn git_rev() -> String {
    let git = Path::new(".git");
    let read = |p: &Path| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".to_owned();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(rev) = read(&git.join(reference)) {
        return rev;
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_process_counters_are_readable() {
        let pid = std::process::id();
        assert!(process_cpu_us(pid).expect("cpu") >= 0.0);
        assert!(peak_rss_mb(pid).expect("rss") > 0.0);
        assert!(clock_ticks_per_sec() > 0);
        assert!(nproc() >= 1);
        let allowed = affinity().expect("affinity");
        assert!(allowed & (1 << broker_cpu()) != 0);
        assert!(allowed & (1 << generator_cpu()) != 0);
        assert_eq!(broker_cpu() == generator_cpu(), nproc() == 1);
    }
}
