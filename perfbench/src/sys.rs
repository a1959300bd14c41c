//! Process CPU time and peak memory, and the environment record every
//! result carries.

use std::fs;
use std::path::Path;

/// `struct rusage` on 64-bit Linux: two `timeval`s (seconds,
/// microseconds) followed by fourteen `long`s.
#[repr(C)]
struct RUsage([i64; 18]);

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// CPU time of this process so far.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// User + system CPU seconds, all threads.
    pub cpu_s: f64,
}

/// Reads `getrusage(RUSAGE_SELF)`.
pub fn usage() -> Usage {
    let mut u = RUsage([0; 18]);
    // SAFETY: `u` is a writable buffer of the size and layout of the
    // kernel's `struct rusage` on 64-bit Linux, and lives across the call.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid buffer"
    );
    let f = &u.0;
    Usage {
        cpu_s: (f[0] + f[2]) as f64 + (f[1] + f[3]) as f64 * 1e-6,
    }
}

/// Seconds of CPU the hypervisor gave to other guests while this
/// machine's vCPUs wanted to run, summed over vCPUs (`steal` in
/// `/proc/stat`, in USER_HZ = 100 ticks per second); 0 when unknown.
pub fn steal_s() -> f64 {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let cpu = stat.lines().next()?.strip_prefix("cpu ")?.to_string();
            cpu.split_whitespace().nth(7)?.parse::<f64>().ok()
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Process CPU and machine steal at one instant of a phase.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    /// Seconds since the phase started.
    pub at_s: f64,
    /// [`usage`]'s CPU seconds.
    pub cpu_s: f64,
    /// [`steal_s`].
    pub steal_s: f64,
}

/// Takes a [`Mark`] for a phase that started at `started`.
pub fn mark(started: std::time::Instant) -> Mark {
    Mark {
        at_s: started.elapsed().as_secs_f64(),
        cpu_s: usage().cpu_s,
        steal_s: steal_s(),
    }
}

/// Peak resident set of this process image, MiB: `VmHWM` from
/// `/proc/self/status`. (`ru_maxrss` is not used: Linux carries it over
/// from the parent across `exec`, so it would report `cargo`'s peak.)
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|l| {
                let kib = l.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kib.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The checkout's git revision, read from `.git` in the working
/// directory without running git; `unknown` outside a git checkout.
pub fn git_revision() -> String {
    let git = Path::new(".git");
    let head = match fs::read_to_string(git.join("HEAD")) {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Host cores as the process sees them.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
