//! What the harness reads from the operating system: process CPU time,
//! peak resident memory, and the facts about the host a report records.

use std::process::Command;

/// Linux reports `utime`/`stime` in clock ticks of 1/100 s on every
/// configuration the toolchain image supports.
const TICKS_PER_SECOND: f64 = 100.0;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const PROCESS_CPUTIME: i32 = 2;

/// User + system CPU seconds of this process, all threads, exited ones
/// included, at nanosecond resolution — fine enough to charge a unit of
/// a few hundred milliseconds.
pub fn process_cpu_seconds() -> f64 {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `clock_gettime` writes one `struct timespec` — two
        // 64-bit fields on 64-bit Linux, which `Timespec` mirrors with
        // `repr(C)` — through a pointer to a live, exclusively borrowed
        // local, and reads nothing else.
        if unsafe { clock_gettime(PROCESS_CPUTIME, &mut ts) } == 0 {
            return ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9;
        }
    }
    process_cpu_seconds_by_ticks()
}

/// The same from `/proc/self/stat`, at tick resolution (10 ms).
fn process_cpu_seconds_by_ticks() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; fields resume after its ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0.0);
    let stime: f64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0.0);
    (utime + stime) / TICKS_PER_SECOND
}

/// `VmHWM`: the most resident memory this process ever held, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// First line a command prints, or `"unknown"` when it cannot run (the
/// driver's checkout is not a git repository).
pub fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}
