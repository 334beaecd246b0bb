//! What the kernel knows about this process: memory high-water and thread
//! count from `/proc/self/status`, CPU time and context switches from
//! `getrusage(2)`; and the one thing the harness asks of it, a one-CPU
//! affinity mask.
//!
//! `/proc/self/stat` would give CPU time too, but only in 10 ms ticks and
//! with no context-switch count; `/proc/self/status` counts switches for the
//! main thread alone, while the live cluster runs every invocation on a
//! short-lived thread of its own. `getrusage` sums over all threads, dead
//! ones included, at microsecond resolution.

/// Fields of `/proc/self/status` the harness reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Status {
    /// `VmHWM`: peak resident set size, kB.
    pub vm_hwm_kb: u64,
    /// `Threads`: threads alive right now.
    pub threads: u64,
}

/// Parse the text of `/proc/self/status`.
pub fn parse_status(text: &str) -> Result<Status, String> {
    let field = |name: &str| -> Result<u64, String> {
        let line = text
            .lines()
            .find_map(|l| l.strip_prefix(name).and_then(|rest| rest.strip_prefix(':')))
            .ok_or_else(|| format!("/proc/self/status has no {name} line"))?;
        let number = line.trim().trim_end_matches("kB").trim();
        number.parse().map_err(|_| format!("/proc/self/status: bad {name} value {line:?}"))
    };
    Ok(Status { vm_hwm_kb: field("VmHWM")?, threads: field("Threads")? })
}

/// Read and parse `/proc/self/status`.
pub fn status() -> Result<Status, String> {
    let text = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    parse_status(&text)
}

/// Peak resident set size in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    Ok(status()?.vm_hwm_kb as f64 / 1024.0)
}

/// Process-wide resource use so far.
#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    /// User + system CPU seconds, all threads.
    pub cpu_s: f64,
    /// Voluntary + involuntary context switches, all threads.
    pub ctx_switches: u64,
}

impl Usage {
    /// `self - earlier`.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            cpu_s: self.cpu_s - earlier.cpu_s,
            ctx_switches: self.ctx_switches - earlier.ctx_switches,
        }
    }
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` as 64-bit Linux lays it out: two `timeval`s, then
/// fourteen `long`s of which the last two are the context-switch counts.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    /// maxrss, ixrss, idrss, isrss, minflt, majflt, nswap, inblock, oublock,
    /// msgsnd, msgrcv, nsignals.
    other: [i64; 12],
    nvcsw: i64,
    nivcsw: i64,
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("libra-perf reads getrusage(2) through the 64-bit Linux `struct rusage` layout");

/// `cpu_set_t`: one bit per CPU, 1,024 of them.
type CpuSet = [u64; 16];

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// Confine the calling thread, and every thread it starts from now on, to the
/// CPU it is running on. `std::thread::available_parallelism()` then reads 1
/// on all of them, so code that sizes a thread fan-out from it stays on that
/// one core.
pub fn pin_to_one_cpu() -> Result<(), String> {
    // SAFETY: `sched_getcpu` takes no arguments and touches no memory.
    let cpu = unsafe { sched_getcpu() };
    let cpu = usize::try_from(cpu).map_err(|_| "sched_getcpu failed".to_string())?;
    let mut set: CpuSet = [0; 16];
    let word = set.get_mut(cpu / 64).ok_or_else(|| format!("CPU {cpu} is beyond cpu_set_t"))?;
    *word = 1 << (cpu % 64);
    // SAFETY: `set` is a live `cpu_set_t`-sized bit mask and the size passed
    // is its size, so the kernel reads nothing beyond it; pid 0 is the calling
    // thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
    if rc != 0 {
        return Err(format!("sched_setaffinity to CPU {cpu} failed"));
    }
    match std::thread::available_parallelism() {
        Ok(n) if n.get() == 1 => Ok(()),
        other => Err(format!("pinned to CPU {cpu}, yet available_parallelism() is {other:?}")),
    }
}

/// CPU time and context switches of this process so far.
pub fn usage() -> Usage {
    const RUSAGE_SELF: i32 = 0;
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        other: [0; 12],
        nvcsw: 0,
        nivcsw: 0,
    };
    // SAFETY: `ru` is a live, writable `struct rusage` with the layout the
    // kernel ABI defines for 64-bit Linux (the `compile_error!` above admits
    // no other target), and `getrusage` writes nothing beyond it. RUSAGE_SELF
    // with a valid pointer cannot fail, and a failure would leave the zeros
    // above.
    unsafe {
        getrusage(RUSAGE_SELF, &mut ru);
    }
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    Usage {
        cpu_s: secs(&ru.utime) + secs(&ru.stime),
        ctx_switches: (ru.nvcsw + ru.nivcsw).max(0) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "Name:\tlibra-perf\nUmask:\t0022\nState:\tR (running)\nTgid:\t4242\n\
        VmPeak:\t  204800 kB\nVmSize:\t  198000 kB\nVmHWM:\t   48712 kB\nVmRSS:\t   40000 kB\n\
        Threads:\t67\nvoluntary_ctxt_switches:\t12\nnonvoluntary_ctxt_switches:\t3\n";

    #[test]
    fn status_parser_reads_hwm_and_threads() {
        assert_eq!(parse_status(SAMPLE), Ok(Status { vm_hwm_kb: 48_712, threads: 67 }));
    }

    #[test]
    fn status_parser_reports_missing_and_malformed_fields() {
        assert!(parse_status("Name:\tx\nThreads:\t1\n").unwrap_err().contains("VmHWM"));
        assert!(parse_status("VmHWM:\t12 kB\n").unwrap_err().contains("Threads"));
        assert!(parse_status("VmHWM:\tlots kB\nThreads:\t1\n").unwrap_err().contains("bad VmHWM"));
        // A field name that is only a prefix of another line must not match.
        assert!(parse_status("VmHWMx:\t5 kB\nThreads:\t1\n").is_err());
    }

    #[test]
    fn live_process_reports_plausible_numbers() {
        let st = status().expect("procfs");
        assert!(st.vm_hwm_kb > 100 && st.threads >= 1, "{st:?}");
        let before = usage();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        let spent = usage().since(&before);
        assert!(spent.cpu_s > 0.0 && spent.cpu_s < 30.0, "{spent:?}");
    }

    #[test]
    fn pinned_thread_and_its_children_see_one_cpu() {
        let parallelism = || std::thread::available_parallelism().map(|n| n.get());
        // On a thread of its own, so that no other test inherits the mask.
        let seen = std::thread::spawn(move || {
            pin_to_one_cpu().expect("pin");
            let child = std::thread::spawn(parallelism).join().expect("child");
            (parallelism().ok(), child.ok())
        })
        .join()
        .expect("pinned thread");
        assert_eq!(seen, (Some(1), Some(1)));
    }
}
