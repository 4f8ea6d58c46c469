//! This process as the kernel sees it: which CPU it may run on, the CPU
//! time it has used, and its peak resident memory.

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn clock_gettime(clock_id: i32, tp: *mut [i64; 2]) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` of the Linux ABI.
const PROCESS_CPUTIME: i32 = 2;

/// Restricts the calling thread, and every thread spawned from it
/// afterwards, to the highest-numbered CPU it is allowed on (the lowest
/// usually also serves the machine's interrupts). Returns that CPU, or
/// `None` if the kernel refused — the run then goes on unpinned.
///
/// Where the runtime's dozen actor threads land is otherwise the kernel's
/// choice, and on the reference box (a two-vCPU VM whose cpuset has
/// `sched_load_balance` off) that choice is sticky: a thread stays on the
/// CPU it first woke on for the rest of the run. When the actors happen to
/// split across both vCPUs every inbox hand-off is a cross-vCPU wake-up, and
/// identical runs read 16 k tps at 79 µs CPU per commit or 8 k tps at
/// 160 µs. On one CPU every run reads the first. The README's known limits
/// say what this leaves unmeasured.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut allowed = [0u64; 16];
    let bytes = std::mem::size_of_val(&allowed);
    // SAFETY: `allowed` is a writable buffer of `bytes` bytes; pid 0 is the
    // calling thread.
    if unsafe { sched_getaffinity(0, bytes, allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..allowed.len() * 64)
        .rev()
        .find(|c| allowed[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of `bytes` bytes.
    (unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } == 0).then_some(cpu)
}

/// User + system CPU this process — every thread, finished ones included —
/// has consumed so far, µs. (`/proc/self/stat` holds the same total in
/// 10 ms ticks, too coarse for a half-second trial.)
pub fn cpu_us() -> f64 {
    let mut t = [0i64; 2];
    // SAFETY: `t` is a writable `timespec` (two 64-bit fields on every
    // 64-bit Linux ABI).
    if unsafe { clock_gettime(PROCESS_CPUTIME, &mut t) } != 0 {
        return 0.0;
    }
    t[0] as f64 * 1e6 + t[1] as f64 / 1e3
}

/// `VmHWM` (peak resident set) in KiB from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Peak resident set of this process so far, MiB. Zero where `/proc` is
/// unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kib(&s))
        .map_or(0.0, |kib| kib as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status = "Name:\tbench\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(20480));
        assert_eq!(parse_vm_hwm_kib("Name:\tbench\n"), None);
    }

    #[test]
    fn cpu_time_advances_with_work_and_memory_reads_positive() {
        let before = cpu_us();
        let mut x = 1u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(cpu_us() > before, "a busy loop consumes CPU time");
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 0.0);
        }
    }
}
