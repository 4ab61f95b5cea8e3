//! What the benchmark reads from `/proc` about its own process — peak
//! resident memory, CPU time, allowed CPUs — and the one-CPU pin.

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, fixed
/// at 100 on every Linux ABI this runs on).
const USER_HZ: f64 = 100.0;

/// The `kB` value of field `key` (e.g. `VmHWM`) in `/proc/<pid>/status`
/// text.
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    let rest = status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))?;
    rest.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// Lowest CPU number in the `Cpus_allowed_list` field (`0-1`, `3,5-7`,
/// ...) of `/proc/<pid>/status` text.
pub fn parse_first_allowed_cpu(status: &str) -> Option<usize> {
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    list.trim()
        .split([',', '-'])
        .next()
        .and_then(|n| n.parse().ok())
}

/// `utime + stime` in clock ticks from `/proc/<pid>/stat` text. The
/// command name (field 2) may itself contain spaces and parentheses, so
/// fields are counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let after = &stat[stat.rfind(')')? + 1..];
    // `after` starts at field 3 (state); utime and stime are fields 14, 15.
    let mut fields = after.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// CPU seconds (user + system, all threads, joined ones included) this
/// process has used so far; 10 ms resolution.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_stat_cpu_ticks(&stat).expect("utime/stime in /proc/self/stat") as f64 / USER_HZ
}

/// Peak resident set size of this process so far, in MB (10⁶ bytes).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_status_kb(&status, "VmHWM").expect("VmHWM in /proc/self/status") as f64 * 1024.0 / 1e6
}

extern "C" {
    /// glibc/musl `sched_setaffinity(2)` wrapper; std already links libc.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restrict this process — the calling thread and every thread spawned
/// after — to the lowest CPU it is allowed on, and return that CPU.
///
/// Why the benchmark runs on one CPU: on the 2-vCPU sandbox this was
/// written on, two busy threads ran at anything between 1.0 and 2.0
/// cores' worth of speed, drifting over seconds, which put ±20 % on every
/// multi-threaded frame time; one CPU repeats to about ±1 %. Call before
/// any thread is spawned and before `isosurf`'s global pool is sized.
pub fn pin_to_one_cpu() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let cpu = parse_first_allowed_cpu(&status).expect("Cpus_allowed_list in /proc/self/status");
    let mut mask = [0u64; 16];
    assert!(cpu < mask.len() * 64, "cpu {cpu} beyond the 1024-bit mask");
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised 128-byte buffer and the size
    // passed is exactly its length; pid 0 names the calling thread. The
    // call reads the buffer and keeps no pointer to it.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    assert_eq!(rc, 0, "sched_setaffinity to cpu {cpu} failed");
    cpu
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = "Name:\tdcbench\nVmPeak:\t  901234 kB\nVmHWM:\t  345678 kB\n\
                          VmRSS:\t  100000 kB\nCpus_allowed:\t3\nCpus_allowed_list:\t2-3,7\n";

    #[test]
    fn status_fields_parse() {
        assert_eq!(parse_status_kb(STATUS, "VmHWM"), Some(345_678));
        assert_eq!(parse_status_kb(STATUS, "VmRSS"), Some(100_000));
        assert_eq!(parse_status_kb(STATUS, "VmSwap"), None);
        // `Cpus_allowed` must not shadow `Cpus_allowed_list`, nor `VmH` match `VmHWM`.
        assert_eq!(parse_status_kb(STATUS, "VmH"), None);
        assert_eq!(parse_first_allowed_cpu(STATUS), Some(2));
        assert_eq!(parse_first_allowed_cpu("Cpus_allowed_list:\t5\n"), Some(5));
        assert_eq!(parse_first_allowed_cpu("Name:\tx\n"), None);
    }

    #[test]
    fn stat_cpu_ticks_survive_a_hostile_command_name() {
        let stat = "4242 (dc bench) 1) R 1 4242 4242 0 -1 4194304 900 0 0 0 \
                    731 269 0 0 20 0 9 0 12345 1000000 2000 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(1000));
        assert_eq!(parse_stat_cpu_ticks("no paren here"), None);
        assert_eq!(parse_stat_cpu_ticks("1 (x) R 1 2"), None);
    }

    #[test]
    fn live_proc_files_parse() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_seconds() >= 0.0);
    }
}
