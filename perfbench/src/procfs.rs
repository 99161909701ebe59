//! Process resource readings from `/proc/self`.

use std::fs;

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/<pid>/stat`. Linux fixes this (`USER_HZ`) at 100 for userspace.
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds consumed so far by every thread of this
/// process, live and exited.
pub fn cpu_s() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name (field 2) may contain spaces; fields after it are
    // counted from the closing parenthesis.
    let rest = &stat[stat.rfind(')').expect("stat has a comm field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let ticks = |field: usize| -> f64 {
        fields[field - 3]
            .parse::<u64>()
            .expect("utime/stime are integers") as f64
    };
    (ticks(14) + ticks(15)) / USER_HZ
}

/// A `VmXxx:` line of `/proc/self/status`, in KiB (`VmHWM` is the peak
/// resident set, `VmRSS` the current one).
pub fn vm_kib(key: &str) -> u64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    status
        .lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("/proc/self/status has no {key} line"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_plausible() {
        let before = cpu_s();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(cpu_s() >= before);
        let rss = vm_kib("VmRSS");
        assert!(rss > 0);
        assert!(vm_kib("VmHWM") >= rss);
    }
}
