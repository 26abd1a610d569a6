//! What the benchmark reads from the operating system: process CPU time,
//! resident memory, core count and the toolchain's identity.

use std::process::Command;

/// Kernel clock ticks per second for `/proc/self/stat` (`USER_HZ`); 100 on
/// every Linux this runs on.
const TICKS_PER_S: u64 = 100;

/// User + system CPU time of the whole process (exited threads included),
/// in nanoseconds.
pub fn process_cpu_ns() -> Result<u64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    parse_stat_cpu_ticks(&stat).map(|ticks| ticks * (1_000_000_000 / TICKS_PER_S))
}

/// `utime + stime` (fields 14 and 15) of a `/proc/<pid>/stat` line.  The
/// command name (field 2) may contain spaces, so fields are counted after
/// its closing parenthesis.
fn parse_stat_cpu_ticks(stat: &str) -> Result<u64, String> {
    let rest = stat.rsplit_once(')').ok_or("no command field in stat")?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |i: usize| -> Result<u64, String> {
        fields
            .get(i - 3)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| format!("field {i} of stat unreadable"))
    };
    Ok(field(14)? + field(15)?)
}

/// One `kB` line of `/proc/self/status`, in bytes.
fn status_bytes(key: &str) -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    parse_status_kb(&status, key)
        .map(|kb| kb * 1024)
        .ok_or_else(|| format!("{key} not in /proc/self/status"))
}

fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.trim().strip_suffix("kB")?.trim().parse().ok())
}

/// Peak resident set of the process (`VmHWM`), in bytes.
pub fn peak_rss_bytes() -> Result<u64, String> {
    status_bytes("VmHWM")
}

/// Current resident set of the process (`VmRSS`), in bytes.
pub fn rss_bytes() -> Result<u64, String> {
    status_bytes("VmRSS")
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map(usize::from).unwrap_or(1)
}

/// First line a command prints, or `unknown` when it cannot run (the
/// driver's checkout is not a git repository).
pub fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_ticks_are_read_after_a_command_name_with_spaces() {
        let stat = "42 (path bench) x) S 1 42 42 0 -1 4194304 500 0 0 0 123 45 0 0 20 0 2 0 100 1000 200";
        assert_eq!(parse_stat_cpu_ticks(stat), Ok(168));
        assert!(parse_stat_cpu_ticks("42 (x) S 1").is_err());
    }

    #[test]
    fn status_lines_are_read_in_kb() {
        let status = "Name:\tpathbench\nVmHWM:\t   12345 kB\nVmRSS:\t    999 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(12345));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(999));
        assert_eq!(parse_status_kb(status, "VmPeak"), None);
    }

    #[test]
    fn this_process_has_cpu_time_and_memory() {
        assert!(peak_rss_bytes().unwrap() > 0);
        assert!(rss_bytes().unwrap() > 0);
        process_cpu_ns().unwrap();
    }
}
