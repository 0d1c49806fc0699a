//! Process CPU time and peak memory from `/proc/self`.

/// Clock ticks per second of the `utime`/`stime` fields. `USER_HZ` is 100 on
/// every Linux ABI this repo targets (x86-64, aarch64); without a libc
/// dependency `sysconf(_SC_CLK_TCK)` is out of reach.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds from the text of `/proc/<pid>/stat`, summed
/// over every thread of the process (live and reaped).
pub fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    // The command name (field 2) is parenthesised and may itself contain
    // spaces and parentheses: fields resume after the *last* ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime and stime are fields 14 and 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// Peak resident set (`VmHWM`) in MB from the text of `/proc/<pid>/status`.
pub fn parse_peak_rss_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_ascii_whitespace();
    let kb: u64 = fields.next()?.parse().ok()?;
    (fields.next()? == "kB").then_some(kb as f64 / 1024.0)
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// CPU seconds this process has used so far.
pub fn cpu_seconds() -> f64 {
    parse_cpu_seconds(&read("/proc/self/stat")).expect("utime and stime in /proc/self/stat")
}

/// This process's peak resident set so far, in MB.
pub fn peak_rss_mb() -> f64 {
    parse_peak_rss_mb(&read("/proc/self/status")).expect("VmHWM in /proc/self/status")
}

#[cfg(test)]
mod tests {
    use super::*;

    // Captured from a live process, then given a command name with a space
    // and a stray ')' and non-zero times so the parser's hard case is pinned.
    const STAT: &str = include_str!("../fixtures/proc_self_stat.txt");
    const STATUS: &str = include_str!("../fixtures/proc_self_status.txt");

    #[test]
    fn stat_fixture_yields_user_plus_system_time() {
        // utime = 1234 ticks, stime = 56 ticks.
        assert_eq!(parse_cpu_seconds(STAT), Some(12.9));
    }

    #[test]
    fn status_fixture_yields_the_high_water_mark_not_the_current_rss() {
        assert_eq!(parse_peak_rss_mb(STATUS), Some(1500.0));
    }

    #[test]
    fn truncated_input_is_rejected_not_misread() {
        assert_eq!(parse_cpu_seconds("1 (x) R 1 2 3"), None);
        assert_eq!(parse_cpu_seconds("no parenthesis at all"), None);
        assert_eq!(parse_peak_rss_mb("VmRSS:\t 10 kB\n"), None);
        assert_eq!(parse_peak_rss_mb("VmHWM:\t lots kB\n"), None);
        assert_eq!(parse_peak_rss_mb("VmHWM:\t 10 pages\n"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.1);
    }
}
