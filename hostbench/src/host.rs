//! Host-cost readings from procfs: process CPU time and peak memory.
//!
//! Only the standard library is used, so the benchmark builds offline.

/// Clock ticks per second of the `utime`/`stime` fields of
/// `/proc/<pid>/stat` (`USER_HZ`, fixed at 100 on Linux for every
/// architecture the simulator targets).
const USER_HZ: f64 = 100.0;

/// Process CPU time split into user and kernel parts.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CpuTimes {
    /// User-mode time in seconds.
    pub user_s: f64,
    /// Kernel-mode time in seconds.
    pub sys_s: f64,
}

impl CpuTimes {
    /// Reads the whole process's (all threads', live and exited) CPU time.
    pub fn now() -> CpuTimes {
        let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs is mounted");
        parse_stat(&stat).expect("/proc/self/stat has utime and stime")
    }

    /// `self - earlier`, field by field.
    pub(crate) fn since(self, earlier: CpuTimes) -> CpuTimes {
        CpuTimes { user_s: self.user_s - earlier.user_s, sys_s: self.sys_s - earlier.sys_s }
    }

    /// Adds `other` into `self`.
    pub(crate) fn add(&mut self, other: CpuTimes) {
        self.user_s += other.user_s;
        self.sys_s += other.sys_s;
    }

    /// User plus kernel time.
    pub fn total_s(self) -> f64 {
        self.user_s + self.sys_s
    }
}

/// Parses `utime` and `stime` (fields 14 and 15) out of a
/// `/proc/<pid>/stat` line. The command name (field 2) is parenthesised
/// and may itself contain spaces and parentheses, so fields are counted
/// from the last `)`.
fn parse_stat(line: &str) -> Option<CpuTimes> {
    let rest = &line[line.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After the command name come field 3 (state) onwards, so utime is the
    // 12th token and stime the 13th.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(CpuTimes { user_s: utime as f64 / USER_HZ, sys_s: stime as f64 / USER_HZ })
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    parse_vm_hwm_kb(&status).expect("/proc/self/status has VmHWM") as f64 / 1024.0
}

/// Parses the `VmHWM:` line of `/proc/<pid>/status` (in kB).
fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let kb = parts.next()?.parse().ok()?;
    (parts.next()? == "kB").then_some(kb)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_from_the_last_paren() {
        let line = "4242 (my (odd) prog) S 1 4242 4242 0 -1 4194560 523 0 0 0 \
                    1234 56 0 0 20 0 5 0 9876 12345678 900 18446744073709551615";
        let t = parse_stat(line).unwrap();
        assert_eq!(t.user_s, 12.34);
        assert_eq!(t.sys_s, 0.56);
        assert!((t.total_s() - 12.9).abs() < 1e-9);
    }

    #[test]
    fn stat_rejects_truncated_lines() {
        assert_eq!(parse_stat("1 (x) S 1 2 3"), None);
        assert_eq!(parse_stat("no parens here"), None);
        assert_eq!(parse_stat("1 (x) S 1 1 1 0 -1 0 0 0 0 0 abc 5"), None);
    }

    #[test]
    fn live_stat_parses_and_grows() {
        let a = CpuTimes::now();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let d = CpuTimes::now().since(a);
        assert!(d.user_s >= 0.0 && d.sys_s >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn vm_hwm_parses_kb() {
        let status = "Name:\thtm\nVmPeak:\t  20000 kB\nVmHWM:\t    8192 kB\nVmRSS:\t 4096 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(8192));
        assert_eq!(parse_vm_hwm_kb("VmRSS:\t 4096 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t 12 MB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\n"), None);
    }
}
