//! Process CPU time and peak memory from `/proc`.

use std::io;

/// Clock ticks per second of `utime`/`stime` in `/proc/<pid>/stat`
/// (`USER_HZ`, fixed at 100 by the Linux ABI on the supported targets).
const TICKS_PER_S: f64 = 100.0;

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`.
/// The command name may contain spaces and parentheses, so fields are
/// counted from the last `)`.
pub fn cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After the command come `state` (field 3) … `utime` (14), `stime` (15).
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set (`VmHWM`) in KiB from the text of `/proc/<pid>/status`.
pub fn vm_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

fn read(pid: Option<u32>, file: &str) -> io::Result<String> {
    let who = pid.map_or_else(|| "self".to_string(), |p| p.to_string());
    std::fs::read_to_string(format!("/proc/{who}/{file}"))
}

fn malformed(file: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("unparseable {file}"))
}

/// CPU time (user + system, all threads) of `pid`, or of this process
/// for `None`, in milliseconds.
pub fn cpu_ms(pid: Option<u32>) -> io::Result<f64> {
    let ticks = cpu_ticks(&read(pid, "stat")?).ok_or_else(|| malformed("stat"))?;
    Ok(ticks as f64 * 1e3 / TICKS_PER_S)
}

/// Peak resident set of `pid`, or of this process for `None`, in MiB.
pub fn peak_rss_mib(pid: Option<u32>) -> io::Result<f64> {
    let kib = vm_hwm_kib(&read(pid, "status")?).ok_or_else(|| malformed("status"))?;
    Ok(kib as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_cpu_ticks_past_a_command_with_spaces() {
        let stat = "4242 (zt serve (x)) S 1 4242 4242 0 -1 4194560 900 0 0 0 \
                    157 43 0 0 20 0 7 0 12345 1000000 500 18446744073709551615";
        assert_eq!(cpu_ticks(stat), Some(200));
        assert_eq!(cpu_ticks("garbage"), None);
    }

    #[test]
    fn parses_vm_hwm() {
        let status = "Name:\tzt-serve\nVmPeak:\t  99999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(vm_hwm_kib(status), Some(20480));
        assert_eq!(vm_hwm_kib("Name:\tx\n"), None);
    }

    #[test]
    fn reads_this_process() {
        assert!(cpu_ms(None).expect("own stat") >= 0.0);
        assert!(peak_rss_mib(None).expect("own status") > 0.0);
    }
}
