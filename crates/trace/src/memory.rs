//! The process's resident memory as the kernel reports it: the one
//! reader of `/proc/self/status` in the workspace, behind the server's
//! `irf_process_*resident_bytes` gauges and the bench binaries' peak
//! RSS.

/// Resident set sizes of the current process, in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResidentMemory {
    /// Pages resident now (`VmRSS`).
    pub resident_bytes: u64,
    /// The high-water mark of `resident_bytes` over the process's
    /// lifetime (`VmHWM`). It never falls, so a phase that should show
    /// a memory bound must be measured before a larger phase runs.
    pub peak_resident_bytes: u64,
}

/// Reads `VmRSS` and `VmHWM` from `/proc/self/status`. `None` where
/// the file is absent (off Linux, or without procfs) or lacks either
/// line.
#[must_use]
pub fn resident_memory() -> Option<ResidentMemory> {
    parse_status(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// The two sizes from the text of a `/proc/<pid>/status` file, whose
/// lines read `VmRSS:\t   1234 kB`.
fn parse_status(status: &str) -> Option<ResidentMemory> {
    let bytes = |key: &str| -> Option<u64> {
        let line = status.lines().find_map(|l| l.strip_prefix(key))?;
        let kb: u64 = line
            .strip_prefix(':')?
            .split_whitespace()
            .next()?
            .parse()
            .ok()?;
        Some(kb * 1024)
    };
    Some(ResidentMemory {
        resident_bytes: bytes("VmRSS")?,
        peak_resident_bytes: bytes("VmHWM")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_lines_parse_to_bytes() {
        let status = "Name:\tirf\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t    1024 kB\n";
        assert_eq!(
            parse_status(status),
            Some(ResidentMemory {
                resident_bytes: 1024 * 1024,
                peak_resident_bytes: 2048 * 1024,
            })
        );
        assert_eq!(parse_status("Name:\tirf\nVmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_status("VmRSS:\tmany kB\nVmHWM:\t1 kB\n"), None);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn this_process_is_resident() {
        let m = resident_memory().expect("procfs available");
        assert!(m.resident_bytes > 0);
        assert!(m.peak_resident_bytes >= m.resident_bytes);
    }
}
