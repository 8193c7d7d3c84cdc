//! Linux process facts the benchmark needs: CPU affinity, process CPU
//! time and per-CPU steal time. The C library is already linked by std,
//! so the three calls are declared here rather than pulled in as a crate.

use std::io;
use std::os::raw::{c_int, c_long};

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut u64) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const u64) -> c_int;
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux: CPU time of every thread of the
/// process, so the in-process servers are included.
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

/// A `cpu_set_t` (1024 CPUs) as 64-bit words.
const MASK_WORDS: usize = 16;

/// The CPUs this process may run on.
pub fn allowed_cpus() -> io::Result<Vec<usize>> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok((0..MASK_WORDS * 64)
        .filter(|&cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
        .collect())
}

/// Confine the calling thread, and every thread it spawns afterwards, to
/// `cpu`.
pub fn pin_to(cpu: usize) -> io::Result<()> {
    if cpu >= MASK_WORDS * 64 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "cpu out of range",
        ));
    }
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// CPU time consumed by the whole process so far, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec and the clock id is a
    // constant Linux defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_PROCESS_CPUTIME_ID is always available on Linux"
    );
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// One CPU's `/proc/stat` counters (in clock ticks).
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTicks {
    /// Ticks the hypervisor ran someone else while this vCPU wanted to run.
    pub steal: u64,
    /// All ticks: user, nice, system, idle, iowait, irq, softirq, steal.
    pub total: u64,
}

/// Read `cpu`'s line of `/proc/stat`; `None` where the file or line is
/// missing (the steal share is a diagnostic, never a gate).
pub fn cpu_ticks(cpu: usize) -> Option<CpuTicks> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    parse_cpu_ticks(&stat, cpu)
}

fn parse_cpu_ticks(stat: &str, cpu: usize) -> Option<CpuTicks> {
    let label = format!("cpu{cpu}");
    let line = stat
        .lines()
        .find(|l| l.split_whitespace().next() == Some(label.as_str()))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    if fields.len() < 8 {
        return None;
    }
    Some(CpuTicks {
        steal: fields[7],
        total: fields.iter().sum(),
    })
}

/// Share of `cpu`'s ticks between two readings that went to steal.
pub fn steal_share(before: Option<CpuTicks>, after: Option<CpuTicks>) -> Option<f64> {
    let (b, a) = (before?, after?);
    let total = a.total.checked_sub(b.total)?;
    let steal = a.steal.checked_sub(b.steal)?;
    (total > 0).then(|| steal as f64 / total as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_steal_column_of_one_cpu() {
        let stat = "cpu  10 0 10 100 0 0 0 5 0 0\n\
                    cpu0 1 2 3 4 5 6 7 8 9 10\n\
                    cpu1 10 0 0 80 0 0 0 10 0 0\n";
        let t = parse_cpu_ticks(stat, 1).unwrap();
        assert_eq!((t.steal, t.total), (10, 100));
        let t0 = parse_cpu_ticks(stat, 0).unwrap();
        assert_eq!((t0.steal, t0.total), (8, 36));
        assert!(parse_cpu_ticks(stat, 2).is_none());
        let share = steal_share(
            Some(CpuTicks { steal: 0, total: 0 }),
            Some(CpuTicks {
                steal: 5,
                total: 50,
            }),
        );
        assert_eq!(share, Some(0.1));
    }

    #[test]
    fn affinity_round_trips() {
        let cpus = allowed_cpus().unwrap();
        assert!(!cpus.is_empty());
    }
}
