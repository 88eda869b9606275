//! Host-side measurement primitives: the benchmark's only wall-clock read,
//! its peak-memory probe, and the allocator settings host time is measured
//! under. None of them ever reaches simulation state or a digest.

/// A running wall-clock stopwatch.
#[derive(Debug, Clone, Copy)]
// lmp-lint: allow(wall-clock) — the benchmark measures host time per pool op; wall time never enters simulation state or digests
pub struct Stopwatch(std::time::Instant);

/// Start a stopwatch. Every host-time number the benchmark reports goes
/// through here.
pub fn start() -> Stopwatch {
    // lmp-lint: allow(wall-clock) — the measurement primitive itself; see fn doc
    Stopwatch(std::time::Instant::now())
}

impl Stopwatch {
    /// Nanoseconds since the stopwatch started.
    pub fn ns(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Seconds since the stopwatch started.
    pub fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// Peak resident memory of this process in MiB (`VmHWM`), or `None` where
/// `/proc/self/status` does not report it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

// glibc `mallopt` parameter codes (malloc.h).
const M_TRIM_THRESHOLD: i32 = -1;
const M_MMAP_THRESHOLD: i32 = -3;

extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Serve every allocation below 32 MiB from the heap and never return freed
/// heap to the kernel. With glibc's defaults the mmap threshold moves with
/// the largest block freed so far, so whether a 2 MiB frame costs page
/// faults or a memset depended on the seed's allocation history; pinned,
/// episodes after the first reuse warm memory and set-up time stops being
/// bimodal across seeds.
pub fn pin_allocator() {
    // SAFETY: `mallopt` only changes allocator tunables. It is called once,
    // from `main` before any other thread exists, with parameter codes and
    // values glibc documents as valid; on failure it returns 0 and leaves
    // the defaults in place, which only costs steadiness.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
    }
}
