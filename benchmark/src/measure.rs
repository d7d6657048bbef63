//! Host measurements and output checks.

/// Linux reports process CPU time in clock ticks of 1/100 s (`USER_HZ`).
const CLOCK_TICKS_PER_S: f64 = 100.0;

/// The `q`-quantile (`0..=1`) of `values`, interpolating linearly between
/// the closest ranks.
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least one sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let position = q * (sorted.len() - 1) as f64;
    let low = position.floor() as usize;
    let high = position.ceil() as usize;
    sorted[low] + (sorted[high] - sorted[low]) * (position - low as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// CPU time of the whole process (every thread, user plus system) in
/// seconds, from `/proc/self/stat`; `None` where that file is unreadable.
pub fn process_cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name start at field 3
    // (`state`); `utime` and `stime` are fields 14 and 15.
    let rest = stat.get(stat.rfind(')')? + 2..)?;
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / CLOCK_TICKS_PER_S)
}

/// Peak resident memory of the process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("bad VmHWM `{line}`: {e}"))?;
    Ok(kib / 1024.0)
}

/// glibc's `cpu_set_t`: a bit mask of 1024 CPUs.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Restricts the calling thread to the CPUs in `mask`.
fn set_affinity(mask: &CpuSet) -> Result<(), String> {
    // SAFETY: `mask` is a whole `cpu_set_t`; pid 0 is the calling thread.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask) } != 0 {
        return Err(format!("sched_setaffinity: {}", std::io::Error::last_os_error()));
    }
    Ok(())
}

/// Pins the calling thread to the CPUs it may use, one after another, and
/// gives it all of them back when dropped.
pub struct CpuRotation {
    allowed: CpuSet,
    cpus: Vec<usize>,
}

impl CpuRotation {
    /// Reads the CPUs the calling thread may use.
    pub fn new() -> Result<Self, String> {
        let mut allowed = [0; 16];
        // SAFETY: `allowed` is a whole, writable `cpu_set_t`; pid 0 is the
        // calling thread.
        if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) } != 0 {
            return Err(format!("sched_getaffinity: {}", std::io::Error::last_os_error()));
        }
        let cpus: Vec<usize> =
            (0..1024).filter(|&cpu| allowed[cpu / 64] >> (cpu % 64) & 1 == 1).collect();
        if cpus.is_empty() {
            return Err("sched_getaffinity allows no CPU".to_string());
        }
        Ok(Self { allowed, cpus })
    }

    /// Pins the calling thread to the `turn`-th allowed CPU, cyclically.
    pub fn pin(&self, turn: usize) -> Result<(), String> {
        let cpu = self.cpus[turn % self.cpus.len()];
        let mut mask = [0; 16];
        mask[cpu / 64] = 1 << (cpu % 64);
        set_affinity(&mask)
    }
}

impl Drop for CpuRotation {
    fn drop(&mut self) {
        let _ = set_affinity(&self.allowed);
    }
}

/// Output checks: how many were attempted, and what each failure was, plus
/// informational notes that are not gated.
#[derive(Debug, Default)]
pub struct Checks {
    attempted: u64,
    failures: Vec<String>,
    notes: Vec<String>,
}

impl Checks {
    /// Adds an informational line to the report.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The informational lines.
    pub fn notes(&self) -> &[String] {
        &self.notes
    }

    /// Records one check; `what` describes the failure when `ok` is false.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Checks attempted.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// The failed checks, described.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let values = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&values), 3.0);
        assert_eq!(quantile(&values, 0.0), 1.0);
        assert_eq!(quantile(&values, 1.0), 5.0);
        assert!((quantile(&values, 0.9) - 4.6).abs() < 1e-12);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
    }

    #[test]
    fn rotation_pins_each_allowed_cpu_and_restores_the_mask() {
        let before = CpuRotation::new().expect("affinity readable");
        let rotation = CpuRotation::new().expect("affinity readable");
        for turn in 0..rotation.cpus.len() {
            rotation.pin(turn).expect("pin to an allowed CPU");
            let pinned = CpuRotation::new().expect("affinity readable");
            assert_eq!(pinned.cpus, [rotation.cpus[turn]]);
        }
        drop(rotation);
        assert_eq!(CpuRotation::new().expect("affinity readable").cpus, before.cpus);
    }

    #[test]
    fn proc_measurements_are_positive() {
        assert!(peak_rss_mb().expect("VmHWM readable") > 0.0);
        assert!(process_cpu_s().expect("stat readable") >= 0.0);
    }
}
