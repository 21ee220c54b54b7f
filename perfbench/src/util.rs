//! Seeded randomness, order statistics, process probes and the result
//! record shared by the workloads.

use serde::Value;
use std::time::Instant;

/// SplitMix64: a small, fast generator whose stream is a pure function of
/// the seed, so the same `--seed` always yields the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf(`s`) over ranks `0..n` by inverse-CDF lookup.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += (k as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Quantile `q` of `values` by linear interpolation between order
/// statistics (the "type 7" estimator); `values` need not be sorted.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of no samples");
    values.iter().sum::<f64>() / values.len() as f64
}

/// Seconds elapsed since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// A field of `/proc/<pid>/status` in kB (e.g. `VmHWM`, the peak resident
/// set size).
pub fn proc_status_kb(pid: &str, field: &str) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// Peak resident set size of a process in MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    proc_status_kb(pid, "VmHWM").map(|kb| kb / 1024.0)
}

/// User plus system CPU seconds of a whole process (all its threads,
/// exited ones included), from `/proc/<pid>/stat`.  Linux reports these in
/// clock ticks of 1/100 s on every mainstream architecture.
pub fn proc_cpu_s(pid: u32) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name may contain spaces; fields resume after its ')'.
    let rest = &text[text.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the full line, i.e. 11 and
    // 12 after the state field that starts `rest`.
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// CPU time the hypervisor gave to other guests while this machine's
/// cores wanted to run ("steal", summed over all cores), in clock ticks of
/// 1/100 s, from `/proc/stat`; 0 where the kernel does not report it.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|t| {
            let cpu = t.lines().next()?;
            cpu.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0)
}

/// A set of CPUs as the kernel's affinity bit mask (CPUs 0..1024).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuMask([u64; 16]);

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
}

impl CpuMask {
    pub fn of(cpus: &[usize]) -> CpuMask {
        let mut mask = [0u64; 16];
        for &c in cpus.iter().filter(|&&c| c < 64 * 16) {
            mask[c / 64] |= 1 << (c % 64);
        }
        CpuMask(mask)
    }

    /// The CPUs the calling thread may run on (empty if the kernel does
    /// not say).
    pub fn current() -> CpuMask {
        let mut mask = [0u64; 16];
        // SAFETY: `mask` is a live, writable array whose byte size is the
        // `cpusetsize` passed; pid 0 names the calling thread.
        let ok = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        CpuMask(if ok >= 0 { mask } else { [0; 16] })
    }

    pub fn cpus(&self) -> Vec<usize> {
        (0..64 * self.0.len())
            .filter(|&c| self.0[c / 64] & (1 << (c % 64)) != 0)
            .collect()
    }

    /// Restrict the calling thread to this set; threads and processes it
    /// starts afterwards inherit it.  Returns whether the kernel accepted
    /// the set.
    pub fn apply(&self) -> bool {
        self.apply_to(0)
    }

    /// Restrict thread `tid` (0: the calling thread) to this set.
    pub fn apply_to(&self, tid: i32) -> bool {
        // SAFETY: `self.0` is a live, initialised array whose byte size is
        // the `cpusetsize` passed, and the kernel only reads it.
        unsafe { sched_setaffinity(tid, std::mem::size_of_val(&self.0), self.0.as_ptr()) == 0 }
    }
}

/// Keeps the calling thread on a set of CPUs until dropped, then restores
/// the set it had before, so nothing started afterwards inherits the pin.
pub struct Pinned {
    previous: CpuMask,
}

impl Pinned {
    pub fn to(cpus: &[usize]) -> Pinned {
        let previous = CpuMask::current();
        CpuMask::of(cpus).apply();
        Pinned { previous }
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        self.previous.apply();
    }
}

/// Block until one of the file descriptors `fds` is readable or `timeout`
/// seconds (`None`: forever) have passed, with the kernel's high-resolution
/// timer (`ppoll`) rather than the scheduler tick.
pub fn wait_readable(fds: &[i32], timeout: Option<f64>) {
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    }
    const POLLIN: i16 = 1;
    let mut polled: Vec<PollFd> = fds
        .iter()
        .map(|&fd| PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        })
        .collect();
    let ts = timeout.map(|t| Timespec {
        tv_sec: t.trunc() as i64,
        tv_nsec: (t.fract() * 1e9) as i64,
    });
    let ts_ptr = ts
        .as_ref()
        .map_or(std::ptr::null(), |t| t as *const Timespec);
    // SAFETY: `polled` is a live array of `nfds` initialised `pollfd`
    // records (the layout of the C struct on Linux), `ts_ptr` is null or
    // points at a live `timespec` (two 64-bit fields on 64-bit Linux), and
    // a null signal mask leaves the mask unchanged.  The kernel writes only
    // the `revents` fields.  An error return (e.g. EINTR) just ends the
    // wait early; callers re-check their sockets.
    unsafe {
        ppoll(
            polled.as_mut_ptr(),
            polled.len() as u64,
            ts_ptr,
            std::ptr::null(),
        );
    }
}

/// What one workload run reports: the correctness verdict, attempted and
/// failed operation counts, named metrics with units, and context lines.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks (empty when every output is correct).
    pub errors: Vec<String>,
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Context printed beside the metrics: sample counts, exact counters,
    /// the named figures printed beside the gated metrics, trace accounting.
    pub info: Vec<(String, Value)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn info(&mut self, name: &str, value: impl Into<InfoValue>) {
        self.info.push((name.to_string(), value.into().0));
    }

    /// Record a correctness check; a failing one marks the run incorrect.
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        if let Err(e) = result {
            self.errors.push(format!("{what}: {e}"));
        }
    }

    pub fn to_json(&self, workload: &str) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    Value::Map(vec![
                        ("value".into(), Value::Float(*value)),
                        ("unit".into(), Value::Str((*unit).into())),
                    ]),
                )
            })
            .collect();
        let v = Value::Map(vec![
            ("workload".into(), Value::Str(workload.into())),
            ("correct".into(), Value::Bool(self.errors.is_empty())),
            ("attempted".into(), Value::UInt(self.attempted)),
            ("failed".into(), Value::UInt(self.failed)),
            ("metrics".into(), Value::Map(metrics)),
            ("info".into(), Value::Map(self.info.clone())),
            (
                "errors".into(),
                Value::Seq(self.errors.iter().cloned().map(Value::Str).collect()),
            ),
        ]);
        serde_json::to_string(&v).expect("serialize outcome")
    }
}

/// Conversion into a JSON value for [`Outcome::info`].
pub struct InfoValue(Value);

impl From<f64> for InfoValue {
    fn from(v: f64) -> Self {
        InfoValue(Value::Float(v))
    }
}

impl From<u64> for InfoValue {
    fn from(v: u64) -> Self {
        InfoValue(Value::UInt(v))
    }
}

impl From<usize> for InfoValue {
    fn from(v: usize) -> Self {
        InfoValue(Value::UInt(v as u64))
    }
}

impl From<&str> for InfoValue {
    fn from(v: &str) -> Self {
        InfoValue(Value::Str(v.into()))
    }
}

impl From<String> for InfoValue {
    fn from(v: String) -> Self {
        InfoValue(Value::Str(v))
    }
}

impl From<Value> for InfoValue {
    fn from(v: Value) -> Self {
        InfoValue(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7, 1);
            (0..5).map(|_| r.next_u64()).collect()
        };
        let mut r = Rng::new(7, 1);
        assert!(a.iter().all(|&x| x == r.next_u64()));
        assert_ne!(Rng::new(8, 1).next_u64(), a[0]);
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
    }

    #[test]
    fn cpu_mask_round_trips_and_a_pin_is_undone_on_drop() {
        assert_eq!(CpuMask::of(&[0, 3, 70]).cpus(), vec![0, 3, 70]);
        let before = CpuMask::current();
        let cpus = before.cpus();
        assert!(!cpus.is_empty());
        {
            let _pin = Pinned::to(&cpus[..1]);
            assert_eq!(CpuMask::current().cpus(), cpus[..1].to_vec());
        }
        assert_eq!(CpuMask::current(), before);
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(100, 1.0);
        let mut r = Rng::new(1, 2);
        let draws: Vec<usize> = (0..10_000).map(|_| z.sample(&mut r)).collect();
        let top = draws.iter().filter(|&&d| d == 0).count();
        let tail = draws.iter().filter(|&&d| d == 99).count();
        assert!(top > 10 * tail.max(1), "rank 0: {top}, rank 99: {tail}");
        assert!(draws.iter().all(|&d| d < 100));
    }
}
