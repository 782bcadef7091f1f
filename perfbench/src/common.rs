//! Shared pieces: the seeded generator, timing and order statistics,
//! peak memory, and the result record every workload fills in.

use std::time::{Duration, Instant};

/// splitmix64: a small seeded generator, so the inputs of a run depend
/// on `--seed` alone.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6D75_6C74_696D_6170)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A uniformly drawn coordinate of a grid with `extents`.
    pub fn coord(&mut self, extents: &[u64]) -> Vec<u64> {
        extents.iter().map(|&e| self.below(e)).collect()
    }
}

/// Wall seconds spent in `f`, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile of a non-empty sample (for wall times).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Exact nearest-rank quantile: the `⌈q·n⌉`-th smallest observation.
/// Used for simulated latencies, whose quantiles must repeat exactly.
pub fn rank_quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Distance between the first and third quartile.
pub fn iqr(values: &[f64]) -> f64 {
    quantile(values, 0.75) - quantile(values, 0.25)
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Run `pass` until `budget` has elapsed and at least `min_passes`
/// passes have run; returns each pass's result.
pub fn repeat_for<T>(
    budget: Duration,
    min_passes: usize,
    mut pass: impl FnMut(usize) -> T,
) -> Vec<T> {
    let started = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_passes || started.elapsed() < budget {
        out.push(pass(out.len()));
    }
    out
}

/// The correctness ledger of one run: operations attempted, and the
/// checks that failed (each failed check counts one failed operation).
#[derive(Debug, Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Ledger {
    /// Record one check; a false `ok` is a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("check failed: {msg}");
            self.failures.push(msg);
        }
    }

    /// Count operations attempted.
    pub fn ops(&mut self, n: u64) {
        self.attempted += n;
    }

    fn absorb(&mut self, other: Ledger) {
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
    }
}

/// Concurrent replicas of each pass of the serial workloads, one per
/// CPU of the 2-CPU host the benchmark is sized for. With the other CPU
/// idle, a serial pass's speed depended on what else the host ran on
/// it; two identical runs started together read within 3% of each
/// other.
pub const REPLICAS: usize = 2;

/// Run `f` once per replica, concurrently, each with a ledger of its
/// own that is folded into `ledger`. Results come back in replica order.
pub fn replicas<T: Send>(ledger: &mut Ledger, f: impl Fn(&mut Ledger) -> T + Sync) -> Vec<T> {
    let outs: Vec<(T, Ledger)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..REPLICAS)
            .map(|_| {
                scope.spawn(|| {
                    let mut own = Ledger::default();
                    (f(&mut own), own)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a replica panicked"))
            .collect()
    });
    outs.into_iter()
        .map(|(out, own)| {
            ledger.absorb(own);
            out
        })
        .collect()
}

/// Metrics of one run, in reporting order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

/// The last line of standard output: the result record.
pub fn result_json(ledger: &Ledger, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ledger.failures.is_empty(),
        ledger.attempted,
        ledger.failures.len(),
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(rank_quantile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
        assert_eq!(rank_quantile(&[1.0, 2.0, 3.0, 4.0], 0.99), 4.0);
        assert_eq!(iqr(&[1.0, 2.0, 3.0, 4.0, 5.0]), 2.0);
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..4)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a[0], Rng::new(8).next_u64());
    }
}
