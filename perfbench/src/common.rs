//! What every workload shares: sample statistics, the correctness-check
//! ledger, output digests, and the metric list a run prints.

use std::time::Instant;

/// SplitMix64 finalizer: derives decorrelated sub-seeds from the workload
/// seed, so every generated input is a pure function of `--seed`.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over `bytes`, continuing from `state`.
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    let mut h = state;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Incremental digest of simulated outputs, in the order they are added.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Fold one output's bytes (length-prefixed, so boundaries count).
    pub fn add(&mut self, bytes: &[u8]) {
        self.0 = fnv1a(self.0, &(bytes.len() as u64).to_le_bytes());
        self.0 = fnv1a(self.0, bytes);
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Set-ups timed back to back at each point of a run where set-up time is
/// sampled. The first of them runs cold, after the operation before it,
/// and is left out: cold set-ups slowed by up to 40% between two sets of
/// runs on a host that slowed by 10%.
pub const SETUP_BURST: usize = 3;

/// Run `build` [`SETUP_BURST`] times back to back, push the warm timings
/// onto `samples` and return the last result (the others are dropped
/// untimed).
pub fn timed_setups<T>(samples: &mut Vec<f64>, mut build: impl FnMut() -> T) -> T {
    let mut last = None;
    for i in 0..SETUP_BURST {
        let t0 = Instant::now();
        let built = build();
        if i > 0 {
            samples.push(secs(t0));
        }
        last = Some(built);
    }
    last.expect("a burst holds at least one set-up")
}

/// Seconds since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Sorted copy of `xs` (NaN-free by construction: all inputs are timings
/// or ratios of positive counts).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linearly interpolated quantile `q` in `[0, 1]` of a non-empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let v = sorted(xs);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The highest percentile with at least ten samples beyond it, capped at
/// p95, as `(percentile, value)`. Below 21 samples no percentile above the
/// median qualifies; the median is returned then, and the maximum below
/// two samples.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    // Nearest-rank p95 index, or the rank leaving exactly ten above it,
    // but never below the median's rank.
    let idx = ((0.95 * n as f64).ceil() as usize - 1)
        .min(n.saturating_sub(11))
        .max((n - 1) / 2);
    (100.0 * (idx + 1) as f64 / n as f64, v[idx])
}

/// The lowest percentile with at least ten samples below it, floored at
/// p5, as `(percentile, value)`: [`tail`] mirrored, for rates.
pub fn sustained(xs: &[f64]) -> (f64, f64) {
    let negated: Vec<f64> = xs.iter().map(|x| -x).collect();
    let (pct, value) = tail(&negated);
    (100.0 - pct, -value)
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as declared in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Collects a run's metrics and correctness checks.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Operations and checks that failed.
    pub failed: u64,
    /// Digest of every simulated output the run compares across runs.
    pub digest: Digest,
    /// Human-readable lines printed before the result object.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Record a timed sample set as its median, with quartiles and sample
    /// count noted.
    pub fn median_metric(&mut self, name: &str, samples: &[f64], unit: &'static str) {
        let (q1, q3) = (quantile(samples, 0.25), quantile(samples, 0.75));
        let m = median(samples);
        self.note(format!(
            "{name}: median {m:.6} {unit} (q1 {q1:.6}, q3 {q3:.6}, n={})",
            samples.len()
        ));
        self.metric(name, m, unit);
    }

    /// Record the rate all but the slowest operations sustain: the mirror
    /// image of [`tail`] over per-operation rates, with quartiles noted.
    pub fn sustained_metric(&mut self, name: &str, rates: &[f64], unit: &'static str) {
        let (pct, value) = sustained(rates);
        let (q1, q3) = (quantile(rates, 0.25), quantile(rates, 0.75));
        self.note(format!(
            "{name}: p{pct:.1} {value:.6} {unit} (q1 {q1:.6}, median {:.6}, q3 {q3:.6}, n={})",
            median(rates),
            rates.len()
        ));
        self.metric(name, value, unit);
    }

    /// Record the tail of a latency sample (see [`tail`]).
    pub fn tail_metric(&mut self, name: &str, samples: &[f64], unit: &'static str) {
        let (pct, value) = tail(samples);
        self.note(format!(
            "{name}: p{pct:.1} {value:.6} {unit} (n={}; at least 10 samples beyond from n=21)",
            samples.len()
        ));
        self.metric(name, value, unit);
    }

    /// Count one operation or check; a failure is reported on stderr.
    pub fn check(&mut self, ok: bool, what: &str) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
        ok
    }

    /// Count one byte-for-byte comparison.
    pub fn check_same(&mut self, expected: &[u8], got: &[u8], what: &str) -> bool {
        self.check(expected == got, what)
    }

    /// Add a line to the human-readable report.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Worker threads for the parallel workloads: one per available core.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_like_the_definition() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // p95 would leave only 5 above; the 90th value leaves exactly 10.
        assert_eq!(tail(&xs), (90.0, 90.0));
        let xs: Vec<f64> = (1..=400).map(f64::from).collect();
        assert_eq!(tail(&xs), (95.0, 380.0));
        assert_eq!(tail(&[3.0, 1.0, 2.0]), (200.0 / 3.0, 2.0));
        assert_eq!(tail(&[3.0]), (100.0, 3.0));
        let rates: Vec<f64> = (1..=400).map(f64::from).collect();
        assert_eq!(sustained(&rates), (5.0, 21.0));
    }

    #[test]
    fn failed_checks_are_counted() {
        let mut out = Outcome::default();
        assert!(out.check_same(b"report", b"report", "equal"));
        assert!(!out.check_same(b"report", b"rep0rt", "corrupted"));
        assert_eq!((out.attempted, out.failed), (2, 1));
    }
}
