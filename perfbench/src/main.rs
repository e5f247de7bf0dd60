//! The repository benchmark: four workloads driven through the public
//! library APIs of `noc-sim`, `rl` and `noc_selfconf`.
//!
//! ```text
//! perfbench --workload <fabric|sweep|serve|train> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the named workload runs for `--seconds` and the
//! end-to-end metrics are printed. With `--trace 1` every layer's traced
//! mirror runs (whichever workload is named) and the per-layer metrics
//! are printed. Either way the last stdout line is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. See `README.md` beside
//! this package.

mod common;
mod fabric;
mod serve;
mod sweep;
mod train;

use common::{peak_rss_mb, Outcome};
use std::path::PathBuf;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = ["fabric", "sweep", "serve", "train"];

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    /// Workload name.
    workload: String,
    /// Workload seed: every generated input derives from it.
    seed: u64,
    /// Measured time of an untraced run (a traced run scales its fixed
    /// amounts of work with it).
    seconds: f64,
    /// Whether this is the traced per-layer run.
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload `{value}`"));
                }
                workload = Some(value.clone());
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("bad --seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("bad --seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                });
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Run one benchmark invocation.
fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let (seed, seconds) = (args.seed, args.seconds);
    if args.trace {
        let chunks = (seconds / 2.0).ceil().clamp(1.0, 6.0) as usize;
        let episodes = (seconds * 4.0).clamp(5.0, 40.0) as usize;
        fabric::trace(seed, chunks, &mut out);
        sweep::trace(seed, &mut out);
        serve::trace(seed, seconds / 4.0, &mut out);
        train::trace(seed, episodes, &mut out);
    } else {
        match args.workload.as_str() {
            "fabric" => fabric::run(seed, seconds, &mut out),
            "sweep" => sweep::run(seed, seconds, &mut out),
            "serve" => serve::run(seed, seconds, &mut out),
            "train" => train::run(seed, seconds, &mut out),
            other => unreachable!("workload `{other}` was validated at parse time"),
        }
        let rss = peak_rss_mb();
        out.check(rss.is_some(), "peak RSS is readable from /proc/self/status");
        out.metric("peak_rss_mb", rss.unwrap_or(0.0), "MB");
    }
    out
}

/// Where digests of earlier runs of this very binary are kept: beside the
/// executable, keyed by a hash of its bytes, so a rebuilt program starts a
/// fresh record.
fn digest_dir() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let bytes = std::fs::read(&exe).ok()?;
    let id = common::fnv1a(0xCBF2_9CE4_8422_2325, &bytes);
    Some(
        exe.parent()?
            .join("perfbench-digests")
            .join(format!("{id:016x}")),
    )
}

/// Compare this run's digest with the one recorded by an earlier run of
/// the same binary, workload, seed and mode, recording it if there is none.
/// Returns whether they agree.
fn check_digest(dir: &std::path::Path, key: &str, digest: u64) -> bool {
    let path = dir.join(format!("{key}.txt"));
    let now = format!("{digest:016x}");
    match std::fs::read_to_string(&path) {
        Ok(earlier) => earlier.trim() == now,
        Err(_) => {
            // A failed write only loses the cross-run comparison.
            let _ = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, &now));
            true
        }
    }
}

/// The result object: the last line of standard output.
fn render(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                serde_json::to_string(&m.name).expect("string serializes"),
                m.value,
                serde_json::to_string(m.unit).expect("string serializes")
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let mut out = run(&args);
    let mut bad = Vec::new();
    for m in &mut out.metrics {
        if !m.value.is_finite() {
            bad.push(format!("metric {} is finite", m.name));
            m.value = 0.0;
        }
    }
    for what in bad {
        out.check(false, &what);
    }
    let digest = out.digest.value();
    let key = format!("{}-{}-t{}", args.workload, args.seed, u8::from(args.trace));
    let same = digest_dir().is_some_and(|dir| check_digest(&dir, &key, digest));
    out.check(same, "digest matches earlier runs of this binary and seed");
    println!("model: unvalidated (the repository holds no hardware reference; no accuracy figure)");
    println!("digest {key}: {digest:016x}");
    for line in &out.notes {
        println!("{line}");
    }
    println!("{}", render(&out));
}

#[cfg(test)]
mod tests;
