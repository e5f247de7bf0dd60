//! The benchmark's own tests. Run them optimized, as the benchmark runs:
//! `cargo test --release --offline --manifest-path perfbench/Cargo.toml`.

use super::*;
use serve::Kind;

/// `(name, unit)` of every metric `BENCHMARK.json` declares in `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let json = serde_json::parse(&text).expect("BENCHMARK.json parses");
    json.get(section)
        .and_then(|v| v.as_seq())
        .expect("section is a list")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(|v| v.as_str())
                    .expect("string field")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn printed(out: &Outcome) -> Vec<(String, String)> {
    out.metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

fn tiny(workload: &str, trace: bool) -> Args {
    Args {
        workload: workload.to_string(),
        seed: 7,
        seconds: 0.05,
        trace,
    }
}

#[test]
fn every_workload_prints_every_end_to_end_metric_with_its_unit() {
    let expected = declared("end_to_end");
    for workload in WORKLOADS {
        let out = run(&tiny(workload, false));
        assert_eq!(printed(&out), expected, "workload {workload}");
        assert!(out.attempted > 0, "workload {workload} attempted nothing");
        assert_eq!(out.failed, 0, "workload {workload} failed a check");
        assert!(
            out.metrics.iter().all(|m| m.value > 0.0),
            "{workload}: {:?}",
            out.metrics
        );
    }
}

#[test]
fn the_traced_run_prints_every_per_layer_metric_with_its_unit() {
    let out = run(&tiny("fabric", true));
    let (mut got, mut want) = (printed(&out), declared("per_layer"));
    got.sort();
    want.sort();
    assert_eq!(got, want);
    assert_eq!(out.failed, 0);
}

#[test]
fn a_changed_digest_counts_as_a_failure() {
    let dir = std::env::current_exe()
        .expect("test binary path")
        .parent()
        .expect("test binary directory")
        .join("perfbench-digest-test");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(check_digest(&dir, "fabric-1-t0", 0xAB), "first run records");
    assert!(
        check_digest(&dir, "fabric-1-t0", 0xAB),
        "same digest agrees"
    );
    assert!(
        !check_digest(&dir, "fabric-1-t0", 0xAC),
        "changed digest disagrees"
    );
    std::fs::remove_dir_all(&dir).expect("test directory is removable");
}

#[test]
fn a_corrupted_report_is_counted_in_the_result() {
    let grid = sweep::grid(3);
    let good = sweep::report_json(&grid.run(1).expect("grid runs"));
    let corrupted = good.replacen("\"saturated\": false", "\"saturated\": true", 1);
    assert_ne!(good, corrupted);
    let mut out = Outcome::default();
    out.check_same(good.as_bytes(), good.as_bytes(), "same report");
    out.check_same(good.as_bytes(), corrupted.as_bytes(), "corrupted report");
    assert_eq!((out.attempted, out.failed), (2, 1));
    let line = render(&out);
    assert!(line.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
}

#[test]
fn serve_job_kinds_keep_the_median_job_inside_the_fresh_kind() {
    let mut histories = [serve::History::default(), serve::History::default()];
    let mut counts = std::collections::HashMap::new();
    let rounds = 2000;
    for round in 0..rounds {
        for (c, h) in histories.iter_mut().enumerate() {
            let (kind, grid) = serve::next_job(11, round, c as u64, h);
            assert!(
                grid.validate().is_ok(),
                "round {round}: {kind:?} grid is valid"
            );
            *counts.entry(kind).or_insert(0) += 1;
        }
    }
    let share = |k| f64::from(counts[&k]) / (2 * rounds) as f64;
    for kind in [Kind::Resubmit, Kind::Shared, Kind::Fresh, Kind::Append] {
        assert!(
            (0.1..0.4).contains(&share(kind)),
            "{kind:?} is {} of jobs",
            share(kind)
        );
    }
    // Kinds in order of cost: the median job must be a fresh one.
    let below = share(Kind::Resubmit) + share(Kind::Shared);
    assert!(
        below < 0.42 && below + share(Kind::Fresh) > 0.58,
        "{counts:?}"
    );
}

#[test]
fn arguments_parse_and_reject() {
    let argv = |s: &str| s.split(' ').map(str::to_string).collect::<Vec<_>>();
    assert_eq!(
        parse_args(&argv("--workload serve --seed 4 --seconds 10 --trace 1")),
        Ok(Args {
            workload: "serve".to_string(),
            seed: 4,
            seconds: 10.0,
            trace: true
        })
    );
    assert!(parse_args(&argv("--workload nope --seed 4 --seconds 10 --trace 0")).is_err());
    assert!(parse_args(&argv("--workload sweep --seed 4 --seconds 0 --trace 0")).is_err());
    assert!(parse_args(&argv("--workload sweep --seed 4 --seconds 1")).is_err());
}
