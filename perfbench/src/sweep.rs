//! `sweep`: `SweepGrid::run` over ~70 short warmup/measure/drain scenarios
//! on `nproc` threads, then the report serialized as `sweep-grid --out`
//! writes it. Many small fabrics, drain phases, and scenario fan-out
//! through `par::parallel_map`.

use crate::common::{median, nproc, quantile, secs, timed_setups, Outcome};
use noc_selfconf::{parallel_map, ScenarioResult, SweepGrid, SweepReport};
use noc_sim::{RoutingAlgorithm, SimConfig, Simulator, TrafficPattern};
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

/// The grid: 4x4 and 8x8 meshes × uniform, transpose and bit-complement
/// traffic × three rates from idle to near saturation × XY and odd-even
/// routing × 0 and 2 link faults (72 scenarios).
pub fn grid(seed: u64) -> SweepGrid {
    SweepGrid {
        base: SimConfig::default(),
        sizes: vec![(4, 4), (8, 8)],
        patterns: vec![
            TrafficPattern::Uniform,
            TrafficPattern::Transpose,
            TrafficPattern::BitComplement,
        ],
        rates: vec![0.01, 0.10, 0.20],
        routings: vec![RoutingAlgorithm::Xy, RoutingAlgorithm::OddEven],
        faults: vec![0, 2],
        warmup: 200,
        measure: 600,
        drain: 600,
        base_seed: seed,
        ..SweepGrid::default()
    }
}

/// The report as `noc-cli sweep-grid --out` writes it.
pub fn report_json(report: &SweepReport) -> String {
    serde_json::to_string_pretty(report).expect("report serializes")
}

/// The untraced `sweep` run.
pub fn run(seed: u64, seconds: f64, out: &mut Outcome) {
    let grid = grid(seed);
    let threads = nproc();
    // Timed set-ups (grid expansion and validation) before every grid run,
    // so they span the whole run as the operations do.
    let mut setup = Vec::new();
    let mut set_up = |out: &mut Outcome| {
        let (scenarios, valid) = timed_setups(&mut setup, || {
            (grid.scenarios().len(), grid.validate().is_ok())
        });
        out.check(valid, "sweep: grid validates");
        scenarios
    };
    let scenarios = set_up(out);

    let mut op_ms = Vec::new();
    let mut rates = Vec::new();
    let mut first: Option<String> = None;
    let mut timed = 0.0;
    while op_ms.is_empty() || timed < seconds {
        set_up(out);
        let t0 = Instant::now();
        let report = grid.run(threads);
        let json = report.as_ref().map(report_json);
        let dt = secs(t0);
        let ok = match (&json, &first) {
            (Ok(json), Some(first)) => json == first,
            (Ok(_), None) => true,
            (Err(_), _) => false,
        };
        out.check(
            ok,
            "sweep: run succeeds with the same report bytes as the first",
        );
        if op_ms.is_empty() {
            first = json.ok();
        }
        op_ms.push(dt * 1e3);
        rates.push(scenarios as f64 / dt);
        timed += dt;
    }
    let first = first.unwrap_or_default();
    out.digest.add(first.as_bytes());
    // Thread-count independence: the serial run must produce the same bytes.
    let serial = grid
        .run_serial()
        .map(|r| report_json(&r))
        .unwrap_or_default();
    out.check_same(
        first.as_bytes(),
        serial.as_bytes(),
        "sweep: parallel report differs from the serial one",
    );
    out.note(format!(
        "sweep: {} grid runs of {scenarios} scenarios on {threads} threads; work_per_s is \
         scenarios_per_s",
        op_ms.len()
    ));
    out.median_metric("setup_s", &setup, "s");
    out.sustained_metric("work_per_s", &rates, "1/s");
    out.tail_metric("op_tail_ms", &op_ms, "ms");
}

/// Per-scenario timing from the traced mirror.
struct ScenarioSpan {
    new_s: f64,
    run_s: f64,
    drain_cycles: u64,
}

/// The traced `sweep` layer run: `SweepGrid::run` mirrored through
/// `parallel_map`, `Simulator::new`, `run_classic` and
/// `report_from_results`, checked byte for byte against the untraced run.
pub fn trace(seed: u64, out: &mut Outcome) {
    let grid = grid(seed);
    let threads = nproc();
    let t0 = Instant::now();
    let untraced = grid
        .run(threads)
        .map(|r| report_json(&r))
        .unwrap_or_default();
    let untraced_s = secs(t0);

    let scenarios = grid.scenarios();
    let wall = Instant::now();
    // Per worker thread: when it finished its last scenario.
    let last_end: Mutex<HashMap<std::thread::ThreadId, f64>> = Mutex::new(HashMap::new());
    let results: Vec<(ScenarioResult, ScenarioSpan)> =
        parallel_map(scenarios.len(), threads, |i| {
            let scenario = &scenarios[i];
            let t0 = Instant::now();
            let mut sim =
                Simulator::new(scenario.config.clone()).expect("benchmark scenarios are valid");
            let new_s = secs(t0);
            if let Some(level) = scenario.level {
                sim.set_all_levels(level)
                    .expect("benchmark levels are valid");
            }
            let t1 = Instant::now();
            let summary = sim.run_classic(grid.warmup, grid.measure, grid.drain);
            let run_s = secs(t1);
            last_end
                .lock()
                .expect("no panics while holding the span lock")
                .insert(std::thread::current().id(), secs(wall));
            let result = ScenarioResult {
                index: scenario.index,
                label: scenario.label.clone(),
                seed: scenario.config.seed,
                saturated: summary.saturated,
                unfinished_packets: summary.unfinished_packets,
                metrics: summary.window,
            };
            let drain_cycles = sim.cycle() - grid.warmup - grid.measure;
            (
                result,
                ScenarioSpan {
                    new_s,
                    run_s,
                    drain_cycles,
                },
            )
        });
    let par_s = secs(wall);
    let (results, spans): (Vec<_>, Vec<_>) = results.into_iter().unzip();
    let report = grid.report_from_results(results, threads.clamp(1, scenarios.len().max(1)));
    let t_json = Instant::now();
    let traced = report_json(&report);
    let json_ms = secs(t_json) * 1e3;
    let wall_s = secs(wall);
    let first_idle = last_end
        .into_inner()
        .expect("no panics while holding the span lock")
        .into_values()
        .fold(f64::INFINITY, f64::min);

    out.check_same(
        untraced.as_bytes(),
        traced.as_bytes(),
        "sweep trace: mirrored report differs from SweepGrid::run",
    );
    out.digest.add(traced.as_bytes());
    let new_us: Vec<f64> = spans.iter().map(|s| s.new_s * 1e6).collect();
    let run_ms: Vec<f64> = spans.iter().map(|s| s.run_s * 1e3).collect();
    let busy: f64 = spans.iter().map(|s| s.new_s + s.run_s).sum();
    out.metric("sim.new_us.p50", median(&new_us), "us");
    out.metric("sim.run_classic_ms.p50", median(&run_ms), "ms");
    out.metric("sim.run_classic_ms.max", quantile(&run_ms, 1.0), "ms");
    out.metric(
        "sim.drain_cycles",
        spans.iter().map(|s| s.drain_cycles).sum::<u64>() as f64,
        "count",
    );
    out.metric("par.busy_ratio", busy / (threads as f64 * par_s), "ratio");
    out.metric("par.tail_ms", (par_s - first_idle) * 1e3, "ms");
    out.metric("sweep.report_json_ms", json_ms, "ms");
    out.note(format!(
        "sweep trace: untraced {untraced_s:.3} s, traced {wall_s:.3} s, overhead {:.3} s",
        wall_s - untraced_s
    ));
}
