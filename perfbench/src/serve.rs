//! `serve`: an in-process daemon on `127.0.0.1:0` with the in-memory cache
//! and `nproc` scheduler threads, driven closed loop by two clients. It is
//! the only workload where `core::serve` does real work: protocol,
//! admission, fair-share scheduling and the cache, with both cache reads
//! and writes in the mix.

use crate::common::{median, mix, nproc, secs, Outcome, SETUP_BURST};
use noc_selfconf::serve::{scenario_cache_key, Event, Request, SchedulerConfig};
use noc_selfconf::{Daemon, ServeClient, ServeConfig, SweepGrid, SweepReport};
use noc_sim::{RoutingAlgorithm, SimConfig, TrafficPattern};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

/// Concurrent clients (at most `nproc` on the reference host).
const CLIENTS: usize = 2;
/// Rounds every run completes whatever its length; their reports feed the
/// digest.
const DIGEST_ROUNDS: usize = 10;

/// The kind of one submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    /// A grid never submitted before: every scenario simulates.
    Fresh,
    /// The client's previous grid again: every scenario is a cache hit.
    Resubmit,
    /// One grid both clients submit in the same round: single-flight
    /// coalescing (or a hit for whichever arrives second).
    Shared,
    /// The client's last fresh grid with one entry appended to its
    /// outermost `sizes` axis: earlier scenarios keep their cache keys.
    Append,
}

/// A grid never seen before: one 8x8 mesh under uniform traffic at 0.10,
/// XY and odd-even routing, and a seed of its own. Its two scenarios take
/// longer to simulate than the client's round trip, so simulation time
/// shows in job latency; every fresh grid costs about the same, so the
/// fresh jobs form one latency mode.
fn fresh_grid(h: u64) -> SweepGrid {
    SweepGrid {
        base: SimConfig::default(),
        sizes: vec![(8, 8)],
        patterns: vec![TrafficPattern::Uniform],
        rates: vec![0.10],
        routings: vec![RoutingAlgorithm::Xy, RoutingAlgorithm::OddEven],
        warmup: 400,
        measure: 4000,
        drain: 2000,
        base_seed: mix(h, 0x5EED),
        ..SweepGrid::default()
    }
}

/// One client's submission history.
#[derive(Debug, Default)]
pub struct History {
    last: Option<SweepGrid>,
    last_fresh: Option<SweepGrid>,
}

/// Round kinds per block of rounds, in order of job cost: resubmit (4),
/// shared (3), fresh (7), append (6). Every block holds exactly this mix
/// in a seeded order, so the mix of a run barely depends on the seed, and
/// the median job falls inside the fresh kind (35% to 70% of jobs), well
/// away from its edges.
const BLOCK: [Kind; 20] = {
    use Kind::*;
    [
        Resubmit, Resubmit, Resubmit, Resubmit, Shared, Shared, Shared, Fresh, Fresh, Fresh, Fresh,
        Fresh, Fresh, Fresh, Append, Append, Append, Append, Append, Append,
    ]
};

/// The kind of round `round`: its slot in a seeded shuffle of its block.
fn round_kind(seed: u64, round: u64) -> Kind {
    let n = BLOCK.len() as u64;
    let block_seed = mix(seed ^ 0xB10C, round / n);
    let mut order = BLOCK;
    for i in (1..order.len()).rev() {
        let j = (mix(block_seed, i as u64) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order[(round % n) as usize]
}

/// The job client `client` submits in round `round`: a pure function of
/// the seed, the round and the client's history. Both clients submit the
/// same kind in a round (see [`BLOCK`]); round 0 is fresh.
pub fn next_job(seed: u64, round: u64, client: u64, history: &mut History) -> (Kind, SweepGrid) {
    let round_hash = mix(seed ^ 0x5E4E, round);
    let own = mix(round_hash, client + 1);
    let (kind, grid) = match (&history.last, &history.last_fresh) {
        (Some(last), Some(last_fresh)) if round > 0 => match round_kind(seed, round) {
            Kind::Resubmit => (Kind::Resubmit, last.clone()),
            Kind::Shared => (Kind::Shared, fresh_grid(round_hash)),
            Kind::Fresh => (Kind::Fresh, fresh_grid(own)),
            Kind::Append => {
                let mut grid = last_fresh.clone();
                grid.sizes
                    .push([(9, 9), (10, 10)][(own >> 20) as usize % 2]);
                (Kind::Append, grid)
            }
        },
        _ => (Kind::Fresh, fresh_grid(own)),
    };
    if matches!(kind, Kind::Fresh | Kind::Shared) {
        history.last_fresh = Some(grid.clone());
    }
    history.last = Some(grid.clone());
    (kind, grid)
}

/// What one client saw of one job, with times in seconds from submit.
#[derive(Debug, Clone)]
struct Job {
    kind: Kind,
    round: usize,
    client: usize,
    grid: SweepGrid,
    scenarios: u64,
    /// Connection-scoped id from the `accepted` event.
    id: u64,
    latency: f64,
    accepted: f64,
    first_result: f64,
    last_result: f64,
    /// The raw `done` line, or the terminal line that replaced it.
    done_line: String,
    done: bool,
    wire_bytes: u64,
}

/// Submit `grid` and read its stream up to the terminal event.
fn submit(client: &mut ServeClient, name: &str, kind: Kind, grid: &SweepGrid, trace: bool) -> Job {
    let line = Request::Submit {
        client: name.to_string(),
        grid: Box::new(grid.clone()),
    }
    .render();
    let mut job = Job {
        kind,
        round: 0,
        client: 0,
        grid: grid.clone(),
        scenarios: grid.len() as u64,
        id: 0,
        latency: 0.0,
        accepted: 0.0,
        first_result: 0.0,
        last_result: 0.0,
        done_line: String::new(),
        done: false,
        wire_bytes: line.len() as u64 + 1,
    };
    let t0 = Instant::now();
    if client.send_raw(&line).is_err() {
        return job;
    }
    let mut results = 0;
    while let Ok(line) = client.recv_line() {
        job.wire_bytes += line.len() as u64 + 1;
        let at = if trace { secs(t0) } else { 0.0 };
        match Event::parse(&line) {
            Ok(Event::Accepted { job: id, .. }) => {
                job.id = id;
                job.accepted = at;
            }
            Ok(Event::Result { .. }) => {
                if results == 0 {
                    job.first_result = at;
                }
                job.last_result = at;
                results += 1;
            }
            Ok(Event::Done { .. }) => {
                job.done = true;
                job.done_line = line;
                break;
            }
            _ => {
                job.done_line = line;
                break;
            }
        }
    }
    job.latency = secs(t0);
    job
}

/// Everything a serve run measured.
struct Run {
    setup: Vec<f64>,
    jobs: Vec<Job>,
    /// Wall time of the closed loop, from the first submit to the last done,
    /// less the set-ups timed between rounds.
    loop_s: f64,
    cache: noc_selfconf::serve::CacheStats,
    sim_runs: u64,
}

fn start_daemon() -> Daemon {
    Daemon::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        scheduler: SchedulerConfig {
            threads: nproc(),
            ..SchedulerConfig::default()
        },
        cache_dir: None,
        verbose: false,
    })
    .expect("the daemon binds a loopback port")
}

/// Start a daemon and connect the clients to it: one timed set-up.
fn set_up() -> (Daemon, Vec<ServeClient>, f64) {
    let t0 = Instant::now();
    let daemon = start_daemon();
    let addr = daemon.addr().to_string();
    let clients = (0..CLIENTS)
        .map(|_| ServeClient::connect(&addr).expect("loopback connect"))
        .collect();
    (daemon, clients, secs(t0))
}

/// Stop a daemon and wait for it, its clients closed first.
fn stop_daemon(daemon: Daemon, clients: Vec<ServeClient>) {
    drop(clients);
    daemon.shutdown();
    daemon.wait();
}

/// [`SETUP_BURST`] set-ups back to back, the warm ones' times pushed onto
/// `samples` (as `timed_setups` does); every daemon but the last is
/// stopped again, and the last is returned.
fn set_up_burst(samples: &mut Vec<f64>) -> (Daemon, Vec<ServeClient>) {
    let mut kept = None;
    for i in 0..SETUP_BURST {
        if let Some((daemon, clients)) = kept.take() {
            stop_daemon(daemon, clients);
        }
        let (daemon, clients, s) = set_up();
        if i > 0 {
            samples.push(s);
        }
        kept = Some((daemon, clients));
    }
    kept.expect("a burst holds at least one set-up")
}

fn drive(seed: u64, seconds: f64, trace: bool) -> Run {
    let mut first = Vec::new();
    let (daemon, clients) = set_up_burst(&mut first);
    // Between rounds, while no job is in flight, the leader times one more
    // burst of set-ups of daemons it then stops, so the set-ups span the
    // whole run as the jobs do. That time is left out of the loop's.
    let setup = Mutex::new(first);
    let paused = Mutex::new(0.0);

    let barrier = Barrier::new(CLIENTS);
    let stop = AtomicBool::new(false);
    let jobs = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for (c, mut client) in clients.into_iter().enumerate() {
            let (barrier, stop, jobs, setup, paused) = (&barrier, &stop, &jobs, &setup, &paused);
            scope.spawn(move || {
                let mut history = History::default();
                let name = format!("client{c}");
                for round in 0.. {
                    // The leader decides for both clients whether to start
                    // another round, so shared rounds always pair up.
                    if barrier.wait().is_leader() {
                        let mut paused = paused.lock().expect("no panics while pausing");
                        let done = round >= DIGEST_ROUNDS && secs(start) - *paused >= seconds;
                        stop.store(done, Ordering::SeqCst);
                        if !done && round > 0 {
                            let t0 = Instant::now();
                            let mut setup = setup.lock().expect("no panics while timing");
                            let (d, clients) = set_up_burst(&mut setup);
                            stop_daemon(d, clients);
                            *paused += secs(t0);
                        }
                    }
                    barrier.wait();
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let (kind, grid) = next_job(seed, round as u64, c as u64, &mut history);
                    let mut job = submit(&mut client, &name, kind, &grid, trace);
                    job.round = round;
                    job.client = c;
                    jobs.lock()
                        .expect("no panics while holding the job list")
                        .push(job);
                }
            });
        }
    });
    let loop_s = secs(start) - paused.into_inner().expect("clients joined");
    let cache = daemon.scheduler().cache().stats();
    let sim_runs = daemon.scheduler().stats().sim_runs;
    daemon.shutdown();
    daemon.wait();
    let mut jobs = jobs.into_inner().expect("clients joined");
    jobs.sort_by_key(|j| (j.round, j.client));
    Run {
        setup: setup.into_inner().expect("clients joined"),
        jobs,
        loop_s,
        cache,
        sim_runs,
    }
}

/// The report part of a `done` line (everything after its job id), which
/// must be identical for every job of the same grid.
fn report_part(line: &str) -> &str {
    line.find("\"report\":").map_or(line, |i| &line[i..])
}

/// Check every job against a local `SweepGrid::run` of its grid and the
/// daemon's simulation count against the distinct scenarios submitted.
fn check(run: &Run, out: &mut Outcome) {
    let t0 = Instant::now();
    let mut local: HashMap<String, SweepReport> = HashMap::new();
    let mut keys = HashSet::new();
    for job in &run.jobs {
        out.check(
            job.done,
            &format!("serve: job in round {} finished", job.round),
        );
        let grid_json = serde_json::to_string(&job.grid).expect("grid serializes");
        if !local.contains_key(&grid_json) {
            for s in job.grid.scenarios() {
                keys.insert(scenario_cache_key(
                    &s,
                    job.grid.warmup,
                    job.grid.measure,
                    job.grid.drain,
                ));
            }
            let report = job.grid.run(nproc()).expect("benchmark grids are valid");
            local.insert(grid_json.clone(), report);
        }
        let expected = Event::Done {
            job: job.id,
            report: Box::new(local[&grid_json].clone()),
        }
        .render();
        out.check_same(
            expected.as_bytes(),
            job.done_line.as_bytes(),
            &format!(
                "serve: done report of round {} differs from SweepGrid::run",
                job.round
            ),
        );
    }
    out.check(
        run.sim_runs == keys.len() as u64,
        &format!(
            "serve: {} simulations for {} distinct scenario keys",
            run.sim_runs,
            keys.len()
        ),
    );
    for job in run.jobs.iter().filter(|j| j.round < DIGEST_ROUNDS) {
        out.digest.add(report_part(&job.done_line).as_bytes());
    }
    out.note(format!(
        "serve: checked {} jobs against {} local grid runs in {:.1} s",
        run.jobs.len(),
        local.len(),
        secs(t0)
    ));
}

/// The untraced `serve` run.
pub fn run(seed: u64, seconds: f64, out: &mut Outcome) {
    let run = drive(seed, seconds, false);
    check(&run, out);
    let latency_ms: Vec<f64> = run.jobs.iter().map(|j| j.latency * 1e3).collect();
    // Rounds mix grids of two and four scenarios, so a per-round rate is
    // multi-modal; the whole loop's rate is not.
    let scenarios: u64 = run.jobs.iter().map(|j| j.scenarios).sum();
    let rounds = run.jobs.iter().map(|j| j.round).max().map_or(0, |r| r + 1);
    let kinds: Vec<String> = [Kind::Resubmit, Kind::Shared, Kind::Fresh, Kind::Append]
        .into_iter()
        .filter_map(|k| {
            let ms: Vec<f64> = run
                .jobs
                .iter()
                .filter(|j| j.kind == k)
                .map(|j| j.latency * 1e3)
                .collect();
            (!ms.is_empty())
                .then(|| format!("{k:?} {} jobs, median {:.1} ms", ms.len(), median(&ms)))
        })
        .collect();
    out.note(format!(
        "serve: {} jobs in {} rounds from {CLIENTS} clients, kinds {kinds:?}; work_per_s is \
         scenarios_per_s, op latency is submit to done",
        run.jobs.len(),
        rounds
    ));
    out.median_metric("setup_s", &run.setup, "s");
    out.metric("work_per_s", scenarios as f64 / run.loop_s, "1/s");
    out.tail_metric("op_tail_ms", &latency_ms, "ms");
}

/// The traced `serve` layer run: client-side event times and the daemon's
/// cache and scheduler counters.
pub fn trace(seed: u64, seconds: f64, out: &mut Outcome) {
    let run = drive(seed, seconds, true);
    check(&run, out);
    let ms = |f: fn(&Job) -> f64| -> f64 {
        median(&run.jobs.iter().map(|j| f(j) * 1e3).collect::<Vec<_>>())
    };
    out.metric("serve.accept_ms.p50", ms(|j| j.accepted), "ms");
    out.metric("serve.first_result_ms.p50", ms(|j| j.first_result), "ms");
    out.metric(
        "serve.done_tail_ms.p50",
        ms(|j| j.latency - j.last_result),
        "ms",
    );
    let hits = run.cache.memory_hits + run.cache.disk_hits + run.cache.coalesced;
    out.metric(
        "serve.cache.hit_ratio",
        hits as f64 / run.cache.lookups().max(1) as f64,
        "ratio",
    );
    out.metric("serve.cache.coalesced", run.cache.coalesced as f64, "count");
    out.metric("serve.scheduler.sim_runs", run.sim_runs as f64, "count");
    out.metric(
        "serve.wire_bytes_per_job",
        run.jobs.iter().map(|j| j.wire_bytes).sum::<u64>() as f64 / run.jobs.len() as f64,
        "B",
    );
    out.note(format!("serve trace: {} jobs", run.jobs.len()));
}
