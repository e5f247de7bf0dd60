//! `fabric`: serial steady-state `Simulator` stepping over a fixed list of
//! fabrics. The `noc-sim` cycle loop does nearly all the work, and set-up
//! is negligible next to it.

use crate::common::{mix, secs, timed_setups, Outcome};
use noc_sim::{
    FaultPlan, Network, RoutingAlgorithm, SimConfig, Simulator, StatsCollector, SwitchArb,
    TrafficGenerator, TrafficPattern, WindowMetrics, WorkloadSpec,
};
use std::time::Instant;

/// Rounds every run completes whatever its length: their window metrics
/// feed the digest and the from-scratch reference comparison.
const CHECK_ROUNDS: usize = 2;

/// One fabric of the list. `chunk` is the cycle budget of one timed
/// operation, sized so every entry's operation takes about the same host
/// time and no entry dominates the run.
#[derive(Debug, Clone)]
pub struct Entry {
    /// Metric tag, e.g. `16x16-r0.10`.
    pub tag: &'static str,
    /// The fabric.
    pub config: SimConfig,
    /// Cycles run before any measurement.
    pub warmup: u64,
    /// Cycles per timed operation.
    pub chunk: u64,
}

impl Entry {
    fn routers(&self) -> u64 {
        (self.config.width * self.config.height) as u64
    }
}

/// The fabric list, built from the workload seed:
/// - 16x16 uniform r0.10, XY: the loaded cycle core;
/// - 16x16 uniform r0.01: idle-heavy, exercising worklist skipping and
///   idle-leakage runs;
/// - 32x32 uniform r0.10: the state outgrows the per-core cache;
/// - 8x8 8-flit packets under per-packet arbitration, table routing and
///   two permanent link faults: the wormhole hold, table and fault paths.
pub fn entries(seed: u64) -> Vec<Entry> {
    let uniform = |w, h, rate, salt| {
        SimConfig::default()
            .with_size(w, h)
            .with_traffic(TrafficPattern::Uniform, rate)
            .with_routing(RoutingAlgorithm::Xy)
            .with_seed(mix(seed, salt))
    };
    let wormhole = {
        let config = SimConfig::default()
            .with_workload(
                WorkloadSpec::parse("ph[uniform:bern0.05:len8]").expect("valid workload label"),
            )
            .with_switch_arb(SwitchArb::PerPacket)
            .with_routing(RoutingAlgorithm::Table)
            .with_seed(mix(seed, 4));
        let plan = FaultPlan::random_links(&config.topology(), 2, mix(seed, 5), 0, None);
        config.with_faults(plan)
    };
    vec![
        Entry {
            tag: "16x16-r0.10",
            config: uniform(16, 16, 0.10, 1),
            warmup: 1000,
            chunk: 500,
        },
        Entry {
            tag: "16x16-r0.01",
            config: uniform(16, 16, 0.01, 2),
            warmup: 1000,
            chunk: 2800,
        },
        Entry {
            tag: "32x32-r0.10",
            config: uniform(32, 32, 0.10, 3),
            warmup: 500,
            chunk: 60,
        },
        Entry {
            tag: "8x8-len8-table-f2",
            config: wormhole,
            warmup: 1000,
            chunk: 5000,
        },
    ]
}

fn build(entries: &[Entry]) -> Vec<Simulator> {
    entries
        .iter()
        .map(|e| Simulator::new(e.config.clone()).expect("benchmark fabrics are valid"))
        .collect()
}

fn warm(entries: &[Entry], sims: &mut [Simulator]) {
    for (e, sim) in entries.iter().zip(sims.iter_mut()) {
        sim.run(e.warmup);
    }
}

fn window_bytes(m: &WindowMetrics) -> Vec<u8> {
    serde_json::to_vec(m).expect("window metrics serialize")
}

/// Run `rounds` untimed rounds on freshly built simulators and return every
/// window's bytes, in round-major order.
fn reference_windows(entries: &[Entry], rounds: usize) -> Vec<Vec<u8>> {
    let mut sims = build(entries);
    warm(entries, &mut sims);
    let mut out = Vec::new();
    for _ in 0..rounds {
        for (e, sim) in entries.iter().zip(sims.iter_mut()) {
            out.push(window_bytes(&sim.run_epoch(e.chunk)));
        }
    }
    out
}

/// The untraced `fabric` run.
pub fn run(seed: u64, seconds: f64, out: &mut Outcome) {
    let entries = entries(seed);
    // Timed set-ups (all four simulators) before every round, so they span
    // the whole run as the rounds do; all but the first burst's last are
    // dropped unused. Rebuilding evicts little next to a round's own
    // traffic through the cache.
    let mut setup = Vec::new();
    let mut set_up = || timed_setups(&mut setup, || build(&entries));
    let mut sims = set_up();
    warm(&entries, &mut sims);

    // One operation is one round: a window of every entry. Entries slow
    // down unequally when the host is busy, so a per-window latency would
    // flip between entries; a round's time does not.
    let mut op_ms = Vec::new();
    let mut round_rates = Vec::new();
    let mut windows = Vec::new();
    let mut timed = 0.0;
    let mut round = 0;
    while round < CHECK_ROUNDS || timed < seconds {
        if round > 0 {
            set_up();
        }
        let (mut work, mut time) = (0.0, 0.0);
        for (e, sim) in entries.iter().zip(sims.iter_mut()) {
            let t0 = Instant::now();
            let m = sim.run_epoch(e.chunk);
            let dt = secs(t0);
            out.check(
                m.cycles == e.chunk && m.ejected_flits > 0,
                &format!(
                    "fabric {}: window of {} cycles ejected flits",
                    e.tag, e.chunk
                ),
            );
            if round < CHECK_ROUNDS {
                windows.push(window_bytes(&m));
            }
            work += (e.routers() * e.chunk) as f64;
            time += dt;
            timed += dt;
        }
        op_ms.push(time * 1e3);
        round_rates.push(work / time);
        round += 1;
    }
    for w in &windows {
        out.digest.add(w);
    }
    let reference = reference_windows(&entries, CHECK_ROUNDS);
    for (i, (r, w)) in reference.iter().zip(&windows).enumerate() {
        let e = &entries[i % entries.len()];
        out.check_same(
            r,
            w,
            &format!("fabric {}: window {i} differs from a fresh run", e.tag),
        );
    }
    out.note(format!(
        "fabric: {round} rounds over {} entries; work_per_s is router_cycles_per_s",
        entries.len()
    ));
    out.median_metric("setup_s", &setup, "s");
    out.sustained_metric("work_per_s", &round_rates, "1/s");
    out.tail_metric("op_tail_ms", &op_ms, "ms");
}

/// `Simulator::step`, call for call, over the same parts `Simulator::new`
/// builds, with each layer call timed.
struct Mirror {
    network: Network,
    traffic: TrafficGenerator,
    stats: StatsCollector,
    tick_ns: u128,
    offer_ns: u128,
    step_ns: u128,
    occupancy_sum: u64,
}

impl Mirror {
    fn new(config: &SimConfig) -> Mirror {
        let network = Network::new(config).expect("benchmark fabrics are valid");
        let topo = network.topology().clone();
        let traffic = TrafficGenerator::new(
            &topo,
            config.traffic.clone(),
            config.packet_len,
            config.seed,
        )
        .expect("benchmark traffic is valid");
        let stats = StatsCollector::new(network.regions().num_regions());
        Mirror {
            network,
            traffic,
            stats,
            tick_ns: 0,
            offer_ns: 0,
            step_ns: 0,
            occupancy_sum: 0,
        }
    }

    fn step(&mut self) {
        let t = self.network.cycle();
        let topo = self.network.topology().clone();
        let t0 = Instant::now();
        let packets = self.traffic.tick(&topo, t);
        let t1 = Instant::now();
        self.stats
            .record_cycle_offered(self.traffic.current_phase(), packets.len() as u64);
        let t2 = Instant::now();
        self.network.offer(packets, &mut self.stats);
        let t3 = Instant::now();
        self.network.step(&mut self.stats);
        let t4 = Instant::now();
        self.tick_ns += (t1 - t0).as_nanos();
        self.offer_ns += (t3 - t2).as_nanos();
        self.step_ns += (t4 - t3).as_nanos();
        self.occupancy_sum += self.network.occupancy() as u64;
    }

    fn reset_timers(&mut self) {
        (
            self.tick_ns,
            self.offer_ns,
            self.step_ns,
            self.occupancy_sum,
        ) = (0, 0, 0, 0);
    }

    fn run_epoch(&mut self, cycles: u64) -> WindowMetrics {
        let before = self.stats.snapshot();
        for _ in 0..cycles {
            self.step();
        }
        let after = self.stats.snapshot();
        WindowMetrics::between(&before, &after, self.network.topology().num_nodes())
    }
}

/// Traced stepping of one entry for `chunks` windows after warm-up:
/// returns the mirror (with its timers covering the windows only), the
/// windows' bytes and the set-up time in ms.
fn trace_entry(e: &Entry, chunks: usize) -> (Mirror, Vec<Vec<u8>>, f64) {
    let t0 = Instant::now();
    let mut mirror = Mirror::new(&e.config);
    let new_ms = secs(t0) * 1e3;
    for _ in 0..e.warmup {
        mirror.step();
    }
    mirror.reset_timers();
    let windows = (0..chunks)
        .map(|_| window_bytes(&mirror.run_epoch(e.chunk)))
        .collect();
    (mirror, windows, new_ms)
}

/// The traced `fabric` layer run: per-entry layer times, checked byte for
/// byte against untraced `Simulator` windows, plus the 32x32 partition
/// comparison.
pub fn trace(seed: u64, chunks: usize, out: &mut Outcome) {
    let entries = entries(seed);
    let t_untraced = Instant::now();
    let mut untraced = Vec::new();
    for e in &entries {
        let mut sim = Simulator::new(e.config.clone()).expect("benchmark fabrics are valid");
        sim.run(e.warmup);
        untraced.push(
            (0..chunks)
                .map(|_| window_bytes(&sim.run_epoch(e.chunk)))
                .collect::<Vec<_>>(),
        );
    }
    let untraced_s = secs(t_untraced);

    let mut traced_s = 0.0;
    for (e, reference) in entries.iter().zip(&untraced) {
        let t0 = Instant::now();
        let (mirror, windows, new_ms) = trace_entry(e, chunks);
        traced_s += secs(t0);
        for (i, (r, w)) in reference.iter().zip(&windows).enumerate() {
            out.check_same(r, w, &format!("fabric trace {}: window {i} differs", e.tag));
            out.digest.add(w);
        }
        let cycles = (e.chunk * chunks as u64) as f64;
        let ejected: u64 = windows
            .iter()
            .map(|w| {
                let m: WindowMetrics = serde_json::from_slice(w).expect("window round-trips");
                m.ejected_flits
            })
            .sum();
        let per_cycle = |ns: u128| ns as f64 / cycles;
        out.metric(
            format!("traffic.tick_ns_per_cycle.{}", e.tag),
            per_cycle(mirror.tick_ns),
            "ns",
        );
        out.metric(
            format!("network.offer_ns_per_cycle.{}", e.tag),
            per_cycle(mirror.offer_ns),
            "ns",
        );
        out.metric(
            format!("network.step_ns_per_cycle.{}", e.tag),
            per_cycle(mirror.step_ns),
            "ns",
        );
        out.metric(
            format!("network.step_ns_per_flit.{}", e.tag),
            mirror.step_ns as f64 / ejected.max(1) as f64,
            "ns",
        );
        out.metric(
            format!("network.occupancy_mean.{}", e.tag),
            mirror.occupancy_sum as f64 / cycles,
            "count",
        );
        out.metric(format!("sim.new_ms.{}", e.tag), new_ms, "ms");
        if e.tag == "32x32-r0.10" {
            let step_ns_p1 = per_cycle(mirror.step_ns);
            // Traced only: the same fabric stepped by two partitions, whose
            // windows must match the serial ones byte for byte.
            let p2 = Entry {
                config: e.config.clone().with_partitions(2),
                ..e.clone()
            };
            let (mirror, windows, _) = trace_entry(&p2, chunks);
            for (i, (r, w)) in reference.iter().zip(&windows).enumerate() {
                out.check_same(r, w, &format!("fabric trace 32x32 p2: window {i} differs"));
            }
            let step_ns_p2 = per_cycle(mirror.step_ns);
            out.metric("network.step_ns_per_cycle.32x32-r0.10-p2", step_ns_p2, "ns");
            out.metric("network.partition_speedup_p2", step_ns_p1 / step_ns_p2, "x");
        }
    }
    out.note(format!(
        "fabric trace: {chunks} windows per entry; untraced {untraced_s:.3} s, traced \
         {traced_s:.3} s, overhead {:.3} s",
        traced_s - untraced_s
    ));
}
