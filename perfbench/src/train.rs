//! `train`: `rl::train` over `NocEnv` on a 4x4 mesh with 2x2 regions,
//! per-region delta actions, the standard traffic menu and 100-cycle
//! epochs, with the paper-default `DqnConfig` (64-64, batch 32, Double
//! DQN) and a small replay warm-up. At this size `NocEnv::step` and
//! `DqnAgent::train_step` take about half the time each, so both show; at
//! the paper's 8x8 fabric with 500-cycle epochs the DQN would vanish.

use crate::common::{median, mix, secs, timed_setups, Outcome};
use noc_selfconf::{NocEnv, NocEnvConfig};
use noc_sim::SimConfig;
use rand::rngs::StdRng;
use rl::{
    DqnAgent, DqnConfig, Environment, EpisodeStats, LearningAgent, Schedule, Step, TrainConfig,
    Transition,
};
use std::time::{Duration, Instant};

/// Control epochs per episode; one episode is one timed operation.
const EPISODE_STEPS: usize = 20;
/// Episodes every run completes whatever its length: their curve and the
/// policy after them feed the digest and the from-scratch comparison.
const CHECK_EPISODES: usize = 10;

fn env_config(seed: u64) -> NocEnvConfig {
    let sim = SimConfig::default()
        .with_size(4, 4)
        .with_regions(2, 2)
        .with_seed(mix(seed, 1));
    NocEnvConfig {
        epoch_cycles: 100,
        epochs_per_episode: EPISODE_STEPS,
        ..NocEnvConfig::for_sim(sim, mix(seed, 2))
    }
}

fn build(seed: u64) -> (NocEnv, DqnAgent) {
    let env = NocEnv::new(env_config(seed)).expect("benchmark environment is valid");
    let dqn = DqnConfig {
        min_replay: 64,
        ..DqnConfig::default()
            .with_dims(env.state_dim(), env.num_actions())
            .with_seed(mix(seed, 3))
    };
    (env, DqnAgent::new(dqn))
}

/// The training call of episode `episode`: one episode with a fixed
/// exploration rate and its own exploration seed.
fn episode_config(seed: u64, episode: usize) -> TrainConfig {
    TrainConfig {
        episodes: 1,
        max_steps: EPISODE_STEPS,
        epsilon: Schedule::Constant(0.1),
        train_per_step: 1,
        seed: mix(seed, 100 + episode as u64),
    }
}

fn curve_bytes(curve: &[EpisodeStats]) -> Vec<u8> {
    serde_json::to_vec(curve).expect("curve serializes")
}

fn policy(agent: &DqnAgent) -> String {
    agent.policy_to_json().expect("policy serializes")
}

/// Train `episodes` episodes on a fresh environment and agent: the
/// learning curve, the final policy and the training time in seconds.
pub fn reference(seed: u64, episodes: usize) -> (Vec<u8>, String, f64) {
    let (mut env, mut agent) = build(seed);
    let t0 = Instant::now();
    let curve: Vec<EpisodeStats> = (0..episodes)
        .flat_map(|ep| rl::train(&mut env, &mut agent, &episode_config(seed, ep)))
        .collect();
    let elapsed = secs(t0);
    (curve_bytes(&curve), policy(&agent), elapsed)
}

/// The untraced `train` run.
pub fn run(seed: u64, seconds: f64, out: &mut Outcome) {
    // Timed set-ups (environment and agent) before every episode, so they
    // span the whole run as the episodes do; all but the first burst's last
    // are dropped unused.
    let mut setup = Vec::new();
    let mut set_up = || timed_setups(&mut setup, || build(seed));
    let (mut env, mut agent) = set_up();

    let mut op_ms = Vec::new();
    let mut rates = Vec::new();
    let mut curve = Vec::new();
    let mut checked_policy = String::new();
    let mut timed = 0.0;
    let mut episode = 0;
    while episode < CHECK_EPISODES || timed < seconds {
        if episode > 0 {
            set_up();
        }
        let t0 = Instant::now();
        let stats = rl::train(&mut env, &mut agent, &episode_config(seed, episode));
        let dt = secs(t0);
        let steps: usize = stats.iter().map(|s| s.steps).sum();
        out.check(
            steps == EPISODE_STEPS && stats.iter().all(|s| s.total_reward.is_finite()),
            "train: episode ran its steps with a finite return",
        );
        if episode < CHECK_EPISODES {
            curve.extend(stats);
            if episode + 1 == CHECK_EPISODES {
                checked_policy = policy(&agent);
            }
        }
        op_ms.push(dt * 1e3);
        rates.push(steps as f64 / dt);
        timed += dt;
        episode += 1;
    }
    let curve = curve_bytes(&curve);
    out.digest.add(&curve);
    out.digest.add(checked_policy.as_bytes());
    let (ref_curve, ref_policy, _) = reference(seed, CHECK_EPISODES);
    out.check_same(&ref_curve, &curve, "train: curve differs from a fresh run");
    out.check_same(
        ref_policy.as_bytes(),
        checked_policy.as_bytes(),
        "train: policy differs from a fresh run",
    );
    out.note(format!(
        "train: {episode} episodes of {EPISODE_STEPS} steps; work_per_s is env_steps_per_s"
    ));
    out.median_metric("setup_s", &setup, "s");
    out.sustained_metric("work_per_s", &rates, "1/s");
    out.tail_metric("op_tail_ms", &op_ms, "ms");
}

/// `NocEnv` behind a delegating, timing `Environment`.
struct TimedEnv<'a> {
    inner: &'a mut NocEnv,
    step: Vec<Duration>,
    reset: Vec<Duration>,
}

impl Environment for TimedEnv<'_> {
    fn state_dim(&self) -> usize {
        self.inner.state_dim()
    }

    fn num_actions(&self) -> usize {
        self.inner.num_actions()
    }

    fn reset(&mut self) -> Vec<f32> {
        let t0 = Instant::now();
        let s = self.inner.reset();
        self.reset.push(t0.elapsed());
        s
    }

    fn step(&mut self, action: usize) -> Step {
        let t0 = Instant::now();
        let s = self.inner.step(action);
        self.step.push(t0.elapsed());
        s
    }
}

/// `DqnAgent` behind a delegating, timing `LearningAgent`.
struct TimedAgent<'a> {
    inner: &'a mut DqnAgent,
    act: Vec<Duration>,
    observe: Vec<Duration>,
    train_step: Vec<Duration>,
    updates: u64,
}

impl LearningAgent for TimedAgent<'_> {
    fn act(&mut self, state: &[f32], epsilon: f64, rng: &mut StdRng) -> usize {
        let t0 = Instant::now();
        let a = self.inner.act(state, epsilon, rng);
        self.act.push(t0.elapsed());
        a
    }

    fn observe(&mut self, transition: Transition) {
        let t0 = Instant::now();
        self.inner.observe(transition);
        self.observe.push(t0.elapsed());
    }

    fn train_step(&mut self, rng: &mut StdRng) -> Option<f32> {
        let t0 = Instant::now();
        let loss = self.inner.train_step(rng);
        self.train_step.push(t0.elapsed());
        self.updates += u64::from(loss.is_some());
        loss
    }
}

fn total(ds: &[Duration]) -> f64 {
    ds.iter().map(Duration::as_secs_f64).sum()
}

fn median_of(ds: &[Duration], scale: f64) -> f64 {
    median(
        &ds.iter()
            .map(|d| d.as_secs_f64() * scale)
            .collect::<Vec<_>>(),
    )
}

/// The traced `train` layer run: `episodes` episodes through timing
/// wrappers, checked byte for byte (curve and policy) against the same
/// episodes untraced.
pub fn trace(seed: u64, episodes: usize, out: &mut Outcome) {
    let (ref_curve, ref_policy, untraced_s) = reference(seed, episodes);

    let (mut env, mut agent) = build(seed);
    let mut tenv = TimedEnv {
        inner: &mut env,
        step: Vec::new(),
        reset: Vec::new(),
    };
    let mut tagent = TimedAgent {
        inner: &mut agent,
        act: Vec::new(),
        observe: Vec::new(),
        train_step: Vec::new(),
        updates: 0,
    };
    let t0 = Instant::now();
    let curve: Vec<EpisodeStats> = (0..episodes)
        .flat_map(|ep| rl::train(&mut tenv, &mut tagent, &episode_config(seed, ep)))
        .collect();
    let wall = secs(t0);
    let env_s = total(&tenv.step) + total(&tenv.reset);
    let dqn_s = total(&tagent.act) + total(&tagent.observe) + total(&tagent.train_step);
    let steps = tenv.step.len() as f64;

    out.metric("env.step_ms.p50", median_of(&tenv.step, 1e3), "ms");
    out.metric("env.reset_ms.p50", median_of(&tenv.reset, 1e3), "ms");
    out.metric("dqn.act_us.p50", median_of(&tagent.act, 1e6), "us");
    out.metric("dqn.observe_us.p50", median_of(&tagent.observe, 1e6), "us");
    out.metric(
        "dqn.train_step_us.p50",
        median_of(&tagent.train_step, 1e6),
        "us",
    );
    out.metric(
        "dqn.update_ratio",
        tagent.updates as f64 / tagent.train_step.len() as f64,
        "ratio",
    );
    out.metric(
        "trainer.self_us_per_step",
        (wall - env_s - dqn_s) * 1e6 / steps,
        "us",
    );
    out.metric("env.share", env_s / wall, "ratio");
    out.metric("dqn.share", dqn_s / wall, "ratio");

    let curve = curve_bytes(&curve);
    let traced_policy = policy(&agent);
    out.check_same(
        &ref_curve,
        &curve,
        "train trace: curve differs from untraced",
    );
    out.check_same(
        ref_policy.as_bytes(),
        traced_policy.as_bytes(),
        "train trace: policy differs from untraced",
    );
    out.digest.add(&curve);
    out.digest.add(traced_policy.as_bytes());
    out.note(format!(
        "train trace: {episodes} episodes; untraced {untraced_s:.3} s, traced {wall:.3} s, \
         overhead {:.3} s",
        wall - untraced_s
    ));
}
