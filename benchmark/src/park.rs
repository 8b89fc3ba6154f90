//! The `park` workload: closed-loop iCOIL episodes on one thread.
//!
//! The untraced run drives the shipped policy through
//! `icoil_core::eval::make_policy` and the world's episode runner, timing
//! only each `decide` call. The traced run composes the same public calls
//! `ICoilPolicy::decide` makes, in the same order, with a span around
//! each, and must reproduce the untraced run's outcomes exactly.
//!
//! Episodes are deterministic, so a pass over the fixed scenario set can
//! be repeated: the untraced run makes whole passes, one per core (up to
//! two) at a time and at least two rounds of them. Each episode still
//! runs on one thread. Every few frames an episode samples the speed
//! reference (`crate::speed`) outside the timed calls, and its times are
//! scaled to the reference speed of its own samples. Every frame and
//! every episode then counts with the median of its scaled repeats.

use crate::inputs;
use crate::speed::{self, Reference};
use crate::stats::{self, is_capped, Summary};
use crate::trace::{Layer, Trace};
use crate::{load_model, Checks, Report};
use icoil_co::CoController;
use icoil_core::eval::{drain_episode_metrics, make_policy};
use icoil_core::{ICoilConfig, Method};
use icoil_hsa::{Hsa, Mode};
use icoil_il::IlModel;
use icoil_perception::Perception;
use icoil_telemetry::{Counter, Recorder};
use icoil_world::episode::{Decision, Observation, Policy};
use icoil_world::{run_episode, EpisodeConfig, Outcome, World};
use std::time::{Duration, Instant};

/// Simulated-time budget of an episode: long enough that episodes end in
/// success or collision rather than at the clock.
const MAX_TIME: f64 = 90.0;

/// The control period: a frame slower than this misses its slot.
const FRAME_BUDGET_MS: f64 = 50.0;

/// Times a run repeats the set-up (about 13 ms each); `setup_s` is the
/// median, so that one slow repeat does not move it.
const SETUP_REPEATS: usize = 25;

/// Frames between two samples of the speed reference, from the first
/// frame on: about 1 % of an episode's time goes to sampling.
const SAMPLE_EVERY: usize = 8;

/// Fewest rounds of passes over the scenario set an untraced run makes;
/// each round runs one pass per replica at the same time.
const MIN_ROUNDS: usize = 2;

/// What fidelity compares: per-episode outcome, frame count and the
/// bit pattern of the parking time.
type Fingerprint = (Outcome, usize, u64);

fn fingerprint(outcome: Outcome, frames: usize, parking_time: f64) -> Fingerprint {
    (outcome, frames, parking_time.to_bits())
}

fn check_action(checks: &mut Checks, action: &icoil_vehicle::Action) {
    if let Err(e) = action.validate() {
        checks.fail(format!("invalid action: {e}"));
    }
}

/// The shipped policy with a clock around `decide` and its output
/// checked; the speed reference is sampled between calls.
struct Timed<'a> {
    inner: Box<dyn Policy>,
    frame_ms: Vec<f64>,
    checks: &'a mut Checks,
    reference: &'a mut Reference,
}

impl Policy for Timed<'_> {
    fn decide(&mut self, obs: &Observation) -> Decision {
        let start = Instant::now();
        let decision = self.inner.decide(obs);
        self.frame_ms.push(start.elapsed().as_secs_f64() * 1e3);
        if (self.frame_ms.len() - 1).is_multiple_of(SAMPLE_EVERY) {
            self.reference.sample();
        }
        check_action(self.checks, &decision.action);
        for v in [decision.uncertainty, decision.complexity]
            .into_iter()
            .flatten()
        {
            self.checks
                .require(v.is_finite(), || format!("non-finite HSA output {v}"));
        }
        decision
    }

    fn begin_episode(&mut self, obs: &Observation) {
        self.inner.begin_episode(obs);
    }

    fn recorder_mut(&mut self) -> Option<&mut Recorder> {
        self.inner.recorder_mut()
    }
}

/// One untraced episode.
struct Episode {
    fingerprint: Fingerprint,
    frame_ms: Vec<f64>,
    /// Episode wall time, set-up and world steps included, reference
    /// samples excluded.
    busy_s: f64,
    /// Median time of the reference samples taken during the episode.
    reference_ms: f64,
    numerical_errors: u64,
}

impl Episode {
    /// The episode's scale to the reference speed.
    fn scale(&self) -> f64 {
        crate::speed::NOMINAL_MS / self.reference_ms
    }
}

fn run_untraced(model: &IlModel, config: &ICoilConfig, index: u64, checks: &mut Checks) -> Episode {
    let scenario = inputs::scenario(index);
    let episode_config = EpisodeConfig {
        max_time: MAX_TIME,
        record_trace: false,
    };
    let mut reference = Reference::new();
    let t0 = Instant::now();
    let mut policy = Timed {
        inner: make_policy(Method::ICoil, config, model, &scenario),
        frame_ms: Vec::with_capacity(2048),
        checks,
        reference: &mut reference,
    };
    let mut world = World::new(scenario);
    let result = run_episode(&mut world, &mut policy, &episode_config);
    let busy_s = t0.elapsed().as_secs_f64() - policy.reference.spent_s();
    let metrics = drain_episode_metrics(&mut policy, &result);
    Episode {
        fingerprint: fingerprint(result.outcome, result.frames, result.parking_time),
        frame_ms: policy.frame_ms,
        busy_s,
        reference_ms: reference.median_ms(),
        numerical_errors: metrics.counter(Counter::NumericalErrors),
    }
}

/// Per-frame and per-solve records of the traced run.
#[derive(Default)]
struct Traced {
    decide_ms: Vec<f64>,
    il_frames: usize,
    switches: u64,
    replans: u64,
    degraded: u64,
    admm_iters: Vec<f64>,
    scp_passes: Vec<f64>,
    cold_restarts: u64,
    capped: u64,
    wall_s: f64,
}

/// One frame of `ICoilPolicy::decide` composed from its public calls,
/// plus the world step, with a span around each.
#[allow(clippy::too_many_arguments)]
fn traced_frame(
    perception: &mut Perception,
    il: &mut IlModel,
    hsa: &mut Hsa,
    co: &mut CoController,
    world: &mut World,
    last_path: &mut Option<icoil_planner::PlannedPath>,
    trace: &mut Trace,
    run: &mut Traced,
    checks: &mut Checks,
) -> Mode {
    let t0 = Instant::now();
    let obs = Observation::new(world);
    let sensing = trace.span(Layer::Perception, || perception.observe(&obs));
    let inferred = trace.span(Layer::Il, || il.infer(&sensing.bev));
    let decision = trace.span(Layer::Hsa, || {
        hsa.set_ego_position(obs.ego().pose.position());
        hsa.update(&inferred.probs, &sensing.boxes)
    });
    let action = match decision.mode {
        Mode::Il => {
            run.il_frames += 1;
            inferred.action
        }
        Mode::Co => {
            let out = trace.span(Layer::Co, || co.control(&obs, &sensing.boxes));
            if co.path() != last_path.as_ref() {
                run.replans += 1;
                *last_path = co.path().cloned();
            }
            run.degraded += u64::from(out.degraded);
            if let Some(mpc) = &out.mpc {
                run.admm_iters.push(mpc.qp_iterations as f64);
                run.scp_passes.push(f64::from(mpc.scp_passes));
                run.cold_restarts += u64::from(mpc.cold_restarted);
                run.capped += u64::from(is_capped(mpc));
            }
            out.action
        }
    };
    run.decide_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    check_action(checks, &action);
    for v in [decision.uncertainty, decision.complexity] {
        checks.require(v.is_finite(), || format!("non-finite HSA output {v}"));
    }
    trace.span(Layer::World, || world.step(&action));
    trace.record(Layer::Frame, t0, Instant::now());
    decision.mode
}

fn run_traced(
    model: &IlModel,
    config: &ICoilConfig,
    index: u64,
    trace: &mut Trace,
    run: &mut Traced,
    checks: &mut Checks,
) -> Fingerprint {
    let scenario = inputs::scenario(index);
    let t_episode = Instant::now();
    // the components `ICoilPolicy::new` assembles and
    // `ICoilPolicy::begin_episode` resets
    let mut perception = Perception::new(config.bev, &scenario);
    let mut il = model.clone();
    let mut co = CoController::new(config.co, scenario.vehicle_params);
    let mut hsa = Hsa::new(config.hsa);
    let mut world = World::new(scenario);
    co.reset();
    hsa.reset();
    let mut last_mode = None;
    let mut last_path = None;
    // the episode runner's termination checks, in its order
    let outcome = loop {
        if world.collision_cause().is_some() {
            break Outcome::Collision;
        }
        if world.frame() > 0 && world.at_goal() {
            break Outcome::Success;
        }
        if world.frame() > 0 && world.time() >= MAX_TIME {
            break Outcome::Timeout;
        }
        let mode = traced_frame(
            &mut perception,
            &mut il,
            &mut hsa,
            &mut co,
            &mut world,
            &mut last_path,
            trace,
            run,
            checks,
        );
        if last_mode.is_some_and(|prev| prev != mode) {
            run.switches += 1;
        }
        last_mode = Some(mode);
    };
    run.wall_s += t_episode.elapsed().as_secs_f64();
    fingerprint(outcome, world.frame(), world.time())
}

/// The workload's set-up: loads the model, then builds every scenario of
/// the set with its policy and world, as each episode does before its
/// first frame.
fn set_up(config: &ICoilConfig, order: &[u64]) -> Result<IlModel, String> {
    let model = load_model()?;
    for &index in order {
        let scenario = inputs::scenario(index);
        let policy = make_policy(Method::ICoil, config, &model, &scenario);
        let world = World::new(scenario);
        std::hint::black_box((policy, world));
    }
    Ok(model)
}

/// Runs the workload and fills the report.
pub fn run(seed: u64, seconds: f64, traced: bool, report: &mut Report) -> Result<(), String> {
    let config = ICoilConfig::default();
    if config.safety.enabled {
        return Err("the traced loop composes the policy without safety projection".into());
    }
    // the seed orders the fixed set; it does not change the work
    let order = inputs::permutation(seed, inputs::STRATA as u64);
    let mut setup = Vec::new();
    let mut setup_reference = Reference::new();
    let mut model = None;
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        model = Some(set_up(&config, &order)?);
        setup.push(t0.elapsed().as_secs_f64());
        for _ in 0..speed::SAMPLES_PER_SETUP {
            setup_reference.sample();
        }
    }
    let model = model.expect("at least one set-up");
    if traced {
        run_ledger(&model, &config, &order, report);
        return Ok(());
    }

    // one replica per core, up to two: twice the samples in the same time
    let replicas = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut passes: Vec<Vec<Episode>> = Vec::new();
    let mut last_round = Duration::ZERO;
    while passes.len() < MIN_ROUNDS * replicas || started.elapsed() + last_round <= budget {
        let round_start = Instant::now();
        let round: Vec<(Vec<Episode>, Checks)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..replicas)
                .map(|_| {
                    let model = model.clone();
                    let order = &order;
                    scope.spawn(move || {
                        let mut checks = Checks::default();
                        let pass = order
                            .iter()
                            .map(|&index| run_untraced(&model, &config, index, &mut checks))
                            .collect();
                        (pass, checks)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a park replica panicked"))
                .collect()
        });
        for (pass, checks) in round {
            passes.push(pass);
            report.checks.merge(checks);
        }
        last_round = round_start.elapsed();
    }

    // the median of the repeats, per episode and per frame, raw and
    // scaled by each repeat's own reference
    let first = &passes[0];
    let (mut busy_s, mut raw_busy_s) = (0.0, 0.0);
    let (mut frame_ms, mut raw_frame_ms) = (Vec::new(), Vec::new());
    let mut reference_ms = Vec::new();
    for (e, episode) in first.iter().enumerate() {
        let repeats: Vec<&Episode> = passes.iter().map(|p| &p[e]).collect();
        for r in &repeats {
            report
                .checks
                .require(r.fingerprint == episode.fingerprint, || {
                    format!("episode {} is not deterministic", order[e])
                });
            report.attempted += r.frame_ms.len() as u64;
            report.failed += r.numerical_errors;
            reference_ms.push(r.reference_ms);
        }
        let median = |scaled: bool, value: &dyn Fn(&Episode) -> f64| {
            let v: Vec<f64> = repeats
                .iter()
                .map(|r| value(r) * if scaled { r.scale() } else { 1.0 })
                .collect();
            stats::median(&v)
        };
        busy_s += median(true, &|r| r.busy_s);
        raw_busy_s += median(false, &|r| r.busy_s);
        for f in 0..episode.frame_ms.len() {
            let frame = |r: &Episode| r.frame_ms.get(f).copied().unwrap_or(f64::INFINITY);
            frame_ms.push(median(true, &frame));
            raw_frame_ms.push(median(false, &frame));
        }
    }
    let outcomes: Vec<Fingerprint> = first.iter().map(|e| e.fingerprint).collect();
    let (successes, parking_time) = outcome_stats(&outcomes);
    eprintln!(
        "park: {} passes of {} episodes, {} frames each; median busy time {busy_s:.3} s \
         scaled, {raw_busy_s:.3} s raw; {successes} successes, mean parking time \
         {parking_time:.2} s",
        passes.len(),
        first.len(),
        frame_ms.len(),
    );
    eprintln!(
        "{}",
        Summary::of(&reference_ms).line("reference per episode", "ms")
    );
    eprintln!(
        "{}",
        Summary::of(&raw_frame_ms).line("park decide, raw", "ms")
    );
    eprintln!(
        "{}",
        Summary::of(&frame_ms).line("park decide, scaled", "ms")
    );
    let frames_per_s = frame_ms.len() as f64 / busy_s;
    stats::sort(&mut frame_ms);
    report.e2e(&setup, &setup_reference, &frame_ms, frames_per_s);
    Ok(())
}

/// Successes and the mean simulated parking time over them.
fn outcome_stats(outcomes: &[Fingerprint]) -> (usize, f64) {
    let times: Vec<f64> = outcomes
        .iter()
        .filter(|e| e.0 == Outcome::Success)
        .map(|e| f64::from_bits(e.2))
        .collect();
    (times.len(), stats::mean(&times))
}

/// The traced run: each episode of one pass runs untraced and then
/// traced, back to back, so both see the same load on the machine; the
/// traced replay must reproduce the untraced outcome exactly.
fn run_ledger(model: &IlModel, config: &ICoilConfig, order: &[u64], report: &mut Report) {
    let checks = &mut report.checks;
    let mut trace = Trace::new();
    let mut run = Traced::default();
    let mut outcomes = Vec::new();
    let mut untraced_s = 0.0;
    let mut frame_ms = Vec::new();
    let mut numerical_errors = 0;
    let mut reference_ms = Vec::new();
    for &index in order {
        let plain = run_untraced(model, config, index, checks);
        reference_ms.push(plain.reference_ms);
        let replay = run_traced(model, config, index, &mut trace, &mut run, checks);
        checks.require(plain.fingerprint == replay, || {
            format!(
                "traced episode {index} ({}) diverged: untraced {:?}, traced {replay:?}",
                inputs::stratum_name(index),
                plain.fingerprint
            )
        });
        untraced_s += plain.busy_s;
        numerical_errors += plain.numerical_errors;
        frame_ms.extend(plain.frame_ms);
        outcomes.push(plain.fingerprint);
    }
    checks.require(run.degraded == numerical_errors, || {
        format!(
            "traced run saw {} degraded frames, untraced {numerical_errors}",
            run.degraded
        )
    });
    report.attempted = (frame_ms.len() + run.decide_ms.len()) as u64;
    report.failed = numerical_errors + run.degraded;

    let frame_s = trace.total_s(Layer::Frame);
    let share = |layer| trace.total_s(layer) / frame_s;
    let attributed: f64 = [
        Layer::Perception,
        Layer::Il,
        Layer::Hsa,
        Layer::Co,
        Layer::World,
    ]
    .into_iter()
    .map(share)
    .sum();
    let p50 = |layer| {
        let mut v = trace.durations_us(layer);
        stats::sort(&mut v);
        stats::quantile(&v, 0.5)
    };
    let co_us = trace.durations_us(Layer::Co);
    let il_us = trace.durations_us(Layer::Il);
    let mut co_sorted = co_us.clone();
    stats::sort(&mut co_sorted);
    let mut admm = run.admm_iters.clone();
    stats::sort(&mut admm);
    stats::sort(&mut frame_ms);
    let (successes, parking_time) = outcome_stats(&outcomes);
    let solves = run.admm_iters.len().max(1) as f64;
    let decided = run.decide_ms.len().max(1) as f64;
    eprintln!("{}", Summary::of(&co_us).line("co.control", "us"));
    eprintln!(
        "{}",
        Summary::of(&run.admm_iters).line("co.admm_iters", "iterations")
    );
    eprintln!(
        "{}",
        Summary::of(&run.decide_ms).line("traced decide", "ms")
    );

    let m = &mut report.per_layer;
    m.insert("co.control_us_p50", stats::quantile(&co_sorted, 0.5));
    m.insert("co.control_us_p99", stats::quantile(&co_sorted, 0.99));
    m.insert("co.hz", hz(&co_us));
    m.insert("co.share", share(Layer::Co));
    m.insert("co.admm_iters_mean", stats::mean(&admm));
    m.insert("co.admm_iters_p50", stats::quantile(&admm, 0.5));
    m.insert("co.admm_iters_p99", stats::quantile(&admm, 0.99));
    m.insert("co.scp_passes_mean", stats::mean(&run.scp_passes));
    m.insert("co.cold_restarts", run.cold_restarts as f64);
    m.insert("co.capped_solve_share", run.capped as f64 / solves);
    m.insert("co.replans", run.replans as f64);
    m.insert(
        "bench.frames_over_budget",
        run.decide_ms
            .iter()
            .filter(|&&ms| ms > FRAME_BUDGET_MS)
            .count() as f64,
    );
    m.insert("il.infer_us_p50", p50(Layer::Il));
    m.insert("il.hz", hz(&il_us));
    m.insert("il.share", share(Layer::Il));
    m.insert("perception.observe_us_p50", p50(Layer::Perception));
    m.insert("perception.share", share(Layer::Perception));
    m.insert("hsa.update_us_p50", p50(Layer::Hsa));
    m.insert("hsa.il_mode_share", run.il_frames as f64 / decided);
    m.insert("hsa.switches", run.switches as f64);
    m.insert("world.step_us_p50", p50(Layer::World));
    m.insert("world.share", share(Layer::World));
    m.insert("park.episodes_per_s", outcomes.len() as f64 / untraced_s);
    m.insert(
        "park.success_rate",
        successes as f64 / outcomes.len() as f64,
    );
    m.insert("park.parking_time_s", parking_time);
    m.insert("park.frame_p99_ms", stats::quantile(&frame_ms, 0.99));
    m.insert("bench.unattributed_share", 1.0 - attributed);
    m.insert("bench.trace_overhead", run.wall_s / untraced_s - 1.0);
    m.insert("bench.reference_ms", stats::median(&reference_ms));
}

/// Calls per second of busy time, as §V-E reports per-mode frequency;
/// NaN without calls.
fn hz(durations_us: &[f64]) -> f64 {
    let total_s: f64 = durations_us.iter().sum::<f64>() / 1e6;
    if total_s > 0.0 {
        durations_us.len() as f64 / total_s
    } else {
        f64::NAN
    }
}
