//! The `serve_il` and `serve_co` workloads: an open-loop fleet on the
//! serving engine, every session due once per 50 ms control period.
//!
//! One generator thread (this one) issues a `step_many` over the whole
//! fleet at each tick's due time, whether or not the previous tick was
//! answered on time, and times each tick from its due time to its reply,
//! so a stall is charged to every tick it delays. A session whose
//! episode ends is closed and replaced by the next scenario of the fixed
//! set, keeping the fleet size constant. After each tick the generator
//! samples the speed reference (`crate::speed`) while the engine is idle.
//! Untraced runs replay the fleet, scale each replay's tick latencies to
//! the reference speed of its own samples and keep each tick's median.

use crate::inputs;
use crate::speed::{self, Reference};
use crate::stats::{self, Summary};
use crate::trace::{Layer, Trace};
use crate::{load_model, Checks, Report};
use icoil_core::ICoilConfig;
use icoil_hsa::{HsaConfig, Mode};
use icoil_serve::{Serve, ServeConfig, ServeHandle, SessionSpec, StepResponse};
use icoil_telemetry::{Counter, Metrics, Series};
use std::time::{Duration, Instant};

/// Replays of the fleet in an untraced run.
const REPLAYS: usize = 5;

/// Times each replay repeats its set-up; `setup_s` is the median over
/// all replays.
const SETUP_REPEATS: usize = 5;

/// The paper's control period (`dt = 0.05`).
const PERIOD: Duration = Duration::from_millis(50);

/// Which lane the fleet loads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// λ = +∞ and an IL initial mode: every frame takes the IL lane.
    Il,
    /// The default configuration: the trained model sends nearly every
    /// frame to the CO lane.
    Co,
}

impl Lane {
    fn name(self) -> &'static str {
        match self {
            Lane::Il => "serve_il",
            Lane::Co => "serve_co",
        }
    }

    /// Sessions in the fleet: below the load at which ticks start to
    /// miss their period on a two-core machine (see the README).
    fn fleet(self) -> usize {
        match self {
            Lane::Il => 64,
            Lane::Co => 2,
        }
    }

    fn config(self) -> ServeConfig {
        let base = ServeConfig {
            shards: 1,
            max_sessions: self.fleet(),
            ..ServeConfig::default()
        };
        match self {
            Lane::Il => ServeConfig {
                icoil: ICoilConfig {
                    hsa: HsaConfig {
                        lambda: f64::INFINITY,
                        initial_mode: Mode::Il,
                        ..HsaConfig::default()
                    },
                    ..ICoilConfig::default()
                },
                ..base
            },
            Lane::Co => base,
        }
    }
}

fn spec(index: u64) -> SessionSpec {
    SessionSpec::Scenario(Box::new(inputs::scenario(index)))
}

/// A started server with its fleet created.
struct Fleet {
    server: Serve,
    handle: ServeHandle,
    ids: Vec<u64>,
}

/// Starts the server and creates the fleet, timing both. The first
/// `fleet` scenarios of the fixed set fill the fleet's slots in an order
/// the seed permutes.
fn set_up(lane: Lane, seed: u64) -> Result<(f64, Fleet), String> {
    let specs: Vec<SessionSpec> = inputs::permutation(seed, lane.fleet() as u64)
        .into_iter()
        .map(spec)
        .collect();
    let t0 = Instant::now();
    let server = Serve::start(lane.config(), load_model()?);
    let handle = server.handle();
    let ids = specs
        .into_iter()
        .map(|s| handle.create(s))
        .collect::<Result<Vec<u64>, _>>()
        .map_err(|e| format!("creating the fleet: {e}"))?;
    Ok((
        t0.elapsed().as_secs_f64(),
        Fleet {
            server,
            handle,
            ids,
        },
    ))
}

/// What one open-loop phase measured.
#[derive(Default)]
struct Phase {
    setup_s: Vec<f64>,
    tick_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    frames: u64,
    il_frames: u64,
    failed: u64,
    replaced: u64,
    wall_s: f64,
    metrics: Metrics,
    reference: Option<Reference>,
}

fn check_response(checks: &mut Checks, r: &StepResponse) {
    if let Err(e) = r.action.validate() {
        checks.fail(format!(
            "session {} frame {}: invalid action: {e}",
            r.session, r.frame
        ));
    }
    for v in [
        r.time,
        r.uncertainty,
        r.complexity,
        r.x,
        r.y,
        r.heading,
        r.velocity,
    ] {
        checks.require(v.is_finite(), || {
            format!(
                "session {} frame {}: non-finite output {v}",
                r.session, r.frame
            )
        });
    }
}

/// Runs one open-loop phase of `budget` after `SETUP_REPEATS` set-ups,
/// sampling `setup_reference` after each set-up.
fn run_phase(
    lane: Lane,
    seed: u64,
    budget: Duration,
    mut trace: Option<&mut Trace>,
    setup_reference: &mut Reference,
    checks: &mut Checks,
) -> Result<Phase, String> {
    let mut setup_s = Vec::new();
    let mut fleet = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(Fleet { server, .. }) = fleet.take() {
            server.shutdown();
        }
        let (seconds, started) = set_up(lane, seed)?;
        setup_s.push(seconds);
        fleet = Some(started);
        for _ in 0..speed::SAMPLES_PER_SETUP {
            setup_reference.sample();
        }
    }
    let mut fleet = fleet.expect("at least one set-up");
    let mut phase = Phase {
        setup_s,
        ..Phase::default()
    };
    let mut next_input = fleet.ids.len() as u64;
    let mut reference = Reference::new();
    let start = Instant::now();
    let mut last_reply = start;
    for tick in 0u32.. {
        let due = start + PERIOD * tick;
        if due - start >= budget {
            break;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let sent = Instant::now();
        let results = fleet.handle.step_many(&fleet.ids);
        last_reply = Instant::now();
        if let Some(trace) = trace.as_deref_mut() {
            trace.record(Layer::ServeStep, sent, last_reply);
        }
        phase.lag_ms.push((sent - due).as_secs_f64() * 1e3);
        phase.tick_ms.push((last_reply - due).as_secs_f64() * 1e3);

        let mut finished = Vec::new();
        for (slot, result) in results.into_iter().enumerate() {
            let r = match result {
                Ok(r) => r,
                Err(e) => {
                    phase.failed += 1;
                    checks.fail(format!("step of session {}: {e}", fleet.ids[slot]));
                    continue;
                }
            };
            phase.frames += 1;
            check_response(checks, &r);
            phase.failed += u64::from(r.shed || r.degraded);
            phase.il_frames += u64::from(r.mode == "IL");
            if r.outcome.is_some() {
                finished.push(slot);
            }
        }
        for slot in finished {
            let replace = || -> Result<u64, String> {
                fleet
                    .handle
                    .close(fleet.ids[slot])
                    .map_err(|e| e.to_string())?;
                fleet
                    .handle
                    .create(spec(next_input))
                    .map_err(|e| e.to_string())
            };
            let id = replace().map_err(|e| format!("replacing a finished session: {e}"))?;
            fleet.ids[slot] = id;
            next_input += 1;
            phase.replaced += 1;
        }
        reference.sample();
    }
    phase.wall_s = (last_reply - start).as_secs_f64();
    phase.metrics = fleet
        .handle
        .metrics()
        .map_err(|e| format!("metrics: {e}"))?;
    fleet.server.shutdown();
    phase.reference = Some(reference);
    Ok(phase)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    stats::sort(&mut v);
    v
}

/// Runs the workload and fills the report.
pub fn run(
    lane: Lane,
    seed: u64,
    seconds: f64,
    traced: bool,
    report: &mut Report,
) -> Result<(), String> {
    if !traced {
        // every replay offers the same fleet the same frames at the same
        // due times, so each tick counts with the median of its replays
        let budget = Duration::from_secs_f64(seconds / REPLAYS as f64);
        let mut phases = Vec::new();
        let mut setup_reference = Reference::new();
        for _ in 0..REPLAYS {
            let phase = run_phase(
                lane,
                seed,
                budget,
                None,
                &mut setup_reference,
                &mut report.checks,
            )?;
            check_phase(lane, &phase, &mut report.checks);
            report.attempted += phase.frames;
            report.failed += phase.failed;
            summarize(lane, &phase);
            phases.push(phase);
        }
        let first = &phases[0];
        for p in &phases[1..] {
            let same = (p.frames, p.il_frames, p.replaced)
                == (first.frames, first.il_frames, first.replaced);
            report.checks.require(same, || {
                format!(
                    "replays diverged: {} frames, {} on IL, {} replaced against {}, {}, {}",
                    p.frames,
                    p.il_frames,
                    p.replaced,
                    first.frames,
                    first.il_frames,
                    first.replaced
                )
            });
        }
        let median_of_replays = |scaled: bool| -> Vec<f64> {
            (0..first.tick_ms.len())
                .map(|t| {
                    let v: Vec<f64> = phases
                        .iter()
                        .map(|p| {
                            let tick = p.tick_ms.get(t).copied().unwrap_or(f64::INFINITY);
                            tick * if scaled { p.scale() } else { 1.0 }
                        })
                        .collect();
                    stats::median(&v)
                })
                .collect()
        };
        let mut ticks = median_of_replays(true);
        eprintln!(
            "{}",
            Summary::of(&median_of_replays(false)).line("median-of-replays tick, raw", "ms")
        );
        eprintln!(
            "{}",
            Summary::of(&ticks).line("median-of-replays tick, scaled", "ms")
        );
        stats::sort(&mut ticks);
        let frames: u64 = phases.iter().map(|p| p.frames).sum();
        let wall_s: f64 = phases.iter().map(|p| p.wall_s).sum();
        let setup: Vec<f64> = phases
            .iter()
            .flat_map(|p| p.setup_s.iter().copied())
            .collect();
        report.e2e(&setup, &setup_reference, &ticks, frames as f64 / wall_s);
        return Ok(());
    }

    let budget = Duration::from_secs_f64(seconds / 2.0);
    let mut setup_reference = Reference::new();
    let untraced = run_phase(
        lane,
        seed,
        budget,
        None,
        &mut setup_reference,
        &mut report.checks,
    )?;
    check_phase(lane, &untraced, &mut report.checks);
    report.attempted += untraced.frames;
    report.failed += untraced.failed;
    summarize(lane, &untraced);
    let untraced_ticks = sorted(&untraced.tick_ms);

    let mut trace = Trace::new();
    let phase = run_phase(
        lane,
        seed,
        budget,
        Some(&mut trace),
        &mut setup_reference,
        &mut report.checks,
    )?;
    check_phase(lane, &phase, &mut report.checks);
    report.attempted += phase.frames;
    report.failed += phase.failed;

    let ticks = sorted(&phase.tick_ms);
    let metrics = &phase.metrics;
    // the engine's histograms read 0 when empty; a metric of the loaded
    // lane must have samples, so an empty one reads NaN and fails the run
    let stat = |series: Series, q: Option<f64>| {
        let h = metrics.series(series);
        match (h.count(), q) {
            (0, _) => f64::NAN,
            (_, Some(q)) => h.quantile(q),
            (_, None) => h.mean(),
        }
    };
    let us = |series: Series, q: Option<f64>| stat(series, q) * 1e6;
    let step_s = trace.total_s(Layer::ServeStep);
    let mut step_us = trace.durations_us(Layer::ServeStep);
    stats::sort(&mut step_us);
    let m = &mut report.per_layer;
    match lane {
        Lane::Il => {
            m.insert("serve.il_batch_mean", stat(Series::IlBatchSize, None));
            m.insert("serve.il_lane_us_p50", us(Series::ServeIlLane, Some(0.5)));
            m.insert("serve.il_lane_us_mean", us(Series::ServeIlLane, None));
        }
        Lane::Co => {
            m.insert(
                "serve.co_queue_depth_mean",
                stat(Series::CoQueueDepth, None),
            );
            m.insert("serve.co_lane_us_p50", us(Series::ServeCoLane, Some(0.5)));
            m.insert("serve.co_lane_us_p90", us(Series::ServeCoLane, Some(0.9)));
            m.insert("serve.co_lane_us_mean", us(Series::ServeCoLane, None));
        }
    }
    m.insert("serve.step_many_us_p50", stats::quantile(&step_us, 0.5));
    m.insert(
        "serve.co_admitted",
        metrics.counter(Counter::CoAdmitted) as f64,
    );
    m.insert("serve.co_shed", metrics.counter(Counter::CoShed) as f64);
    m.insert(
        "serve.deadline_miss_share",
        ticks
            .iter()
            .filter(|&&ms| ms > PERIOD.as_secs_f64() * 1e3)
            .count() as f64
            / ticks.len().max(1) as f64,
    );
    m.insert("serve.sessions_replaced", phase.replaced as f64);
    m.insert("serve.frame_p99_ms", stats::quantile(&ticks, 0.99));
    m.insert(
        "hsa.il_mode_share",
        phase.il_frames as f64 / phase.frames.max(1) as f64,
    );
    m.insert(
        "loadgen.lag_p90_ms",
        stats::quantile(&sorted(&phase.lag_ms), 0.9),
    );
    m.insert(
        "bench.unattributed_share",
        1.0 - step_s / (phase.tick_ms.iter().sum::<f64>() / 1e3),
    );
    m.insert(
        "bench.trace_overhead",
        stats::quantile(&ticks, 0.5) / stats::quantile(&untraced_ticks, 0.5) - 1.0,
    );
    m.insert("bench.reference_ms", phase.median_reference_ms());
    Ok(())
}

impl Phase {
    /// Median time of the reference samples the phase took.
    fn median_reference_ms(&self) -> f64 {
        self.reference
            .as_ref()
            .map_or(f64::NAN, Reference::median_ms)
    }

    /// The phase's scale to the reference speed.
    fn scale(&self) -> f64 {
        self.reference.as_ref().map_or(f64::NAN, Reference::scale)
    }
}

fn summarize(lane: Lane, phase: &Phase) {
    eprintln!(
        "{}: fleet of {}, {} frames in {:.3} s, {} sessions replaced, set-up {:.4?} s",
        lane.name(),
        lane.fleet(),
        phase.frames,
        phase.wall_s,
        phase.replaced,
        phase.setup_s
    );
    eprintln!(
        "{}",
        Summary::of(&phase.tick_ms).line("tick due-to-reply", "ms")
    );
    eprintln!("{}", Summary::of(&phase.lag_ms).line("generator lag", "ms"));
    eprintln!(
        "reference p50 {:.4} ms, scale {:.4}",
        phase.median_reference_ms(),
        phase.scale()
    );
}

/// The lane-specific checks: the IL fleet admits no CO job, and the CO
/// fleet sheds nothing at its load (a shed means the load is past the
/// knee).
fn check_phase(lane: Lane, phase: &Phase, checks: &mut Checks) {
    let admitted = phase.metrics.counter(Counter::CoAdmitted);
    let shed = phase.metrics.counter(Counter::CoShed);
    match lane {
        Lane::Il => checks.require(admitted == 0 && shed == 0, || {
            format!("the IL fleet sent {admitted} frames to the CO lane ({shed} shed)")
        }),
        Lane::Co => checks.require(shed == 0, || format!("the CO fleet shed {shed} frames")),
    }
}
