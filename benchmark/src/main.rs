//! The iCOIL benchmark: parked episodes and a 20 Hz served fleet.
//!
//! ```text
//! cargo run --offline --release --quiet --manifest-path benchmark/Cargo.toml -- \
//!     --workload park|serve_il|serve_co --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root (it reads `artifacts/il_model.json`).
//! With `--trace 0` the last line of standard output is one JSON object
//! carrying every end-to-end metric; with `--trace 1` the workload runs
//! untraced and then traced on the same inputs, and the object carries
//! every per-layer metric instead. Human-readable summaries go to
//! standard error. See `benchmark/README.md`.

mod inputs;
mod park;
mod serve;
mod speed;
mod stats;
mod trace;

use std::collections::BTreeMap;

/// End-to-end metrics, reported by every workload with tracing off.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("frame_p50_ms", "ms"),
    ("frame_p90_ms", "ms"),
    ("frames_per_s", "1/s"),
];

/// Per-layer metrics, reported by every workload with tracing on. A
/// metric that a workload does not measure reads 0 (see the README for
/// which workload measures which).
const PER_LAYER: [(&str, &str); 43] = [
    ("co.control_us_p50", "us"),
    ("co.control_us_p99", "us"),
    ("co.hz", "1/s"),
    ("co.share", "ratio"),
    ("co.admm_iters_mean", "count"),
    ("co.admm_iters_p50", "count"),
    ("co.admm_iters_p99", "count"),
    ("co.scp_passes_mean", "count"),
    ("co.cold_restarts", "count"),
    ("co.capped_solve_share", "ratio"),
    ("co.replans", "count"),
    ("il.infer_us_p50", "us"),
    ("il.hz", "1/s"),
    ("il.share", "ratio"),
    ("perception.observe_us_p50", "us"),
    ("perception.share", "ratio"),
    ("hsa.update_us_p50", "us"),
    ("hsa.il_mode_share", "ratio"),
    ("hsa.switches", "count"),
    ("world.step_us_p50", "us"),
    ("world.share", "ratio"),
    ("park.episodes_per_s", "1/s"),
    ("park.success_rate", "ratio"),
    ("park.parking_time_s", "s"),
    ("park.frame_p99_ms", "ms"),
    ("serve.il_batch_mean", "count"),
    ("serve.co_queue_depth_mean", "count"),
    ("serve.co_lane_us_p50", "us"),
    ("serve.co_lane_us_p90", "us"),
    ("serve.co_lane_us_mean", "us"),
    ("serve.il_lane_us_p50", "us"),
    ("serve.il_lane_us_mean", "us"),
    ("serve.step_many_us_p50", "us"),
    ("serve.co_admitted", "count"),
    ("serve.co_shed", "count"),
    ("serve.deadline_miss_share", "ratio"),
    ("serve.sessions_replaced", "count"),
    ("serve.frame_p99_ms", "ms"),
    ("loadgen.lag_p90_ms", "ms"),
    ("bench.frames_over_budget", "count"),
    ("bench.unattributed_share", "ratio"),
    ("bench.trace_overhead", "ratio"),
    ("bench.reference_ms", "ms"),
];

/// Loads the committed trained model.
pub fn load_model() -> Result<icoil_il::IlModel, String> {
    let path = "artifacts/il_model.json";
    let json = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    icoil_il::IlModel::from_json(&json).map_err(|e| format!("{path}: {e}"))
}

/// Output checks: every violation is kept and printed, and any one of
/// them makes the result incorrect.
#[derive(Default)]
pub struct Checks {
    failures: Vec<String>,
}

impl Checks {
    /// Records a failed check.
    pub fn fail(&mut self, message: String) {
        if self.failures.len() < 20 {
            eprintln!("check failed: {message}");
        }
        self.failures.push(message);
    }

    /// Takes over the failures another set of checks recorded.
    pub fn merge(&mut self, other: Checks) {
        self.failures.extend(other.failures);
    }

    /// Records a failure when `ok` is false.
    pub fn require(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.fail(message());
        }
    }
}

/// Named metric values of one run.
#[derive(Default)]
pub struct MetricValues(BTreeMap<&'static str, f64>);

impl MetricValues {
    /// Sets a metric; the name must be declared.
    pub fn insert(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }
}

/// Everything one run reports.
#[derive(Default)]
pub struct Report {
    /// Output checks.
    pub checks: Checks,
    /// Operations attempted: driven or served frames.
    pub attempted: u64,
    /// Operations failed: errors, sheds and numerical-error frames.
    pub failed: u64,
    /// End-to-end metrics (untraced run).
    pub end_to_end: MetricValues,
    /// Per-layer metrics (traced run).
    pub per_layer: MetricValues,
}

impl Report {
    /// Fills the end-to-end metrics every workload shares: the median
    /// set-up scaled by the reference samples taken between set-ups, and
    /// the frame or tick times and rate the workload already scaled.
    pub fn e2e(
        &mut self,
        setup_s: &[f64],
        setup_reference: &speed::Reference,
        sorted_frame_ms: &[f64],
        frames_per_s: f64,
    ) {
        let setup = stats::median(setup_s) * setup_reference.scale();
        eprintln!(
            "set-up reference p50 {:.4} ms; set-up p50 {setup:.5} s scaled",
            setup_reference.median_ms()
        );
        let m = &mut self.end_to_end;
        m.insert("setup_s", setup);
        m.insert("frame_p50_ms", stats::quantile(sorted_frame_ms, 0.5));
        m.insert("frame_p90_ms", stats::quantile(sorted_frame_ms, 0.9));
        m.insert("frames_per_s", frames_per_s);
        eprintln!("{}", stats::Summary::of(setup_s).line("set-up, raw", "s"));
    }

    /// The result line. A declared metric that the run measured must be
    /// finite, and every end-to-end metric must be measured; otherwise
    /// the run is incorrect (its value is written as 0).
    fn json(&mut self, traced: bool) -> String {
        let (declared, values): (&[(&str, &str)], _) = if traced {
            (&PER_LAYER, &self.per_layer)
        } else {
            (&END_TO_END, &self.end_to_end)
        };
        for name in values.0.keys() {
            assert!(
                declared.iter().any(|(d, _)| d == name),
                "metric {name} is not declared"
            );
        }
        let mut invalid = Vec::new();
        let metrics: Vec<String> = declared
            .iter()
            .map(|(name, unit)| {
                let value = match values.0.get(name) {
                    Some(v) if v.is_finite() => *v,
                    Some(v) => {
                        invalid.push(format!("metric {name} is {v}: it has no valid samples"));
                        0.0
                    }
                    None if !traced => {
                        invalid.push(format!("metric {name} was not measured"));
                        0.0
                    }
                    None => 0.0,
                };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        for message in invalid {
            self.checks.fail(message);
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.checks.failures.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}");
            eprintln!("usage: --workload park|serve_il|serve_co --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    let mut report = Report::default();
    let outcome = match args.workload.as_str() {
        "park" => park::run(args.seed, args.seconds, args.traced, &mut report),
        "serve_il" => serve::run(
            serve::Lane::Il,
            args.seed,
            args.seconds,
            args.traced,
            &mut report,
        ),
        "serve_co" => serve::run(
            serve::Lane::Co,
            args.seed,
            args.seconds,
            args.traced,
            &mut report,
        ),
        other => Err(format!("unknown workload {other}")),
    };
    if let Err(e) = outcome {
        eprintln!("benchmark: {e}");
        std::process::exit(1);
    }
    report
        .checks
        .require(report.attempted > 0, || "no operation was attempted".into());
    let failed_share = report.failed as f64 / report.attempted.max(1) as f64;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let line = report.json(args.traced);
    eprintln!(
        "{}: {} attempted, {} failed ({failed_share:.4}); {} check failures; {cores} cores",
        args.workload,
        report.attempted,
        report.failed,
        report.checks.failures.len()
    );
    println!("{line}");
}

#[cfg(test)]
mod tests {
    use super::{END_TO_END, PER_LAYER};
    use serde_json::Value;

    fn field<'a>(value: &'a Value, key: &str) -> &'a Value {
        match value {
            Value::Map(entries) => entries
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("no field {key}")),
            other => panic!("expected an object holding {key}, found {other:?}"),
        }
    }

    fn declared(doc: &Value, list: &str) -> Vec<(String, String)> {
        let Value::Seq(metrics) = field(doc, list) else {
            panic!("{list} is not a list");
        };
        metrics
            .iter()
            .map(|m| match (field(m, "name"), field(m, "unit")) {
                (Value::Str(name), Value::Str(unit)) => (name.clone(), unit.clone()),
                other => panic!("malformed metric {other:?}"),
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_reported_metrics() {
        let text =
            std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json at the root");
        let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        for (list, reported) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let reported: Vec<(String, String)> = reported
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared(&doc, list), reported, "{list} differs");
        }
    }
}
