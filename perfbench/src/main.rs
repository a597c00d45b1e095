//! End-to-end benchmark for billcap: served-decision latency and
//! month-study throughput, with a separate traced run for per-layer
//! numbers.
//!
//! ```text
//! perfbench --billcap PATH --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Workloads: `serve-fresh`, `serve-repeat` (a child `billcap serve`
//! over a Unix socket) and `month-batch` (an in-process risk study).
//! Informational lines go to stdout prefixed with `#`; the last stdout
//! line is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. With `--trace 0` the metrics are the end-to-end ones, with
//! `--trace 1` the per-layer ones. See README.md for what each metric
//! means and which layer should move it.

mod month;
mod serve;
mod stats;
mod traced;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics, printed by every untraced run. Only figures that
/// stay steady from run to run on a small shared machine are here; the
/// latency and SLO-rate figures are in [`PER_LAYER`] (see README.md).
pub const END_TO_END: [(&str, &str); 2] = [("setup_s", "s"), ("sim_hours_per_s", "1/s")];

/// Per-layer metrics, printed by every traced run. A workload that does
/// not use a layer reports its metrics as 0. The first five are the
/// workload's end-to-end latency and SLO-rate figures, reported without
/// a bound.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("lat_p50_ms.base", "ms"),
    ("lat_p99_ms.base", "ms"),
    ("lat_p50_ms.peak", "ms"),
    ("lat_p99_ms.peak", "ms"),
    ("max_rate_rps", "1/s"),
    ("failed_frac", "frac"),
    ("protocol.decode_us", "us"),
    ("protocol.encode_us", "us"),
    ("protocol.response_bytes", "bytes"),
    ("server.queue_wait_us.p50", "us"),
    ("server.queue_wait_us.p99", "us"),
    ("server.request_us.p50", "us"),
    ("server.request_us.p99", "us"),
    ("server.transport_us", "us"),
    ("cache.hit_ratio", "frac"),
    ("cache.evictions", "count"),
    ("cache.get_us", "us"),
    ("cache.insert_us", "us"),
    ("engine.step_cache_hit_ratio", "frac"),
    ("engine.rebuilds", "count"),
    ("engine.decide_us.p50", "us"),
    ("engine.decide_us.p99", "us"),
    ("capper.step1_us", "us"),
    ("capper.step2_us", "us"),
    ("capper.step3_us", "us"),
    ("capper.unattributed_us", "us"),
    ("milp.nodes_per_decision", "1/decision"),
    ("milp.lp_pivots_per_decision", "1/decision"),
    ("milp.factorizations", "1/decision"),
    ("milp.warm_start_ratio", "frac"),
    ("milp.mip_us", "us"),
    ("sim.month_ms.p50", "ms"),
    ("sim.month_ms.max", "ms"),
    ("pool.utilization", "frac"),
    ("workload.scenario_build_ms", "ms"),
    ("capper.outcome_throttled_frac", "frac"),
    ("capper.outcome_override_frac", "frac"),
    ("capper.solves_per_decision", "1/decision"),
    ("obs.trace_overhead_frac", "frac"),
];

/// What one benchmark run produced.
#[derive(Default)]
pub struct Run {
    /// Operations whose output was checked (requests, month samples).
    pub attempted: u64,
    /// Operations that errored, went missing or did not match.
    pub failed: u64,
    /// The failed operations whose output was wrong: a mismatch with the
    /// fresh solver or the serial re-run, or a response no request
    /// asked for. Any makes the run incorrect; an error the program
    /// reported is counted in `failed` only.
    pub wrong: u64,
    /// Correctness failures not tied to one operation (self-test,
    /// traffic-shape checks), described.
    pub problems: Vec<String>,
    /// Metric values by name; units come from the tables above.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Run {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Reports every metric of the named layers as 0: the workload does
    /// not exercise them.
    pub fn unused_layers(&mut self, prefixes: &[&str]) {
        for (name, _) in PER_LAYER {
            if prefixes.iter().any(|p| name.starts_with(p)) {
                self.metrics.insert(name, 0.0);
            }
        }
    }

    pub fn problem(&mut self, message: String) {
        println!("# problem: {message}");
        self.problems.push(message);
    }
}

struct Args {
    billcap: Option<PathBuf>,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        billcap: None,
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot parse {value:?}");
        match flag.as_str() {
            "--billcap" => a.billcap = Some(PathBuf::from(&value)),
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => a.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

fn run(args: &Args) -> Result<Run, String> {
    // The benchmark owns the recorder: off unless a traced section turns
    // it on, whatever the environment says.
    billcap_obs::set_enabled(false);
    let mut run = Run::default();
    if let Err(e) = month::self_test() {
        run.problem(format!("self-test: {e}"));
    }
    let billcap = || {
        args.billcap
            .clone()
            .ok_or_else(|| "serve workloads need --billcap PATH".to_string())
    };
    match args.workload.as_str() {
        "serve-fresh" => serve::run(&serve::FRESH, &billcap()?, args, &mut run)?,
        "serve-repeat" => serve::run(&serve::REPEAT, &billcap()?, args, &mut run)?,
        "month-batch" => month::run(args, &mut run)?,
        other => return Err(format!("unknown workload {other:?}")),
    }
    Ok(run)
}

fn print_result(run: &Run, trace: bool) -> Result<bool, String> {
    let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::new();
    for &(name, unit) in table {
        let value = run
            .metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    let correct = run.wrong == 0 && run.problems.is_empty() && run.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.attempted.max(1),
        run.failed,
        fields.join(", ")
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&args).and_then(|r| print_result(&r, args.trace));
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("perfbench: incorrect output (see the # problem lines)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
