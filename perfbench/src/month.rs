//! The `month-batch` workload: Monte-Carlo risk studies run in process
//! with `RiskEngine` (full 720-hour months, stringent budget, flat caps,
//! capper plus Min-Only per sample), and the solver self-test.

use crate::stats::{median, quantile};
use crate::traced::{scenario_build_ms, snap_counter, solver_metrics, span_mean_us};
use crate::{Args, Run};
use billcap_core::{CapperConfig, DecisionEngine};
use billcap_rt::{Rng, SeedStream, Xoshiro256pp};
use billcap_sim::{run_month_with, RiskConfig, RiskEngine, RiskSample, Scenario, Strategy};
use std::time::Instant;

const HOURS: usize = 720;
/// Mean workload and monthly budget of every study, as shares of
/// `Scenario::MEAN_RATE` and `Scenario::STRINGENT_BUDGET`. At the full
/// mean rate about 15% of sampled months offer more than the network's
/// capacity in some hour, and the capacity clamp then hands step 1 a
/// load on the boundary that it sometimes cannot serve (see
/// [`KNOWN_INFEASIBLE_ROOT`]). At 80% none of 200 000 months came
/// within 6% of capacity. The budget is cut so far that the capper
/// still throttles or overrides in about a tenth of the hours, as it
/// does at the full rate and budget.
const LOAD_SHARE: f64 = 0.8;
const BUDGET_SHARE: f64 = 0.75;
/// A one-sample study that fails with `model is infeasible` under the
/// default `RiskConfig` (full mean rate, stringent budget): its month
/// offers more than capacity at hour 355, and step 1 cannot serve the
/// clamped load. Re-run once per run, untimed and outside `attempted`,
/// so the open defect stays in view.
const KNOWN_INFEASIBLE_ROOT: u64 = 6_631_059_059_474_098_037;
/// A peak study: this many samples on this many pool threads.
const STUDY_SAMPLES: usize = 4;
const STUDY_THREADS: usize = 2;
/// Peak-study samples re-run serially and compared bitwise.
const CHECKED_SAMPLES: usize = 8;
/// Cold starts per round, whose median over the run is `setup_s`; the
/// fixed fleets they cycle through, and their seed. A cold start takes
/// well under a millisecond, and its time drifts by a third over
/// seconds on a shared host, so the run spreads them over its rounds.
const COLD_STARTS_PER_ROUND: usize = 4;
const COLD_START_FLEETS: usize = 51;
const COLD_START_SEED: u64 = 0x6d6f_6e74;
/// Months per traced second that the traced run simulates, each three
/// times (recorder off, recorder on, pooled).
const TRACED_SAMPLES_PER_SECOND: f64 = 6.0;

/// The 168-hour stringent-budget reference behind BENCH_solver.json's
/// deterministic aggregates: B&B nodes, LP pivots, engine rebuilds.
const REFERENCE_HOURS: usize = 168;
const REFERENCE_COUNTS: [(&str, u64); 4] = [
    ("sim.hours", 168),
    ("milp.bnb.nodes", 291),
    ("milp.lp.iterations", 1666),
    ("core.engine.rebuilds", 16),
];

/// Re-runs the traced one-week reference and checks its exact work
/// counters.
pub fn self_test() -> Result<(), String> {
    let mut scenario = Scenario::paper_default(1, 42);
    scenario.workload = scenario.workload.slice(0, REFERENCE_HOURS);
    scenario.background = scenario
        .background
        .iter()
        .map(|b| b.slice(0, REFERENCE_HOURS))
        .collect();
    let budget = Scenario::STRINGENT_BUDGET * REFERENCE_HOURS as f64 / 720.0;
    billcap_obs::reset();
    billcap_obs::set_enabled(true);
    let result = run_month_with(&scenario, Strategy::CostCapping, Some(budget), false);
    billcap_obs::set_enabled(false);
    let snap = billcap_obs::snapshot();
    billcap_obs::reset();
    result.map_err(|e| format!("reference run failed: {e}"))?;
    for (name, want) in REFERENCE_COUNTS {
        let got = snap_counter(&snap, name);
        if got != want {
            return Err(format!("{name} = {got}, expected {want}"));
        }
    }
    Ok(())
}

fn config(root_seed: u64, samples: usize, threads: usize) -> RiskConfig {
    RiskConfig {
        samples,
        root_seed,
        threads,
        policy: 1,
        hours: HOURS,
        monthly_budget: Some(Scenario::STRINGENT_BUDGET * BUDGET_SHARE),
        mean_rate: Scenario::MEAN_RATE * LOAD_SHARE,
        ..RiskConfig::default()
    }
}

/// Bitwise equality of two samples (the index aside).
fn same_sample(a: &RiskSample, b: &RiskSample) -> bool {
    let f = |x: f64, y: f64| x.to_bits() == y.to_bits();
    a.seed == b.seed
        && a.violates_budget == b.violates_budget
        && a.hourly_violations == b.hourly_violations
        && f(a.capper_bill, b.capper_bill)
        && f(a.violation_magnitude, b.violation_magnitude)
        && f(a.premium_miss_rate, b.premium_miss_rate)
        && f(a.premium_throughput, b.premium_throughput)
        && f(a.ordinary_throughput, b.ordinary_throughput)
        && f(a.min_only_bill, b.min_only_bill)
        && f(a.savings_ratio, b.savings_ratio)
}

/// Re-runs [`KNOWN_INFEASIBLE_ROOT`] and says whether it still fails.
fn known_failure() -> String {
    let config = RiskConfig {
        samples: 1,
        root_seed: KNOWN_INFEASIBLE_ROOT,
        threads: 1,
        hours: HOURS,
        ..RiskConfig::default()
    };
    match RiskEngine::new(config).run() {
        Ok(_) => "now passes".to_string(),
        Err(e) => format!("still fails: {e}"),
    }
}

/// One sample's month, run alone at one thread.
fn serial_sample(seed: u64) -> Result<RiskSample, String> {
    let (mut samples, _) = RiskEngine::new(config(seed, 1, 1))
        .run_with_seeds(&[seed])
        .map_err(|e| format!("sample {seed}: {e}"))?;
    samples.pop().ok_or_else(|| "empty risk run".to_string())
}

/// Time from nothing to a fleet's first decision: scenario generation,
/// engine construction and the cold model builds of hour 0.
fn cold_start(seed: u64) -> Result<f64, String> {
    let t = Instant::now();
    let scenario = Scenario::paper_default(1, seed);
    let mut engine = DecisionEngine::new(scenario.system.clone(), CapperConfig::default());
    let offered = scenario.workload.at(0);
    let d = engine
        .decide_hour(
            offered,
            scenario.split.premium(offered),
            &scenario.background_at(0),
            f64::INFINITY,
        )
        .map_err(|e| format!("cold start: {e}"))?;
    let secs = t.elapsed().as_secs_f64();
    std::hint::black_box(d);
    Ok(secs)
}

/// The traced run spends half of `--seconds` on the timed studies and
/// half on the traced months.
pub fn run(args: &Args, run: &mut Run) -> Result<(), String> {
    if args.trace {
        timed(args, args.seconds / 2.0, run)?;
        traced(args, args.seconds / 2.0, run)
    } else {
        timed(args, args.seconds, run)
    }
}

fn timed(args: &Args, seconds: f64, run: &mut Run) -> Result<(), String> {
    // Cold starts use fixed fleets, so every run does the same set-up
    // work; the studies draw from `--seed`.
    let fixed = SeedStream::new(COLD_START_SEED);
    let seeds = SeedStream::new(args.seed ^ 0x6d6f_6e74);

    // Each round: a few cold starts, then a single-sample study at one
    // thread (base) and a STUDY_SAMPLES study on STUDY_THREADS threads
    // (peak), until the time is up. Each study draws fresh root seeds.
    let mut starts = Vec::new();
    let mut base_ms = Vec::new();
    let mut peak_ms = Vec::new();
    let mut peak_samples: Vec<RiskSample> = Vec::new();
    let t0 = Instant::now();
    let mut k = 0u64;
    while k == 0 || t0.elapsed().as_secs_f64() < seconds {
        for _ in 0..COLD_STARTS_PER_ROUND {
            let fleet = starts.len() % COLD_START_FLEETS;
            starts.push(cold_start(fixed.seed(fleet as u64))?);
        }
        // A study that errors is a failed operation; its time is left
        // out of the figures.
        let root = seeds.seed(2 * k);
        let t = Instant::now();
        let base = RiskEngine::new(config(root, 1, 1)).run();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        run.attempted += 1;
        match base {
            Ok(_) => base_ms.push(ms),
            Err(e) => {
                println!("# base study (root seed {root}) failed: {e}");
                run.failed += 1;
            }
        }

        let root = seeds.seed(2 * k + 1);
        let t = Instant::now();
        let peak = RiskEngine::new(config(root, STUDY_SAMPLES, STUDY_THREADS)).run();
        let ms = t.elapsed().as_secs_f64() * 1e3;
        run.attempted += STUDY_SAMPLES as u64;
        match peak {
            Ok((samples, _)) => {
                peak_ms.push(ms);
                peak_samples.extend(samples);
            }
            Err(e) => {
                println!("# peak study (root seed {root}) failed: {e}");
                run.failed += STUDY_SAMPLES as u64;
            }
        }
        k += 1;
    }

    // Outside the timed window: re-run a seeded subset of the pooled
    // samples serially and demand bitwise-identical results.
    let mut rng = Xoshiro256pp::seed_from_u64(seeds.seed(u64::MAX));
    let mut mismatched = 0;
    let checks = CHECKED_SAMPLES.min(peak_samples.len());
    for _ in 0..checks {
        let pooled = &peak_samples[rng.random_below(peak_samples.len() as u64) as usize];
        let serial = serial_sample(pooled.seed)?;
        if !same_sample(pooled, &serial) {
            println!("# sample seed {} differs when re-run serially", pooled.seed);
            mismatched += 1;
        }
    }
    run.failed += mismatched;
    run.wrong += mismatched;
    run.set("setup_s", median(&starts));

    let peak_secs: f64 = peak_ms.iter().sum::<f64>() / 1e3;
    let base_secs: f64 = base_ms.iter().sum::<f64>() / 1e3;
    let peak_months = (peak_ms.len() * STUDY_SAMPLES) as f64;
    run.set("lat_p50_ms.base", quantile(&base_ms, 0.5));
    run.set("lat_p99_ms.base", quantile(&base_ms, 0.99));
    run.set("lat_p50_ms.peak", quantile(&peak_ms, 0.5));
    run.set("lat_p99_ms.peak", quantile(&peak_ms, 0.99));
    // Hourly decisions (capper and Min-Only) per second at one thread.
    run.set(
        "max_rate_rps",
        (base_ms.len() * 2 * HOURS) as f64 / base_secs,
    );
    run.set("sim_hours_per_s", peak_months * HOURS as f64 / peak_secs);
    println!(
        "# {k} rounds; studies that succeeded: {} base (1 x {HOURS} h, 1 thread), {} peak ({STUDY_SAMPLES} x {HOURS} h, {STUDY_THREADS} threads); {checks} pooled samples re-run serially, {mismatched} differ",
        base_ms.len(),
        peak_ms.len()
    );
    println!(
        "# {} cold starts: p10 {:.1} us, median {:.1} us, p90 {:.1} us",
        starts.len(),
        quantile(&starts, 0.1) * 1e6,
        quantile(&starts, 0.5) * 1e6,
        quantile(&starts, 0.9) * 1e6
    );
    println!(
        "# known failure, default RiskConfig, root seed {KNOWN_INFEASIBLE_ROOT}: {}",
        known_failure()
    );
    Ok(())
}

fn traced(args: &Args, seconds: f64, run: &mut Run) -> Result<(), String> {
    let stream = SeedStream::new(args.seed ^ 0x7472_6163);
    let count = ((seconds * TRACED_SAMPLES_PER_SECOND) as usize).max(4);

    // Each month serially twice, recorder off and on, in alternating
    // order so a slow spell of the machine weighs on both; then the
    // months that succeeded, as one pooled study. A month that errors
    // counts as three failed operations and is left out.
    billcap_obs::reset();
    let mut seeds = Vec::new();
    let mut plain = Vec::new();
    let mut plain_ms = Vec::new();
    let mut traced = Vec::new();
    let mut traced_ms = Vec::new();
    for (i, s) in (0..count as u64).map(|i| stream.seed(i)).enumerate() {
        run.attempted += 3;
        let mut pair = Vec::new();
        for on in [i % 2 == 0, i % 2 == 1] {
            billcap_obs::set_enabled(on);
            let t = Instant::now();
            let sample = serial_sample(s);
            pair.push((on, sample, t.elapsed().as_secs_f64() * 1e3));
            billcap_obs::set_enabled(false);
        }
        if let Some((_, Err(e), _)) = pair.iter().find(|(_, r, _)| r.is_err()) {
            println!("# month (sample seed {s}) failed: {e}");
            run.failed += 3;
            continue;
        }
        seeds.push(s);
        for (on, sample, ms) in pair {
            let sample = sample?;
            if on {
                traced.push(sample);
                traced_ms.push(ms);
            } else {
                plain.push(sample);
                plain_ms.push(ms);
            }
        }
    }
    let snap = billcap_obs::snapshot();
    billcap_obs::reset();
    if seeds.is_empty() {
        return Err("every traced month failed".into());
    }
    let t = Instant::now();
    let (pooled, _) = RiskEngine::new(config(args.seed, seeds.len(), STUDY_THREADS))
        .run_with_seeds(&seeds)
        .map_err(|e| format!("pooled study: {e}"))?;
    let pooled_ms = t.elapsed().as_secs_f64() * 1e3;

    for (i, p) in plain.iter().enumerate() {
        for other in [&pooled[i], &traced[i]] {
            if !same_sample(p, other) {
                println!("# sample seed {} differs between runs", p.seed);
                run.failed += 1;
                run.wrong += 1;
            }
        }
    }
    run.set("failed_frac", run.failed as f64 / run.attempted as f64);

    let plain_total: f64 = plain_ms.iter().sum();
    run.set("sim.month_ms.p50", quantile(&traced_ms, 0.5));
    run.set("sim.month_ms.max", quantile(&traced_ms, 1.0));
    run.set(
        "pool.utilization",
        plain_total / (STUDY_THREADS as f64 * pooled_ms),
    );
    run.set(
        "obs.trace_overhead_frac",
        traced_ms.iter().sum::<f64>() / plain_total - 1.0,
    );
    run.set("workload.scenario_build_ms", scenario_build_ms());

    // Capper hours come from the runner's `hour` spans; Min-Only decides
    // the same hours again without one.
    let hours: Vec<&billcap_obs::SpanEvent> = snap
        .events
        .iter()
        .filter(|e| e.path.rsplit('/').next() == Some("hour"))
        .collect();
    let capper_hours = hours.len() as u64;
    let decisions = 2 * capper_hours;
    let decide_us: Vec<f64> = hours.iter().map(|e| e.dur_ns as f64 / 1e3).collect();
    let field = |e: &billcap_obs::SpanEvent, name: &str| {
        e.fields
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
            .unwrap_or(0.0)
    };
    let outcome_frac = |code: f64| {
        hours.iter().filter(|e| field(e, "outcome") == code).count() as f64
            / capper_hours.max(1) as f64
    };
    run.set("engine.decide_us.p50", quantile(&decide_us, 0.5));
    run.set("engine.decide_us.p99", quantile(&decide_us, 0.99));
    let steps = ["step1", "step2", "step3"].map(|s| {
        let (mean_us, count) = span_mean_us(&snap, s);
        mean_us * count as f64 / capper_hours.max(1) as f64
    });
    run.set("capper.step1_us", steps[0]);
    run.set("capper.step2_us", steps[1]);
    run.set("capper.step3_us", steps[2]);
    run.set(
        "capper.unattributed_us",
        span_mean_us(&snap, "hour").0 - steps.iter().sum::<f64>(),
    );
    run.set("capper.outcome_throttled_frac", outcome_frac(1.0));
    run.set("capper.outcome_override_frac", outcome_frac(2.0));
    run.set(
        "capper.solves_per_decision",
        hours.iter().map(|e| field(e, "solves")).sum::<f64>() / capper_hours.max(1) as f64,
    );
    let nodes = snap_counter(&snap, "milp.bnb.nodes");
    let pivots = snap_counter(&snap, "milp.lp.iterations");
    run.set(
        "milp.nodes_per_decision",
        nodes as f64 / decisions.max(1) as f64,
    );
    run.set(
        "milp.lp_pivots_per_decision",
        pivots as f64 / decisions.max(1) as f64,
    );
    solver_metrics(&snap, decisions, run);
    let eh = snap_counter(&snap, "core.engine.cache.hit");
    let em = snap_counter(&snap, "core.engine.cache.miss");
    run.set(
        "engine.step_cache_hit_ratio",
        eh as f64 / (eh + em).max(1) as f64,
    );
    let rebuilds = snap_counter(&snap, "core.engine.rebuilds");
    run.set("engine.rebuilds", rebuilds as f64);
    run.unused_layers(&["protocol.", "server.", "cache."]);
    println!(
        "# exact counters over {} traced months ({capper_hours} capper hours): nodes {nodes} pivots {pivots} engine rebuilds {rebuilds}; months {:.1} ms untraced, {:.1} ms traced (sum), pooled study {:.1} ms",
        seeds.len(),
        plain_total,
        traced_ms.iter().sum::<f64>(),
        pooled_ms
    );
    Ok(())
}
