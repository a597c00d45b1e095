//! The traced run's in-process half: the benchmark calls the public
//! functions of each layer itself, timing the calls from its own code,
//! with the `billcap_obs` recorder on for the solver's counters and
//! spans. The same work also runs with the recorder off; the wall-time
//! ratio is the tracing overhead.

use crate::stats::{mean, quantile};
use crate::Run;
use billcap_core::{
    CapperConfig, DataCenterSystem, DecisionCache, DecisionEngine, DecisionKey, HourDecision,
    HourOutcome,
};
use billcap_obs::TraceSnapshot;
use billcap_serve::{read_frame, write_frame, DecisionMsg, Request, Response, MAX_FRAME};
use billcap_sim::Scenario;
use std::io::Cursor;
use std::time::Instant;

/// Per-request timings of the measured part of one replay, µs.
#[derive(Default)]
struct Layers {
    decode: Vec<f64>,
    get: Vec<f64>,
    insert: Vec<f64>,
    decide: Vec<f64>,
    steps: [Vec<f64>; 3],
    encode: Vec<f64>,
    bytes: Vec<f64>,
    nodes: u64,
    pivots: u64,
    solves: u64,
    outcomes: [u64; 3],
    hits: u64,
    misses: u64,
    evictions: u64,
}

fn us(a: Instant, b: Instant) -> f64 {
    (b - a).as_secs_f64() * 1e6
}

/// The server's per-request path, run on this thread over a frame
/// stream: decode, cache lookup, engine decision on a miss, cache
/// insert, encode and write. Owns its own cache and engines.
struct Replay<'a> {
    stream: Cursor<&'a [u8]>,
    expected: &'a [&'a HourDecision],
    cache: DecisionCache,
    engines: Vec<Option<DecisionEngine>>,
    sink: Vec<u8>,
    next: usize,
    layers: Layers,
    /// Wall time of the measured requests, µs.
    wall: f64,
    mismatches: u64,
}

impl<'a> Replay<'a> {
    fn new(stream: &'a [u8], expected: &'a [&'a HourDecision]) -> Self {
        Self {
            stream: Cursor::new(stream),
            expected,
            cache: DecisionCache::new(DecisionCache::DEFAULT_CAPACITY),
            engines: (0..4).map(|_| None).collect(),
            sink: Vec::with_capacity(4096),
            next: 0,
            layers: Layers::default(),
            wall: 0.0,
            mismatches: 0,
        }
    }

    /// Serves up to `n` more requests and returns how many it served.
    /// With `measure`, their layer timings and wall time are recorded;
    /// the `billcap_obs` recorder is whatever the caller set.
    fn advance(&mut self, n: usize, measure: bool) -> Result<usize, String> {
        for served in 0..n {
            let t0 = Instant::now();
            let Some(frame) = read_frame(&mut self.stream, MAX_FRAME).map_err(|e| e.to_string())?
            else {
                return Ok(served);
            };
            let req = Request::parse(&frame).map_err(|e| e.message)?;
            let t1 = Instant::now();
            let engine = self
                .engines
                .get_mut(req.policy)
                .ok_or("policy out of range")?
                .get_or_insert_with(|| {
                    DecisionEngine::new(
                        DataCenterSystem::paper_system(req.policy),
                        CapperConfig::default(),
                    )
                });
            let key = DecisionKey::new(
                engine.system(),
                false,
                req.offered,
                req.premium_offered,
                &req.background_mw,
                req.hourly_budget,
            );
            let hit = self.cache.get(&key);
            let t2 = Instant::now();
            let cached = hit.is_some();
            let l = &mut self.layers;
            let decision = match hit {
                Some(d) => d,
                None => {
                    let d = engine
                        .decide_hour(
                            req.offered,
                            req.premium_offered,
                            &req.background_mw,
                            req.hourly_budget,
                        )
                        .map_err(|e| format!("decision failed: {e}"))?;
                    let t3 = Instant::now();
                    let before = self.cache.evictions();
                    self.cache.insert(key, d.clone());
                    let t4 = Instant::now();
                    if measure {
                        l.decide.push(us(t2, t3));
                        l.insert.push(us(t3, t4));
                        l.steps[0].push(d.trace.step1_ns as f64 / 1e3);
                        l.steps[1].push(d.trace.step2_ns as f64 / 1e3);
                        l.steps[2].push(d.trace.step3_ns as f64 / 1e3);
                        l.nodes += d.trace.nodes as u64;
                        l.pivots += d.trace.lp_iterations as u64;
                        l.evictions += self.cache.evictions() - before;
                    }
                    d
                }
            };
            let t5 = Instant::now();
            let msg = DecisionMsg::from_decision(req.id, &decision, cached);
            let payload = Response::Decision(msg).to_value().render();
            self.sink.clear();
            write_frame(&mut self.sink, payload.as_bytes()).map_err(|e| e.to_string())?;
            let t6 = Instant::now();
            if measure {
                self.wall += us(t0, t6);
                l.decode.push(us(t0, t1));
                l.get.push(us(t1, t2));
                l.encode.push(us(t5, t6));
                l.bytes.push(self.sink.len() as f64);
                l.solves += decision.trace.solves as u64;
                l.outcomes[match decision.outcome {
                    HourOutcome::WithinBudget => 0,
                    HourOutcome::Throttled => 1,
                    HourOutcome::PremiumOverride => 2,
                }] += 1;
                if cached {
                    l.hits += 1;
                } else {
                    l.misses += 1;
                }
            }
            let want = self
                .expected
                .get(self.next)
                .ok_or("more frames than expectations")?;
            if DecisionMsg::from_decision(req.id, &decision, cached)
                .bitwise_matches(want)
                .is_err()
            {
                self.mismatches += 1;
            }
            self.next += 1;
        }
        Ok(n)
    }
}

/// Requests per turn when the untraced and traced replays alternate.
const TURN: usize = 500;

/// Mean time per span whose last path component is `name`, µs, and the
/// number of such spans.
pub fn span_mean_us(snap: &TraceSnapshot, name: &str) -> (f64, u64) {
    let (total, count) = snap
        .spans
        .iter()
        .filter(|(path, _)| path.rsplit('/').next() == Some(name))
        .fold((0u64, 0u64), |(t, c), (_, s)| (t + s.total_ns, c + s.count));
    (total as f64 / count.max(1) as f64 / 1e3, count)
}

pub fn snap_counter(snap: &TraceSnapshot, name: &str) -> u64 {
    snap.counters.get(name).copied().unwrap_or(0)
}

/// Solver counters from a traced snapshot, per decision.
pub fn solver_metrics(snap: &TraceSnapshot, decisions: u64, run: &mut Run) {
    let per = |v: u64| v as f64 / decisions.max(1) as f64;
    let nodes = snap_counter(snap, "milp.bnb.nodes");
    run.set(
        "milp.factorizations",
        per(snap_counter(snap, "milp.lp.factorizations")),
    );
    run.set(
        "milp.warm_start_ratio",
        snap_counter(snap, "milp.lp.warm_starts") as f64 / nodes.max(1) as f64,
    );
    run.set("milp.mip_us", span_mean_us(snap, "mip").0);
}

/// Fills the protocol, cache, engine, capper and milp metrics of a
/// serve workload from an in-process replay of its request stream.
pub fn serve_layers(
    stream: &[u8],
    expected: &[&HourDecision],
    measure_from: usize,
    name: &str,
    run: &mut Run,
) -> Result<(), String> {
    // Two replays of the same stream: one with the recorder off, one
    // with it on. Both warm up unmeasured, then take turns so a slow
    // spell of the machine weighs on both alike.
    billcap_obs::reset();
    billcap_obs::set_enabled(false);
    let mut plain = Replay::new(stream, expected);
    let mut traced = Replay::new(stream, expected);
    plain.advance(measure_from, false)?;
    traced.advance(measure_from, false)?;
    for turn in 0usize.. {
        let mut served = 0;
        for on in [turn % 2 == 0, turn % 2 == 1] {
            billcap_obs::set_enabled(on);
            let r = if on { &mut traced } else { &mut plain };
            let step = r.advance(TURN, true);
            billcap_obs::set_enabled(false);
            served += step?;
        }
        if served == 0 {
            break;
        }
    }
    let snap = billcap_obs::snapshot();
    billcap_obs::reset();
    let (bad_plain, bad_traced) = (plain.mismatches, traced.mismatches);
    let (plain_wall, traced_wall) = (plain.wall, traced.wall);
    let l = traced.layers;
    if bad_plain + bad_traced > 0 {
        run.problem(format!(
            "{name}: in-process replay differs from the fresh solver on {} responses",
            bad_plain + bad_traced
        ));
    }
    let n = l.decode.len() as u64;
    let per = |v: u64| v as f64 / n.max(1) as f64;
    run.set("protocol.decode_us", mean(&l.decode));
    run.set("protocol.encode_us", mean(&l.encode));
    run.set("protocol.response_bytes", mean(&l.bytes));
    run.set("cache.get_us", mean(&l.get));
    run.set("cache.insert_us", mean(&l.insert));
    run.set("engine.decide_us.p50", quantile(&l.decide, 0.5));
    run.set("engine.decide_us.p99", quantile(&l.decide, 0.99));
    let steps = [mean(&l.steps[0]), mean(&l.steps[1]), mean(&l.steps[2])];
    run.set("capper.step1_us", steps[0]);
    run.set("capper.step2_us", steps[1]);
    run.set("capper.step3_us", steps[2]);
    let unattributed = if l.decide.is_empty() {
        0.0
    } else {
        mean(&l.decide) - steps.iter().sum::<f64>()
    };
    run.set("capper.unattributed_us", unattributed);
    run.set("milp.nodes_per_decision", per(l.nodes));
    run.set("milp.lp_pivots_per_decision", per(l.pivots));
    solver_metrics(&snap, n, run);
    run.set("capper.outcome_throttled_frac", per(l.outcomes[1]));
    run.set("capper.outcome_override_frac", per(l.outcomes[2]));
    run.set("capper.solves_per_decision", per(l.solves));
    run.set(
        "obs.trace_overhead_frac",
        traced_wall / plain_wall.max(1e-9) - 1.0,
    );
    println!(
        "# in-process replay of {n} requests: cache hits {} misses {} evictions {}, nodes {} pivots {}, engine rebuilds {}; wall {:.1} ms untraced, {:.1} ms traced",
        l.hits,
        l.misses,
        l.evictions,
        l.nodes,
        l.pivots,
        snap_counter(&snap, "core.engine.rebuilds"),
        plain_wall / 1e3,
        traced_wall / 1e3
    );
    Ok(())
}

/// Mean time to generate one fleet's paper scenario (two months of
/// workload trace plus per-site background demand), ms.
pub fn scenario_build_ms() -> f64 {
    let mut times = Vec::new();
    for seed in 1..=2u64 {
        for policy in 0..4 {
            let t = Instant::now();
            let s = Scenario::paper_default(policy, seed);
            times.push(t.elapsed().as_secs_f64() * 1e3);
            std::hint::black_box(s);
        }
    }
    mean(&times)
}
