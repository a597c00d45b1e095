//! The serve workloads: an open-loop client driving a child
//! `billcap serve --socket … --workers 1` over one Unix-socket
//! connection.
//!
//! Everything the client sends is built before timing: the plan pool
//! (with its fresh-solver expectations), the seeded Poisson schedule,
//! and every frame, pre-encoded into one buffer. The sender (this
//! thread) writes each frame when it falls due; a receiver thread stamps
//! each response as it arrives. Latency runs from the request's due
//! time, so a stall of the server or of the sender counts against every
//! request it delays. Responses are parsed and checked bitwise only
//! after the connection is closed.

use crate::stats::{mean, median, permutation, poisson_offsets, quantile, windowed_quantile, Zipf};
use crate::{traced, Args, Run};
use billcap_core::{DataCenterSystem, DecisionKey, HourDecision};
use billcap_obs::MetricsDoc;
use billcap_rt::{SeedStream, Xoshiro256pp};
use billcap_serve::protocol::MAX_POLICY;
use billcap_serve::{
    build_plan, read_frame, write_frame, ControlMsg, ReplayPlan, Request, Response, MAX_FRAME,
};
use billcap_sim::Scenario;
use std::collections::HashSet;
use std::io::{BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The latency limit behind `max_rate_rps`: the server's
/// `request_us.p99<=5000` SLO, applied to client-observed latency.
const SLO_P99_NS: f64 = 5e6;

/// Control-frame ids live above every data id.
const CONTROL_ID_BASE: u64 = 1 << 40;

/// Requests per latency window. A p99 needs at least ten requests
/// beyond it, so a window holds 1000.
const WINDOW: usize = 1000;

/// Fixed fleets that the set-ups cycle through; see [`set_up`].
const SETUP_FLEETS: usize = 4;

/// Shares of `--seconds` in a traced run: the rounds; the probe phase
/// at the peak rate; and the in-process replay of that many peak-rate
/// requests, run twice (recorder off and on).
const TRACED_ROUNDS_SHARE: f64 = 0.5;
const PROBE_SHARE: f64 = 0.25;
const REPLAY_SHARE: f64 = 0.15;

/// Hours per fresh fleet plan: one week, so every fresh phase covers
/// whole weeks (the 168-hour reference horizon).
const WEEK: usize = 168;

/// Fewest rounds a timed run sends, whatever `--seconds` says. Each
/// round sends one segment of every kind; see [`plan_phases`].
const MIN_ROUNDS: usize = 5;

/// A sender whose median lateness exceeds this, at the base or the
/// peak rate, has fallen behind its schedule: the offered load was not
/// the planned one, and the run is invalid. A transient stall is not
/// falling behind; due-time latency charges it to the requests it
/// delays.
const MAX_SENDER_LAG_P50_NS: f64 = 1e6;

/// One serve workload's traffic.
pub struct Spec {
    name: &'static str,
    /// Fixed base and peak arrival rates, requests per second.
    base_rps: f64,
    peak_rps: f64,
    /// The fixed `max_rate_rps` ladder above the peak rate, ascending.
    ladder: &'static [f64],
    /// Requests per segment of each kind in one round.
    base_requests: usize,
    peak_requests: usize,
    burst_requests: usize,
    step_requests: usize,
    /// Unmeasured requests sent first, at the base rate.
    warmup_requests: usize,
    /// `Some` for the Zipf-skewed repeat traffic, `None` for all-distinct
    /// keys.
    repeat: Option<RepeatSpec>,
}

struct RepeatSpec {
    /// Seeds per pricing policy in the pool, and hours per plan:
    /// 4 policies x seeds x hours requests, about 3.6x the cache's 744
    /// entries.
    seeds: usize,
    hours: usize,
    /// Zipf exponent of the draws over the pool. Chosen, not taken from
    /// a trace: see README.md.
    zipf_s: f64,
    /// An in-band metrics scrape after every this many data frames of
    /// the run: one second of traffic at the base rate, the interval
    /// `billcap watch` scrapes at by default.
    scrape_every: usize,
}

pub const FRESH: Spec = Spec {
    name: "serve-fresh",
    base_rps: 2_000.0,
    peak_rps: 5_000.0,
    ladder: &[6_000.0, 7_000.0, 8_000.0, 9_000.0, 10_000.0],
    base_requests: 1_000,
    peak_requests: 2_000,
    burst_requests: 5_000,
    step_requests: 2_000,
    warmup_requests: 500,
    repeat: None,
};

pub const REPEAT: Spec = Spec {
    name: "serve-repeat",
    base_rps: 4_000.0,
    peak_rps: 12_000.0,
    ladder: &[16_000.0, 19_000.0, 22_000.0, 25_000.0, 28_000.0],
    base_requests: 2_000,
    peak_requests: 4_000,
    burst_requests: 12_000,
    step_requests: 4_000,
    warmup_requests: 4_000,
    repeat: Some(RepeatSpec {
        seeds: 4,
        hours: 168,
        zipf_s: 1.4,
        scrape_every: 4_000,
    }),
};

/// Plan requests with their fresh-solver expectations.
struct Pool {
    requests: Vec<Request>,
    expected: Vec<HourDecision>,
}

/// Builds one `build_plan` per fleet (policy, seed) at the prorated
/// stringent budget, on two threads. The pool holds consecutive groups
/// of `groups[g]` fleets, each laid out hour-major: hour 0 of every
/// fleet in the group, then hour 1, and so on.
fn build_pool(fleets: &[(usize, u64)], hours: usize, groups: &[usize]) -> Result<Pool, String> {
    let budget = Scenario::STRINGENT_BUDGET * hours as f64 / 720.0;
    let plans = std::thread::scope(|s| {
        let halves: Vec<_> = (0..2)
            .map(|h| {
                s.spawn(move || {
                    fleets
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| i % 2 == h)
                        .map(|(i, &(policy, seed))| {
                            build_plan(policy, seed, hours, Some(budget)).map(|p| (i, p))
                        })
                        .collect::<Result<Vec<_>, _>>()
                })
            })
            .collect();
        let mut all = Vec::new();
        for h in halves {
            all.extend(h.join().expect("plan builder panicked")?);
        }
        all.sort_by_key(|(i, _)| *i);
        Ok::<_, billcap_core::CoreError>(all)
    })
    .map_err(|e| format!("building plans: {e}"))?;
    let mut pool = Pool {
        requests: Vec::with_capacity(fleets.len() * hours),
        expected: Vec::with_capacity(fleets.len() * hours),
    };
    let mut first = 0;
    for &g in groups {
        let group = plans
            .get(first..first + g)
            .ok_or("fleet groups exceed the fleets")?;
        for t in 0..hours {
            for (_, plan) in group {
                if let (Some(r), Some(d)) = (plan.requests.get(t), plan.expected.get(t)) {
                    pool.requests.push(r.clone());
                    pool.expected.push(d.clone());
                }
            }
        }
        first += g;
    }
    Ok(pool)
}

/// Distinct decision-cache keys among the pool's requests.
fn distinct_keys(requests: &[Request]) -> usize {
    let systems: Vec<DataCenterSystem> = (0..=MAX_POLICY)
        .map(DataCenterSystem::paper_system)
        .collect();
    requests
        .iter()
        .map(|r| {
            DecisionKey::new(
                &systems[r.policy],
                false,
                r.offered,
                r.premium_offered,
                &r.background_mw,
                r.hourly_budget,
            )
        })
        .collect::<HashSet<_>>()
        .len()
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum PhaseKind {
    Warmup,
    Base,
    Peak,
    /// A lone metrics scrape, sent after every earlier response arrived.
    Scrape,
    Burst,
    Ladder,
    /// The traced run's peak-rate phase against a second server.
    Probe,
}

struct Phase {
    kind: PhaseKind,
    rate: f64,
    /// Frame indices into the wire buffer.
    frames: std::ops::Range<usize>,
    /// Data ids sent by this phase.
    ids: std::ops::Range<usize>,
}

/// Every frame of a run, pre-encoded, with its schedule.
struct Schedule {
    wire: Vec<u8>,
    /// Frame `f` is `wire[off[f]..off[f + 1]]`.
    off: Vec<usize>,
    /// Due time of frame `f`, ns after its phase starts.
    due: Vec<u64>,
    /// Data id of frame `f`, or `None` for a control frame.
    data_id: Vec<Option<usize>>,
    /// Pool index of each data id.
    pool_idx: Vec<usize>,
    phases: Vec<Phase>,
    control_ids: u64,
}

impl Schedule {
    fn new() -> Self {
        Self {
            wire: Vec::new(),
            off: vec![0],
            due: Vec::new(),
            data_id: Vec::new(),
            pool_idx: Vec::new(),
            phases: Vec::new(),
            control_ids: 0,
        }
    }

    fn push_frame(&mut self, payload: &str, due: u64, data_id: Option<usize>) {
        write_frame(&mut self.wire, payload.as_bytes()).expect("writing to a Vec cannot fail");
        self.off.push(self.wire.len());
        self.due.push(due);
        self.data_id.push(data_id);
    }

    fn push_control(&mut self, due: u64) {
        let id = CONTROL_ID_BASE + self.control_ids;
        self.control_ids += 1;
        let payload = ControlMsg::Metrics { id: Some(id) }.to_value().render();
        self.push_frame(&payload, due, None);
    }

    /// Appends a phase of `picks.len()` data frames due at `offsets`
    /// (ns), with a scrape after every `scrape_every`-th data frame of
    /// the schedule.
    fn push_phase(
        &mut self,
        kind: PhaseKind,
        rate: f64,
        pool: &Pool,
        picks: &[usize],
        offsets: &[u64],
        scrape_every: Option<usize>,
    ) {
        let f0 = self.data_id.len();
        let i0 = self.pool_idx.len();
        for (&p, &due) in picks.iter().zip(offsets) {
            let id = self.pool_idx.len();
            let req = Request {
                id: id as u64,
                ..pool.requests[p].clone()
            };
            self.push_frame(&req.to_value().render(), due, Some(id));
            self.pool_idx.push(p);
            if scrape_every.is_some_and(|n| self.pool_idx.len().is_multiple_of(n)) {
                self.push_control(due);
            }
        }
        self.phases.push(Phase {
            kind,
            rate,
            frames: f0..self.data_id.len(),
            ids: i0..self.pool_idx.len(),
        });
    }

    fn push_scrape(&mut self) {
        let f0 = self.data_id.len();
        self.push_control(0);
        let ids = self.pool_idx.len()..self.pool_idx.len();
        self.phases.push(Phase {
            kind: PhaseKind::Scrape,
            rate: 0.0,
            frames: f0..self.data_id.len(),
            ids,
        });
    }

    fn frame(&self, f: usize) -> &[u8] {
        &self.wire[self.off[f]..self.off[f + 1]]
    }

    /// The data frames of `ids`, concatenated in id order, as the server
    /// would read them.
    fn data_stream(&self, ids: std::ops::Range<usize>) -> Vec<u8> {
        let mut out = Vec::new();
        for f in 0..self.data_id.len() {
            if self.data_id[f].is_some_and(|i| ids.contains(&i)) {
                out.extend_from_slice(self.frame(f));
            }
        }
        out
    }
}

/// One phase as planned: how many data frames it sends, at what rate.
struct PhasePlan {
    kind: PhaseKind,
    rate: f64,
    requests: usize,
}

/// The run's phases: a warm-up and a scrape, then rounds that each send
/// one base segment, one peak segment, one saturating burst and one
/// ladder step (the rungs taken in turn), then a final scrape. Spreading
/// every kind over the whole run means a slow spell of the machine
/// touches all of them alike. Fresh segments are whole weeks of whole
/// fleets, so every segment sees the same mix of hours. A traced run
/// sends fewer rounds and then a probe for a second server; the index
/// of the probe's first phase is returned with the plan.
fn plan_phases(spec: &Spec, seconds: f64, traced: bool) -> (Vec<PhasePlan>, Option<usize>) {
    let size = |n: usize| match spec.repeat {
        Some(_) => n,
        None => n.div_ceil(WEEK) * WEEK,
    };
    let open = |kind, rate: f64, n: usize| PhasePlan {
        kind,
        rate,
        requests: size(n),
    };
    let scrape = || open(PhaseKind::Scrape, 0.0, 0);
    let mut plan = vec![
        open(PhaseKind::Warmup, spec.base_rps, spec.warmup_requests),
        scrape(),
    ];
    // A burst drains at about the top rung's rate.
    let top = spec.ladder.last().copied().unwrap_or(spec.peak_rps);
    let round_secs = spec.base_requests as f64 / spec.base_rps
        + spec.peak_requests as f64 / spec.peak_rps
        + spec.burst_requests as f64 / top
        + spec.step_requests as f64 / spec.ladder[spec.ladder.len() / 2];
    let round_time = if traced {
        seconds * TRACED_ROUNDS_SHARE
    } else {
        seconds
    };
    let rounds = ((round_time / round_secs).ceil() as usize).max(MIN_ROUNDS);
    for r in 0..rounds {
        plan.push(open(PhaseKind::Base, spec.base_rps, spec.base_requests));
        plan.push(open(PhaseKind::Peak, spec.peak_rps, spec.peak_requests));
        plan.push(open(PhaseKind::Burst, 0.0, spec.burst_requests));
        let rung = spec.ladder[r % spec.ladder.len()];
        plan.push(open(PhaseKind::Ladder, rung, spec.step_requests));
    }
    plan.push(scrape());
    if !traced {
        return (plan, None);
    }
    // The probe, for a second server: the server's histograms cannot be
    // split by phase, so its quantiles must cover peak-rate traffic only.
    let probe = plan.len();
    let n = ((spec.peak_rps * seconds * PROBE_SHARE) as usize).max(1);
    plan.extend([
        open(PhaseKind::Warmup, spec.base_rps, spec.warmup_requests),
        scrape(),
        open(PhaseKind::Probe, spec.peak_rps, n),
        scrape(),
    ]);
    (plan, Some(probe))
}

/// Lays the planned phases out as frames. Fresh phases take the pool's
/// keys in order (each key once); repeat phases draw Zipf-skewed ranks
/// over a seeded permutation of the pool.
fn build_schedule(
    spec: &Spec,
    pool: &Pool,
    plan: &[PhasePlan],
    seed: u64,
) -> Result<Schedule, String> {
    let seeds = SeedStream::new(seed ^ 0x5eed_5e7e);
    let mut rng = Xoshiro256pp::seed_from_u64(seeds.seed(0));
    let mut zipf = spec.repeat.as_ref().map(|r| {
        let mut prng = Xoshiro256pp::seed_from_u64(seeds.seed(1));
        let perm = permutation(&mut prng, pool.requests.len());
        (Zipf::new(pool.requests.len(), r.zipf_s), perm, prng)
    });
    let scrape_every = spec.repeat.as_ref().map(|r| r.scrape_every);
    let mut next = 0;
    let mut s = Schedule::new();
    for p in plan {
        if p.kind == PhaseKind::Scrape {
            s.push_scrape();
            continue;
        }
        let picks: Vec<usize> = match &mut zipf {
            Some((z, perm, prng)) => (0..p.requests).map(|_| perm[z.draw(prng)]).collect(),
            None => {
                let end = next + p.requests;
                if end > pool.requests.len() {
                    return Err("plan pool too small for the schedule".into());
                }
                next = end;
                (end - p.requests..end).collect()
            }
        };
        let offsets = if p.kind == PhaseKind::Burst {
            vec![0; p.requests]
        } else {
            poisson_offsets(&mut rng, p.rate, p.requests)
        };
        s.push_phase(p.kind, p.rate, pool, &picks, &offsets, scrape_every);
    }
    Ok(s)
}

/// CPUs for the client and the server on a machine with two or more:
/// the client's sender and receiver share one, the server's reader and
/// decider the other. Left to the scheduler, the four threads land on
/// the two CPUs differently from run to run, and saturated throughput
/// moved by a third with the placement.
const CLIENT_CPU: &str = "0";
const SERVER_CPU: &str = "1";

/// Pins this thread, and every thread it spawns afterwards, to
/// `CLIENT_CPU` with `taskset`. Returns whether it did; on a machine with
/// one CPU, or without `taskset`, nothing is pinned.
fn pin_client() -> bool {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    cpus >= 2
        && Command::new("taskset")
            .args(["-p", "-c", CLIENT_CPU])
            .arg(std::process::id().to_string())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .is_ok_and(|s| s.success())
}

/// A `billcap serve` child with one decider, pinned to `SERVER_CPU`
/// when the client is pinned. Dropping it closes nothing by itself: the client half-closes
/// its connection; the drop kills a child that is still running and
/// always waits for it.
struct Server {
    child: Child,
    socket: PathBuf,
}

impl Server {
    /// `keep_latency` turns latency-window rotation off, so that a
    /// scrape's latency series cover every request since the server
    /// started; otherwise the server runs with its default window.
    fn spawn(
        billcap: &Path,
        socket: &Path,
        pinned: bool,
        keep_latency: bool,
    ) -> Result<Self, String> {
        let _ = std::fs::remove_file(socket);
        let mut cmd = if pinned {
            let mut c = Command::new("taskset");
            c.args(["-c", SERVER_CPU]).arg(billcap);
            c
        } else {
            Command::new(billcap)
        };
        cmd.arg("serve")
            .arg("--socket")
            .arg(socket)
            .args(["--once", "--workers", "1"]);
        if keep_latency {
            cmd.args(["--window-requests", "0"]);
        }
        let child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", billcap.display()))?;
        Ok(Self {
            child,
            socket: socket.to_path_buf(),
        })
    }

    /// Connects once the child has bound its socket.
    fn connect(&mut self) -> Result<UnixStream, String> {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(s) = UnixStream::connect(&self.socket) {
                return Ok(s);
            }
            if let Ok(Some(status)) = self.child.try_wait() {
                return Err(format!("server exited before accepting: {status}"));
            }
            if Instant::now() > deadline {
                return Err("server did not accept within 30 s".into());
            }
            std::thread::sleep(Duration::from_micros(20));
        }
    }

    /// Waits for the child to exit after the connection closed.
    fn finish(mut self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() > deadline => {
                    return Err("server did not exit after the client closed".into())
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(1)),
                Err(e) => return Err(format!("waiting for the server: {e}")),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// Workload seeds of the set-up fleets. Fixed, not drawn from `--seed`:
/// every run then does the same set-up work, and `setup_s` moves only
/// when the program does.
const SETUP_SEED: u64 = 0x5e70_0b00;

/// The fixed fleet-week of set-up fleet `k`, planned with the fresh
/// solver.
fn set_up_plan(k: u64) -> Result<ReplayPlan, String> {
    let seeds = SeedStream::new(SETUP_SEED);
    let budget = Scenario::STRINGENT_BUDGET * WEEK as f64 / 720.0;
    build_plan((k % 4) as usize, seeds.seed(k), WEEK, Some(budget))
        .map_err(|e| format!("set-up plan: {e}"))
}

/// One set-up: the server's start-up, from spawning `billcap serve`
/// (on the client's CPU, whose affinity it inherits) until it has
/// answered its first request. The request
/// is the first hour of `plan`, which was built before the clock
/// starts; the answer is checked against it. Returns the wall time.
fn set_up(billcap: &Path, socket: &Path, plan: &ReplayPlan) -> Result<f64, String> {
    let req = plan.requests.first().ok_or("empty set-up plan")?;
    let payload = req.to_value().render();
    let t0 = Instant::now();
    let mut server = Server::spawn(billcap, socket, false, false)?;
    let mut conn = server.connect()?;
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| format!("setting a read timeout: {e}"))?;
    write_frame(&mut conn, payload.as_bytes()).map_err(|e| format!("set-up send: {e}"))?;
    let frame = read_frame(&mut conn, MAX_FRAME)
        .map_err(|e| format!("set-up read: {e}"))?
        .ok_or("server closed before answering")?;
    let secs = t0.elapsed().as_secs_f64();
    match Response::parse(&frame)? {
        Response::Decision(msg) => msg.bitwise_matches(&plan.expected[0])?,
        other => return Err(format!("set-up answered {other:?}")),
    }
    conn.shutdown(std::net::Shutdown::Write)
        .map_err(|e| format!("set-up close: {e}"))?;
    drop(conn);
    server.finish()?;
    Ok(secs)
}

/// What the client saw.
struct Driven {
    /// Absolute due / send / receive times per data id, ns since the
    /// run epoch (0 = not sent or not received).
    due: Vec<u64>,
    sent: Vec<u64>,
    recv: Vec<u64>,
    /// Every response frame, in arrival order.
    frames: Vec<Vec<u8>>,
}

/// Extracts the `"id":N` field from a response frame without parsing
/// the whole payload (the server renders `id` second).
fn scan_id(frame: &[u8]) -> Option<u64> {
    let head = &frame[..frame.len().min(64)];
    let pos = head.windows(5).position(|w| w == b"\"id\":")? + 5;
    let digits = head[pos..].iter().take_while(|b| b.is_ascii_digit());
    let mut id: u64 = 0;
    let mut any = false;
    for &b in digits {
        id = id.checked_mul(10)?.checked_add(u64::from(b - b'0'))?;
        any = true;
    }
    any.then_some(id)
}

/// The p99 of a phase: within each window of `WINDOW` requests, then
/// the median across windows.
fn p99(values: &[f64]) -> f64 {
    windowed_quantile(values, WINDOW, 0.99)
}

/// Sends the schedule's `phases` over one connection. A phase
/// starts once every earlier response has arrived, so no backlog
/// carries from one phase into the next.
/// `between` runs after each phase but the last has drained, while the
/// server idles.
fn drive(
    schedule: &Schedule,
    phases: std::ops::Range<usize>,
    conn: UnixStream,
    mut between: impl FnMut() -> Result<(), String>,
) -> Result<Driven, String> {
    let n = schedule.pool_idx.len();
    let epoch = Instant::now();
    let now_ns = || epoch.elapsed().as_nanos() as u64;
    let received = AtomicU64::new(0);
    let mut due = vec![0u64; n];
    let mut sent = vec![0u64; n];
    let reader = conn
        .try_clone()
        .map_err(|e| format!("cloning the connection: {e}"))?;
    // A server that stops answering must not hang the benchmark.
    reader
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| format!("setting a read timeout: {e}"))?;
    let mut conn = conn;

    let (frames, stamps) = std::thread::scope(|s| {
        let receiver = s.spawn(|| {
            let mut r = BufReader::with_capacity(1 << 16, reader);
            let mut frames = Vec::new();
            let mut stamps = Vec::new();
            loop {
                match read_frame(&mut r, MAX_FRAME) {
                    Ok(Some(frame)) => {
                        stamps.push(now_ns());
                        frames.push(frame);
                        received.fetch_add(1, Ordering::Release);
                    }
                    Ok(None) => return Ok((frames, stamps)),
                    Err(e) => return Err(format!("reading responses: {e}")),
                }
            }
        });

        let mut send_all = || -> Result<(), String> {
            let mut frames_sent: u64 = 0;
            for pi in phases.clone() {
                let phase = &schedule.phases[pi];
                let start = now_ns() + 200_000;
                let mut f = phase.frames.start;
                while f < phase.frames.end {
                    let now = now_ns();
                    let due_f = start + schedule.due[f];
                    if due_f > now {
                        std::thread::sleep(Duration::from_nanos(due_f - now));
                        continue;
                    }
                    let mut g = f;
                    while g < phase.frames.end && start + schedule.due[g] <= now {
                        g += 1;
                    }
                    conn.write_all(&schedule.wire[schedule.off[f]..schedule.off[g]])
                        .map_err(|e| format!("sending: {e}"))?;
                    let t = now_ns();
                    for k in f..g {
                        if let Some(id) = schedule.data_id[k] {
                            due[id] = start + schedule.due[k];
                            sent[id] = t;
                        }
                    }
                    f = g;
                }
                frames_sent += phase.frames.len() as u64;
                let deadline = Instant::now() + Duration::from_secs(60);
                while received.load(Ordering::Acquire) < frames_sent {
                    if Instant::now() > deadline {
                        return Err(format!("phase {pi} ({:?}) did not drain", phase.kind));
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
                if pi + 1 < phases.end {
                    between()?;
                }
            }
            Ok(())
        };
        let sent_ok = send_all();
        // Half-close: the server drains, answers, and exits (--once).
        let _ = conn.shutdown(std::net::Shutdown::Write);
        let got = receiver.join().expect("receiver thread panicked");
        sent_ok.and(got)
    })?;
    let mut recv = vec![0u64; n];
    for (frame, t) in frames.iter().zip(stamps) {
        if let Some(id) = scan_id(frame).filter(|&i| (i as usize) < n) {
            recv[id as usize] = t;
        }
    }
    Ok(Driven {
        due,
        sent,
        recv,
        frames,
    })
}

/// Checks every response: one decision per data id sent, bitwise equal
/// to the fresh solver's. Returns `(attempted, failed, wrong)` and the
/// metrics scrapes in arrival order. Wrong outputs (mismatches, and
/// decisions for ids not sent or already answered) are also failed.
fn verify(
    schedule: &Schedule,
    pool: &Pool,
    driven: &Driven,
) -> Result<(u64, u64, u64, Vec<MetricsDoc>), String> {
    let n = schedule.pool_idx.len();
    let mut seen = vec![false; n];
    let mut wrong = 0u64;
    let mut docs = Vec::new();
    for frame in &driven.frames {
        match Response::parse(frame)? {
            Response::Decision(msg) => {
                let id = msg.id as usize;
                if id >= n || seen[id] || driven.sent[id] == 0 {
                    wrong += 1;
                    continue;
                }
                seen[id] = true;
                if let Err(e) = msg.bitwise_matches(&pool.expected[schedule.pool_idx[id]]) {
                    if wrong < 3 {
                        println!("# mismatch on request {id}: {e}");
                    }
                    wrong += 1;
                }
            }
            Response::Error { id, message } => {
                println!("# server error for {id:?}: {message}");
            }
            Response::Metrics { doc, .. } => docs.push(doc),
            Response::Health { .. } => {}
        }
    }
    let attempted = driven.sent.iter().filter(|&&t| t > 0).count() as u64;
    let answered = seen.iter().filter(|&&s| s).count() as u64;
    // Requests sent but never answered (errors included) count as failed.
    let failed = attempted.saturating_sub(answered) + wrong;
    Ok((attempted, failed, wrong, docs))
}

/// Latency from due time to response, ns, for a phase's requests.
fn latencies(phase: &Phase, d: &Driven) -> Vec<f64> {
    phase
        .ids
        .clone()
        .map(|i| d.recv[i].saturating_sub(d.due[i]) as f64)
        .collect()
}

fn sender_lag(phase: &Phase, d: &Driven) -> Vec<f64> {
    phase
        .ids
        .clone()
        .map(|i| d.sent[i].saturating_sub(d.due[i]) as f64)
        .collect()
}

/// Responses per second over a phase: from its first due time to its
/// last response.
fn achieved_rate(phase: &Phase, d: &Driven) -> f64 {
    let first = phase.ids.clone().map(|i| d.due[i]).min().unwrap_or(0);
    let last = phase.ids.clone().map(|i| d.recv[i]).max().unwrap_or(0);
    phase.ids.len() as f64 / ((last.saturating_sub(first)).max(1) as f64 / 1e9)
}

fn counter(doc: &MetricsDoc, name: &str) -> u64 {
    doc.counters.get(name).copied().unwrap_or(0)
}

fn gauge(doc: &MetricsDoc, name: &str) -> f64 {
    doc.gauges.get(name).copied().unwrap_or(0.0)
}

/// Plans, pool and schedule for one run; everything before timing.
struct Prepared {
    pool: Pool,
    schedule: Schedule,
    distinct: usize,
    /// Index of the traced probe's first phase, if any.
    probe: Option<usize>,
}

fn prepare(spec: &Spec, args: &Args, run: &mut Run) -> Result<Prepared, String> {
    let t0 = Instant::now();
    let seeds = SeedStream::new(args.seed);
    let (plan, probe) = plan_phases(spec, args.seconds, args.trace);
    // Fleet f is pricing policy f % 4 under workload seed f / 4.
    let fleet = |f: usize| (f % 4, seeds.seed((f / 4) as u64));
    let (groups, hours) = match &spec.repeat {
        Some(r) => (vec![4 * r.seeds], r.hours),
        None => (plan.iter().map(|p| p.requests / WEEK).collect(), WEEK),
    };
    let fleets: Vec<(usize, u64)> = (0..groups.iter().sum()).map(fleet).collect();
    let pool = build_pool(&fleets, hours, &groups)?;
    let distinct = distinct_keys(&pool.requests);
    if spec.repeat.is_none() && distinct != pool.requests.len() {
        run.problem(format!(
            "fresh pool has {} requests but only {distinct} distinct keys",
            pool.requests.len()
        ));
    }
    let schedule = build_schedule(spec, &pool, &plan, args.seed)?;
    println!(
        "# {}: {} fleets x {hours} h -> {} plan requests ({distinct} distinct keys), {} frames ({} bytes) pre-encoded in {:.2} s",
        spec.name,
        fleets.len(),
        pool.requests.len(),
        schedule.data_id.len(),
        schedule.wire.len(),
        t0.elapsed().as_secs_f64()
    );
    Ok(Prepared {
        pool,
        schedule,
        distinct,
        probe,
    })
}

/// Runs one serve workload and fills `run`.
pub fn run(spec: &Spec, billcap: &Path, args: &Args, run: &mut Run) -> Result<(), String> {
    let socket = PathBuf::from(format!(
        ".bench_build/perfbench-{}.sock",
        std::process::id()
    ));
    if let Some(dir) = socket.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }

    let prep = prepare(spec, args, run)?;
    // An untraced run times one set-up in each gap between the rounds'
    // segments, on a socket of its own, so that the set-ups spread over
    // the whole run: one set-up varies by a factor of two, and their
    // level drifts over seconds on a shared host. A traced run reports
    // no `setup_s` and does none.
    let setup_socket = PathBuf::from(format!(
        ".bench_build/perfbench-{}-setup.sock",
        std::process::id()
    ));
    let plans = if args.trace {
        Vec::new()
    } else {
        (0..SETUP_FLEETS as u64)
            .map(set_up_plan)
            .collect::<Result<Vec<_>, _>>()?
    };
    let mut setups = Vec::new();

    // Pinned after the pool, which uses both CPUs.
    let pinned = pin_client();
    println!(
        "# {}",
        if pinned {
            "client pinned to CPU 0, server to CPU 1"
        } else {
            "client and server not pinned"
        }
    );

    // The rounds on one server; a traced run's probe on a fresh one.
    let phases = prep.schedule.phases.len();
    let split = prep.probe.unwrap_or(phases);
    let mut parts = Vec::new();
    for (range, keep_latency) in [(0..split, false), (split..phases, true)] {
        if range.is_empty() {
            continue;
        }
        let mut server = Server::spawn(billcap, &socket, pinned, keep_latency)?;
        let conn = server.connect()?;
        let driven = drive(&prep.schedule, range, conn, || {
            if !plans.is_empty() {
                let plan = &plans[setups.len() % SETUP_FLEETS];
                setups.push(set_up(billcap, &setup_socket, plan)?);
            }
            Ok(())
        })?;
        server.finish()?;
        let (attempted, failed, wrong, docs) = verify(&prep.schedule, &prep.pool, &driven)?;
        run.attempted += attempted;
        run.failed += failed;
        run.wrong += wrong;
        parts.push((driven, docs));
    }
    if !args.trace {
        if setups.is_empty() {
            return Err("no set-up was timed".into());
        }
        println!(
            "# {} set-ups (server spawned, socket accepting, first decision): p10 {:.3} ms, median {:.3} ms, p90 {:.3} ms",
            setups.len(),
            quantile(&setups, 0.1) * 1e3,
            quantile(&setups, 0.5) * 1e3,
            quantile(&setups, 0.9) * 1e3
        );
        run.set("setup_s", median(&setups));
    }
    let (rounds, round_docs) = &parts[0];
    let mix = outcome_mix(&prep, rounds);
    println!(
        "# traffic: {} requests over {} distinct keys; outcomes within/throttled/override = {:.3}/{:.3}/{:.3}",
        run.attempted, prep.distinct, mix[0], mix[1], mix[2]
    );
    round_metrics(spec, &prep.schedule, rounds, round_docs, run)?;
    if let Some((probe, probe_docs)) = parts.get(1) {
        traced_metrics(spec, &prep, probe, probe_docs, args.seconds, run)?;
    }
    Ok(())
}

/// Shares of within-budget, throttled and override outcomes among the
/// expected decisions of every request sent.
fn outcome_mix(prep: &Prepared, d: &Driven) -> [f64; 3] {
    let mut counts = [0u64; 3];
    for (id, &p) in prep.schedule.pool_idx.iter().enumerate() {
        if d.sent[id] == 0 {
            continue;
        }
        counts[match prep.pool.expected[p].outcome {
            billcap_core::HourOutcome::WithinBudget => 0,
            billcap_core::HourOutcome::Throttled => 1,
            billcap_core::HourOutcome::PremiumOverride => 2,
        }] += 1;
    }
    let total = counts.iter().sum::<u64>().max(1) as f64;
    counts.map(|c| c as f64 / total)
}

fn round_metrics(
    spec: &Spec,
    schedule: &Schedule,
    d: &Driven,
    docs: &[MetricsDoc],
    run: &mut Run,
) -> Result<(), String> {
    let of = |kind: PhaseKind| schedule.phases.iter().filter(move |p| p.kind == kind);
    // Latencies of every segment of a kind, in send order.
    let joined = |kind: PhaseKind, f: fn(&Phase, &Driven) -> Vec<f64>| {
        of(kind).flat_map(|p| f(p, d)).collect::<Vec<f64>>()
    };
    for (kind, tag, rate) in [
        (PhaseKind::Base, "base", spec.base_rps),
        (PhaseKind::Peak, "peak", spec.peak_rps),
    ] {
        let lat = joined(kind, latencies);
        let lag = joined(kind, sender_lag);
        let (p50, p99_ms) = (quantile(&lat, 0.5) / 1e6, p99(&lat) / 1e6);
        println!(
            "# {tag}: {} requests at {rate} rps in {} segments, latency p50 {p50:.4} ms p99 {p99_ms:.4} ms (whole-phase p99 {:.4} ms), sender lag p50 {:.1} us p99 {:.1} us (max {:.1} us)",
            lat.len(),
            of(kind).count(),
            quantile(&lat, 0.99) / 1e6,
            quantile(&lag, 0.5) / 1e3,
            p99(&lag) / 1e3,
            quantile(&lag, 1.0) / 1e3,
        );
        if quantile(&lag, 0.5) > MAX_SENDER_LAG_P50_NS {
            return Err(format!(
                "invalid run: the sender fell behind its schedule at the {tag} rate (median lag {:.2} ms)",
                quantile(&lag, 0.5) / 1e6
            ));
        }
        let (p50_name, p99_name) = if kind == PhaseKind::Base {
            ("lat_p50_ms.base", "lat_p99_ms.base")
        } else {
            ("lat_p50_ms.peak", "lat_p99_ms.peak")
        };
        run.set(p50_name, p50);
        run.set(p99_name, p99_ms);
    }

    // The ladder, from the peak rate up: each rung's p99 and achieved
    // rate over all of its steps.
    let mut rungs = vec![Rung::measure(spec.peak_rps, of(PhaseKind::Peak), d)];
    for &rate in spec.ladder {
        rungs.push(Rung::measure(
            rate,
            of(PhaseKind::Ladder).filter(|p| p.rate == rate),
            d,
        ));
    }
    for r in &rungs {
        println!(
            "# rung {} rps: achieved {:.1}/s, p99 {:.3} ms, backlog-free steps {}/{} -> {}",
            r.rate,
            r.achieved,
            r.p99_ns / 1e6,
            r.drained_steps,
            r.steps,
            if r.passes() {
                "meets SLO"
            } else {
                "misses SLO"
            }
        );
    }
    let max_rate = max_rate(&rungs).unwrap_or_else(|| {
        println!("# no rung met the p99 <= 5 ms SLO; reporting the base rate achieved");
        of(PhaseKind::Base)
            .map(|p| achieved_rate(p, d))
            .sum::<f64>()
            / of(PhaseKind::Base).count().max(1) as f64
    });
    run.set("max_rate_rps", max_rate);
    println!("# max_rate_rps {max_rate:.1}");

    let bursts: Vec<f64> = of(PhaseKind::Burst).map(|p| achieved_rate(p, d)).collect();
    println!(
        "# saturating bursts of {}: {:.0?} decisions/s",
        spec.burst_requests, bursts
    );
    // Every burst's decisions over every burst's time. Burst rates can
    // fall into two modes about 1.5x apart within one run, and a median
    // of them jumps from one mode to the other with the mix.
    let burst_secs: f64 = of(PhaseKind::Burst)
        .map(|p| p.ids.len() as f64 / achieved_rate(p, d))
        .sum();
    let burst_decisions: usize = of(PhaseKind::Burst).map(|p| p.ids.len()).sum();
    run.set("sim_hours_per_s", burst_decisions as f64 / burst_secs);

    // Every phase always runs, so the final scrape's work counters
    // repeat exactly at one decider.
    let doc = docs.last().ok_or("no final metrics scrape")?;
    println!(
        "# exact counters after {} requests: cache hits {} misses {} evictions {}, engine rebuilds {} (unique structures {})",
        counter(doc, "serve.decisions"),
        counter(doc, "serve.cache.hit"),
        counter(doc, "serve.cache.miss"),
        counter(doc, "serve.cache.evict"),
        gauge(doc, "core.engine.cache.miss"),
        counter(doc, "core.engine.rebuilds_unique"),
    );
    Ok(())
}

/// One rate of the `max_rate_rps` ladder, over all of its steps.
struct Rung {
    rate: f64,
    achieved: f64,
    p99_ns: f64,
    steps: usize,
    /// Steps whose last window's median latency stayed within the SLO:
    /// a backlog that grows through a step shows there first.
    drained_steps: usize,
}

impl Rung {
    fn measure<'a>(rate: f64, steps: impl Iterator<Item = &'a Phase>, d: &Driven) -> Self {
        let mut lat = Vec::new();
        let mut achieved = Vec::new();
        let mut drained_steps = 0;
        for p in steps {
            let l = latencies(p, d);
            if quantile(&l[l.len().saturating_sub(WINDOW)..], 0.5) <= SLO_P99_NS {
                drained_steps += 1;
            }
            achieved.push(achieved_rate(p, d));
            lat.extend(l);
        }
        Self {
            rate,
            achieved: median(&achieved),
            p99_ns: p99(&lat),
            steps: achieved.len(),
            drained_steps,
        }
    }

    fn passes(&self) -> bool {
        self.steps > 0 && self.p99_ns <= SLO_P99_NS && 2 * self.drained_steps > self.steps
    }
}

/// The highest rate that meets the SLO: below the first rung that
/// misses it, interpolated between that rung and the one before on a
/// log scale of p99 latency. `None` when even the first rung misses.
fn max_rate(rungs: &[Rung]) -> Option<f64> {
    let miss = rungs.iter().position(|r| !r.passes());
    match miss {
        None => rungs.last().map(|r| r.achieved),
        Some(0) => None,
        Some(i) => {
            let (lo, hi) = (&rungs[i - 1], &rungs[i]);
            let frac = if hi.p99_ns > SLO_P99_NS && lo.p99_ns > 0.0 {
                (SLO_P99_NS / lo.p99_ns).ln() / (hi.p99_ns / lo.p99_ns).ln()
            } else {
                // Missed on backlog alone: call it half-way.
                0.5
            };
            Some(lo.achieved + frac.clamp(0.0, 1.0) * (hi.achieved - lo.achieved))
        }
    }
}

/// Per-layer numbers: server-side from the scrapes around the peak
/// phase, client-side from the connection, in-process from the traced
/// replay of the same request stream.
fn traced_metrics(
    spec: &Spec,
    prep: &Prepared,
    d: &Driven,
    docs: &[MetricsDoc],
    seconds: f64,
    run: &mut Run,
) -> Result<(), String> {
    let schedule = &prep.schedule;
    let first = prep.probe.ok_or("no probe phases")?;
    let warmup = &schedule.phases[first];
    let probe = schedule
        .phases
        .iter()
        .find(|p| p.kind == PhaseKind::Probe)
        .ok_or("schedule has no probe phase")?;
    // The lone scrape after the warm-up, and the final one.
    let before = docs
        .iter()
        .find(|doc| counter(doc, "serve.decisions") == warmup.ids.len() as u64)
        .ok_or("no scrape after the probe's warm-up")?;
    let after = docs.last().ok_or("no final scrape")?;
    let delta = |name: &str| counter(after, name).saturating_sub(counter(before, name));
    let gdelta = |name: &str| gauge(after, name) - gauge(before, name);
    let hits = delta("serve.cache.hit");
    let misses = delta("serve.cache.miss");
    run.set(
        "cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    run.set("cache.evictions", delta("serve.cache.evict") as f64);
    let (eh, em) = (
        gdelta("core.engine.cache.hit"),
        gdelta("core.engine.cache.miss"),
    );
    run.set(
        "engine.step_cache_hit_ratio",
        if eh + em > 0.0 { eh / (eh + em) } else { 0.0 },
    );
    run.set("engine.rebuilds", em);
    println!(
        "# server counters after the warm-up: cache hits {hits} misses {misses} evictions {}, engine hits {eh} rebuilds {em}",
        delta("serve.cache.evict")
    );

    let request = after
        .latency
        .get("request_us")
        .ok_or("scrape has no request_us series")?;
    run.set("server.request_us.p50", request.p50);
    run.set("server.request_us.p99", request.p99);
    // Client latency from the send (not the due) time, less the
    // server's mean enqueue-to-respond time: framing, socket and
    // wake-ups. The server's mean also covers the warm-up.
    let from_send: Vec<f64> = probe
        .ids
        .clone()
        .map(|i| d.recv[i].saturating_sub(d.sent[i]) as f64 / 1e3)
        .collect();
    run.set("server.transport_us", mean(&from_send) - request.mean);
    // One decider serves in FIFO order, so a request waits from its
    // send until its predecessor's response arrives.
    let waits: Vec<f64> = probe
        .ids
        .clone()
        .skip(1)
        .map(|i| d.recv[i - 1].saturating_sub(d.sent[i]) as f64 / 1e3)
        .collect();
    run.set("server.queue_wait_us.p50", quantile(&waits, 0.5));
    run.set("server.queue_wait_us.p99", quantile(&waits, 0.99));

    run.set(
        "failed_frac",
        run.failed as f64 / run.attempted.max(1) as f64,
    );

    // In-process replay of the probe's requests, in the order the
    // server saw them, through the same layers. The warm-up primes the
    // cache and engines; the rest is measured.
    let replayed = warmup.ids.len() + (spec.peak_rps * seconds * REPLAY_SHARE) as usize;
    let ids = warmup.ids.start..(warmup.ids.start + replayed).min(probe.ids.end);
    let stream = schedule.data_stream(ids.clone());
    let expected: Vec<&HourDecision> = ids
        .map(|i| &prep.pool.expected[schedule.pool_idx[i]])
        .collect();
    traced::serve_layers(&stream, &expected, warmup.ids.len(), spec.name, run)?;
    run.set("workload.scenario_build_ms", traced::scenario_build_ms());
    run.unused_layers(&["sim.", "pool."]);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_id_reads_the_rendered_response_id() {
        let frame = Response::Error {
            id: Some(12345),
            message: "x".into(),
        }
        .to_value()
        .render();
        assert_eq!(scan_id(frame.as_bytes()), Some(12345));
        assert_eq!(scan_id(b"{\"type\":\"error\",\"id\":null}"), None);
    }

    fn rung(rate: f64, p99_ms: f64) -> Rung {
        Rung {
            rate,
            achieved: rate,
            p99_ns: p99_ms * 1e6,
            steps: 2,
            drained_steps: 2,
        }
    }

    #[test]
    fn max_rate_interpolates_below_the_first_missed_rung() {
        // 2.5 ms -> 10 ms: 5 ms is half-way on a log scale.
        let rungs = [rung(5000.0, 1.0), rung(6000.0, 2.5), rung(7000.0, 10.0)];
        assert!((max_rate(&rungs).unwrap() - 6500.0).abs() < 1e-6);
        // A later rung that passes again does not count.
        let noisy = [rung(5000.0, 1.0), rung(6000.0, 9.0), rung(7000.0, 1.0)];
        assert!(max_rate(&noisy).unwrap() < 6000.0);
        assert_eq!(max_rate(&[rung(5000.0, 6.0)]), None);
        assert_eq!(max_rate(&[rung(5000.0, 1.0)]), Some(5000.0));
    }
}
