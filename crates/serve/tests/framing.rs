//! Byte identity and one write per frame.
//!
//! The server answers cache hits by copying a stored response body and
//! assembles every response into one buffer before writing it. These
//! tests pin down that neither changes a byte on the wire: each
//! decision frame must equal the frame a fresh solve renders through
//! `DecisionMsg::to_value`, error and control frames must equal their
//! `Response` renderings, and every frame must reach the transport in
//! exactly one `write` call.
//!
//! The input arrives through a reader that returns 1–7 bytes per
//! `read`, so frame boundaries never line up with reads. Like a client
//! waiting on its answers, the reader also stops before every third
//! frame until every earlier frame has been answered, so the deciders
//! keep going idle on the queue and the next frame must wake one. A
//! lost wakeup there stalls the stream; the reader then gives up after
//! [`STALL`] and the test fails.

use billcap_core::{BillCapper, DataCenterSystem, HourDecision};
use billcap_serve::protocol::{
    read_frame, write_frame, ControlMsg, DecisionMsg, FrameError, Request, Response, MAX_FRAME,
};
use billcap_serve::server::{serve, ServeConfig, ServeStats};
use std::io::{Cursor, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// How long the reader waits for an answer before declaring a stall.
const STALL: Duration = Duration::from_secs(30);

/// Write calls seen so far, shared by the writer and the reader that
/// waits on them.
#[derive(Default)]
struct Progress {
    writes: Mutex<usize>,
    grew: Condvar,
    stalled: AtomicBool,
}

impl Progress {
    /// Blocks until at least `n` writes have happened; `false` after
    /// [`STALL`] without progress.
    fn wait_for(&self, n: usize) -> bool {
        let guard = self.writes.lock().unwrap();
        let (_guard, timeout) = self
            .grew
            .wait_timeout_while(guard, STALL, |w| *w < n)
            .unwrap();
        !timeout.timed_out()
    }
}

/// Hands out its bytes a few at a time: 1–7 per `read`, in a fixed
/// pseudo-random pattern, pausing at each sync point until the frames
/// before it are answered.
struct Trickle {
    data: Vec<u8>,
    pos: usize,
    state: u64,
    /// `(offset, frames before it)`, ascending; consumed from the front.
    syncs: Vec<(usize, usize)>,
    progress: Arc<Progress>,
}

impl Read for Trickle {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let mut limit = self.data.len();
        if let Some(&(offset, answered)) = self.syncs.first() {
            if self.pos == offset {
                if !self.progress.wait_for(answered) {
                    self.progress.stalled.store(true, Ordering::SeqCst);
                    return Err(std::io::Error::other("no answer: stalled queue"));
                }
                // Let the deciders reach the queue and wait on it, so
                // the next frame has to wake one. Correct code passes
                // however long this takes; it only makes a lost wakeup
                // likely to show.
                std::thread::sleep(Duration::from_millis(2));
                self.syncs.remove(0);
            } else {
                limit = offset;
            }
        }
        // xorshift64: a deterministic spread of read sizes.
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        let want = 1 + (self.state % 7) as usize;
        let n = want.min(buf.len()).min(limit - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Records the bytes of every `write` call separately.
struct WriteLog {
    writes: Vec<Vec<u8>>,
    progress: Arc<Progress>,
}

impl Write for WriteLog {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes.push(buf.to_vec());
        *self.progress.writes.lock().unwrap() += 1;
        self.progress.grew.notify_all();
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn framed(payload: &str) -> Vec<u8> {
    let mut buf = Vec::new();
    write_frame(&mut buf, payload.as_bytes()).unwrap();
    buf
}

/// What the stream carries, in order.
enum Item {
    Decide(Request),
    Malformed,
    Control(ControlMsg),
}

/// A request the server must refuse in-band (policy out of range).
const MALFORMED: &str = r#"{"id":900,"policy":9,"offered":1.0,"premium":0.5,"background":[1.0]}"#;

/// The decision inputs a request shares with every repeat of it.
fn inputs(id: u64, policy: usize, offered: f64, budget: f64) -> Request {
    Request {
        id,
        policy,
        offered,
        premium_offered: 0.6 * offered,
        background_mw: vec![330.0, 410.0, 280.0],
        hourly_budget: budget,
    }
}

/// Three distinct hours over two systems, each repeated, interleaved
/// with a malformed request and both control frames. Ids include 0, 1
/// and `i64::MAX`, the largest a request may carry.
fn stream() -> Vec<Item> {
    let hours = [
        (1, 5e8, f64::INFINITY),
        (2, 6e8, 25_000.0),
        (1, 4.5e8, 20_000.0),
    ];
    let ids = [0, 1, i64::MAX as u64, 2, 3, 4, 5, 6, 7];
    let mut items = Vec::new();
    for (k, &id) in ids.iter().enumerate() {
        let (policy, offered, budget) = hours[k % hours.len()];
        items.push(Item::Decide(inputs(id, policy, offered, budget)));
        match k {
            2 => items.push(Item::Malformed),
            4 => items.push(Item::Control(ControlMsg::Health { id: Some(901) })),
            6 => items.push(Item::Control(ControlMsg::Metrics { id: Some(902) })),
            _ => {}
        }
    }
    items
}

/// A half header after the last frame: the terminal framing error.
const TAIL: [u8; 2] = [0, 0];

/// The wire bytes, and the sync points: the start of every third frame,
/// with the number of frames (each answered once) before it.
fn encode(items: &[Item]) -> (Vec<u8>, Vec<(usize, usize)>) {
    let mut input = Vec::new();
    let mut syncs = Vec::new();
    for (k, item) in items.iter().enumerate() {
        if k > 0 && k % 3 == 0 {
            syncs.push((input.len(), k));
        }
        let payload = match item {
            Item::Decide(r) => r.to_value().render(),
            Item::Malformed => MALFORMED.to_string(),
            Item::Control(c) => c.to_value().render(),
        };
        input.extend(framed(&payload));
    }
    input.extend_from_slice(&TAIL);
    (input, syncs)
}

fn fresh(r: &Request) -> HourDecision {
    BillCapper::default()
        .decide_hour(
            &DataCenterSystem::paper_system(r.policy),
            r.offered,
            r.premium_offered,
            &r.background_mw,
            r.hourly_budget,
        )
        .unwrap()
}

/// The decision inputs as raw bits: the cache's notion of "the same
/// hour", minus the system fingerprint the policy stands for.
fn key(r: &Request) -> (usize, u64, u64, u64) {
    (
        r.policy,
        r.offered.to_bits(),
        r.premium_offered.to_bits(),
        r.hourly_budget.to_bits(),
    )
}

fn run(items: &[Item], workers: usize, cache: bool, seed: u64) -> (WriteLog, ServeStats) {
    let cfg = ServeConfig {
        workers,
        cache,
        ..ServeConfig::default()
    };
    let progress = Arc::new(Progress::default());
    let (data, syncs) = encode(items);
    let reader = Trickle {
        data,
        pos: 0,
        state: seed | 1,
        syncs,
        progress: Arc::clone(&progress),
    };
    let mut log = WriteLog {
        writes: Vec::new(),
        progress: Arc::clone(&progress),
    };
    let stats = serve(&cfg, reader, &mut log);
    assert!(
        !progress.stalled.load(Ordering::SeqCst),
        "workers {workers}: a queued frame was never picked up (lost wakeup)"
    );
    (log, stats)
}

fn check(workers: usize, cache: bool) {
    let items = stream();
    let requests: Vec<&Request> = items
        .iter()
        .filter_map(|i| match i {
            Item::Decide(r) => Some(r),
            _ => None,
        })
        .collect();
    let (log, stats) = run(&items, workers, cache, 0x9e37 + workers as u64);
    let ctx = format!("workers {workers}, cache {cache}");

    // Every write is one whole frame, and every frame one write.
    let mut payloads = Vec::new();
    for w in &log.writes {
        let mut cur = Cursor::new(w.clone());
        let payload = read_frame(&mut cur, MAX_FRAME)
            .unwrap_or_else(|e| panic!("{ctx}: a write is not a whole frame: {e}"))
            .unwrap_or_else(|| panic!("{ctx}: empty write"));
        assert_eq!(
            cur.position() as usize,
            w.len(),
            "{ctx}: two frames in one write"
        );
        let head = &payload[..payload.len().min(64)];
        assert!(
            head.windows(5).any(|x| x == b"\"id\":"),
            "{ctx}: \"id\": not in the first 64 bytes"
        );
        payloads.push((w, payload));
    }
    // Nine decisions, one malformed request, two control frames and the
    // terminal framing error.
    assert_eq!(payloads.len(), requests.len() + 4, "{ctx}");
    assert_eq!(stats.decisions as usize, requests.len(), "{ctx}");
    assert_eq!(stats.errors, 2, "{ctx}");

    let mut seen_keys = Vec::new();
    let mut decided = Vec::new();
    let mut cached_frames = 0u64;
    for (w, payload) in &payloads {
        let expected = match Response::parse(payload).unwrap() {
            Response::Decision(msg) => {
                let req = requests
                    .iter()
                    .find(|r| r.id == msg.id)
                    .unwrap_or_else(|| panic!("{ctx}: unknown id {}", msg.id));
                decided.push(msg.id);
                cached_frames += u64::from(msg.cached);
                let repeat = seen_keys.contains(&key(req));
                if !cache {
                    assert!(!msg.cached, "{ctx}: cached answer with the cache off");
                } else if workers == 1 {
                    // One decider takes the stream in order: exactly the
                    // repeats hit.
                    assert_eq!(msg.cached, repeat, "{ctx}: id {}", msg.id);
                }
                if workers == 1 {
                    seen_keys.push(key(req));
                }
                let d = DecisionMsg::from_decision(msg.id, &fresh(req), msg.cached);
                Response::Decision(d)
            }
            Response::Error { id: Some(900), .. } => {
                let e = Request::parse(MALFORMED.as_bytes()).unwrap_err();
                Response::Error {
                    id: e.id,
                    message: e.message,
                }
            }
            Response::Error { id: None, .. } => Response::Error {
                id: None,
                message: format!(
                    "protocol error: {}",
                    FrameError::Truncated {
                        expected: 4 - TAIL.len(),
                        got: TAIL.len(),
                    }
                ),
            },
            Response::Health { .. } => Response::Health {
                id: Some(901),
                ok: true,
                reasons: Vec::new(),
            },
            // The document's figures are wall-clock; its rendering must
            // still be the `Response` encoder's, field for field.
            metrics @ Response::Metrics { id: Some(902), .. } => metrics,
            other => panic!("{ctx}: unexpected response {other:?}"),
        };
        assert_eq!(
            w.as_slice(),
            framed(&expected.to_value().render()).as_slice(),
            "{ctx}: frame differs from the Response rendering"
        );
    }
    decided.sort_unstable();
    let mut want: Vec<u64> = requests.iter().map(|r| r.id).collect();
    want.sort_unstable();
    assert_eq!(decided, want, "{ctx}: one decision per request");
    assert_eq!(
        cached_frames, stats.cache_hits,
        "{ctx}: cached flag marks hits"
    );
    if cache {
        assert_eq!(
            stats.cache_hits + stats.cache_misses,
            stats.decisions,
            "{ctx}"
        );
        assert!(stats.cache_hits > 0, "{ctx}: the repeats never hit");
    } else {
        assert_eq!((stats.cache_hits, stats.cache_misses), (0, 0), "{ctx}");
    }
}

#[test]
fn one_worker_with_cache() {
    check(1, true);
}

#[test]
fn one_worker_without_cache() {
    check(1, false);
}

#[test]
fn four_workers_with_cache() {
    check(4, true);
}

#[test]
fn four_workers_without_cache() {
    check(4, false);
}

/// The ids a decision may carry span the request's full range, and the
/// head renders each exactly as `Value::Int` would inside `to_value`.
#[test]
fn extreme_ids_survive_a_cached_round_trip() {
    let items: Vec<Item> = [0, 1, i64::MAX as u64]
        .into_iter()
        .map(|id| Item::Decide(inputs(id, 1, 5e8, f64::INFINITY)))
        .collect();
    let (log, stats) = run(&items, 1, true, 7);
    assert_eq!(stats.cache_hits, 2);
    let mut ids = Vec::new();
    for w in &log.writes {
        let payload = read_frame(&mut Cursor::new(w.clone()), MAX_FRAME)
            .unwrap()
            .unwrap();
        match Response::parse(&payload).unwrap() {
            Response::Decision(msg) => ids.push(msg.id),
            Response::Error { id: None, .. } => {} // the tail's framing error
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!(ids, vec![0, 1, i64::MAX as u64]);
}
