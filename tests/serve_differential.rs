//! Differential test for the decision server: a 168-hour simulated week
//! (the paper's scenario under the stringent monthly budget) replayed
//! through `billcap::serve` must produce responses **bitwise-identical**
//! to sequential fresh-model `decide_hour` calls — at 1 and 4 workers,
//! with and without the decision cache. This is the server's whole
//! correctness contract: the daemon is never allowed to drift from the
//! CLI, not even in the last ulp.
//!
//! The expensive part — building the 168-hour ground-truth plan with a
//! fresh `BillCapper` per the simulator's budget-feedback loop — runs
//! once and is shared by every test via `OnceLock`.

use billcap::serve::{
    build_plan, encode_requests, read_frame, run_replay, verify_replay, Response, ServeConfig,
    MAX_FRAME,
};
use billcap::sim::Scenario;
use std::io::{Cursor, Read, Write};
use std::sync::{Condvar, Mutex, OnceLock};
use std::time::Duration;

const HOURS: usize = 168;

fn plan() -> &'static billcap::serve::ReplayPlan {
    static PLAN: OnceLock<billcap::serve::ReplayPlan> = OnceLock::new();
    PLAN.get_or_init(|| {
        build_plan(1, 42, HOURS, Some(Scenario::STRINGENT_BUDGET))
            .expect("ground-truth plan builds")
    })
}

fn config(workers: usize, cache: bool) -> ServeConfig {
    ServeConfig {
        workers,
        cache,
        ..ServeConfig::default()
    }
}

fn replay_and_verify(workers: usize, cache: bool) {
    let plan = plan();
    let outcome = run_replay(&config(workers, cache), plan).expect("replay runs");
    verify_replay(plan, &outcome).unwrap_or_else(|e| {
        panic!("workers={workers} cache={cache}: {e}");
    });
    assert_eq!(outcome.stats.decisions as usize, HOURS);
    assert_eq!(outcome.stats.errors, 0);
    // The cache counters are exact work counts: 168 distinct hours mean
    // 168 misses, zero hits, and (capacity 744 > 168) zero evictions —
    // at every worker count.
    if cache {
        assert_eq!(outcome.stats.cache_hits, 0, "workers={workers}");
        assert_eq!(
            outcome.stats.cache_misses, HOURS as u64,
            "workers={workers}"
        );
        assert_eq!(outcome.stats.cache_evictions, 0, "workers={workers}");
    } else {
        assert_eq!(outcome.stats.cache_hits, 0);
        assert_eq!(outcome.stats.cache_misses, 0);
        assert_eq!(outcome.stats.cache_evictions, 0);
    }
}

#[test]
fn one_worker_no_cache_is_bitwise_identical() {
    replay_and_verify(1, false);
}

#[test]
fn one_worker_with_cache_is_bitwise_identical() {
    replay_and_verify(1, true);
}

#[test]
fn four_workers_no_cache_is_bitwise_identical() {
    replay_and_verify(4, false);
}

#[test]
fn four_workers_with_cache_is_bitwise_identical() {
    replay_and_verify(4, true);
}

/// Response frames written so far, shared between [`CountingWriter`]
/// and the [`GatedReader`] waiting on them.
#[derive(Default)]
struct FrameGate {
    written: Mutex<usize>,
    changed: Condvar,
}

/// Serves `first`, then blocks until the server has written `after`
/// response frames, then serves `second`. Orders a second request pass
/// after the first pass's answers without depending on scheduling.
struct GatedReader<'a> {
    first: Cursor<Vec<u8>>,
    second: Cursor<Vec<u8>>,
    gate: &'a FrameGate,
    after: usize,
}

impl Read for GatedReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.first.read(buf)?;
        if n > 0 || buf.is_empty() {
            return Ok(n);
        }
        // The deadline only turns a broken server into a failed count
        // assertion instead of a hang; a working one never reaches it.
        let written = self.gate.written.lock().expect("gate lock");
        let (_written, _) = self
            .gate
            .changed
            .wait_timeout_while(written, Duration::from_secs(120), |w| *w < self.after)
            .expect("gate lock");
        self.second.read(buf)
    }
}

/// Collects the server's output and counts its complete frames.
struct CountingWriter<'a> {
    out: Vec<u8>,
    scanned: usize,
    gate: &'a FrameGate,
}

impl Write for CountingWriter<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.out.extend_from_slice(buf);
        let mut frames = 0;
        while let Some(header) = self.out.get(self.scanned..self.scanned + 4) {
            let len = u32::from_be_bytes(header.try_into().expect("4 bytes")) as usize;
            if self.out.len() < self.scanned + 4 + len {
                break;
            }
            self.scanned += 4 + len;
            frames += 1;
        }
        if frames > 0 {
            *self.gate.written.lock().expect("gate lock") += frames;
            self.gate.changed.notify_all();
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The same week submitted twice in one connection: the second pass must
/// be answered from the decision cache (every request is an exact bit
/// pattern repeat) and remain bitwise-identical to the fresh decisions.
/// The second pass is released only after all of the first pass's
/// responses were written — each written after its cache insert — so
/// the hit count is exact whatever the deciders' schedule.
#[test]
fn cached_second_pass_stays_bitwise_identical() {
    let plan = plan();
    let gate = FrameGate::default();
    let input = GatedReader {
        first: Cursor::new(encode_requests(plan)),
        second: Cursor::new(encode_requests(plan)),
        gate: &gate,
        after: HOURS,
    };
    let mut writer = CountingWriter {
        out: Vec::new(),
        scanned: 0,
        gate: &gate,
    };

    let stats = billcap::serve::serve(&config(2, true), input, &mut writer);
    assert_eq!(stats.decisions as usize, 2 * HOURS);
    assert_eq!(stats.errors, 0);
    // The full second pass is all hits, so at least HOURS of the
    // 2*HOURS requests must have been served from cache — exactly
    // HOURS, since the first pass's keys are all distinct.
    assert!(
        stats.cache_hits as usize >= HOURS,
        "expected >= {HOURS} cache hits, got {}",
        stats.cache_hits
    );
    assert_eq!(stats.cache_hits, HOURS as u64);
    assert_eq!(stats.cache_misses, HOURS as u64);
    // Every lookup is either a hit or a miss; nothing is ever evicted
    // (2*168 requests name only 168 distinct keys, capacity 744).
    assert_eq!(stats.cache_hits + stats.cache_misses, 2 * HOURS as u64);
    assert_eq!(stats.cache_evictions, 0);

    let mut per_hour_count = vec![0usize; HOURS];
    let mut cur = Cursor::new(writer.out);
    while let Some(frame) = read_frame(&mut cur, MAX_FRAME).expect("server frames parse") {
        match Response::parse(&frame).expect("server responses parse") {
            Response::Decision(msg) => {
                let t = msg.id as usize;
                per_hour_count[t] += 1;
                msg.bitwise_matches(&plan.expected[t])
                    .unwrap_or_else(|e| panic!("hour {t} (cached={}): {e}", msg.cached));
            }
            Response::Error { id, message } => panic!("error for {id:?}: {message}"),
            other => panic!("unexpected control response: {other:?}"),
        }
    }
    assert!(
        per_hour_count.iter().all(|&c| c == 2),
        "every hour answered twice"
    );
}
