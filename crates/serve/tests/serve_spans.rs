//! The serve path is traced layer by layer: every data frame's wait in
//! the queue is a top-level `serve.queue` span, and its handling opens a
//! `serve.request` span whose children name the decode, cache, decide,
//! encode and write steps. The span counts are an exact account of the
//! run's requests, hits and misses. No timing is asserted.
//!
//! One `#[test]` only: the global recorder and the enable flag are
//! process-wide state.

use billcap_serve::protocol::{write_frame, Request};
use billcap_serve::server::{serve, ServeConfig};
use std::io::Cursor;

fn request(id: u64, offered: f64) -> Request {
    Request {
        id,
        policy: 1,
        offered,
        premium_offered: 0.6 * offered,
        background_mw: vec![330.0, 410.0, 280.0],
        hourly_budget: f64::INFINITY,
    }
}

#[test]
fn traced_serve_nests_one_span_per_layer_under_each_request() {
    // Four distinct hours, each asked three times, plus one request the
    // server refuses after decoding it.
    let mut input = Vec::new();
    for id in 0..12u64 {
        let offered = 4e8 + 2.5e7 * (id % 4) as f64;
        write_frame(
            &mut input,
            request(id, offered).to_value().render().as_bytes(),
        )
        .unwrap();
    }
    write_frame(&mut input, br#"{"id":99,"policy":9}"#).unwrap();
    let cfg = ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    };

    billcap_obs::set_enabled(true);
    billcap_obs::reset();
    let mut out = Vec::new();
    let stats = serve(&cfg, Cursor::new(input), &mut out);
    let snap = billcap_obs::snapshot();
    billcap_obs::set_enabled(false);

    assert_eq!(snap.orphans, 0, "unbalanced spans");
    assert_eq!((stats.requests, stats.decisions, stats.errors), (13, 12, 1));
    assert_eq!(stats.cache_hits + stats.cache_misses, 12);
    assert!(stats.cache_misses >= 4, "each distinct hour misses once");

    let count = |path: &str| snap.spans.get(path).map_or(0, |s| s.count);
    assert_eq!(count("serve.queue"), stats.requests);
    assert_eq!(count("serve.request"), stats.requests);
    assert_eq!(count("serve.request/serve.decode"), stats.requests);
    // One lookup per decodable request, one insert per miss.
    assert_eq!(
        count("serve.request/serve.cache"),
        stats.cache_hits + 2 * stats.cache_misses
    );
    assert_eq!(count("serve.request/serve.decide"), stats.cache_misses);
    // Every request is answered: a decision or an error frame.
    assert_eq!(count("serve.request/serve.encode"), stats.requests);
    assert_eq!(count("serve.request/serve.write"), stats.requests);
    // The wait ends before the request's handling begins.
    assert_eq!(count("serve.request/serve.queue"), 0);
    for layer in ["decode", "cache", "decide", "encode", "write"] {
        assert_eq!(
            count(&format!("serve.{layer}")),
            0,
            "serve.{layer} opened outside a request"
        );
    }
}
