//! `Request::parse` reads a payload in one scan, without a JSON tree.
//! This suite pins it to the tree-based decoder it replaced, kept below
//! as the oracle: for every payload, the same `Request` (floats compared
//! bitwise) or the same `RequestError` — id and message.
//!
//! Payloads: every request of several replay plans, their members
//! permuted and padded with whitespace, duplicate and escaped keys,
//! numbers of every shape, unknown members holding nested values and
//! escaped multi-byte strings, every truncation of a valid payload, and
//! seeded random garbage and byte mutations.

use billcap_obs::json::Value;
use billcap_rt::{Rng, Xoshiro256pp};
use billcap_serve::protocol::{Request, RequestError};
use billcap_serve::replay::build_plan;

/// The decoder `Request::parse` replaced: parse the whole payload into a
/// [`Value`] tree, then read each field with [`Value::get`].
mod oracle {
    use super::{Request, RequestError, Value};

    fn budget_from_value(v: Option<&Value>) -> Result<f64, String> {
        match v {
            None | Some(Value::Null) => Ok(f64::INFINITY),
            Some(v) => v
                .as_f64()
                .ok_or_else(|| "budget must be a number or null".to_string()),
        }
    }

    fn require_f64(v: &Value, key: &str) -> Result<f64, String> {
        v.get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("missing or non-numeric field '{key}'"))
    }

    fn require_f64_vec(v: &Value, key: &str) -> Result<Vec<f64>, String> {
        let arr = v
            .get(key)
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("missing or non-array field '{key}'"))?;
        arr.iter()
            .map(|x| {
                x.as_f64()
                    .ok_or_else(|| format!("non-numeric element in '{key}'"))
            })
            .collect()
    }

    pub fn parse(payload: &[u8]) -> Result<Request, RequestError> {
        let text = std::str::from_utf8(payload).map_err(|e| RequestError {
            id: None,
            message: format!("payload is not UTF-8: {e}"),
        })?;
        let v = Value::parse(text).map_err(|e| RequestError {
            id: None,
            message: format!("payload is not JSON: {e}"),
        })?;
        let id = v.get("id").and_then(Value::as_u64);
        let fail = |message: String| RequestError { id, message };
        let id_val = id.ok_or_else(|| fail("missing or non-integer field 'id'".into()))?;
        let policy = v
            .get("policy")
            .and_then(Value::as_u64)
            .ok_or_else(|| fail("missing or non-integer field 'policy'".into()))?
            as usize;
        let offered = require_f64(&v, "offered").map_err(&fail)?;
        let premium_offered = require_f64(&v, "premium").map_err(&fail)?;
        let background_mw = require_f64_vec(&v, "background").map_err(&fail)?;
        let hourly_budget = budget_from_value(v.get("budget")).map_err(&fail)?;
        let req = Request {
            id: id_val,
            policy,
            offered,
            premium_offered,
            background_mw,
            hourly_budget,
        };
        req.validate().map_err(&fail)?;
        Ok(req)
    }
}

/// Request equality with floats compared by their bits.
fn same(a: &Request, b: &Request) -> bool {
    a.id == b.id
        && a.policy == b.policy
        && a.offered.to_bits() == b.offered.to_bits()
        && a.premium_offered.to_bits() == b.premium_offered.to_bits()
        && a.hourly_budget.to_bits() == b.hourly_budget.to_bits()
        && a.background_mw.len() == b.background_mw.len()
        && a.background_mw
            .iter()
            .zip(&b.background_mw)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Asserts that both decoders give the same result on `payload`, and
/// returns whether it decoded.
fn check(payload: &[u8]) -> bool {
    let want = oracle::parse(payload);
    let got = Request::parse(payload);
    let shown = String::from_utf8_lossy(payload);
    match (&want, &got) {
        (Ok(w), Ok(g)) => assert!(same(w, g), "{shown}: decoded {g:?}, oracle {w:?}"),
        (Err(w), Err(g)) => assert_eq!(g, w, "{shown}: error differs"),
        _ => panic!("{shown}: decoded {got:?}, oracle {want:?}"),
    }
    got.is_ok()
}

fn check_str(payload: &str) -> bool {
    check(payload.as_bytes())
}

/// A valid request's members, as `(key text, value text)` pairs; the
/// key text is quoted.
fn members(req: &Request) -> Vec<(String, String)> {
    let Value::Obj(pairs) = req.to_value() else {
        unreachable!("a request renders as an object");
    };
    pairs
        .into_iter()
        .map(|(k, v)| (Value::Str(k).render(), v.render()))
        .collect()
}

/// An object of `members`, with `ws` around every token.
fn object(members: &[(String, String)], ws: &str) -> String {
    let body: Vec<String> = members
        .iter()
        .map(|(k, v)| format!("{ws}{k}{ws}:{ws}{v}{ws}"))
        .collect();
    format!("{ws}{{{}}}{ws}", body.join(","))
}

fn sample_request() -> Request {
    Request {
        id: 7,
        policy: 2,
        offered: 6e8,
        premium_offered: 3.6e8,
        background_mw: vec![330.0, 410.5, 280.25],
        hourly_budget: 25_000.0,
    }
}

#[test]
fn every_plan_request_decodes_identically() {
    let mut decoded = 0;
    for (policy, seed, budget) in [
        (0, 11, Some(1.5e6)),
        (1, 42, Some(1.5e6)),
        (2, 5, None),
        (3, 9, Some(1.125e6)),
    ] {
        let plan = build_plan(policy, seed, 24, budget).unwrap();
        for req in &plan.requests {
            let payload = req.to_value().render();
            assert!(check_str(&payload), "{payload}");
            let back = Request::parse(payload.as_bytes()).unwrap();
            assert!(same(&back, req), "{payload} did not round-trip");
            decoded += 1;
        }
    }
    assert_eq!(decoded, 96);
}

#[test]
fn member_order_and_whitespace_do_not_matter() {
    let base = members(&sample_request());
    let mut rng = Xoshiro256pp::seed_from_u64(0xde_c0de);
    for ws in ["", " ", "\n\t ", "\r\n"] {
        for _ in 0..24 {
            let mut m = base.clone();
            for i in (1..m.len()).rev() {
                m.swap(i, rng.random_usize_in(0, i));
            }
            assert!(check_str(&object(&m, ws)));
        }
    }
}

#[test]
fn duplicate_and_escaped_keys_take_the_first_occurrence() {
    let cases = [
        // A later duplicate never overrides the first.
        r#"{"id":1,"policy":1,"offered":5e8,"premium":3e8,"background":[1.0],"id":2}"#,
        r#"{"id":1,"id":"x","policy":1,"offered":5e8,"premium":3e8,"background":[1.0]}"#,
        r#"{"id":"x","id":1,"policy":1,"offered":5e8,"premium":3e8,"background":[1.0]}"#,
        r#"{"id":1,"policy":1,"offered":5e8,"premium":3e8,"background":[1.0],"background":"no"}"#,
        r#"{"id":1,"policy":1,"offered":5e8,"premium":3e8,"background":"no","background":[1.0]}"#,
        r#"{"id":1,"policy":1,"offered":5e8,"premium":3e8,"background":[true],"background":[1.0]}"#,
        r#"{"id":1,"policy":1,"offered":5e8,"premium":3e8,"background":[1.0],"budget":null,"budget":"x"}"#,
        r#"{"id":1,"policy":1,"offered":5e8,"premium":3e8,"background":[1.0],"budget":"x","budget":1.0}"#,
        // Escaped keys name the same fields.
        r#"{"\u0069d":3,"policy":1,"offered":5e8,"premium":3e8,"background":[1.0]}"#,
        r#"{"id":3,"p\u006flicy":0,"offere\u0064":5e8,"\u0070remium":3e8,"backgroun\u0064":[1.0],"budge\u0074":4.5}"#,
        r#"{"\u0069d":3,"id":4,"policy":1,"offered":5e8,"premium":3e8,"background":[1.0]}"#,
        // Near-miss keys are unknown members.
        r#"{"ID":3,"policy":1,"offered":5e8,"premium":3e8,"background":[1.0]}"#,
        r#"{"id ":3,"id":4,"policy":1,"offered":5e8,"premium":3e8,"background":[1.0]}"#,
    ];
    let decoded = cases.iter().filter(|c| check_str(c)).count();
    assert_eq!(decoded, 8, "the cases mix accepted and refused payloads");
    let req = Request::parse(cases[0].as_bytes()).unwrap();
    assert_eq!(req.id, 1);
    let req = Request::parse(cases[8].as_bytes()).unwrap();
    assert_eq!(req.id, 3);
}

#[test]
fn numbers_of_every_shape_decode_identically() {
    let values = [
        "0",
        "-0",
        "-0.0",
        "0.0",
        "5",
        "5.0",
        "5e0",
        "5E+0",
        "2.5e-3",
        "1e400",
        "-1e400",
        "5e-324",
        "1.7976931348623157e308",
        "9223372036854775807",
        "9223372036854775808",
        "18446744073709551615",
        "-1",
        "1.",
        ".5",
        "+3",
        "1e",
        "null",
        "true",
        "\"5\"",
        "[5]",
        "{}",
    ];
    let fields = ["id", "policy", "offered", "premium", "budget"];
    let mut decoded = 0;
    for field in fields {
        for v in values {
            let mut m = members(&sample_request());
            let key = format!("\"{field}\"");
            m.iter_mut().find(|(k, _)| *k == key).unwrap().1 = v.to_string();
            decoded += check_str(&object(&m, "")) as usize;
        }
    }
    // Background elements of every shape, and a missing budget.
    for v in values {
        let payload = format!(
            r#"{{"id":1,"policy":1,"offered":5e8,"premium":3e8,"background":[1.0,{v},2]}}"#
        );
        decoded += check_str(&payload) as usize;
    }
    assert!(decoded > 20, "{decoded} of the payloads decoded");
}

#[test]
fn unknown_members_are_validated_and_skipped() {
    let extras = [
        r#"{"a":{"b":[1,2,{"c":null}]},"d":[]}"#,
        r#"[[[]],[{}],{"k":[true,false]}]"#,
        "\"caf\\u00e9 \u{e9}\u{20ac}\u{1f600} \\\"q\\\" \\\\ \\/ \\n\"",
        r#""\u0041\u00e9\u4e2d""#,
        "-0.0",
        "1e400",
        "null",
        // Malformed inside an unknown member: the whole payload is
        // refused, at the same offset.
        r#"{"a":[1,2,]}"#,
        r#"{"a":"\x"}"#,
        r#"{"a":"\u12"}"#,
        r#"{"a":tru}"#,
        r#"{"a":1-2}"#,
        r#"{"a" 1}"#,
        r#"[{"a":1}"#,
    ];
    let base = members(&sample_request());
    let mut decoded = 0;
    for extra in extras {
        for at in 0..=base.len() {
            let mut m = base.clone();
            // The key carries a multi-byte scalar and an escape.
            m.insert(at, ("\"x\u{e9}\\u0041\"".to_string(), extra.to_string()));
            decoded += check_str(&object(&m, "")) as usize;
            decoded += check_str(&object(&m, " ")) as usize;
        }
    }
    assert_eq!(decoded, 7 * 2 * (base.len() + 1));
}

#[test]
fn every_truncation_decodes_identically() {
    let plan = build_plan(1, 42, 2, Some(1.5e6)).unwrap();
    let mut payloads: Vec<String> = plan
        .requests
        .iter()
        .map(|r| r.to_value().render())
        .collect();
    payloads.push(object(&members(&sample_request()), " "));
    payloads.push(
        r#"{"x":{"y":["\u00e9",[1,{}]]},"id":1,"policy":1,"offered":5e8,"premium":3e8,"background":[1.0],"budget":null}"#
            .to_string(),
    );
    for payload in &payloads {
        let bytes = payload.as_bytes();
        for cut in 0..bytes.len() {
            check(&bytes[..cut]);
        }
        assert!(check(bytes));
    }
}

#[test]
fn random_garbage_and_mutations_decode_identically() {
    const MUTATIONS: &[u8] = b"{}[],:\"\\/u0e9+-.E tfn\xc3\x80";
    let valid: Vec<Vec<u8>> = [sample_request(), {
        let mut r = sample_request();
        r.hourly_budget = f64::INFINITY;
        r.background_mw = vec![0.0, 1e-7];
        r
    }]
    .iter()
    .map(|r| r.to_value().render().into_bytes())
    .collect();
    for seed in [0x5eed_u64, 1, 2, 3] {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        for _ in 0..300 {
            // The robustness suite's well-framed garbage: random bytes.
            let n = rng.random_usize_in(0, 64);
            let blob: Vec<u8> = (0..n).map(|_| rng.next_u64() as u8).collect();
            check(&blob);
            // A valid payload with a few bytes replaced, inserted or
            // removed.
            let mut bytes = valid[rng.random_usize_in(0, valid.len() - 1)].clone();
            for _ in 0..rng.random_usize_in(1, 3) {
                let at = rng.random_usize_in(0, bytes.len() - 1);
                let b = MUTATIONS[rng.random_usize_in(0, MUTATIONS.len() - 1)];
                match rng.random_usize_in(0, 2) {
                    0 => bytes[at] = b,
                    1 => bytes.insert(at, b),
                    _ => {
                        bytes.remove(at);
                    }
                }
            }
            check(&bytes);
        }
    }
}

#[test]
fn refusals_keep_their_id_and_message() {
    let err = |payload: &str| -> RequestError { Request::parse(payload.as_bytes()).unwrap_err() };
    let e = err(r#"{"id":10,"policy":99,"offered":1.0,"premium":0.5,"background":[1.0]}"#);
    assert_eq!(e.id, Some(10));
    assert_eq!(e.message, "policy 99 out of range (0..=3)");
    let e = err(r#"{"id":11,"policy":1,"offered":1.0,"premium":0.5,"background":[1.0,"x"]}"#);
    assert_eq!(e.id, Some(11));
    assert_eq!(e.message, "non-numeric element in 'background'");
    let e = err(r#"{"id":12,"policy":1,"offered":1.0,"premium":0.5,"background":[1.0],"x":[}"#);
    assert_eq!(e.id, None);
    assert_eq!(
        e.message,
        "payload is not JSON: json error at byte 72: invalid number \"\""
    );
    let e = err("[1,2]");
    assert_eq!(
        (e.id, e.message.as_str()),
        (None, "missing or non-integer field 'id'")
    );
}

#[test]
fn deep_nesting_in_an_unknown_member_is_skipped_on_the_heap() {
    // The tree decoder recursed once per level and overflowed a worker's
    // stack on a frame like this, aborting the server; the scanner skips
    // nesting with a heap stack. No oracle: it cannot survive the input.
    let depth = 200_000;
    let payload = format!(
        r#"{{"x":{}{},"id":1,"policy":1,"offered":5e8,"premium":3e8,"background":[1.0]}}"#,
        "[".repeat(depth),
        "]".repeat(depth)
    );
    let req = Request::parse(payload.as_bytes()).unwrap();
    assert_eq!((req.id, req.policy), (1, 1));
    let unclosed = format!(r#"{{"id":1,"x":{}"#, "[{\"a\":".repeat(depth));
    let err = Request::parse(unclosed.as_bytes()).unwrap_err();
    assert_eq!(err.id, None);
    assert!(
        err.message.ends_with("unexpected end of input"),
        "{}",
        err.message
    );
}
