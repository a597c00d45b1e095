//! The wire protocol: length-prefixed JSON frames.
//!
//! Every message — request or response — is one *frame*: a 4-byte
//! big-endian payload length followed by that many bytes of UTF-8 JSON.
//! Frames are self-delimiting, so a stream of them needs no separators
//! and binary-safe transports (pipes, Unix sockets) carry them as-is.
//!
//! Floats ride on [`billcap_obs::json`], whose shortest-round-trip
//! rendering reproduces every finite `f64` bit-for-bit — the protocol
//! therefore transports decisions *exactly*, which is what lets the
//! differential tests compare served responses against in-process
//! solves with `to_bits` equality. The single non-finite value the
//! domain needs, an unlimited budget (`+∞`), is encoded as JSON `null`.
//!
//! A request names a paper pricing policy (0..=3) instead of shipping
//! the whole data-center spec; the server builds and retains one
//! [`billcap_core::DecisionEngine`] per (worker, policy).
//!
//! Responses carry only the deterministic parts of a decision: the
//! full allocation vectors, the served/offered scalars, and the
//! `solves`/`nodes`/`lp_iterations` counters. Wall-clock fields of
//! [`billcap_core::DecisionTrace`] are machine noise and never cross
//! the wire.
//!
//! A decision payload is a per-request head,
//! `{"type":"decision","id":N,"cached":B`
//! ([`DecisionMsg::render_head`]), followed by a body that depends only
//! on the decision ([`DecisionMsg::render_body`]). The server caches
//! bodies and answers a repeat of an hour by writing a new head before
//! the stored body; [`DecisionMsg::to_value`] renders the same fields
//! in the same order, so both paths give identical bytes. One ordered
//! field writer drives the head, the body and `to_value`: the body is
//! written straight into bytes, and `to_value` builds the tree that
//! clients render.
//!
//! [`Request::parse`] decodes in one pass with
//! [`billcap_obs::json::Scanner`] and builds no tree. It keeps the first
//! occurrence of each field, as [`Value::get`] would on a parsed tree,
//! and validates unknown members it skips, so every payload decodes to
//! the same request, or fails with the same error, as the tree would
//! give.

use billcap_core::{HourDecision, HourOutcome};
use billcap_obs::json::{JsonError, Scanner, Token, Value};
use billcap_obs::MetricsDoc;
use std::io::{Read, Write};

/// Default maximum frame payload (1 MiB) — far above any real request,
/// small enough that a hostile length prefix cannot balloon memory.
pub const MAX_FRAME: usize = 1 << 20;

/// Framing failures. Anything here poisons the *stream* (a frame
/// boundary was lost), as opposed to per-request JSON errors, which are
/// answered in-band and leave the stream usable.
#[derive(Debug)]
pub enum FrameError {
    /// The stream ended inside a header or payload.
    Truncated {
        /// Bytes the frame still owed.
        expected: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// The header announced a payload larger than the configured cap.
    Oversized {
        /// Announced payload length.
        len: usize,
        /// Configured maximum.
        max: usize,
    },
    /// The underlying transport failed.
    Io(std::io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated { expected, got } => {
                write!(
                    f,
                    "truncated frame: expected {expected} more bytes, got {got}"
                )
            }
            FrameError::Oversized { len, max } => {
                write!(f, "oversized frame: {len} bytes exceeds the {max}-byte cap")
            }
            FrameError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Reads one frame. `Ok(None)` is a clean end-of-stream (EOF exactly at
/// a frame boundary); EOF anywhere else is [`FrameError::Truncated`].
pub fn read_frame<R: Read + ?Sized>(
    r: &mut R,
    max_payload: usize,
) -> Result<Option<Vec<u8>>, FrameError> {
    let mut header = [0u8; 4];
    let mut filled = 0usize;
    while filled < 4 {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(FrameError::Truncated {
                    expected: 4 - filled,
                    got: filled,
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > max_payload {
        return Err(FrameError::Oversized {
            len,
            max: max_payload,
        });
    }
    let mut payload = vec![0u8; len];
    let mut got = 0usize;
    while got < len {
        match r.read(&mut payload[got..]) {
            Ok(0) => {
                return Err(FrameError::Truncated {
                    expected: len - got,
                    got,
                })
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(Some(payload))
}

/// Writes one frame (header + payload). The caller flushes.
pub fn write_frame<W: Write + ?Sized>(w: &mut W, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len()).map_err(|_| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "frame payload exceeds u32::MAX",
        )
    })?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload)
}

/// Renders a maybe-infinite budget: `null` encodes `+∞`.
fn budget_to_value(budget: f64) -> Value {
    if budget.is_finite() {
        Value::Float(budget)
    } else {
        Value::Null
    }
}

/// Parses a maybe-null budget; absent and `null` both mean unlimited.
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

fn require_u64(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing or non-integer field '{key}'"))
}

/// The first occurrence of a scalar request field, as far as
/// [`Request::parse`] needs to know it.
#[derive(Clone, Copy)]
enum Scalar {
    /// The key never occurred.
    Absent,
    Null,
    Int(i64),
    Float(f64),
    /// A string, boolean, object or array.
    Other,
}

impl Scalar {
    fn of(token: &Token<'_>) -> Self {
        match *token {
            Token::Null => Scalar::Null,
            Token::Int(i) => Scalar::Int(i),
            Token::Float(f) => Scalar::Float(f),
            _ => Scalar::Other,
        }
    }

    /// [`Value::as_u64`] of the field.
    fn as_u64(self) -> Option<u64> {
        match self {
            Scalar::Int(i) if i >= 0 => Some(i as u64),
            _ => None,
        }
    }

    /// [`Value::as_f64`] of the field.
    fn as_f64(self) -> Option<f64> {
        match self {
            Scalar::Int(i) => Some(i as f64),
            Scalar::Float(f) => Some(f),
            _ => None,
        }
    }

    fn require_f64(self, key: &str) -> Result<f64, String> {
        self.as_f64()
            .ok_or_else(|| format!("missing or non-numeric field '{key}'"))
    }
}

/// The first occurrence of the `background` field.
enum Background {
    /// Not an array.
    NotArray,
    /// An array holding a non-number.
    NonNumeric,
    /// An array of numbers.
    Numbers(Vec<f64>),
}

/// The request fields of one payload, gathered in a single scan.
struct RequestFields {
    id: Scalar,
    policy: Scalar,
    offered: Scalar,
    premium: Scalar,
    budget: Scalar,
    background: Option<Background>,
}

impl RequestFields {
    /// Scans a whole JSON document. A document that is not an object
    /// is valid JSON with every field absent.
    fn scan(text: &str) -> Result<Self, JsonError> {
        let mut f = RequestFields {
            id: Scalar::Absent,
            policy: Scalar::Absent,
            offered: Scalar::Absent,
            premium: Scalar::Absent,
            budget: Scalar::Absent,
            background: None,
        };
        let mut s = Scanner::new(text);
        let token = s.value()?;
        if token != Token::ObjStart {
            s.skip(token)?;
            s.finish()?;
            return Ok(f);
        }
        let mut first = true;
        while let Some(key) = s.key(first)? {
            first = false;
            let token = s.value()?;
            let slot = match &*key {
                "id" => &mut f.id,
                "policy" => &mut f.policy,
                "offered" => &mut f.offered,
                "premium" => &mut f.premium,
                "budget" => &mut f.budget,
                "background" if f.background.is_none() => {
                    f.background = Some(scan_background(&mut s, token)?);
                    continue;
                }
                _ => {
                    s.skip(token)?;
                    continue;
                }
            };
            if matches!(slot, Scalar::Absent) {
                *slot = Scalar::of(&token);
            }
            s.skip(token)?;
        }
        s.finish()?;
        Ok(f)
    }
}

/// Reads the value of a first `background` member whose first token is
/// `token`, through its end.
fn scan_background<'a>(s: &mut Scanner<'a>, token: Token<'a>) -> Result<Background, JsonError> {
    if token != Token::ArrStart {
        s.skip(token)?;
        return Ok(Background::NotArray);
    }
    let mut numbers = Vec::new();
    let mut numeric = true;
    let mut first = true;
    while s.element(first)? {
        first = false;
        match s.value()? {
            Token::Int(i) => numbers.push(i as f64),
            Token::Float(f) => numbers.push(f),
            other => {
                numeric = false;
                s.skip(other)?;
            }
        }
    }
    Ok(if numeric {
        Background::Numbers(numbers)
    } else {
        Background::NonNumeric
    })
}

/// One decide-hour request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed on the response.
    pub id: u64,
    /// Paper pricing-policy family (0..=3) selecting the system.
    pub policy: usize,
    /// Total offered rate (requests/hour).
    pub offered: f64,
    /// Premium share of the offered rate.
    pub premium_offered: f64,
    /// Regional background demand per site (MW).
    pub background_mw: Vec<f64>,
    /// Hourly budget ($); `f64::INFINITY` (JSON `null`) = unlimited.
    pub hourly_budget: f64,
}

/// Highest pricing-policy family index the server will instantiate.
pub const MAX_POLICY: usize = 3;

impl Request {
    /// Renders the request as a JSON payload.
    pub fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("id".into(), Value::Int(self.id as i64)),
            ("policy".into(), Value::Int(self.policy as i64)),
            ("offered".into(), Value::Float(self.offered)),
            ("premium".into(), Value::Float(self.premium_offered)),
            (
                "background".into(),
                Value::Arr(
                    self.background_mw
                        .iter()
                        .map(|&d| Value::Float(d))
                        .collect(),
                ),
            ),
            ("budget".into(), budget_to_value(self.hourly_budget)),
        ])
    }

    /// Parses and validates a request payload. On failure the error
    /// carries the request id when one could be extracted, so the
    /// server can still correlate the error response.
    ///
    /// The payload is read in one pass with a [`Scanner`], without a
    /// [`Value`] tree. A field that occurs more than once takes its
    /// first occurrence (the rule of [`Value::get`]); unknown members
    /// are skipped but still validated. Every payload therefore gives
    /// the same result, or the same error, as parsing the whole tree and
    /// reading the fields from it.
    pub fn parse(payload: &[u8]) -> Result<Request, RequestError> {
        let text = std::str::from_utf8(payload).map_err(|e| RequestError {
            id: None,
            message: format!("payload is not UTF-8: {e}"),
        })?;
        let f = RequestFields::scan(text).map_err(|e| RequestError {
            id: None,
            message: format!("payload is not JSON: {e}"),
        })?;
        let id = f.id.as_u64();
        let fail = |message: String| RequestError { id, message };
        let id_val = id.ok_or_else(|| fail("missing or non-integer field 'id'".into()))?;
        let policy = f
            .policy
            .as_u64()
            .ok_or_else(|| fail("missing or non-integer field 'policy'".into()))?
            as usize;
        let offered = f.offered.require_f64("offered").map_err(&fail)?;
        let premium_offered = f.premium.require_f64("premium").map_err(&fail)?;
        let background_mw = match f.background {
            Some(Background::Numbers(v)) => v,
            Some(Background::NonNumeric) => {
                return Err(fail("non-numeric element in 'background'".into()))
            }
            None | Some(Background::NotArray) => {
                return Err(fail("missing or non-array field 'background'".into()))
            }
        };
        let hourly_budget = match f.budget {
            Scalar::Absent | Scalar::Null => f64::INFINITY,
            other => other
                .as_f64()
                .ok_or_else(|| fail("budget must be a number or null".into()))?,
        };
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

    /// Domain validation: everything that would panic or misbehave
    /// deeper in the stack is rejected here with a message instead.
    pub fn validate(&self) -> Result<(), String> {
        if self.policy > MAX_POLICY {
            return Err(format!(
                "policy {} out of range (0..={MAX_POLICY})",
                self.policy
            ));
        }
        if !self.offered.is_finite() || self.offered < 0.0 {
            return Err(format!(
                "offered rate {} must be finite and >= 0",
                self.offered
            ));
        }
        if !self.premium_offered.is_finite() || self.premium_offered < 0.0 {
            return Err(format!(
                "premium rate {} must be finite and >= 0",
                self.premium_offered
            ));
        }
        if self.premium_offered > self.offered {
            return Err(format!(
                "premium rate {} exceeds offered rate {}",
                self.premium_offered, self.offered
            ));
        }
        if self.background_mw.is_empty() {
            return Err("background demand vector is empty".into());
        }
        for (i, d) in self.background_mw.iter().enumerate() {
            if !d.is_finite() || *d < 0.0 {
                return Err(format!("background[{i}] = {d} must be finite and >= 0"));
            }
        }
        if self.hourly_budget.is_nan() || self.hourly_budget == f64::NEG_INFINITY {
            return Err("budget must be a finite number or null".into());
        }
        Ok(())
    }
}

/// A request that could not be parsed or validated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestError {
    /// The request id, when it could be extracted from the payload.
    pub id: Option<u64>,
    /// What went wrong.
    pub message: String,
}

/// An in-band control frame: `{"op":"metrics"}` or `{"op":"health"}`,
/// with an optional `id` echoed on the response.
///
/// Control frames are answered by the server's reader thread directly —
/// they never enter the decision queue, so a scrape observes the
/// workers instead of competing with them. The `"op"` key is reserved:
/// decide requests carry no string values at all, so the byte sequence
/// `"op"` can only appear in a control frame (see
/// [`maybe_control`](Self::maybe_control)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlMsg {
    /// Ask for the current [`MetricsDoc`].
    Metrics {
        /// Optional correlation id, echoed back.
        id: Option<u64>,
    },
    /// Ask for an ok/degraded health verdict.
    Health {
        /// Optional correlation id, echoed back.
        id: Option<u64>,
    },
}

impl ControlMsg {
    /// Cheap pre-filter: does the payload contain the byte sequence
    /// `"op"`? Decide requests never do (their only strings are the
    /// fixed field names, none of which contains `"op"` quoted), so the
    /// reader runs this O(n) scan instead of parsing JSON per frame.
    pub fn maybe_control(payload: &[u8]) -> bool {
        payload.windows(4).any(|w| w == b"\"op\"")
    }

    /// Parses a control frame. `Ok(None)` means the payload has no
    /// `"op"` key and should be treated as an ordinary request;
    /// `Err` means it names an op the server does not know.
    pub fn parse(payload: &[u8]) -> Result<Option<ControlMsg>, String> {
        let text = std::str::from_utf8(payload).map_err(|e| format!("not UTF-8: {e}"))?;
        let v = Value::parse(text).map_err(|e| format!("not JSON: {e}"))?;
        let Some(op) = v.get("op").and_then(Value::as_str) else {
            return Ok(None);
        };
        let id = v.get("id").and_then(Value::as_u64);
        match op {
            "metrics" => Ok(Some(ControlMsg::Metrics { id })),
            "health" => Ok(Some(ControlMsg::Health { id })),
            other => Err(format!("unknown control op '{other}'")),
        }
    }

    /// Renders the control frame (the client half).
    pub fn to_value(&self) -> Value {
        let (op, id) = match self {
            ControlMsg::Metrics { id } => ("metrics", id),
            ControlMsg::Health { id } => ("health", id),
        };
        let mut fields = vec![("op".to_string(), Value::Str(op.into()))];
        if let Some(i) = id {
            fields.push(("id".into(), Value::Int(*i as i64)));
        }
        Value::Obj(fields)
    }
}

fn outcome_tag(outcome: HourOutcome) -> &'static str {
    match outcome {
        HourOutcome::WithinBudget => "within_budget",
        HourOutcome::Throttled => "throttled",
        HourOutcome::PremiumOverride => "premium_override",
    }
}

fn outcome_from_tag(tag: &str) -> Result<HourOutcome, String> {
    match tag {
        "within_budget" => Ok(HourOutcome::WithinBudget),
        "throttled" => Ok(HourOutcome::Throttled),
        "premium_override" => Ok(HourOutcome::PremiumOverride),
        other => Err(format!("unknown outcome '{other}'")),
    }
}

/// Receives a decision payload's fields in wire order. The order is
/// written once, in [`head_fields`] and `DecisionMsg::body_fields`;
/// [`TreeFields`] turns it into a [`Value`] and [`ByteFields`] into the
/// bytes [`Value::render`] would give that value.
trait FieldWriter {
    fn str(&mut self, key: &'static str, v: &'static str);
    fn bool(&mut self, key: &'static str, v: bool);
    fn int(&mut self, key: &'static str, v: i64);
    fn float(&mut self, key: &'static str, v: f64);
    fn null(&mut self, key: &'static str);
    fn floats(&mut self, key: &'static str, v: &[f64]);
    fn ints(&mut self, key: &'static str, v: impl Iterator<Item = i64>);
}

/// Writes the per-request head fields, in wire order.
fn head_fields(id: u64, cached: bool, w: &mut impl FieldWriter) {
    w.str("type", "decision");
    w.int("id", id as i64);
    w.bool("cached", cached);
}

/// Collects the fields as the members of a [`Value::Obj`].
struct TreeFields(Vec<(String, Value)>);

impl TreeFields {
    fn push(&mut self, key: &str, v: Value) {
        self.0.push((key.into(), v));
    }
}

impl FieldWriter for TreeFields {
    fn str(&mut self, key: &'static str, v: &'static str) {
        self.push(key, Value::Str(v.into()));
    }
    fn bool(&mut self, key: &'static str, v: bool) {
        self.push(key, Value::Bool(v));
    }
    fn int(&mut self, key: &'static str, v: i64) {
        self.push(key, Value::Int(v));
    }
    fn float(&mut self, key: &'static str, v: f64) {
        self.push(key, Value::Float(v));
    }
    fn null(&mut self, key: &'static str) {
        self.push(key, Value::Null);
    }
    fn floats(&mut self, key: &'static str, v: &[f64]) {
        self.push(
            key,
            Value::Arr(v.iter().map(|&f| Value::Float(f)).collect()),
        );
    }
    fn ints(&mut self, key: &'static str, v: impl Iterator<Item = i64>) {
        self.push(key, Value::Arr(v.map(Value::Int).collect()));
    }
}

/// Appends the fields as compact JSON object members, `"key":value`,
/// comma-separated, rendered exactly as [`Value::render`] renders them.
/// Keys and string values are fixed identifiers that need no escaping.
struct ByteFields<'o> {
    out: &'o mut Vec<u8>,
    /// No member has been written yet, so none needs a separator.
    first: bool,
}

impl ByteFields<'_> {
    fn key(&mut self, key: &str) {
        if !self.first {
            self.out.push(b',');
        }
        self.first = false;
        self.quoted(key);
        self.out.push(b':');
    }

    fn quoted(&mut self, s: &str) {
        debug_assert!(
            s.bytes().all(|b| b >= 0x20 && b != b'"' && b != b'\\'),
            "{s:?} needs escaping"
        );
        self.out.push(b'"');
        self.out.extend_from_slice(s.as_bytes());
        self.out.push(b'"');
    }

    fn display(&mut self, v: impl std::fmt::Display) {
        use std::io::Write as _;
        // Writing to a Vec cannot fail.
        let _ = write!(self.out, "{v}");
    }

    /// `{:?}`, the shortest text that reads back as the same `f64`.
    fn float_text(&mut self, v: f64) {
        use std::io::Write as _;
        debug_assert!(v.is_finite(), "non-finite float {v} is not JSON");
        let _ = write!(self.out, "{v:?}");
    }

    fn array<T>(&mut self, items: impl Iterator<Item = T>, mut item: impl FnMut(&mut Self, T)) {
        self.out.push(b'[');
        for (i, x) in items.enumerate() {
            if i > 0 {
                self.out.push(b',');
            }
            item(self, x);
        }
        self.out.push(b']');
    }
}

impl FieldWriter for ByteFields<'_> {
    fn str(&mut self, key: &'static str, v: &'static str) {
        self.key(key);
        self.quoted(v);
    }
    fn bool(&mut self, key: &'static str, v: bool) {
        self.key(key);
        self.display(v);
    }
    fn int(&mut self, key: &'static str, v: i64) {
        self.key(key);
        self.display(v);
    }
    fn float(&mut self, key: &'static str, v: f64) {
        self.key(key);
        self.float_text(v);
    }
    fn null(&mut self, key: &'static str) {
        self.key(key);
        self.out.extend_from_slice(b"null");
    }
    fn floats(&mut self, key: &'static str, v: &[f64]) {
        self.key(key);
        self.array(v.iter(), |w, &f| w.float_text(f));
    }
    fn ints(&mut self, key: &'static str, v: impl Iterator<Item = i64>) {
        self.key(key);
        self.array(v, |w, i| w.display(i));
    }
}

/// The deterministic image of an [`HourDecision`], as shipped to the
/// client. Excludes the wall-clock trace fields (machine noise) and
/// includes the `cached` marker.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionMsg {
    /// Echoed request id.
    pub id: u64,
    /// Whether the decision was answered from the decision cache.
    pub cached: bool,
    /// Which branch of the algorithm produced the decision.
    pub outcome: HourOutcome,
    /// Offered rate after the capacity clamp.
    pub offered: f64,
    /// Premium share of the offered rate.
    pub premium_offered: f64,
    /// Premium requests served.
    pub premium_served: f64,
    /// Ordinary requests served.
    pub ordinary_served: f64,
    /// Budget the decision was made against (`∞` = unlimited).
    pub budget: f64,
    /// Per-site admitted rate (requests/hour).
    pub lambda: Vec<f64>,
    /// Per-site active server count.
    pub servers: Vec<u64>,
    /// Per-site power draw (MW).
    pub power_mw: Vec<f64>,
    /// Per-site electricity price ($/MWh).
    pub price: Vec<f64>,
    /// Per-site selected price level.
    pub level: Vec<usize>,
    /// Per-site cost ($).
    pub cost: Vec<f64>,
    /// Total cost ($).
    pub total_cost: f64,
    /// Total admitted rate (requests/hour).
    pub total_lambda: f64,
    /// MILP solves performed for this decision.
    pub solves: usize,
    /// Branch-and-bound nodes across the solves.
    pub nodes: usize,
    /// Simplex iterations across the solves.
    pub lp_iterations: usize,
}

impl DecisionMsg {
    /// Projects a finished decision onto the wire shape.
    pub fn from_decision(id: u64, d: &HourDecision, cached: bool) -> Self {
        Self {
            id,
            cached,
            outcome: d.outcome,
            offered: d.offered,
            premium_offered: d.premium_offered,
            premium_served: d.premium_served,
            ordinary_served: d.ordinary_served,
            budget: d.budget,
            lambda: d.allocation.lambda.clone(),
            servers: d.allocation.servers.clone(),
            power_mw: d.allocation.power_mw.clone(),
            price: d.allocation.price.clone(),
            level: d.allocation.level.clone(),
            cost: d.allocation.cost.clone(),
            total_cost: d.allocation.total_cost,
            total_lambda: d.allocation.total_lambda,
            solves: d.trace.solves,
            nodes: d.trace.nodes,
            lp_iterations: d.trace.lp_iterations,
        }
    }

    /// Renders the decision as a JSON payload: the per-request head
    /// fields ([`render_head`](Self::render_head)) followed by the
    /// per-decision body fields ([`render_body`](Self::render_body)).
    pub fn to_value(&self) -> Value {
        let mut fields = TreeFields(Vec::new());
        head_fields(self.id, self.cached, &mut fields);
        self.body_fields(&mut fields);
        Value::Obj(fields.0)
    }

    /// Appends the rendered head, `{"type":"decision","id":N,"cached":B`,
    /// to `out`. The head is the only part of a decision payload that
    /// depends on the request rather than on the decision, so head plus
    /// [`render_body`](Self::render_body) is byte-identical to
    /// `to_value().render()`: all three write the same fields in the
    /// same order, here straight into bytes.
    pub fn render_head(id: u64, cached: bool, out: &mut Vec<u8>) {
        out.push(b'{');
        head_fields(id, cached, &mut ByteFields { out, first: true });
    }

    /// Renders the body: every field after `cached`, from
    /// `,"outcome":` through the closing `}`. It depends only on the
    /// decision, so a cache can store it once and answer every repeat
    /// of the hour by appending it to a fresh
    /// [`render_head`](Self::render_head).
    pub fn render_body(&self) -> Vec<u8> {
        let mut body = Vec::new();
        self.render_body_into(&mut body);
        body
    }

    /// [`render_body`](Self::render_body), appended to `out` (after a
    /// head, to make a whole payload in one buffer).
    pub fn render_body_into(&self, out: &mut Vec<u8>) {
        self.body_fields(&mut ByteFields { out, first: false });
        out.push(b'}');
    }

    /// Writes the decision-dependent fields, in wire order.
    fn body_fields(&self, w: &mut impl FieldWriter) {
        w.str("outcome", outcome_tag(self.outcome));
        w.float("offered", self.offered);
        w.float("premium_offered", self.premium_offered);
        w.float("premium_served", self.premium_served);
        w.float("ordinary_served", self.ordinary_served);
        if self.budget.is_finite() {
            w.float("budget", self.budget);
        } else {
            w.null("budget");
        }
        w.floats("lambda", &self.lambda);
        w.ints("servers", self.servers.iter().map(|&s| s as i64));
        w.floats("power_mw", &self.power_mw);
        w.floats("price", &self.price);
        w.ints("level", self.level.iter().map(|&k| k as i64));
        w.floats("cost", &self.cost);
        w.float("total_cost", self.total_cost);
        w.float("total_lambda", self.total_lambda);
        w.int("solves", self.solves as i64);
        w.int("nodes", self.nodes as i64);
        w.int("lp_iterations", self.lp_iterations as i64);
    }

    /// Parses a decision payload (the client half of the protocol).
    pub fn from_value(v: &Value) -> Result<Self, String> {
        let uvec = |key: &str| -> Result<Vec<u64>, String> {
            let arr = v
                .get(key)
                .and_then(Value::as_arr)
                .ok_or_else(|| format!("missing or non-array field '{key}'"))?;
            arr.iter()
                .map(|x| {
                    x.as_u64()
                        .ok_or_else(|| format!("non-integer element in '{key}'"))
                })
                .collect()
        };
        Ok(Self {
            id: require_u64(v, "id")?,
            cached: matches!(v.get("cached"), Some(Value::Bool(true))),
            outcome: outcome_from_tag(
                v.get("outcome")
                    .and_then(Value::as_str)
                    .ok_or("missing field 'outcome'")?,
            )?,
            offered: require_f64(v, "offered")?,
            premium_offered: require_f64(v, "premium_offered")?,
            premium_served: require_f64(v, "premium_served")?,
            ordinary_served: require_f64(v, "ordinary_served")?,
            budget: budget_from_value(v.get("budget"))?,
            lambda: require_f64_vec(v, "lambda")?,
            servers: uvec("servers")?,
            power_mw: require_f64_vec(v, "power_mw")?,
            price: require_f64_vec(v, "price")?,
            level: uvec("level")?.into_iter().map(|k| k as usize).collect(),
            cost: require_f64_vec(v, "cost")?,
            total_cost: require_f64(v, "total_cost")?,
            total_lambda: require_f64(v, "total_lambda")?,
            solves: require_u64(v, "solves")? as usize,
            nodes: require_u64(v, "nodes")? as usize,
            lp_iterations: require_u64(v, "lp_iterations")? as usize,
        })
    }

    /// Checks this message against a locally computed decision with
    /// raw-bit float equality. Returns the first mismatching field.
    pub fn bitwise_matches(&self, d: &HourDecision) -> Result<(), String> {
        fn feq(name: &str, a: f64, b: f64) -> Result<(), String> {
            if a.to_bits() == b.to_bits() || (a == f64::INFINITY && b == f64::INFINITY) {
                Ok(())
            } else {
                Err(format!("{name}: served {a:?} != expected {b:?}"))
            }
        }
        fn veq(name: &str, a: &[f64], b: &[f64]) -> Result<(), String> {
            if a.len() != b.len() {
                return Err(format!("{name}: length {} != {}", a.len(), b.len()));
            }
            for (i, (x, y)) in a.iter().zip(b).enumerate() {
                feq(&format!("{name}[{i}]"), *x, *y)?;
            }
            Ok(())
        }
        if self.outcome != d.outcome {
            return Err(format!(
                "outcome: served {:?} != expected {:?}",
                self.outcome, d.outcome
            ));
        }
        feq("offered", self.offered, d.offered)?;
        feq("premium_offered", self.premium_offered, d.premium_offered)?;
        feq("premium_served", self.premium_served, d.premium_served)?;
        feq("ordinary_served", self.ordinary_served, d.ordinary_served)?;
        feq("budget", self.budget, d.budget)?;
        veq("lambda", &self.lambda, &d.allocation.lambda)?;
        if self.servers != d.allocation.servers {
            return Err("servers: vector mismatch".into());
        }
        veq("power_mw", &self.power_mw, &d.allocation.power_mw)?;
        veq("price", &self.price, &d.allocation.price)?;
        if self.level != d.allocation.level {
            return Err("level: vector mismatch".into());
        }
        veq("cost", &self.cost, &d.allocation.cost)?;
        feq("total_cost", self.total_cost, d.allocation.total_cost)?;
        feq("total_lambda", self.total_lambda, d.allocation.total_lambda)?;
        if self.solves != d.trace.solves {
            return Err(format!(
                "solves: served {} != expected {}",
                self.solves, d.trace.solves
            ));
        }
        if self.nodes != d.trace.nodes {
            return Err(format!(
                "nodes: served {} != expected {}",
                self.nodes, d.trace.nodes
            ));
        }
        if self.lp_iterations != d.trace.lp_iterations {
            return Err(format!(
                "lp_iterations: served {} != expected {}",
                self.lp_iterations, d.trace.lp_iterations
            ));
        }
        Ok(())
    }
}

/// A response frame: a decision, a structured error, or the answer to
/// an in-band [`ControlMsg`].
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A finished decision.
    Decision(DecisionMsg),
    /// A per-request or stream-level error.
    Error {
        /// The offending request's id, when known.
        id: Option<u64>,
        /// Human-readable cause.
        message: String,
    },
    /// The metrics document answering a `metrics` control frame.
    Metrics {
        /// Echoed control-frame id, when one was sent.
        id: Option<u64>,
        /// The scraped document.
        doc: MetricsDoc,
    },
    /// The verdict answering a `health` control frame.
    Health {
        /// Echoed control-frame id, when one was sent.
        id: Option<u64>,
        /// `true` when no degradation reason applies.
        ok: bool,
        /// Why the server considers itself degraded (empty when ok).
        reasons: Vec<String>,
    },
}

fn opt_id(id: Option<u64>) -> Value {
    id.map(|i| Value::Int(i as i64)).unwrap_or(Value::Null)
}

impl Response {
    /// Renders the response as a JSON payload.
    pub fn to_value(&self) -> Value {
        match self {
            Response::Decision(d) => d.to_value(),
            Response::Error { id, message } => Value::Obj(vec![
                ("type".into(), Value::Str("error".into())),
                ("id".into(), opt_id(*id)),
                ("message".into(), Value::Str(message.clone())),
            ]),
            Response::Metrics { id, doc } => Value::Obj(vec![
                ("type".into(), Value::Str("metrics".into())),
                ("id".into(), opt_id(*id)),
                ("doc".into(), doc.to_value()),
            ]),
            Response::Health { id, ok, reasons } => Value::Obj(vec![
                ("type".into(), Value::Str("health".into())),
                ("id".into(), opt_id(*id)),
                (
                    "status".into(),
                    Value::Str(if *ok { "ok" } else { "degraded" }.into()),
                ),
                (
                    "reasons".into(),
                    Value::Arr(reasons.iter().map(|r| Value::Str(r.clone())).collect()),
                ),
            ]),
        }
    }

    /// Parses a response payload.
    pub fn parse(payload: &[u8]) -> Result<Response, String> {
        let text = std::str::from_utf8(payload).map_err(|e| format!("not UTF-8: {e}"))?;
        let v = Value::parse(text).map_err(|e| format!("not JSON: {e}"))?;
        let id = v.get("id").and_then(Value::as_u64);
        match v.get("type").and_then(Value::as_str) {
            Some("decision") => DecisionMsg::from_value(&v).map(Response::Decision),
            Some("error") => Ok(Response::Error {
                id,
                message: v
                    .get("message")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string(),
            }),
            Some("metrics") => Ok(Response::Metrics {
                id,
                doc: MetricsDoc::from_value(v.get("doc").ok_or("missing field 'doc'")?)?,
            }),
            Some("health") => {
                let status = v
                    .get("status")
                    .and_then(Value::as_str)
                    .ok_or("missing field 'status'")?;
                let reasons = v
                    .get("reasons")
                    .and_then(Value::as_arr)
                    .map(|arr| {
                        arr.iter()
                            .map(|r| r.as_str().unwrap_or("").to_string())
                            .collect()
                    })
                    .unwrap_or_default();
                Ok(Response::Health {
                    id,
                    ok: status == "ok",
                    reasons,
                })
            }
            other => Err(format!("unknown response type {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn request() -> Request {
        Request {
            id: 7,
            policy: 1,
            offered: 6.5e8,
            premium_offered: 3.9e8,
            background_mw: vec![330.5, 410.25, 280.125],
            hourly_budget: 25_000.0,
        }
    }

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, b"world").unwrap();
        let mut cur = Cursor::new(buf);
        assert_eq!(read_frame(&mut cur, MAX_FRAME).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut cur, MAX_FRAME).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut cur, MAX_FRAME).unwrap().unwrap(), b"world");
        assert!(read_frame(&mut cur, MAX_FRAME).unwrap().is_none());
    }

    #[test]
    fn truncated_header_and_payload_are_detected() {
        let mut full = Vec::new();
        write_frame(&mut full, b"payload").unwrap();
        // Cut inside the header.
        let mut cur = Cursor::new(full[..2].to_vec());
        assert!(matches!(
            read_frame(&mut cur, MAX_FRAME),
            Err(FrameError::Truncated { .. })
        ));
        // Cut inside the payload.
        let mut cur = Cursor::new(full[..full.len() - 3].to_vec());
        assert!(matches!(
            read_frame(&mut cur, MAX_FRAME),
            Err(FrameError::Truncated { .. })
        ));
    }

    #[test]
    fn oversized_frames_are_rejected_without_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        let mut cur = Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut cur, MAX_FRAME),
            Err(FrameError::Oversized { .. })
        ));
    }

    #[test]
    fn request_round_trips_bitwise() {
        let req = request();
        let rendered = req.to_value().render();
        let back = Request::parse(rendered.as_bytes()).unwrap();
        assert_eq!(back, req);
        assert_eq!(back.offered.to_bits(), req.offered.to_bits());
        // Unlimited budget crosses as null.
        let unlimited = Request {
            hourly_budget: f64::INFINITY,
            ..req
        };
        let back = Request::parse(unlimited.to_value().render().as_bytes()).unwrap();
        assert_eq!(back.hourly_budget, f64::INFINITY);
    }

    #[test]
    fn invalid_requests_are_rejected_with_the_id() {
        let cases = [
            (r#"{"policy":1}"#, None),
            (
                r#"{"id":3,"policy":9,"offered":1.0,"premium":0.5,"background":[1.0]}"#,
                Some(3),
            ),
            (
                r#"{"id":4,"policy":1,"offered":1.0,"premium":2.0,"background":[1.0]}"#,
                Some(4),
            ),
            (
                r#"{"id":5,"policy":1,"offered":1e400,"premium":0.0,"background":[1.0]}"#,
                Some(5),
            ),
            (
                r#"{"id":6,"policy":1,"offered":1.0,"premium":0.5,"background":[]}"#,
                Some(6),
            ),
        ];
        for (payload, id) in cases {
            let err = Request::parse(payload.as_bytes()).unwrap_err();
            assert_eq!(err.id, id, "case {payload}");
        }
        assert!(Request::parse(&[0xff, 0xfe]).is_err());
        assert!(Request::parse(b"{not json").is_err());
    }

    #[test]
    fn decision_round_trips_via_response() {
        use billcap_core::{BillCapper, DataCenterSystem};
        let sys = DataCenterSystem::paper_system(1);
        let d = BillCapper::default()
            .decide_hour(&sys, 6e8, 3.6e8, &[330.0, 410.0, 280.0], f64::INFINITY)
            .unwrap();
        let msg = DecisionMsg::from_decision(9, &d, false);
        msg.bitwise_matches(&d).unwrap();
        let rendered = Response::Decision(msg.clone()).to_value().render();
        match Response::parse(rendered.as_bytes()).unwrap() {
            Response::Decision(back) => {
                assert_eq!(back, msg);
                back.bitwise_matches(&d).unwrap();
            }
            other => panic!("parsed {other:?}"),
        }
    }

    #[test]
    fn head_plus_body_is_the_rendered_decision() {
        use billcap_core::{BillCapper, DataCenterSystem};
        let sys = DataCenterSystem::paper_system(2);
        let d = BillCapper::default()
            .decide_hour(&sys, 6e8, 3.6e8, &[330.0, 410.0, 280.0], 25_000.0)
            .unwrap();
        let body = DecisionMsg::from_decision(0, &d, false).render_body();
        assert!(body.starts_with(b",\"outcome\":"));
        for id in [0, 1, 42, i64::MAX as u64, u64::MAX] {
            for cached in [false, true] {
                let mut bytes = Vec::new();
                DecisionMsg::render_head(id, cached, &mut bytes);
                bytes.extend_from_slice(&body);
                let msg = DecisionMsg::from_decision(id, &d, cached);
                assert_eq!(
                    String::from_utf8(bytes).unwrap(),
                    Response::Decision(msg).to_value().render(),
                    "id {id}, cached {cached}"
                );
            }
        }
    }

    /// The decision payload as the tree it was rendered from before the
    /// fields were written straight into bytes: the oracle for wire
    /// order and for every value's text.
    fn decision_tree(m: &DecisionMsg) -> Value {
        let floats = |v: &[f64]| Value::Arr(v.iter().map(|&f| Value::Float(f)).collect());
        Value::Obj(vec![
            ("type".into(), Value::Str("decision".into())),
            ("id".into(), Value::Int(m.id as i64)),
            ("cached".into(), Value::Bool(m.cached)),
            ("outcome".into(), Value::Str(outcome_tag(m.outcome).into())),
            ("offered".into(), Value::Float(m.offered)),
            ("premium_offered".into(), Value::Float(m.premium_offered)),
            ("premium_served".into(), Value::Float(m.premium_served)),
            ("ordinary_served".into(), Value::Float(m.ordinary_served)),
            ("budget".into(), budget_to_value(m.budget)),
            ("lambda".into(), floats(&m.lambda)),
            (
                "servers".into(),
                Value::Arr(m.servers.iter().map(|&s| Value::Int(s as i64)).collect()),
            ),
            ("power_mw".into(), floats(&m.power_mw)),
            ("price".into(), floats(&m.price)),
            (
                "level".into(),
                Value::Arr(m.level.iter().map(|&k| Value::Int(k as i64)).collect()),
            ),
            ("cost".into(), floats(&m.cost)),
            ("total_cost".into(), Value::Float(m.total_cost)),
            ("total_lambda".into(), Value::Float(m.total_lambda)),
            ("solves".into(), Value::Int(m.solves as i64)),
            ("nodes".into(), Value::Int(m.nodes as i64)),
            ("lp_iterations".into(), Value::Int(m.lp_iterations as i64)),
        ])
    }

    #[test]
    fn direct_rendering_matches_the_tree_on_edge_values() {
        let edge = [
            -0.0,
            0.0,
            5e-324,
            1e-7,
            0.1,
            1.0,
            3e8,
            1e16,
            1e21,
            -2.5e-3,
            f64::MAX,
            f64::MIN_POSITIVE,
        ];
        let outcomes = [
            HourOutcome::WithinBudget,
            HourOutcome::Throttled,
            HourOutcome::PremiumOverride,
        ];
        let mut cases = Vec::new();
        for (i, &f) in edge.iter().enumerate() {
            let g = edge[(i + 5) % edge.len()];
            cases.push(DecisionMsg {
                id: [0, 1, i64::MAX as u64, u64::MAX][i % 4],
                cached: i % 2 == 1,
                outcome: outcomes[i % 3],
                offered: f,
                premium_offered: g,
                premium_served: -f,
                ordinary_served: g,
                budget: [f, f64::INFINITY][i % 2],
                lambda: vec![f, g, 0.5],
                servers: vec![0, 17, u64::MAX],
                power_mw: vec![g],
                price: edge.to_vec(),
                level: vec![0, 2, usize::MAX],
                cost: vec![f],
                total_cost: g,
                total_lambda: f,
                solves: i,
                nodes: usize::MAX,
                lp_iterations: 0,
            });
        }
        // Every vector empty, and an unlimited budget.
        cases.push(DecisionMsg {
            id: 3,
            cached: false,
            outcome: HourOutcome::WithinBudget,
            offered: 1.0,
            premium_offered: 0.0,
            premium_served: 0.0,
            ordinary_served: 1.0,
            budget: f64::INFINITY,
            lambda: vec![],
            servers: vec![],
            power_mw: vec![],
            price: vec![],
            level: vec![],
            cost: vec![],
            total_cost: 0.0,
            total_lambda: 0.0,
            solves: 0,
            nodes: 0,
            lp_iterations: 0,
        });
        for m in &cases {
            let want = decision_tree(m).render();
            let mut bytes = Vec::new();
            DecisionMsg::render_head(m.id, m.cached, &mut bytes);
            let head_len = bytes.len();
            m.render_body_into(&mut bytes);
            assert_eq!(String::from_utf8(bytes.clone()).unwrap(), want);
            assert_eq!(m.render_body(), &bytes[head_len..]);
            assert_eq!(m.to_value().render(), want);
        }
        let unlimited = String::from_utf8(cases[1].render_body()).unwrap();
        assert!(unlimited.contains(",\"budget\":null,"), "{unlimited}");
        let empty = String::from_utf8(cases.last().unwrap().render_body()).unwrap();
        assert!(empty.contains(",\"lambda\":[],\"servers\":[],"), "{empty}");
    }

    #[test]
    fn error_responses_round_trip() {
        for id in [Some(11), None] {
            let r = Response::Error {
                id,
                message: "bad request".into(),
            };
            let back = Response::parse(r.to_value().render().as_bytes()).unwrap();
            assert_eq!(back, r);
        }
    }

    #[test]
    fn control_frames_parse_and_round_trip() {
        for (ctl, op) in [
            (ControlMsg::Metrics { id: Some(3) }, "metrics"),
            (ControlMsg::Health { id: None }, "health"),
        ] {
            let rendered = ctl.to_value().render();
            assert!(rendered.contains(op));
            assert!(ControlMsg::maybe_control(rendered.as_bytes()));
            assert_eq!(ControlMsg::parse(rendered.as_bytes()).unwrap(), Some(ctl));
        }
        // Unknown ops are rejected; op-less payloads fall through.
        assert!(ControlMsg::parse(br#"{"op":"reboot"}"#).is_err());
        assert_eq!(ControlMsg::parse(br#"{"id":1}"#).unwrap(), None);
    }

    #[test]
    fn decide_requests_never_look_like_control_frames() {
        let rendered = request().to_value().render();
        assert!(!ControlMsg::maybe_control(rendered.as_bytes()));
        let unlimited = Request {
            hourly_budget: f64::INFINITY,
            ..request()
        };
        assert!(!ControlMsg::maybe_control(
            unlimited.to_value().render().as_bytes()
        ));
    }

    #[test]
    fn metrics_responses_round_trip() {
        let mut doc = billcap_obs::MetricsDoc::new(4, 1_000_000);
        doc.counters.insert("serve.requests".into(), 168);
        doc.gauges.insert("serve.queue_depth".into(), 2.0);
        let r = Response::Metrics { id: Some(9), doc };
        let back = Response::parse(r.to_value().render().as_bytes()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn health_responses_round_trip() {
        let ok = Response::Health {
            id: None,
            ok: true,
            reasons: Vec::new(),
        };
        let degraded = Response::Health {
            id: Some(2),
            ok: false,
            reasons: vec!["trace sink dropped 3 lines".into()],
        };
        for r in [ok, degraded] {
            let back = Response::parse(r.to_value().render().as_bytes()).unwrap();
            assert_eq!(back, r);
        }
    }
}
